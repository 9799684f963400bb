"""Seeded inputs, independent references and output checks of the three workloads.

Each workload draws all of its inputs from the run's seed before timing
starts.  The program under test sees only the command lines and files
built here.  A workload class offers:

* ``ops(i)``: the argument lists of op i, one or two ``nsfd.cli.main`` calls;
* ``check(i)``: problems found in the files op i wrote, empty when correct;
* ``state_steps(i)``: map applications op i took, read from its outputs;
* ``corrupt()``: damage the last outputs, which ``check`` must then reject;
* ``exact_counts(i)``: per-layer counts a traced op i must reproduce exactly;
* ``build_model``: code that builds or loads the model in a fresh interpreter;
* ``n``: the state dimension.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Host-vector parameters as documented for the built-in model: Lambda_v,
# mu_v, p, Lambda, mu, q, alpha, gamma, M_v, M.  Restated here so that the
# trajectory reference does not depend on the package's model code.
HV = dict(Lambda_v=2.0, mu_v=0.2, p=0.05, Lambda=1.0, mu=0.1, q=0.03, alpha=0.2, gamma=0.05, M_v=10.0, M=10.0)

# Metapopulation SIR of the network workload.
PATCHES = 10
SOURCES = 3  # random patches infecting each patch, besides itself
BETA_RANGE = (0.005, 0.03)
ALPHA, GAMMA, LAMBDA, CAP = 0.2, 0.05, 1.0, 10.0
# Each patch draws its own mortality.  With one common mu the field
# Jacobian at the DFE has the eigenvalue -mu ten times over, and the QR
# eigensolver stalls on about 1 model in 9 (see KNOWN_DEFECTS).  mu >= 0.1
# keeps the carrying capacity LAMBDA / mu within CAP.
MU_RANGE = (0.1, 0.11)

# Acceptance window of the observed order (the C1 gate).
ORDER_WINDOW = (1.85, 2.15)
# Domain membership slack, scaled by 1 + |x|, as the package's audit uses.
MEMBERSHIP_SLACK = 1e-12
# Relative agreement of the final state with the numpy reference.
FINAL_RTOL = 1e-9
TANGENT_SAMPLES = 256  # the invariance subcommand's default
POOL = 8  # distinct seeded start points per run, used round-robin


class Spec:
    """Plain mass-action data: terms (i, j, k, c), linear part, constant, caps."""

    def __init__(self, labels, terms, linear, constant, caps):
        self.labels = list(labels)
        self.terms = [(int(i), int(j), int(k), float(c)) for i, j, k, c in terms]
        self.linear = np.asarray(linear, dtype=float)
        self.constant = np.asarray(constant, dtype=float)
        self.caps = [(np.asarray(normal, dtype=float), float(bound)) for normal, bound in caps]
        self.n = len(self.labels)
        ti, tj, tk, tc = (np.array(v) for v in zip(*self.terms))
        self._idx = (ti.astype(np.intp), tj.astype(np.intp), tk.astype(np.intp), tc.astype(float))

    def as_document(self, name: str) -> dict:
        return {
            "name": name,
            "dim": self.n,
            "labels": self.labels,
            "bilinear": [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in self.terms],
            "linear": self.linear.tolist(),
            "constant": self.constant.tolist(),
            "domain": {
                "nonnegative": True,
                "constraints": [{"normal": u.tolist(), "bound": b} for u, b in self.caps],
            },
        }

    def box_upper(self) -> np.ndarray:
        # Every cap used here has 0/1 normals, so x_i <= the smallest bound covering i.
        upper = np.full(self.n, np.inf)
        for u, b in self.caps:
            upper[u > 0.0] = np.minimum(upper[u > 0.0], b)
        return upper

    def h_bar(self) -> float:
        """Safe step bound: 1 / max column sum of sup |S(x)| over the domain box."""
        upper = self.box_upper()
        lo = 0.5 * self.linear.copy()
        hi = lo.copy()
        for i, j, k, c in self.terms:
            for col, var in ((k, j), (j, k)):
                v = 0.5 * c * upper[var]
                lo[i, col] += min(0.0, v)
                hi[i, col] += max(0.0, v)
        return 1.0 / float(np.maximum(np.abs(lo), np.abs(hi)).sum(axis=0).max())

    def forward_step(self, x: np.ndarray, h: float) -> np.ndarray:
        """Reference step: solve (I - h S(x)) x' = (I + h/2 L) x + h b with numpy."""
        ti, tj, tk, tc = self._idx
        s = 0.5 * self.linear.copy()
        np.add.at(s, (ti, tk), 0.5 * tc * x[tj])
        np.add.at(s, (ti, tj), 0.5 * tc * x[tk])
        rhs = x + 0.5 * h * (self.linear @ x) + h * self.constant
        return np.linalg.solve(np.eye(self.n) - h * s, rhs)

    def domain_violation(self, states: np.ndarray) -> float:
        """Largest excess of any row over the domain, in units of its slack."""
        slack = MEMBERSHIP_SLACK * (1.0 + np.abs(states).max(axis=1))
        worst = (-states).max(axis=1) / slack
        for u, b in self.caps:
            worst = np.maximum(worst, (states @ u - b) / slack)
        return float(worst.max())


def host_vector_spec() -> Spec:
    p = HV
    linear = np.zeros((5, 5))
    linear[0, 0] = linear[1, 1] = -p["mu_v"]
    linear[2, 2] = -p["mu"]
    linear[2, 4] = p["gamma"]
    linear[3, 3] = -(p["mu"] + p["alpha"])
    linear[4, 3] = p["alpha"]
    linear[4, 4] = -(p["mu"] + p["gamma"])
    return Spec(
        labels=("S_v", "I_v", "S", "I", "R"),
        terms=[(0, 3, 0, -p["p"]), (1, 3, 0, p["p"]), (2, 1, 2, -p["q"]), (3, 1, 2, p["q"])],
        linear=linear,
        constant=[p["Lambda_v"], 0.0, p["Lambda"], 0.0, 0.0],
        caps=[((1, 1, 0, 0, 0), p["M_v"]), ((0, 0, 1, 1, 1), p["M"])],
    )


def network_spec(rng: np.random.Generator, mu_range=MU_RANGE) -> Spec:
    """Metapopulation SIR: patch p holds (S_p, I_p, R_p) at indices 3p, 3p+1, 3p+2."""
    n = 3 * PATCHES
    linear = np.zeros((n, n))
    constant = np.zeros(n)
    terms = []
    for p in range(PATCHES):
        s, i = 3 * p, 3 * p + 1
        others = [q for q in range(PATCHES) if q != p]
        for q in [p, *rng.choice(others, SOURCES, replace=False).tolist()]:
            beta = float(rng.uniform(*BETA_RANGE))
            # The infective factor takes the first slot, as in the built-in models.
            terms.append((s, 3 * q + 1, s, -beta))
            terms.append((i, 3 * q + 1, s, beta))
    for p, mu in enumerate(rng.uniform(*mu_range, size=PATCHES)):
        s, i, r = 3 * p, 3 * p + 1, 3 * p + 2
        linear[s, s] = -mu
        linear[s, r] = GAMMA
        linear[i, i] = -(mu + ALPHA)
        linear[r, i] = ALPHA
        linear[r, r] = -(mu + GAMMA)
        constant[s] = LAMBDA
    caps = [([1.0 if m // 3 == p else 0.0 for m in range(n)], CAP) for p in range(PATCHES)]
    return Spec([f"{c}{p}" for p in range(PATCHES) for c in "SIR"], terms, linear, constant, caps)


def disease_free(spec: Spec) -> np.ndarray:
    """S_p = LAMBDA / mu_p, no infection, no recovered."""
    dfe = np.zeros(spec.n)
    dfe[0::3] = LAMBDA / -np.diag(spec.linear)[0::3]
    return dfe


def _interior(rng: np.random.Generator, sizes_caps) -> np.ndarray:
    # Each capped group gets a random share of its cap, split at random.
    parts = []
    for size, cap in sizes_caps:
        parts.append(cap * rng.uniform(0.3, 0.95) * rng.dirichlet(np.ones(size + 1))[:size])
    return np.concatenate(parts)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Trajectory:
    name = "trajectory"
    H = 0.5  # 0.375 * h_bar of host-vector
    build_model = "from nsfd.models import make_builtin\nmodel = make_builtin('host-vector')"

    def __init__(self, seed: int, workdir: str, steps: int = 10000):
        rng = np.random.default_rng(seed)
        self.spec = host_vector_spec()
        self.n = self.spec.n
        self.steps = steps
        self.x0s = [_interior(rng, ((2, HV["M_v"]), (3, HV["M"]))) for _ in range(POOL)]
        self.out = os.path.join(workdir, "trajectory.csv")
        self._finals: dict[int, np.ndarray] = {}

    def ops(self, i: int) -> list[list[str]]:
        x0 = _csv(self.x0s[i % POOL])
        return [["simulate", "--builtin", "host-vector", "--x0", x0, "--h", repr(self.H),
                 "--steps", str(self.steps), "--out", self.out]]

    def reference_final(self, i: int) -> np.ndarray:
        k = i % POOL
        if k not in self._finals:
            x = self.x0s[k].copy()
            for _ in range(self.steps):
                x = self.spec.forward_step(x, self.H)
            self._finals[k] = x
        return self._finals[k]

    def check(self, i: int) -> list[str]:
        with open(self.out, encoding="utf-8") as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        problems = []
        if header != "t," + ",".join(self.spec.labels):
            problems.append(f"header {header!r}")
        if rows.shape != (self.steps + 1, self.spec.n + 1):
            return problems + [f"CSV shape {rows.shape}"]
        times = self.H * np.arange(self.steps + 1)
        if np.abs(rows[:, 0] - times).max() > 1e-9 * (1.0 + times[-1]):
            problems.append("time column is not k*h")
        states = rows[:, 1:]
        if not np.array_equal(states[0], self.x0s[i % POOL]):
            problems.append("first row is not x0")
        excess = self.spec.domain_violation(states)
        if not excess <= 1.0:
            problems.append(f"a row leaves the domain ({excess:.3g} slacks)")
        ref = self.reference_final(i)
        gap = float(np.abs(states[-1] - ref).max())
        if not gap <= FINAL_RTOL * float(np.abs(ref).max()):
            problems.append(f"final state differs from the numpy reference by {gap:.3e}")
        return problems

    def state_steps(self, i: int) -> int:
        with open(self.out, encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 2  # header and the start row

    def corrupt(self) -> None:
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-6))
        lines[-1] = ",".join(cells)
        with open(self.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def exact_counts(self, i: int) -> dict[str, int]:
        return {"linalg.lu_solve.calls": self.steps, "integrator.step_forward.calls": self.steps}


class Audit:
    name = "audit"
    H = 0.5
    build_model = Trajectory.build_model

    def __init__(self, seed: int, workdir: str, trials: int = 1000, steps: int = 1000):
        rng = np.random.default_rng(seed)
        self.trials, self.steps = trials, steps
        self.n = host_vector_spec().n
        self.audit_state_steps = trials * steps
        self.seeds = rng.integers(0, 2**31 - 1, size=1000).tolist()
        self.out = os.path.join(workdir, "audit.json")

    def ops(self, i: int) -> list[list[str]]:
        return [["invariance", "--builtin", "host-vector", "--h", repr(self.H),
                 "--trials", str(self.trials), "--steps", str(self.steps),
                 "--seed", str(self.seeds[i % len(self.seeds)]), "--out", self.out]]

    def check(self, i: int) -> list[str]:
        doc = _read_json(self.out)
        audit = doc["audit"]
        problems = []
        echoed = (audit["trials"], audit["steps"], audit["seed"])
        if echoed != (self.trials, self.steps, self.seeds[i % len(self.seeds)]):
            problems.append(f"trials, steps, seed echoed as {echoed}")
        if audit["exit_count"] != 0:
            problems.append(f"exit_count {audit['exit_count']}")
        for key in ("continuous_tangent", "discrete_tangent"):
            report = doc[key]
            if report is None or report["passed"] is not True or report["samples"] != TANGENT_SAMPLES:
                problems.append(f"{key} did not pass on {TANGENT_SAMPLES} samples")
        return problems

    def state_steps(self, i: int) -> int:
        return self.audit_state_steps  # every trial runs every step when none exits

    def corrupt(self) -> None:
        doc = _read_json(self.out)
        doc["audit"]["exit_count"] = 1
        with open(self.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def exact_counts(self, i: int) -> dict[str, int]:
        return {
            "linalg.lu_solve_batch.rows": self.audit_state_steps + TANGENT_SAMPLES,
            "integrator.step_forward_batch.rows": self.audit_state_steps,
            "linalg.lu_solve.calls": 0,
        }


class Network:
    name = "network"
    ORDER_STEPS = 5
    REFERENCE_FACTOR = 200  # observed_order's reference runs at h / 200

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.spec = network_spec(rng)
        self.n = self.spec.n
        self.h = 0.5 * self.spec.h_bar()
        self.dfe = disease_free(self.spec)
        self.x0s = [_interior(rng, [(3, CAP)] * PATCHES) for _ in range(POOL)]
        self.model_path = os.path.join(workdir, "network-model.json")
        with open(self.model_path, "w", encoding="utf-8") as fh:
            json.dump(self.spec.as_document("metapop-sir"), fh)
        self.out_stability = os.path.join(workdir, "stability.json")
        self.out_order = os.path.join(workdir, "order.json")
        self.build_model = f"from nsfd.model import load_model\nmodel = load_model({self.model_path!r})"

    def ops(self, i: int) -> list[list[str]]:
        h = repr(self.h)
        return [
            ["stability", "--model", self.model_path, "--x0", _csv(self.dfe), "--h", h,
             "--out", self.out_stability],
            ["order", "--model", self.model_path, "--x0", _csv(self.x0s[i % POOL]),
             "--t-final", repr(self.ORDER_STEPS * self.h), "--h", h, "--out", self.out_order],
        ]

    def check(self, i: int) -> list[str]:
        stab = _read_json(self.out_stability)
        order = _read_json(self.out_order)
        problems = []
        if stab["equilibrium_status"] != "converged":
            problems.append(f"equilibrium status {stab['equilibrium_status']!r}")
        if stab["all_consistent"] is not True or len(stab["rows"]) != self.spec.n:
            problems.append("stability rows are not all consistent")
        p_hat = order["p_hat"]
        if order["defined"] is not True or not (
            isinstance(p_hat, float) and ORDER_WINDOW[0] <= p_hat <= ORDER_WINDOW[1]
        ):
            problems.append(f"order estimate {p_hat!r} outside {ORDER_WINDOW}")
        if stab["h"] != self.h or order["h"] != self.h:
            problems.append("h not echoed")
        return problems

    def state_steps(self, i: int) -> int:
        # order: coarse, half-step and reference runs; stability: two
        # forward steps per column of the differenced step map.
        order = _read_json(self.out_order)
        steps = round(order["t_effective"] / order["h"])
        rows = len(_read_json(self.out_stability)["rows"])
        return steps * (1 + 2 + self.REFERENCE_FACTOR) + 2 * rows

    def corrupt(self) -> None:
        order = _read_json(self.out_order)
        order["p_hat"] = 1.5
        with open(self.out_order, "w", encoding="utf-8") as fh:
            json.dump(order, fh)

    def exact_counts(self, i: int) -> dict[str, int]:
        return {"linalg.eigenvalues.calls": 2, "linalg.lu_solve_batch.calls": 0}

    def defect_probe(self) -> tuple[str, list[str]]:
        """The stability op on a common-mu model on which the QR eigensolver stalls."""
        spec = network_spec(np.random.default_rng(DEFECT_SEED), mu_range=(MU_RANGE[0], MU_RANGE[0]))
        path = self.model_path.replace(".json", "-common-mu.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec.as_document("metapop-sir-common-mu"), fh)
        case = f"stability on the common-mu network model of generator seed {DEFECT_SEED}"
        return case, ["stability", "--model", path, "--x0", _csv(disease_free(spec)),
                      "--h", repr(0.5 * spec.h_bar()), "--out", self.out_stability]


WORKLOADS = {cls.name: cls for cls in (Trajectory, Audit, Network)}

# Small instances of the same operations: warm-up and checker self-test.
SMALL = {"trajectory": {"steps": 100}, "audit": {"trials": 10, "steps": 10}, "network": {}}

# Generator seed whose common-mu network model stalls the eigensolver.
DEFECT_SEED = 42

KNOWN_DEFECTS = [
    "invariance and reversibility on the network model exit 1 with 'could not draw 100 "
    "interior points after 1000 batches': sample_interior rejection-samples the bounding "
    "box, which accepts about (1/6)^10 of draws for 10 capped patches; the audit workload "
    "therefore runs on host-vector",
    "stability on the network model with one common mu exits 2 with 'no deflation after "
    "3000 sweeps' for 23 of generator seeds 0-199: the QR eigensolver stalls on the ten-fold "
    "eigenvalue -mu at the DFE or on its image in the step map; the workload draws mu per "
    "patch instead, and each network run repeats seed 42's common-mu case as a probe",
]
