"""Domain-invariance checks on convex polyhedral state domains.

Two complementary views of "trajectories stay in D":

* tangent conditions, checked pointwise on the boundary: the field must
  not point outward (``n(x) . f(x) <= 0``), and the backward step must
  not land inward (``n(x) . (F(-h, x) - x) >= 0``), each with the
  facet's outward normal n(x);
* an empirical audit that integrates a batch of trajectories from
  random interior starts and records every exit from the domain.

Facets of D are the coordinate planes ``x_i = 0`` (outward normal -e_i)
and the active planes ``u . x = bound`` of the linear constraints
(outward normal u).  Corner points are checked against every facet that
is active there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import _check_h, _explicit_step, step_backward_batch, step_bound, step_forward_batch
from .model import Domain, MassActionModel, SpecError, _on_rows, _tight_box

__all__ = [
    "Facet",
    "TangentReport",
    "AuditReport",
    "facets",
    "sample_boundary",
    "sample_interior",
    "continuous_tangent",
    "discrete_tangent",
    "invariance_audit",
    "AUDIT_SCHEMES",
]

AUDIT_SCHEMES = ("nsfd", "euler", "rk4")

# Membership slack: exits by round-off alone must not count.
MEMBERSHIP_SLACK = 1e-12
# A facet counts as active at x when its equality holds to this scale.
ACTIVITY_ATOL = 1e-12
# Default tangent tolerance factor (scaled by 1 + max |x|).
TANGENT_TOL = 1e-10
# Stored exit records are capped; exit_count still counts all of them.
MAX_STORED_EXITS = 100

_SAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class Facet:
    """One face ``normal . x = bound`` of the domain polyhedron, normal outward.

    bound is 0 for the coordinate facets and the constraint's bound for
    the others.
    """

    kind: str
    index: int
    normal: np.ndarray
    bound: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("coordinate", "constraint"):
            raise SpecError(f"facet kind must be 'coordinate' or 'constraint', got {self.kind!r}")
        normal = np.array(self.normal, dtype=float)
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)


@dataclass(frozen=True)
class TangentReport:
    """Boundary check summary.

    violations holds (point, facet index, value) triples, one per
    violating (point, facet) pair, as equal samples repeat one; the facet
    index refers to the order of :func:`facets`.  For the continuous
    check a violation is a facet value above the tolerance and
    worst_value is the largest value (want <= 0); for the discrete
    check a violation is a sample whose backward image lies strictly
    inside the domain, listed once per active facet, and worst_value is
    the smallest facet value.
    """

    samples: int
    worst_value: float
    worst_point: np.ndarray
    violations: tuple[tuple[np.ndarray, int, float], ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a batched trajectory audit.

    exits holds (trial, step, margin) for the first exit of each exited
    trial, capped at MAX_STORED_EXITS records; exit_count counts all of
    them.  worst_margin is the smallest domain margin seen anywhere,
    including trajectories that never left.
    """

    trials: int
    steps: int
    h: float
    scheme: str
    seed: int
    exit_count: int
    exits: tuple[tuple[int, int, float], ...]
    worst_margin: float
    worst_trial: int
    worst_step: int

    @property
    def passed(self) -> bool:
        return self.exit_count == 0

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "steps": self.steps,
            "h": self.h,
            "scheme": self.scheme,
            "seed": self.seed,
            "exit_count": self.exit_count,
            "exits": [
                {"trial": t, "step": s, "margin": m} for t, s, m in self.exits
            ],
            "worst_margin": self.worst_margin,
            "worst_trial": self.worst_trial,
            "worst_step": self.worst_step,
        }


def facets(domain: Domain) -> tuple[Facet, ...]:
    """All facets of the domain: coordinate planes first, then constraints."""
    out = []
    for i, flag in enumerate(domain.nonnegative):
        if flag:
            normal = np.zeros(domain.n)
            normal[i] = -1.0
            out.append(Facet(kind="coordinate", index=i, normal=normal))
    for c, con in enumerate(domain.constraints):
        out.append(Facet(kind="constraint", index=c, normal=con.normal_array, bound=con.bound))
    return tuple(out)


def _require_compact(domain: Domain, what: str) -> None:
    if not domain.is_compact:
        raise SpecError(f"{what} needs a compact domain (bounded box in every component)")


def _draw(normals, bounds, box, rng: np.random.Generator, count: int, where: str = "interior points"):
    """``count`` uniform points of ``0 <= x <= box``, ``normals @ x <= bounds``, shape (count, n).

    Rows are drawn uniformly from a product set that contains the target
    set, and those breaking a cap ``u . x <= c`` are rejected.  A block is
    a cap with a nonnegative normal drawn exactly as ``x_i = c w_i / u_i``
    from normalized standard exponentials w (Devroye, *Non-Uniform Random
    Variate Generation*, 1986, ch. V §2): d + 1 weights for a support of
    size d, the extra one being the slack.  The other coordinates are
    uniform in the box.  In constraint order, a cap whose simplex lies
    inside the box is a block unless an earlier block shares its support.
    Then a cap whose simplex reaches past the box, but has no more volume
    than the box on the same coordinates, is a block too, in place of any
    blocks it meets if it saves more log volume than they do together; its
    rows past the box break the cap that set the box there.  So no domain
    accepts fewer draws than under box rejection.
    """
    caps = {}
    for c, (u, bound) in enumerate(zip(normals, bounds)):
        if np.any(u < 0.0):
            continue
        coords = np.flatnonzero(u > 0.0)
        # Log of the box's volume over the simplex's; a zero bound gives inf.
        with np.errstate(all="ignore"):
            gain = math.lgamma(coords.size + 1) - np.log(bound / u[coords] / box[coords]).sum()
        in_box = bool(np.all(bound / u[coords] <= box[coords]))
        caps[c] = (frozenset(coords.tolist()), gain, in_box, (coords, bound / u[coords], coords.size + 1))
    chosen: list[int] = []
    for c, (support, gain, in_box, _) in caps.items():
        if in_box and all(caps[b][0].isdisjoint(support) for b in chosen):
            chosen.append(c)
    for c, (support, gain, in_box, _) in caps.items():
        rivals = [b for b in chosen if not caps[b][0].isdisjoint(support)]
        total = sum(caps[b][1] for b in rivals)
        if not in_box and (gain > total if rivals else gain >= 0.0):
            chosen = [b for b in chosen if b not in rivals] + [c]
    blocks = [caps[c][3] for c in caps if c in chosen]
    size = max(count, 64)
    rows: list[np.ndarray] = []
    try:
        for _ in range(_SAMPLE_ATTEMPTS):
            draw = rng.random((size, box.size)) * box
            keep = np.ones(size, dtype=bool)
            for coords, scale, weights in blocks:
                w = rng.standard_exponential((size, weights))
                total = w.sum(axis=1, keepdims=True)
                # All-zero weights, at probability 2^-53 per weight, would give NaN.
                keep &= total[:, 0] > 0.0
                draw[:, coords] = w[:, : coords.size] / total * scale
            for u, bound in zip(normals, bounds):
                keep &= draw @ u <= bound
            rows.append(draw[keep])
            if sum(map(len, rows)) >= count:
                return np.concatenate(rows)[:count]
    except (ValueError, MemoryError) as exc:
        raise SpecError(f"{count} points of dimension {box.size} do not fit in memory") from exc
    raise SpecError(
        f"could not draw {count} {where} after {_SAMPLE_ATTEMPTS} batches; "
        "the domain may be empty or degenerate"
    )


def _face(domain: Domain, facet: Facet):
    """The facet's face ``u . x = c`` as (normals, bounds, box, lift) for :func:`_draw`, or None.

    A coordinate facet is the face ``e_i . x = 0``.  One coordinate i of
    u's support, one no other cap uses if there is one, else the one of
    largest u_i, is put as ``(c - u_{-i} . y) / u_i`` into every cap, and
    ``u_{-i} . y <= c`` is added for ``x_i >= 0``; caps that hold everywhere
    are dropped.  :func:`_tight_box`, from the domain's box, bounds y by
    [lo, hi]; caps and box go on translated by lo, and lift adds lo back and
    puts x_i in with a constant Jacobian.  None is a face of measure zero:
    some lo_j >= hi_j, or some cap's least value on [lo, hi] is its bound or more.
    """
    u, c = np.abs(facet.normal), facet.bound
    normals, bounds = domain._caps
    support = u > 0.0
    others = np.delete(normals, facet.index, axis=0) if facet.kind == "constraint" else normals
    unused = support & ~others.any(axis=0)
    i = int(np.argmax(np.where(unused if unused.any() else support, u, 0.0)))
    ratio = normals[:, i] / u[i]
    rest = np.delete(u, i)
    normals = np.vstack([np.delete(normals - ratio[:, None] * u, i, axis=1), rest])
    bounds = np.append(bounds - ratio * c, c)
    live = normals.any(axis=1) | (bounds < 0.0)
    normals, bounds = normals[live], bounds[live]
    lo, hi = _tight_box(normals, bounds, np.zeros(rest.size), np.delete(domain.box_upper, i))
    if np.any(lo >= hi) or np.any(np.minimum(normals * lo, normals * hi).sum(axis=1) >= bounds):
        return None
    return normals, bounds - normals @ lo, hi - lo, lambda y: np.insert(
        y + lo, i, (c - (y + lo) @ rest) / u[i], axis=1
    )


def sample_boundary(domain: Domain, count: int, seed: int) -> list[tuple[np.ndarray, int]]:
    """Draw `count` boundary points, each tagged with its assigned facet index.

    Facets are visited round-robin, and each facet's share is drawn in
    one batch, uniform over its face of the domain; every constraint needs
    a nonnegative normal.  A facet gets no samples when its face is found
    to meet the domain in a set of measure zero, such as the face of a
    redundant cap or one that touches the domain in a single point; when
    every facet gets none, the domain has an empty interior and SpecError
    is raised.  Deterministic in seed.
    """
    if count < 1:
        raise SpecError(f"count must be at least 1, got {count}")
    _require_compact(domain, "boundary sampling")
    if any(np.any(con.normal_array < 0.0) for con in domain.constraints):
        raise SpecError("boundary sampling supports constraint normals with nonnegative entries only")
    rng = np.random.default_rng(seed)
    live = [(fi, face) for fi, f in enumerate(facets(domain)) if (face := _face(domain, f)) is not None]
    if not live:
        raise SpecError("the domain has an empty interior: no facet has a face to sample")
    k = len(live)
    shares = [
        lift(_draw(normals, bounds, box, rng, len(range(s, count, k)), f"points on facet {fi}"))
        for s, (fi, (normals, bounds, box, lift)) in enumerate(live[:count])
    ]
    return [(shares[s % k][s // k], live[s % k][0]) for s in range(count)]


def sample_interior(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Uniform sample of `count` interior points, shape (count, n), deterministic in seed."""
    if count < 1:
        raise SpecError(f"count must be at least 1, got {count}")
    _require_compact(domain, "interior sampling")
    return _draw(*domain._caps, domain.box_upper, np.random.default_rng(seed), count)


def _freeze_point(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    out.setflags(write=False)
    return out


def _tangent_report(
    domain: Domain, xs: np.ndarray, deltas: np.ndarray, tol: float | None, pick, excess
) -> TangentReport:
    """The report of a tangent check from its stacked boundary samples ``xs``, shape (P, n).

    A facet value ``normal . delta`` is taken at every facet active at
    each sample, in sample-then-facet order; worst_value is the one at
    index ``pick(values)``, and an entry violates when ``excess(values,
    sample indices)`` exceeds the tolerance, TANGENT_TOL times the
    largest 1 + |x| unless tol is given.
    """
    fs = facets(domain)
    normals = np.array([f.normal for f in fs])
    size = 1.0 + np.abs(xs).max(axis=1)
    active = np.abs(xs @ normals.T - [f.bound for f in fs]) <= ACTIVITY_ATOL * size[:, None]
    ps, fis = np.nonzero(active)
    values = (deltas @ normals.T)[ps, fis]
    tolerance = TANGENT_TOL * float(size.max()) if tol is None else float(tol)
    worst = pick(values)
    bad = np.flatnonzero(excess(values, ps) > tolerance)
    # Equal samples give one violating (point, facet) pair, listed at its first entry.
    first: dict = {}
    for p, fi, v in zip(ps[bad].tolist(), fis[bad].tolist(), values[bad].tolist()):
        first.setdefault((xs[p].tobytes(), fi), (_freeze_point(xs[p]), fi, v))
    return TangentReport(
        samples=xs.shape[0],
        worst_value=float(values[worst]),
        worst_point=_freeze_point(xs[ps[worst]]),
        violations=tuple(first.values()),
        tolerance=tolerance,
    )


def continuous_tangent(
    model: MassActionModel, count: int = 256, seed: int = 0, tol: float | None = None
) -> TangentReport:
    """Check ``n(x) . f(x) <= tol`` at sampled boundary points.

    A positive value means the field pushes outward across that facet.
    worst_value is the largest value seen, the last of equal ones in
    sample-then-facet order; the check passes when no evaluation exceeds
    the tolerance.
    """
    dom = model.domain
    _require_compact(dom, "the continuous tangent check")
    xs = np.stack([x for x, _ in sample_boundary(dom, count, seed)])
    return _tangent_report(
        dom, xs, _on_rows(model._f_kernel, xs), tol, lambda v: v.size - 1 - np.argmax(v[::-1]), lambda v, p: v
    )


def discrete_tangent(
    model: MassActionModel, h: float = 1e-2, count: int = 256, seed: int = 0, tol: float | None = None
) -> TangentReport:
    """Check that no boundary point has a strictly interior backward image.

    The forward map can carry an interior point onto or across a
    boundary point x only if x's backward image F(-h, x) is itself
    strictly inside the domain, so that is the violating event: a
    sample violates when margin(F(-h, x)) > tol.  A backward image
    that leaves the domain through some other facet threatens nothing;
    the backward flow is not expected to stay in the domain.

    Facet values ``n(x) . (F(-h, x) - x)`` are still evaluated at every
    active facet: worst_value is the smallest one, the first of equal
    ones in sample-then-facet order, each violation entry carries its
    facet's value, and as h -> 0 the values recover ``-h n(x) . f(x)``.
    Every reported violation has a negative value on each of its facets
    (strictly interior implies inward on all of them); the converse
    fails at finite h, where inward-pointing facet values are routine at
    points whose backward image exits elsewhere.  h must be one that
    :func:`step_bound` admits, for meaningful backward solves.
    """
    dom = model.domain
    _require_compact(dom, "the discrete tangent check")
    h, bound = _check_h(h), step_bound(model)
    if not bound.admits(h):
        raise SpecError(f"step size {h} is outside the checkable range (0, {bound.h_bar})")
    xs = np.stack([x for x, _ in sample_boundary(dom, count, seed)])
    ys = step_backward_batch(model, xs, h)
    margins = dom.margin(ys)
    return _tangent_report(dom, xs, ys - xs, tol, np.argmin, lambda v, p: margins[p])


def _exits(xs: np.ndarray, margins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The margins of the (m, n) stack ``xs``, with -inf for every non-finite row, and the rows that exit.

    A row exits when its margin is below ``-MEMBERSHIP_SLACK (1 + |x|)``,
    with |x| the largest size of its finite entries.
    """
    size = np.abs(xs).max(axis=1)
    # Rows are sanitized only when some margin or row size is not finite.
    if not (np.isfinite(margins).all() and np.isfinite(size).all()):
        finite = np.isfinite(xs).all(axis=1) & np.isfinite(margins)
        margins = np.where(finite, margins, -np.inf)
        size = np.abs(np.where(np.isfinite(xs), xs, 0.0)).max(axis=1)
    return margins, margins < -(MEMBERSHIP_SLACK * (1.0 + size))


def invariance_audit(
    model: MassActionModel,
    h: float = 1e-2,
    trials: int = 100,
    steps: int = 100,
    seed: int = 0,
    scheme: str = "nsfd",
) -> AuditReport:
    """Integrate `trials` random interior starts and count domain exits.

    Each trial records at most its first exit (step index and margin at
    that step); an exited trajectory is frozen afterwards.  Membership
    uses slack MEMBERSHIP_SLACK * (1 + |x|) so round-off alone cannot
    register as an exit; non-finite states count as exits.  h must be
    positive and finite for every scheme.  Each step advances and scans
    the stack of live trials, in one :func:`step_forward_batch` call per
    step for nsfd; the trials that exit on a step are recorded and then
    dropped from the stack, which keeps the others in trial order.  The
    report is deterministic in (seed, trials, steps, h, scheme).

    Each step scans the stack with one reduction, ``argmin`` of the
    margins, and only a step whose smallest margin is below
    -MEMBERSHIP_SLACK takes the row sizes and the exit test of
    :func:`_exits`.  Skipping them is exact.  Every exit bound
    ``-MEMBERSHIP_SLACK (1 + |x|)`` is at most -MEMBERSHIP_SLACK, so no row
    exits.  And every row is finite: the domain is compact, so each
    component is a nonnegativity facet and has a cap with a positive
    coefficient on it, and a row with a NaN or an infinite entry has
    margin NaN or -inf (:meth:`Domain.margin`), which fails the test, as
    ``argmin`` returns the first NaN.
    """
    dom = model.domain
    _require_compact(dom, "the invariance audit")
    if scheme not in AUDIT_SCHEMES:
        raise SpecError(f"audit scheme must be one of {', '.join(AUDIT_SCHEMES)}, got {scheme!r}")
    if trials < 1 or steps < 0:
        raise SpecError("audit needs trials >= 1 and steps >= 0")
    h = _check_h(h)
    xs = sample_interior(dom, trials, seed)
    # The live stack: xs[r] is the state of trial ids[r].
    ids = np.arange(trials)
    exits: list[tuple[int, int, float]] = []
    exit_count = 0
    worst_margin, worst_trial, worst_step = np.inf, -1, -1
    explicit = None if scheme == "nsfd" else _explicit_step(model, scheme)
    for step in range(steps + 1):
        if step:
            xs = step_forward_batch(model, xs, h) if explicit is None else _on_rows(explicit, xs, h, 1)
        margins = dom.margin(xs)
        j = int(np.argmin(margins))
        out = None
        if not margins[j] >= -MEMBERSHIP_SLACK:
            margins, out = _exits(xs, margins)
            j = int(np.argmin(margins))
        if margins[j] < worst_margin:
            worst_margin, worst_trial, worst_step = float(margins[j]), int(ids[j]), step
        if out is not None and out.any():
            rows = np.flatnonzero(out)[: MAX_STORED_EXITS - len(exits)]
            exits += [(trial, step, m) for trial, m in zip(ids[rows].tolist(), margins[rows].tolist())]
            exit_count += int(np.count_nonzero(out))
            xs, ids = xs[~out], ids[~out]
            if not ids.size:
                break
    return AuditReport(
        trials=trials,
        steps=steps,
        h=h,
        scheme=scheme,
        seed=seed,
        exit_count=exit_count,
        exits=tuple(exits),
        worst_margin=float(worst_margin),
        worst_trial=worst_trial,
        worst_step=worst_step,
    )
