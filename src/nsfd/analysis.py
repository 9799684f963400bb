"""Equilibria, step-map stability, and convergence-order measurement.

The reversible step map has the same fixed points as the flow, and at a
fixed point its linearization sends each field eigenvalue lambda to

    mu = (1 + h lambda / 2) / (1 - h lambda / 2),

a Moebius map taking the left half plane onto the open unit disk for
every h > 0.  stability_report checks that equivalence numerically by
differencing the actual step map, so it exercises the full solve path
rather than the formula that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import (
    NEWTON_MAX_ITER, NewtonDivergenceError, Trajectory, _check_h, _damped_newton, _final_state, _horizon_steps,
    integrate, step_forward,
)
from .linalg import LinAlgError, SingularMatrixError, eigenvalues, fd_jacobian, lu_solve
from .model import MassActionModel, SpecError, _check_state, eval_f, f_jacobian

__all__ = [
    "EquilibriumResult",
    "StabilityRow",
    "OrderEstimate",
    "find_equilibria",
    "mu_of_lambda",
    "stability_report",
    "rk4_reference",
    "observed_order",
]

# Relative residual below which a point counts as an equilibrium.
EQUILIBRIUM_RTOL = 1e-10
# Converged equilibria closer than this (inf-norm) are duplicates.
DEDUP_ATOL = 1e-8
# Denominator magnitude below which the eigenvalue map has no value.
MU_POLE_ATOL = 1e-14
# |Re lambda| below this is too close to the imaginary axis to classify.
NEAR_HYPERBOLIC_ATOL = 1e-8
# Errors this small (relative) make the order ratio meaningless.
DEGENERATE_ERROR = 1e-13
# observed_order refuses a run whose RK4 reference, at h / 200, takes more
# steps than this, which is 1,000 steps of h.
MAX_REFERENCE_STEPS = 200_000


@dataclass(frozen=True)
class EquilibriumResult:
    """One Newton run: the point it ended at and how it got there.

    status is 'converged', 'singular' (the field Jacobian lost rank, so
    the run is inconclusive; the point may still be an equilibrium, see
    residual) or 'no-convergence'.  seed_index names the starting seed.
    """

    point: np.ndarray
    status: str
    residual: float
    seed_index: int

    def __post_init__(self) -> None:
        point = np.array(self.point, dtype=float)
        point.setflags(write=False)
        object.__setattr__(self, "point", point)
        if self.status not in ("converged", "singular", "no-convergence"):
            raise SpecError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class StabilityRow:
    """One eigenvalue pair of the stability comparison.

    lam is a field eigenvalue at the equilibrium, mu_predicted its image
    under the eigenvalue map, mu_measured the nearest eigenvalue of the
    differenced step map.  consistent records whether Re(lam) < 0 and
    |mu_measured| < 1 agree; ambiguous means the pairing had a close
    runner-up (distance ratio below 2); near_nonhyperbolic means lam is
    too close to the imaginary axis for the classification to be firm.
    """

    lam: complex
    mu_predicted: complex
    mu_measured: complex
    h: float
    continuous_stable: bool
    discrete_stable: bool
    consistent: bool
    ambiguous: bool
    near_nonhyperbolic: bool


@dataclass(frozen=True)
class OrderEstimate:
    """Richardson order estimate from errors at step sizes h and h/2.

    p_hat = log2(error_h / error_h2); defined is False (and p_hat NaN)
    when either error is too small for the ratio to mean anything.
    t_effective is the horizon actually integrated, steps * h with
    steps rounded from T / h.
    """

    h: float
    error_h: float
    error_h2: float
    p_hat: float
    t_effective: float
    scheme: str
    defined: bool


def find_equilibria(
    model: MassActionModel, seeds, max_iter: int = NEWTON_MAX_ITER
) -> list[EquilibriumResult]:
    """Damped Newton on the field from each seed, deduplicated.

    Convergence means ``||f(x)||_inf <= NEWTON_TOL * (1 + ||x||_inf)``.  A
    singular field Jacobian, during the iteration or at the converged
    point, yields status 'singular': on an equilibrium continuum the
    Jacobian is rank-deficient and a single point is not an isolated
    answer.  Converged results within DEDUP_ATOL of an earlier one are
    dropped.  A Newton iterate that overflows raises LinAlgError naming
    its seed.
    """
    results: list[EquilibriumResult] = []
    for seed_index, seed in enumerate(seeds):
        try:
            x, rnorm, outcome = _damped_newton(
                lambda v: eval_f(model, v), lambda v: f_jacobian(model, v), _check_state(model, seed),
                max_iter,
            )
        except LinAlgError as exc:
            raise LinAlgError(f"Newton iteration from seed {seed_index}: {exc}") from exc
        status = "singular" if isinstance(outcome, SingularMatrixError) else outcome
        if status == "converged":
            try:
                lu_solve(f_jacobian(model, x), np.zeros(model.n))
            except SingularMatrixError:
                status = "singular"
        if status == "converged" and any(
            res.status == "converged"
            and float(np.abs(res.point - x).max()) < DEDUP_ATOL
            for res in results
        ):
            continue
        results.append(EquilibriumResult(point=x, status=status, residual=rnorm, seed_index=seed_index))
    return results


def mu_of_lambda(lam, h: float) -> complex:
    """Image of a field eigenvalue under the step map's eigenvalue map.

    Raises LinAlgError at the pole (|1 - h lam / 2| below MU_POLE_ATOL).
    """
    lam = complex(lam)
    h = float(h)
    if not (math.isfinite(h) and h >= 0.0):
        raise SpecError(f"h must be a nonnegative real, got {h}")
    denom = 1.0 - 0.5 * h * lam
    if abs(denom) < MU_POLE_ATOL:
        raise LinAlgError(f"eigenvalue map has a pole at lambda={lam}, h={h}")
    return (1.0 + 0.5 * h * lam) / denom


def _pair_eigenvalues(predicted, measured) -> list[tuple[int, int, bool]]:
    """Greedy globally-nearest matching in the mu plane.

    Returns (predicted index, measured index, ambiguous) in the order
    taken.  Each round takes the ``argmin`` of the distance matrix, whose
    row-major order breaks ties by the smaller (row, column), and sets
    the taken row and column to inf.  A free runner-up in the same row
    at less than twice the chosen distance marks the pair ambiguous.
    The distances must be finite, so that inf marks only taken entries.
    """
    predicted = np.asarray(predicted, dtype=complex)
    measured = np.asarray(measured, dtype=complex)
    n = predicted.size
    dist = np.abs(predicted[:, None] - measured[None, :])
    pairs: list[tuple[int, int, bool]] = []
    for _ in range(n):
        i, j = divmod(int(dist.argmin()), n)
        d = dist[i, j]
        dist[i, j] = np.inf
        pairs.append((i, j, bool(dist[i].min() < 2.0 * d)))
        dist[i] = np.inf
        dist[:, j] = np.inf
    return pairs


def _is_equilibrium(x: np.ndarray, fnorm: float) -> bool:
    """Whether ``fnorm = ||f(x)||_inf`` is within EQUILIBRIUM_RTOL (1 + ||x||_inf).

    Written so that a NaN residual, from an overflowing field, fails.
    """
    return fnorm <= EQUILIBRIUM_RTOL * (1.0 + float(np.abs(x).max()))


def stability_report(model: MassActionModel, x_bar, h: float) -> list[StabilityRow]:
    """Compare field eigenvalues with measured step-map eigenvalues at x_bar.

    x_bar must be an equilibrium (relative residual EQUILIBRIUM_RTOL).
    The step-map Jacobian comes from central differences of the actual
    forward step, independent of the analytic assembly.  Rows are sorted
    by (Re, Im) of the field eigenvalue.

    Raises
    ------
    SpecError
        If x_bar is not an equilibrium to the required residual.
    LinAlgError
        If the field Jacobian at x_bar is not finite, as when a sum of its
        coefficients overflows, or if a predicted step-map eigenvalue is
        not finite, which happens only when h * lambda overflows.
    EigenConvergenceError
        Propagated from the eigensolver.
    """
    x = _check_state(model, x_bar)
    fnorm = float(np.abs(eval_f(model, x)).max())
    if not _is_equilibrium(x, fnorm):
        raise SpecError(
            f"x_bar is not an equilibrium: ||f||={fnorm:.3e} exceeds the tolerance"
        )
    h = _check_h(h)
    jacobian = f_jacobian(model, x)
    if not np.isfinite(jacobian).all():
        raise LinAlgError("the field Jacobian is not finite at the equilibrium")
    lams = eigenvalues(jacobian)
    step_jac = fd_jacobian(lambda v: step_forward(model, v, h), x)
    mus_measured = eigenvalues(step_jac)
    mus_predicted = np.array([mu_of_lambda(lam, h) for lam in lams])
    if not np.isfinite(mus_predicted).all():
        raise LinAlgError(f"a predicted step-map eigenvalue is not finite at h={h:g}")
    rows = []
    for i, j, ambiguous in _pair_eigenvalues(mus_predicted, mus_measured):
        lam = complex(lams[i])
        mu_meas = complex(mus_measured[j])
        continuous_stable = lam.real < 0.0
        discrete_stable = abs(mu_meas) < 1.0
        rows.append(
            StabilityRow(
                lam=lam,
                mu_predicted=complex(mus_predicted[i]),
                mu_measured=mu_meas,
                h=h,
                continuous_stable=continuous_stable,
                discrete_stable=discrete_stable,
                consistent=continuous_stable == discrete_stable,
                ambiguous=ambiguous,
                near_nonhyperbolic=abs(lam.real) < NEAR_HYPERBOLIC_ATOL,
            )
        )
    rows.sort(key=lambda row: (row.lam.real, row.lam.imag))
    return rows


def _run_steps(T: float, h: float) -> tuple[float, int]:
    """The checked h and ``round(T / h)``, its steps in the horizon T; a T that holds none or too many is refused."""
    if not (math.isfinite(T) and T > 0.0):
        raise SpecError(f"T must be positive and finite, got {T}")
    h = _check_h(h)
    steps = _horizon_steps(T, h)
    if steps < 1:
        raise SpecError(f"horizon T={T:g} holds no step of size h={h:g}; use a smaller h or a longer horizon")
    return h, steps


def rk4_reference(model: MassActionModel, x0, h_ref: float, T: float) -> Trajectory:
    """Reference trajectory from the classical 4-stage explicit scheme, over round(T / h_ref) steps."""
    return integrate(model, x0, *_run_steps(T, h_ref), scheme="rk4")


def observed_order(
    model: MassActionModel,
    x0,
    T: float,
    h: float,
    scheme: str = "nsfd",
) -> OrderEstimate:
    """Richardson order estimate against a fine reference at time T.

    Runs the scheme with steps of h and h/2 over steps = round(T / h)
    and 2 * steps, measures both final states against the reference at
    h / 200, and reports p_hat = log2(error_h / error_h2).  When T / h
    is not an integer the horizon becomes t_effective = steps * h for
    all three runs, and a T that holds no step of h is refused.  Errors
    below DEGENERATE_ERROR (relative) leave the estimate undefined instead
    of producing a noise-driven exponent.  A reference of more than
    MAX_REFERENCE_STEPS steps is refused before any run.  A numerical
    failure of a run is re-raised with the run's name prepended: "run at
    h", "run at h/2" or "reference run at h/200".
    """
    h, steps = _run_steps(T, h)
    t_effective = steps * h
    h_ref = h / 200.0
    ref_steps = _horizon_steps(t_effective, h_ref)
    if ref_steps > MAX_REFERENCE_STEPS:
        raise SpecError(
            f"the reference run at h/200 would take {ref_steps} steps, more than "
            f"{MAX_REFERENCE_STEPS}; use a larger h or a shorter horizon"
        )
    # The final states of integrate and rk4_reference, with their errors, without their orbits.
    finals = []
    for name, run_h, run_steps, run_scheme in (
        ("run at h", h, steps, scheme),
        ("run at h/2", 0.5 * h, 2 * steps, scheme),
        ("reference run at h/200", h_ref, ref_steps, "rk4"),
    ):
        try:
            finals.append(_final_state(model, x0, run_h, run_steps, run_scheme))
        except (LinAlgError, NewtonDivergenceError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
    coarse, fine, ref = finals
    error_h = float(np.abs(coarse - ref).max())
    error_h2 = float(np.abs(fine - ref).max())
    scale = 1.0 + float(np.abs(ref).max())
    defined = min(error_h, error_h2) > DEGENERATE_ERROR * scale
    p_hat = math.log2(error_h / error_h2) if defined else math.nan
    return OrderEstimate(
        h=h,
        error_h=error_h,
        error_h2=error_h2,
        p_hat=p_hat,
        t_effective=t_effective,
        scheme=scheme,
        defined=defined,
    )
