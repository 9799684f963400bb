"""Time-reversible stepping for mass-action systems.

The update rule averages the split field between the two endpoints of a
step,

    (x' - x) / h = (phi(x', x) + phi(x, x')) / 2,

so running it with step -h from x' recovers x: the map is its own inverse
up to round-off.  For a mass-action model the rule is linear in x', which
turns each step into one linear solve:

    (I - h S(x)) x' = (I + (h/2) L) x + h b

with the step matrix S(x) = (P(x) + Q(x) + L) / 2.  The backward step is
the same system at -h.  The entries of ``I - h S(x)`` that can be
nonzero are encoded once, as the model's ``_entry_terms``, and one
generated kernel assembles the system from them, for every step of one
state and of a stack (:func:`_pattern_system`): the model's
``_step_kernel``, made on its first step, gives their values and the
right-hand side, on the n Python floats of one state or on the n (m,)
columns of a stack, with the same operations in the same order, so a
row of a stack has the bits of its state stepped alone.  No assembly
calls BLAS.  The solve (``linalg.lu_solve`` or ``lu_solve_batch`` with
the elimination schedule of the pattern, ``model._schedule``) picks
elimination or LAPACK by ``_Schedule.eliminates``.  A batch with one step
size shares it as a float.  The step checks that the system is strictly
column diagonally dominant, from the step's one ``abs`` pass over the
matrices, and the solve guard certifies from the same pass instead of
making its own; the failing row and column are worked out only when the
check fails.  Both solve matrices are dominant, hence safely
invertible, for every state in the domain box whenever h stays below
the bound computed by :func:`step_bound`.  Batch states must be finite,
as scalar ones are.

The explicit comparison schemes, Euler and RK4, run one generated
kernel per model and scheme, ``step(x, h, k)`` (:func:`_explicit_step`),
which runs k steps and writes out the rows of the model's field f(x) at
each stage, from the generator of its field kernel ``_f_kernel``, so
with its bits.  :func:`integrate` steps one state a step at a time, a
run without its orbit is one call, and the audit steps a stack on its
(m,) columns (``model._on_rows``), with the same bits per row.
The trapezoidal scheme is a general split system, solved by damped
Newton.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .linalg import (
    LinAlgError, SingularMatrixError, _kernel, fd_jacobian, lu_solve, lu_solve_batch
)
from .model import GeneralSplitSystem, MassActionModel, SpecError, _check_state, _field_source, eval_f, f_jacobian

__all__ = [
    "DominanceError",
    "NewtonDivergenceError",
    "StepBoundReport",
    "Trajectory",
    "step_matrix",
    "step_forward",
    "step_backward",
    "step_forward_batch",
    "step_backward_batch",
    "step_implicit_general",
    "step_bound",
    "integrate",
    "reversibility_residual",
    "SCHEMES",
]

SCHEMES = ("nsfd", "euler", "rk4", "trapezoidal")

# Cap applied by step_bound when nothing limits the step size (no
# bilinear terms and no linear part, or an unbounded domain box).
DEFAULT_H_MAX = 1e6

# Damped Newton: relative tolerance (scaled by 1 + ||y||_inf), pass
# budget, and the least fraction of a Newton step tried.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_MIN_DAMPING = 1.0 / 64.0


class DominanceError(LinAlgError):
    """A solve matrix lost strict column diagonal dominance.

    Raised instead of silently solving a possibly near-singular system;
    it signals a step size at or above the safe bound for this state.
    """


class NewtonDivergenceError(RuntimeError):
    """The damped Newton iteration did not meet its tolerance."""


@dataclass(frozen=True)
class StepBoundReport:
    """Safe step bound and the per-column data that produced it.

    per_column holds (column index, U_j) where U_j bounds the absolute
    column sum of the step matrix S(x) over the whole domain box; the
    bound is h_bar = 1 / max_j U_j.  capped is true when that quotient
    is unbounded and DEFAULT_H_MAX was applied instead.
    """

    h_bar: float
    per_column: tuple[tuple[int, float], ...]
    limiting_column: int
    capped: bool

    def admits(self, h: float) -> bool:
        """True when h is safe: below h_bar, or any h when the bound is capped."""
        return self.capped or h < self.h_bar

    def as_dict(self) -> dict:
        return {
            "h_bar": self.h_bar,
            "per_column": [{"column": j, "u": u} for j, u in self.per_column],
            "limiting_column": self.limiting_column,
            "capped": self.capped,
        }


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Discrete orbit with uniform spacing h, produced by one scheme.

    ``states`` is held as a read-only view: a float64 array is not
    copied, and the caller's own array keeps its write flag.
    """

    h: float
    states: np.ndarray
    scheme: str

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float).view()
        if states.ndim != 2 or states.shape[0] < 1:
            raise SpecError(f"states must be a nonempty (steps+1, n) array, got shape {states.shape}")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        if self.scheme not in SCHEMES:
            raise SpecError(f"unknown scheme {self.scheme!r} (choose from {', '.join(SCHEMES)})")

    @cached_property
    def times(self) -> np.ndarray:
        out = self.h * np.arange(self.states.shape[0])
        out.setflags(write=False)
        return out

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def step_matrix(model: MassActionModel, x) -> np.ndarray:
    """Step matrix ``S(x) = (P(x) + Q(x) + L) / 2``; the solves use I -+ h S(x)."""
    return 0.5 * f_jacobian(model, x)


def _check_h(h: float) -> float:
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise SpecError(f"h must be positive and finite, got {h}")
    return h


def _pattern_system(model: MassActionModel, x, h) -> tuple:
    """``I - h S(x)`` at ``model._schedule``'s pattern, ``(I + (h/2) L) x + h b`` and slacks, from ``_step_kernel``.

    ``x`` is one (n,) state, with a float ``h``, or an (m, n) stack, with
    a float ``h`` shared by every row or an (m,) array of them.  One state
    runs the kernel in Python floats and gets lists: the values of the
    pattern entries, in its order, and the n right-hand side values.  A
    stack runs the same code on its n contiguous (m,) columns, so every
    row gets the bits that it gets alone; its values and right-hand
    sides are laid out entries first, the values broadcast where no term
    touches an entry, and returned as (m, p) and (m, n) views of that.
    The slacks come from the schedule's one compiled ``abs`` pass
    (``_Schedule.slack_parts``), for the dominance check and the solve
    guard.  For a stack, numpy's floating-point warnings are off, as
    Python floats raise none: an overflow is caught by the check or the
    guard, as for one state.
    """
    if x.ndim == 1:
        values, rhs = model._step_kernel(x.tolist(), h)
        parts = model._schedule.slack_parts(values)
    else:
        values, rhs = np.empty((len(model._schedule.pattern), len(x))), np.empty(x.shape[::-1])
        with np.errstate(over="ignore", invalid="ignore"):
            for out, got in zip((values, rhs), model._step_kernel(list(np.ascontiguousarray(x.T)), h)):
                for row, value in zip(out, got):
                    row[...] = value
            values, rhs = values.T, rhs.T
            parts = model._schedule.slack_parts(values)
    _check_dominance(model, parts, h)
    return values, rhs, parts


def _check_dominance(model: MassActionModel, parts: tuple, h) -> None:
    """Raise DominanceError unless the smallest slack of ``parts`` is positive.

    A NaN slack fails too.  Only on failure is the offending row found,
    so that the message names the column and, for more than one row, the
    row.
    """
    if not parts[2] > 0.0:
        slack = np.reshape(parts[0], (-1, model.n))
        row = int(np.argmax(~np.all(slack > 0.0, axis=1)))
        col = int(np.argmin(slack[row]))
        where = f" of batch state {row}" if slack.shape[0] > 1 else ""
        raise DominanceError(
            f"{'forward' if np.broadcast_to(h, slack.shape[:1])[row] > 0.0 else 'backward'} solve "
            f"matrix lost strict column dominance in column {col}{where}; reduce h below the safe "
            "step bound for this state"
        )


def step_forward(model: MassActionModel, x, h: float) -> np.ndarray:
    """One reversible step of size h from x.

    Solves ``(I - h S(x)) x' = (I + (h/2) L) x + h b``.  Fixed points of
    this map are exactly the zeros of the vector field.

    Raises
    ------
    DominanceError
        When the solve matrix is not strictly column diagonally dominant
        at this state, which signals h at or above the safe regime.
    """
    return _solve_one(model, _check_state(model, x), _check_h(h))


def step_backward(model: MassActionModel, x, h: float) -> np.ndarray:
    """Inverse of :func:`step_forward`: the step of size -h from x.

    Solves ``(I + h S(x)) y = (I - (h/2) L) x - h b``; composing it with
    the forward step returns the starting state up to round-off.
    """
    return _solve_one(model, _check_state(model, x), -_check_h(h))


def _solve_one(model: MassActionModel, x: np.ndarray, h: float) -> np.ndarray:
    """The step of one checked state, with signed h, from its system in Python floats."""
    values, rhs, parts = _pattern_system(model, x, h)
    return lu_solve(values, rhs, _parts=parts, _schedule=model._schedule)


def _batch_states(model: MassActionModel, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.n:
        raise SpecError(f"expected a (m, {model.n}) state batch, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        row = int(np.argmin(np.isfinite(xs).all(axis=1)))
        raise SpecError(f"batch state {row} must have finite entries")
    return xs


def _batch_h(h, m: int):
    """A checked float for a scalar ``h``, else a checked (m,) array of step sizes."""
    h = np.asarray(h, dtype=float)
    if h.ndim == 0:
        return _check_h(h)
    if h.shape != (m,):
        raise SpecError(f"step sizes must be scalar or shape ({m},), got {h.shape}")
    if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
        raise SpecError("step sizes must be positive and finite")
    return h


def step_forward_batch(model: MassActionModel, xs, h) -> np.ndarray:
    """Vectorized :func:`step_forward` over rows of ``xs``.

    ``h`` may be a scalar or one step size per row.  A scalar is checked
    once and shared by every row as a float, with the same bits as the
    per-row array ``np.full(m, h)``.  Used by the audits, where a
    million scalar solves would dominate the runtime.
    """
    xs = _batch_states(model, xs)
    values, rhs, parts = _pattern_system(model, xs, _batch_h(h, xs.shape[0]))
    return lu_solve_batch(values, rhs, _parts=parts, _schedule=model._schedule)


def step_backward_batch(model: MassActionModel, xs, h) -> np.ndarray:
    """Vectorized :func:`step_backward` over rows of ``xs``."""
    xs = _batch_states(model, xs)
    values, rhs, parts = _pattern_system(model, xs, -_batch_h(h, xs.shape[0]))
    return lu_solve_batch(values, rhs, _parts=parts, _schedule=model._schedule)


def _norm_inf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _damped_newton(residual, jacobian, y0: np.ndarray, max_iter: int = NEWTON_MAX_ITER):
    """Damped Newton iteration for ``residual(y) = 0`` from y0.

    Each of at most max_iter passes first tests ``||r||_inf <= NEWTON_TOL
    (1 + ||y||_inf)``, then solves with ``jacobian(y)`` and takes the full
    step, halving it while the residual does not drop, down to
    NEWTON_MIN_DAMPING; the test is made once more after the last pass.
    Returns the last iterate, its residual norm and the outcome:
    'converged', 'no-convergence', or the SingularMatrixError of the
    Newton solve.  An iterate that is not finite, from an overflow,
    raises LinAlgError before ``residual`` sees it: a numerical failure,
    not a bad argument.  An error raised by ``jacobian`` itself
    propagates.
    """

    def evaluate(y: np.ndarray):
        if not np.isfinite(y).all():
            raise LinAlgError("state is not finite")
        r = residual(y)
        return r, _norm_inf(r)

    y = y0
    r, rnorm = evaluate(y)
    for _ in range(max_iter):
        if rnorm <= NEWTON_TOL * (1.0 + _norm_inf(y)):
            return y, rnorm, "converged"
        jac = jacobian(y)
        try:
            delta = lu_solve(jac, -r)
        except SingularMatrixError as exc:
            return y, rnorm, exc
        alpha = 1.0
        while True:
            y_trial = y + alpha * delta
            r_trial, rnorm_trial = evaluate(y_trial)
            if rnorm_trial < rnorm or alpha <= NEWTON_MIN_DAMPING:
                break
            alpha *= 0.5
        y, r, rnorm = y_trial, r_trial, rnorm_trial
    return y, rnorm, "converged" if rnorm <= NEWTON_TOL * (1.0 + _norm_inf(y)) else "no-convergence"


def step_implicit_general(sys: GeneralSplitSystem, x, h: float) -> np.ndarray:
    """One step of the endpoint-averaged rule for a general split system.

    Finds y with ``y = x + (h/2) (phi(y, x) + phi(x, y))`` by damped
    Newton iteration, starting from the explicit guess ``x + h phi(x, x)``.
    The Newton matrix is ``I - (h/2) (dphi_dy(y, x) + dphi_dz(x, y))``;
    missing slot Jacobians are replaced by central finite differences.

    Raises
    ------
    NewtonDivergenceError
        If the residual does not reach ``NEWTON_TOL * (1 + ||y||_inf)``
        within NEWTON_MAX_ITER iterations, or the Newton matrix becomes
        singular.
    LinAlgError
        If the first guess or a Newton iterate is not finite.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise SpecError(f"state must have shape ({sys.n},), got {x.shape}")
    h = _check_h(h)
    phi = sys.phi

    def residual(y: np.ndarray) -> np.ndarray:
        return y - x - (0.5 * h) * (
            np.asarray(phi(y, x), dtype=float) + np.asarray(phi(x, y), dtype=float)
        )

    if sys.dphi_dy is not None:
        dphi_dy = sys.dphi_dy
    else:
        dphi_dy = lambda y, z: fd_jacobian(lambda v: np.asarray(phi(v, z), dtype=float), y)
    if sys.dphi_dz is not None:
        dphi_dz = sys.dphi_dz
    else:
        dphi_dz = lambda y, z: fd_jacobian(lambda v: np.asarray(phi(z, v), dtype=float), y)

    eye = np.eye(sys.n)

    def jacobian(y: np.ndarray) -> np.ndarray:
        return eye - (0.5 * h) * (
            np.asarray(dphi_dy(y, x), dtype=float) + np.asarray(dphi_dz(x, y), dtype=float)
        )

    y0 = x + h * np.asarray(phi(x, x), dtype=float)
    y, rnorm, outcome = _damped_newton(residual, jacobian, y0)
    if isinstance(outcome, SingularMatrixError):
        raise NewtonDivergenceError(f"singular Newton matrix: {outcome}") from outcome
    if outcome == "no-convergence":
        raise NewtonDivergenceError(
            f"no convergence after {NEWTON_MAX_ITER} iterations (residual {rnorm:.3e})"
        )
    return y


def step_bound(model: MassActionModel) -> StepBoundReport:
    """Safe step bound from interval bounds on the step-matrix columns.

    Every entry of S(x) is affine in x, so its range over the domain box
    [box_lower, box_upper] is an exact interval; U_j sums the entrywise
    suprema of |S(x)[i, j]| and therefore dominates the absolute column
    sum for every x in the box.  For h < h_bar = 1 / max_j U_j both
    I - h S(x) and I + h S(x) are strictly column diagonally dominant:
    the diagonal of I -+ h S is at least 1 - h |S_jj| in magnitude, so
    strict dominance of both matrices is exactly h * (column sum) < 1.

    When the quotient is unbounded (zero U, or bilinear terms over an
    unbounded box) the report is capped at DEFAULT_H_MAX.  The interval
    pass runs once per model (``MassActionModel._column_sups``).
    """
    u = model._column_sups
    per_column = tuple(enumerate(u.tolist()))
    limiting = int(np.argmax(np.where(np.isnan(u), np.inf, u)))
    u_max = float(u[limiting])
    capped = not np.isfinite(u_max) or u_max == 0.0 or 1.0 / u_max > DEFAULT_H_MAX
    h_bar = DEFAULT_H_MAX if capped else 1.0 / u_max
    return StepBoundReport(h_bar=h_bar, per_column=per_column, limiting_column=limiting, capped=capped)


def _horizon_steps(T: float, h: float) -> int:
    """``round(T / h)``, refusing a horizon whose step count overflows."""
    ratio = T / h
    if not math.isfinite(ratio):
        raise SpecError(f"horizon {T:g} holds too many steps of size {h:g}")
    return round(ratio)


def _explicit_step(model: MassActionModel, scheme: str) -> Callable:
    """``step(x, h, k)`` of the explicit ``scheme``, 'euler' or 'rk4', from the generator of the model's ``_f_kernel``."""
    return _kernel(_field_source, scheme, model.n, model.bilinear, model._linear_rows, model.constant.tobytes())


def _trapezoidal_system(model: MassActionModel) -> GeneralSplitSystem:
    # phi(y, z) = f(y) averages to (f(x') + f(x)) / 2, the classical
    # endpoint-averaged rule; kept as a comparison scheme.
    zero = np.zeros((model.n, model.n))
    return GeneralSplitSystem(
        n=model.n,
        phi=lambda y, z: eval_f(model, y),
        dphi_dy=lambda y, z: f_jacobian(model, y),
        dphi_dz=lambda y, z: zero,
    )


def _check_run(model: MassActionModel, x0, h: float, steps: int, scheme: str) -> tuple[np.ndarray, float]:
    """The checked start and step size of :func:`integrate`, after its checks and warning.

    The warning names the line that called the caller of this function.
    """
    x = _check_state(model, x0)
    h = _check_h(h)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
        raise SpecError(f"steps must be a nonnegative integer, got {steps!r}")
    if scheme not in SCHEMES:
        raise SpecError(f"unknown scheme {scheme!r} (choose from {', '.join(SCHEMES)})")
    if scheme == "nsfd":
        bound = step_bound(model)
        if not bound.admits(h):
            warnings.warn(
                f"step size h={h:g} is not below the safe bound h_bar={bound.h_bar:g}; "
                "dominance of the solve matrices is no longer guaranteed",
                RuntimeWarning,
                stacklevel=3,
            )
    return x, h


def _steps(model: MassActionModel, x: np.ndarray, h: float, steps: int, scheme: str, every: bool) -> Iterator:
    """The states of ``steps`` steps of ``scheme`` from x: the one stepping loop.

    For a caller that keeps ``every`` state it gives the state after each
    step.  For one that keeps only the last, an explicit scheme runs all
    its steps in one call of its run kernel and gives the last state, and
    the others still give the state after each step.  The explicit schemes
    step one state in Python floats, unchecked, and give lists; the others
    give arrays, their numerical failures are re-raised with the step
    index prepended, and an nsfd state that is not finite fails the next
    step as ``_not_finite`` of the step that made it.
    """
    if scheme in ("euler", "rk4"):
        kernel = _explicit_step(model, scheme)
        stride = 1 if every else max(steps, 1)
        x = x.tolist()
        for _ in range(0, steps, stride):
            x = kernel(x, h, stride)
            yield x
    else:
        trap = _trapezoidal_system(model) if scheme == "trapezoidal" else None
        for k in range(steps):
            try:
                x = step_forward(model, x, h) if trap is None else step_implicit_general(trap, x, h)
            except (LinAlgError, NewtonDivergenceError) as exc:
                raise type(exc)(f"step {k}: {exc}") from exc
            except SpecError as exc:  # the start was checked: the last step overflowed
                raise _not_finite(k - 1) from exc
            yield x


def _not_finite(k: int) -> LinAlgError:
    return LinAlgError(f"step {k}: state is not finite")


def integrate(model: MassActionModel, x0, h: float, steps: int, scheme: str = "nsfd") -> Trajectory:
    """Iterate one of the step maps from x0 for a fixed number of steps.

    Emits a RuntimeWarning when the reversible scheme is asked to run at
    h at or above its safe bound.  Numerical failures are re-raised with
    the step index prepended.  A state that is not finite, from an
    overflow, raises LinAlgError naming the step that made it: the orbit
    is checked at the end, as the explicit schemes step unchecked, and an
    nsfd run stops at the next step, which would refuse it as an input.
    A step count whose states cannot be held raises SpecError.
    """
    x, h = _check_run(model, x0, h, steps, scheme)
    try:
        states = np.empty((steps + 1, model.n))
    except (ValueError, MemoryError) as exc:
        raise SpecError("the orbit's states do not fit in memory; take fewer steps") from exc
    states[0] = x
    for k, x in enumerate(_steps(model, x, h, steps, scheme, True), 1):
        states[k] = x
    if not np.isfinite(states).all():
        raise _not_finite(int(np.argmin(np.isfinite(states).all(axis=1))) - 1)
    return Trajectory(h=h, states=states, scheme=scheme)


def _final_state(model: MassActionModel, x0, h: float, steps: int, scheme: str) -> np.ndarray:
    """``integrate(model, x0, h, steps, scheme).final``, with its errors and warning, without the orbit.

    An explicit run is one call of its run kernel (:func:`_steps`).  A
    state that is not finite stays so under every later step: the
    explicit schemes add to each component, and the others refuse such a
    state or never make one.  So a finite last state means a finite orbit,
    and only a run that ends otherwise runs again, to name the step.
    """
    start, h = _check_run(model, x0, h, steps, scheme)
    x = start
    for x in _steps(model, start, h, steps, scheme, False):
        pass
    x = np.array(x, dtype=float)
    if not np.isfinite(x).all():
        again = _steps(model, start, h, steps, scheme, True)
        raise _not_finite(next(k for k, x in enumerate(again) if not np.isfinite(x).all()))
    return x


def reversibility_residual(model: MassActionModel, x, h: float) -> float:
    """``||F(-h, F(h, x)) - x||_inf``: zero for an exactly reversible map."""
    x = _check_state(model, x)
    forward = step_forward(model, x, h)
    back = step_backward(model, forward, h)
    return _norm_inf(back - x)
