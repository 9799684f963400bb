"""Time-reversible stepping for mass-action systems.

The update rule averages the split field between the two endpoints of a
step,

    (x' - x) / h = (phi(x', x) + phi(x, x')) / 2,

so running it with step -h from x' recovers x: the map is its own inverse
up to round-off.  For a mass-action model the rule is linear in x', which
turns each step into one linear solve:

    (I - h S(x)) x' = (I + (h/2) L) x + h b

with the step matrix S(x) = (P(x) + Q(x) + L) / 2.  The backward step is
the same system at -h.  Forward and backward steps assemble it in one of
two places, and check there that it is strictly column diagonally
dominant: a stack for a batch, or a single state of a large model, in
numpy (:func:`_step_system`), and a single state of a small model in
Python floats (:func:`_float_system`), a model being small when the
elimination schedule of its pattern (``model._schedule``) makes at most
FLOAT_STEP_MAX_OPS operations.  The Python-float system has the bits of
its row of a stack: a stack starts from the entries no bilinear term
touches, ``I - h (L/2)``, writes only the touched ones per row, with the
bits that the stacked field Jacobians would give, and sums ``L x`` over
the nonzeros of L, and the single state does the same.  A batch with one
step size shares it as a float.  The check makes the step's one ``abs``
pass over the matrices, and the solve guard certifies from the same pass
instead of making its own; the failing row and column are worked out
only when the check fails.  Both solve matrices are dominant, hence
safely invertible, for every state in the domain box whenever h stays
below the bound computed by :func:`step_bound`.  Batch states must be
finite, as scalar ones are.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import LinAlgError, SingularMatrixError, _slack_parts, fd_jacobian, lu_solve, lu_solve_batch
from .model import (
    GeneralSplitSystem,
    MassActionModel,
    SpecError,
    _check_state,
    _jacobian_rows,
    _phi_rows,
    eval_f,
    f_jacobian,
)

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

# A step of one state runs in Python floats, with no numpy call in its
# arithmetic, when the elimination schedule of its model makes at most this
# many elementwise operations; a larger model's step goes to numpy and
# LAPACK.  Timed per step on the built-ins and on SIR rings of n = 6 to 30
# (2-core Xeon, Python 3.11, numpy 2.4), the Python-float step was the
# faster up to 181 operations (21.8 against 28.5 us) and tied at 286.
FLOAT_STEP_MAX_OPS = 200

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


def _step_system(model: MassActionModel, x: np.ndarray, h) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Solve matrices ``I - h S(x)``, right-hand sides ``(I + (h/2) L) x + h b`` and their slacks.

    ``x`` is one (n,) state with a float ``h``, or an (m, n) stack with
    a float ``h`` shared by every row or one signed step size per row in
    the (m,) array ``h``; the backward step is the system at -h.  The
    systems keep the rank of ``x``, so a single step builds one (n, n)
    matrix from the field Jacobian and ``L x`` by a matrix product.  A
    stack starts from the entries no bilinear term touches,
    ``I - h (L/2)``, broadcast over the rows, and overwrites only the
    touched ones (:func:`_stack_matrices`); each entry keeps the bits of
    ``I - h (0.5 J)`` with the stacked field Jacobians J.  A stack's
    ``L x`` is summed over the nonzeros of each row of L in column order
    (``model._linear_rows``), as :func:`_float_system` sums it.  A
    right-hand side is never -0.0: adding 0.0 last makes it +0.0, so that
    the elimination's schedule, which leaves out subtractions of zeros,
    keeps the bits of the dense loop.  The dominance check
    (:func:`_check_dominance`) reads one ``abs`` pass over the matrices
    (``linalg._slack_parts``).  The same parts go on to the solve guard,
    which certifies from them instead of a second pass; the batch steps
    let the solve overwrite the matrices and right-hand sides made here.
    """
    if x.ndim == 1:
        mats = model._identity - h * (0.5 * _jacobian_rows(model, x))
        rhs = x @ model.linear.T
    else:
        mats = _stack_matrices(model, x, h)
        rhs = np.zeros_like(x)
        for i, terms in enumerate(model._linear_rows):
            for j, c in terms:
                rhs[:, i] += x[:, j] * c
    parts = _slack_parts(mats)
    _check_dominance(model, parts, h)
    hv = h if np.ndim(h) == 0 else h[:, None]
    rhs *= 0.5 * hv
    rhs += x
    rhs += hv * model.constant
    rhs += 0.0
    return mats, rhs, parts


def _float_system(model: MassActionModel, x: np.ndarray, h: float) -> tuple[list, list, tuple]:
    """:func:`_step_system` for one state, in Python floats over ``model._schedule``.

    The matrix is the list of its n * n entries, row by row, of which
    only the schedule's pattern is written, each entry with the formula
    and the order of operations of :func:`_stack_matrices` (an entry no
    term touches sums no terms, which leaves ``I - h (L/2)`` as it is);
    the right-hand side is the list of its n entries, formed as a
    stack's.  So the system has the bits of its row of a stack, and
    ``linalg.lu_solve`` solves it over the schedule as the stack's
    elimination does.  One exception: an entry whose P + Q value reads
    more than one coordinate of x is summed here in coordinate order, and
    in a stack by the BLAS product ``xs @ G``, whose order the kernel
    picks; no built-in has one.  The slacks come from one ``abs`` pass over the
    pattern (``linalg._slack_parts``), and the dominance check is the
    stack's.
    """
    xs = x.tolist()
    n = model.n
    mats = [0.0] * (n * n)
    for e, base, lin, terms in model._entry_terms:
        t = 0.0
        for j, c in terms:
            t += xs[j] * c
        mats[e] = base - (t + lin) * 0.5 * h
    parts = _slack_parts(mats, model._schedule)
    _check_dominance(model, parts, h)
    half = 0.5 * h
    rhs = []
    for xi, terms, b in zip(xs, model._linear_rows, model.constant.tolist()):
        s = 0.0
        for j, c in terms:
            s += xs[j] * c
        rhs.append(s * half + xi + h * b + 0.0)
    return mats, rhs, parts


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


def _stack_matrices(model: MassActionModel, xs: np.ndarray, h) -> np.ndarray:
    """``I - h (0.5 (P(x) + Q(x) + L))`` for the rows of ``xs``: an (m, n, n) stack.

    ``h`` is a float or an (m,) array.  The untouched entries are
    ``I - h (0.5 L)``, which is what the Jacobian's ``0 + L`` gives
    there.  The stack is laid out entry by entry with the stack axis
    innermost, and returned as an (m, n, n) view of that: each entry is
    then one contiguous pass over the stack, here, in the ``abs`` pass
    of ``linalg._abs_parts`` and in the elimination that solves a large
    dominant stack in place (``linalg._eliminate``).  A stack that goes
    to LAPACK instead is copied matrix by matrix in LAPACK's own order
    whatever the layout.  The rule of the stack path, for
    a shared h: no stack-sized temporary besides the solve matrices, so
    that the transient memory of a step stays well below twice the
    stack.  The base is one (n*n, 1) column broadcast into the stack,
    and the touched entries are worked in place in one buffer.  A
    per-row h, which no caller in the package steps with, makes the
    base a stack-sized temporary.
    """
    entries, g = model._pq_map
    n = model.n
    eye, lin = model._identity.reshape(-1, 1), model.linear.reshape(-1, 1)
    ent = np.empty((n * n, xs.shape[0]))
    ent[...] = eye - h * (0.5 * lin)
    # The touched values are transposed to (entries, m) first, so that
    # each of them, too, is one contiguous pass over the stack.
    touched = (xs @ g).T.copy()
    touched += lin[entries]
    touched *= 0.5
    touched *= h
    ent[entries] = np.subtract(eye[entries], touched, out=touched)
    return ent.reshape(n, n, -1).transpose(2, 0, 1)


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
    """The step of one checked state, with signed h: in Python floats when the model's schedule is small."""
    schedule = model._schedule
    if schedule.size <= FLOAT_STEP_MAX_OPS:
        mats, rhs, parts = _float_system(model, x, h)
        return lu_solve(mats, rhs, _parts=parts, _schedule=schedule)
    mats, rhs, parts = _step_system(model, x, h)
    return lu_solve(mats, rhs, _parts=parts)


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
    mats, rhs, parts = _step_system(model, xs, _batch_h(h, xs.shape[0]))
    return lu_solve_batch(mats, rhs, _parts=parts, _overwrite=True, _schedule=model._schedule)


def step_backward_batch(model: MassActionModel, xs, h) -> np.ndarray:
    """Vectorized :func:`step_backward` over rows of ``xs``."""
    xs = _batch_states(model, xs)
    mats, rhs, parts = _step_system(model, xs, -_batch_h(h, xs.shape[0]))
    return lu_solve_batch(mats, rhs, _parts=parts, _overwrite=True, _schedule=model._schedule)


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
    unbounded box) the report is capped at DEFAULT_H_MAX.
    """
    lo_x = model.domain.box_lower
    hi_x = model.domain.box_upper
    s_lo = 0.5 * np.array(model.linear)
    s_hi = 0.5 * np.array(model.linear)
    for t in model.bilinear:
        for col, var in ((t.k, t.j), (t.j, t.k)):
            g = 0.5 * t.c
            a = g * lo_x[var]
            b = g * hi_x[var]
            s_lo[t.i, col] += min(a, b)
            s_hi[t.i, col] += max(a, b)
    sup_abs = np.maximum(np.abs(s_lo), np.abs(s_hi))
    u = sup_abs.sum(axis=0)
    per_column = tuple((j, float(u[j])) for j in range(model.n))
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


def _rk4_rows(model: MassActionModel, xs: np.ndarray, h: float) -> np.ndarray:
    """One classical 4-stage explicit step of size h, unchecked.

    ``xs`` is one (n,) state or an (m, n) stack stepped row by row; the
    result has its rank, and a single state gets no stack axis.
    """
    k1 = _phi_rows(model, xs)
    k2 = _phi_rows(model, xs + (0.5 * h) * k1)
    k3 = _phi_rows(model, xs + (0.5 * h) * k2)
    k4 = _phi_rows(model, xs + h * k3)
    return xs + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def integrate(model: MassActionModel, x0, h: float, steps: int, scheme: str = "nsfd") -> Trajectory:
    """Iterate one of the step maps from x0 for a fixed number of steps.

    Emits a RuntimeWarning when the reversible scheme is asked to run at
    h at or above its safe bound.  Numerical failures are re-raised with
    the step index prepended.  The explicit schemes step unchecked, so
    the orbit is checked once at the end: a state that is not finite,
    from an overflow, raises LinAlgError naming the step that made it.
    A step count whose states cannot be held raises SpecError.
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
                stacklevel=2,
            )
    try:
        states = np.empty((steps + 1, model.n))
    except (ValueError, MemoryError) as exc:
        raise SpecError("the orbit's states do not fit in memory; take fewer steps") from exc
    states[0] = x
    trap = _trapezoidal_system(model) if scheme == "trapezoidal" else None
    for k in range(steps):
        try:
            if scheme == "nsfd":
                x = step_forward(model, x, h)
            elif scheme == "euler":
                x = x + h * _phi_rows(model, x)
            elif scheme == "rk4":
                x = _rk4_rows(model, x, h)
            else:
                x = step_implicit_general(trap, x, h)
        except (LinAlgError, NewtonDivergenceError) as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        states[k + 1] = x
    if not np.isfinite(states).all():
        k = int(np.argmin(np.isfinite(states).all(axis=1))) - 1
        raise LinAlgError(f"step {k}: state is not finite")
    return Trajectory(h=h, states=states, scheme=scheme)


def reversibility_residual(model: MassActionModel, x, h: float) -> float:
    """``||F(-h, F(h, x)) - x||_inf``: zero for an exactly reversible map."""
    x = _check_state(model, x)
    forward = step_forward(model, x, h)
    back = step_backward(model, forward, h)
    return _norm_inf(back - x)
