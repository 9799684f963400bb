"""Dense linear algebra for small systems, on numpy's LAPACK.

Linear solves run LAPACK ``gesv`` (LU with partial pivoting) through one
``np.linalg.solve`` call, for one system or a stack of them, behind a
guard that refuses numerically singular and non-finite systems, which
``gesv`` would solve without complaint.  Strictly column dominant
systems need no pivoting, and two kinds of them are solved by Gaussian
elimination without it instead, over an elimination schedule
(:class:`_Schedule`) that leaves out the operations on entries that
stay zero: a stack of at least ``2 n^3`` such systems, across the stack
axis, one elementwise operation per entry, and the one system of a
small model's step, in Python floats, with the same operations in the
same order.  Neither calls BLAS, so their bits depend on neither the
stack's size nor the BLAS kernel, and a system gets the same bits alone
as in a stack.  The guard's usual case costs one ``abs`` pass and a
few reductions: Varah's bound certifies a strictly column dominant stack
at once, and the exact condition number is computed only for what it
leaves uncertain.  The integrator makes that pass for its own dominance
check and hands it on to the solve, so a step makes it once.
Eigenvalues come from LAPACK ``geev`` through ``np.linalg.eigvals``.
Also here: the column dominance slack that the guard and the
integrator's dominance check share, the dominance and Metzler
predicates, and central finite-difference Jacobians.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "LinAlgError",
    "SingularMatrixError",
    "EigenConvergenceError",
    "lu_solve",
    "lu_solve_batch",
    "is_diagonally_dominant",
    "is_metzler",
    "eigenvalues",
    "fd_jacobian",
]

# A system whose reciprocal 1-norm condition number is below PIVOT_RTOL
# is treated as structurally singular rather than solved.
PIVOT_RTOL = 1e-14


class LinAlgError(ArithmeticError):
    """Base class for numerical failures raised by this package."""


class SingularMatrixError(LinAlgError):
    """The reciprocal condition number fell below the singularity threshold."""


class EigenConvergenceError(LinAlgError):
    """LAPACK's QR iteration failed to converge."""


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _abs_parts(a, schedule=None) -> tuple[np.ndarray, np.ndarray]:
    """``|a[j, j]|`` and ``sum_{i != j} |a[i, j]|`` per column, from one ``abs`` pass.

    Works on a square matrix or on an (m, n, n) stack of them; both
    results have shape ``a.shape[:-1]``.  The diagonal is read through a
    strided view of the flattened entries and zeroed in place before the
    column sums, which add the rows in order.  A stack keeps the rule of
    the integrator's stack path, no stack-sized temporary besides the
    solve matrices: it is read one matrix row at a time, through an
    entries-first view with the stack axis innermost, as an (n, m) block
    of ``abs`` values.  The block's diagonal entry is copied out
    and zeroed there, and the block is added onto row 0's block, which
    becomes the column sums.  On a stack laid out entries first, as the
    integrator lays out its own, each operation is one contiguous pass.
    With a ``schedule``, ``a`` is one system's n * n entries in Python
    floats, row by row, and the results are lists.  Only the schedule's
    pattern is read, its rows in order: the entries outside it are zero,
    and adding the ``abs`` of a zero changes no bit of these sums.
    """
    if schedule is not None:
        diag, off = [], []
        for d, column in schedule.columns:
            total = 0.0
            for e in column:
                total += abs(a[e])
            diag.append(abs(a[d]))
            off.append(total)
        return diag, off
    n = a.shape[-1]
    if a.ndim == 2:
        flat = np.abs(a).reshape(n * n)
        diag = flat[:: n + 1].copy()
        flat[:: n + 1] = 0.0
        return diag, np.add.reduce(flat.reshape(n, n), 0)
    rows = a.transpose(1, 2, 0)
    diag = np.empty((n, a.shape[0]))
    off = np.abs(rows[0], out=np.empty_like(diag))
    diag[0] = off[0]
    off[0] = 0.0
    block = np.empty_like(diag)
    for i in range(1, n):
        np.abs(rows[i], out=block)
        diag[i] = block[i]
        block[i] = 0.0
        off += block
    return diag.T, off.T


def _slack_parts(a, schedule=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Column slacks, column 1-norms and the smallest slack of a matrix or a stack.

    The slack ``|a[j, j]| - sum_{i != j} |a[i, j]|`` and the 1-norm
    ``sum_i |a[i, j]|`` come from one :func:`_abs_parts` pass and have
    shape ``a.shape[:-1]``; the 1-norm is formed in the diagonal's own
    buffer.  The smallest slack is inf for an empty stack.  A matrix is
    strictly column diagonally dominant iff its smallest slack is
    positive, which a NaN slack fails.  These are the parts the solve
    guard certifies from, so a caller that has already made them for its
    own check hands them on to :func:`lu_solve`.  With a ``schedule``,
    as in :func:`_abs_parts`, the slacks and 1-norms are lists of Python
    floats with the same bits.
    """
    diag, off = _abs_parts(a, schedule)
    if schedule is not None:
        slack = [d - o for d, o in zip(diag, off)]
        smin = math.nan if any(map(math.isnan, slack)) else min(slack)
        return slack, [d + o for d, o in zip(diag, off)], smin
    slack = diag - off
    return slack, np.add(diag, off, out=diag), slack.min(initial=np.inf)


def _solve_stack(a: np.ndarray, b: np.ndarray, parts=None, overwrite: bool = False, schedule=None) -> np.ndarray:
    """Solve ``a[k] @ x[k] = b[k]`` over a stack of systems.

    ``a`` is one (n, n) system or an (m, n, n) stack, ``b`` the matching
    vector or (m, n) stack, and ``parts`` the :func:`_slack_parts` of
    ``a`` when the caller has them, made here otherwise.  A stack of at
    least ``2 n^3`` strictly column dominant systems is solved by
    :func:`_eliminate` over ``schedule``, the :class:`_Schedule` of the
    stack's pattern, or of the full pattern when it is None, in place
    when ``overwrite`` is true; every other system or stack goes to one
    LAPACK ``gesv`` call.  Each system
    must have reciprocal 1-norm condition at least PIVOT_RTOL.  Varah's
    bound certifies most of them without an inverse: a strictly column
    dominant ``a`` has ``||a^-1||_1 <= 1 / min slack``, so
    ``min slack / ||a||_1`` bounds the reciprocal condition from below.
    One test over the whole stack, the smallest slack against the largest
    1-norm, certifies the usual case.  Otherwise the bound is taken system
    by system, and only the systems it leaves below PIVOT_RTOL, zero and
    non-finite matrices among them, get the exact inverse-based check.
    """
    slack, colsum, smin = _slack_parts(a) if parts is None else parts
    # smin < inf keeps a stack whose every diagonal is infinite, where the
    # ratio is inf / inf, from certifying itself; it also means the stack
    # is not empty, so colsum has a maximum.
    if not (0.0 < smin < np.inf and smin >= PIVOT_RTOL * colsum.max()):
        _check_condition(a.reshape(-1, *a.shape[-2:]), slack, colsum)
    if b.ndim == 1:
        return np.linalg.solve(a, b)
    m, n = b.shape
    # The elimination makes about 2 n^3 / 3 ufunc calls over the stack and
    # LAPACK one call per matrix: timed for n from 1 to 30 and m from 10 to
    # 4000, the elimination was the faster from m = 2 n^3 on at every point.
    if smin > 0.0 and m >= 2 * n**3:
        if schedule is None:
            schedule = _schedule_of(n, tuple(range(n * n)))
        return _eliminate(a, b, overwrite, schedule)
    # The explicit trailing axis keeps b a stack of vectors under both the
    # numpy 1.x and 2.x broadcasting rules of solve.  A single vector is
    # one under both, and numpy solves it as it is with less overhead.
    return np.linalg.solve(a, b[..., None])[..., 0]


class _Schedule:
    """Gaussian elimination without pivoting of every (n, n) system with one pattern.

    Entries are numbered row by row, ``i * n + j``, and the ``pattern``
    is the given entries and the diagonal: every entry that can be
    nonzero.
    Eliminating column k fills (i, j) wherever (i, k) and (k, j) are in
    the pattern, for i, j > k; ``fill`` lists those entries in order
    (Davis, *Direct Methods for Sparse Linear Systems*, SIAM 2006).  The
    operations are the dense loop's, in its order (column k, then row i,
    then column j), without those that read an entry outside the filled
    pattern:

    - ``forward``: each multiplier ``(entry (i, k), pivot (k, k), i, k,
      updates)``, whose updates are the ``(target (i, j), source (k, j))``
      pairs;
    - ``backward``: for i from n - 1 down, ``(i, diagonal (i, i), terms)``
      with the ``(entry (i, j), j)`` terms of row i of U;
    - ``columns``: per column j, the diagonal entry and the pattern's
      other entries in row order, for the ``abs`` pass.

    An entry outside the filled pattern that starts as +0.0 stays +0.0
    all through the dense loop, so a left-out operation would subtract a
    zero product from a finite value: that changes at most the sign of a
    zero, and only of a right-hand side entry that is -0.0.  The
    integrator's matrices are +0.0 outside their pattern and hold no
    -0.0, nor do its right-hand sides, so on its finite systems the
    schedule gives the dense loop's bits.  ``size`` counts the
    elementwise operations of one solve.
    """

    def __init__(self, n: int, pattern) -> None:
        given = set(pattern).union(range(0, n * n, n + 1))
        nz = set(given)
        forward = []
        for k in range(n):
            right = [k * n + j for j in range(k + 1, n) if k * n + j in nz]
            for i in range(k + 1, n):
                if i * n + k in nz:
                    updates = tuple((e + (i - k) * n, e) for e in right)
                    nz.update(t for t, _ in updates)
                    forward.append((i * n + k, k * (n + 1), i, k, updates))
        self.n = n
        self.pattern = tuple(sorted(given))
        self.fill = tuple(sorted(nz - given))
        self.forward = tuple(forward)
        self.backward = tuple(
            (i, i * (n + 1), tuple((i * n + j, j) for j in range(i + 1, n) if i * n + j in nz))
            for i in range(n - 1, -1, -1)
        )
        self.columns = tuple(
            (j * (n + 1), tuple(i * n + j for i in range(n) if i != j and i * n + j in given)) for j in range(n)
        )
        self.size = (
            3 * len(self.forward)
            + 2 * sum(len(op[4]) for op in self.forward)
            + 2 * sum(len(op[2]) for op in self.backward)
            + n
        )


@functools.lru_cache(maxsize=8)
def _schedule_of(n: int, pattern: tuple[int, ...]) -> _Schedule:
    """The :class:`_Schedule` of a pattern, made once for all the models and stacks that have it.

    A stack with no known pattern gets the full one, ``range(n * n)``,
    whose schedule is the dense loop.
    """
    return _Schedule(n, pattern)


def _eliminate(a: np.ndarray, b: np.ndarray, overwrite: bool, schedule: _Schedule) -> np.ndarray:
    """Gaussian elimination without pivoting across an (m, n, n) stack, over ``schedule``.

    Only for strictly column dominant systems: there partial pivoting
    would never swap rows, every multiplier is at most 1 in size and the
    growth factor at most 2 (Golub & Van Loan, *Matrix Computations*,
    4th ed., Thm 3.4.3), so the result is as stable as LAPACK's.  The
    stack is worked entries first, as an (n, n, m) array, and each
    operation of the schedule is one elementwise ufunc on a contiguous
    (m,) row, with no reduction or matrix product: every system gets the
    same bits whatever the stack's size, the BLAS kernel or the SIMD
    width, and the bits of :func:`_eliminate_floats` on its own entries.
    With ``overwrite`` the factors replace ``a`` when its entries-first
    view is contiguous, as the integrator lays out its stacks, and the
    solution replaces ``b``; otherwise both are left as they are.
    """
    m, n = b.shape
    e = a.transpose(1, 2, 0)
    if not (overwrite and e.flags.c_contiguous):
        e = e.copy()
    yt = b.T.copy()
    v, y = list(e.reshape(n * n, m)), list(yt)
    t = np.empty(m)
    for mult, pivot, i, k, updates in schedule.forward:
        lik = np.divide(v[mult], v[pivot], out=v[mult])
        for target, source in updates:
            np.subtract(v[target], np.multiply(lik, v[source], out=t), out=v[target])
        np.subtract(y[i], np.multiply(lik, y[k], out=t), out=y[i])
    for i, diag, terms in schedule.backward:
        for entry, j in terms:
            np.subtract(y[i], np.multiply(v[entry], y[j], out=t), out=y[i])
        np.divide(y[i], v[diag], out=y[i])
    x = b if overwrite else np.empty((m, n))
    x[...] = yt.T
    return x


def _eliminate_floats(v: list, y: list, schedule: _Schedule) -> list:
    """:func:`_eliminate` on one system in Python floats: its n * n entries ``v`` and right-hand side ``y``.

    Makes the stack's operations in its order, so a system gets the bits
    of its row of a stack; both lists are worked in place, and ``y``
    becomes the solution.
    """
    for mult, pivot, i, k, updates in schedule.forward:
        lik = v[mult] / v[pivot]
        for target, source in updates:
            v[target] -= lik * v[source]
        y[i] -= lik * y[k]
    for i, diag, terms in schedule.backward:
        s = y[i]
        for entry, j in terms:
            s -= v[entry] * y[j]
        y[i] = s / v[diag]
    return y


def _check_condition(a: np.ndarray, slack: np.ndarray, colsum: np.ndarray) -> None:
    """The guard's slow path, over an (m, n, n) stack.

    Raises SingularMatrixError for the first system whose reciprocal
    1-norm condition is below PIVOT_RTOL or undefined (NaN).
    """
    n = a.shape[-1]
    norms = colsum.reshape(-1, n).max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = slack.reshape(-1, n).min(axis=-1, initial=np.inf) / norms
    unsure = np.flatnonzero(~(rcond >= PIVOT_RTOL))
    if not unsure.size:
        return
    rcond[unsure] = 1.0 / np.linalg.cond(a[unsure], 1)
    # Written so that a NaN condition number counts as bad.
    bad = ~(rcond >= PIVOT_RTOL)
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(a[k]).all():
            detail = "matrix entries are not finite"
        elif norms[k] == 0.0:
            detail = "matrix is identically zero"
        else:
            detail = f"reciprocal condition {rcond[k]:.3e} is below {PIVOT_RTOL:.0e}"
        raise SingularMatrixError(f"system {k}: {detail}")


def lu_solve(a, rhs, *, _parts=None, _schedule=None):
    """Solve ``a @ x = rhs`` with LAPACK ``gesv``, or over an elimination schedule.

    The private ``_parts`` takes the :func:`_slack_parts` of ``a`` from a
    caller that has already made them, so that the guard need not.  With
    the private ``_schedule``, ``a`` is the system's n * n entries in
    Python floats, row by row, with that :class:`_Schedule`'s pattern,
    and ``rhs`` a list of n floats: the integrator's step of one state of
    a small model, which has checked that ``a`` is strictly column
    dominant.  The guard is the same, from the parts of
    :func:`_slack_parts` with the schedule, and the system is then
    solved in Python floats over the schedule
    (:func:`_eliminate_floats`), with no BLAS call, working in the two
    lists; it gets the bits of its row of an eliminated stack.

    Parameters
    ----------
    a : (n, n) array_like
        Square coefficient matrix.
    rhs : (n,) array_like
        Right-hand side vector.

    Returns
    -------
    (n,) ndarray

    Raises
    ------
    SingularMatrixError
        If ``a`` is zero, has a non-finite entry, or its reciprocal 1-norm
        condition number is below ``PIVOT_RTOL``.
    """
    if _schedule is not None:
        return _solve_floats(a, rhs, _parts, _schedule)
    a = _as_square(a)
    n = a.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    return _solve_stack(a, b, _parts)


def _solve_floats(v: list, y: list, parts, schedule: _Schedule) -> np.ndarray:
    """:func:`_solve_stack` for one strictly column dominant system in Python floats.

    The guard is the stack's, and only what Varah's bound leaves
    uncertain goes to the exact check, on the system as an array.
    """
    slack, colsum, smin = _slack_parts(v, schedule) if parts is None else parts
    if not (0.0 < smin < math.inf and smin >= PIVOT_RTOL * max(colsum)):
        n = schedule.n
        _check_condition(np.reshape(v, (1, n, n)), np.reshape(slack, (1, n)), np.reshape(colsum, (1, n)))
    return np.array(_eliminate_floats(v, y, schedule))


def lu_solve_batch(a, rhs, *, _parts=None, _overwrite=False, _schedule=None):
    """Solve a stack of square systems ``a[m] @ x[m] = rhs[m]``.

    One pass over the whole stack, so that audits over thousands of
    states cost no Python loop over them.  A stack of at least ``2 n^3``
    strictly column dominant systems is solved by elimination without
    pivoting, which such systems never need, one elementwise operation
    per entry across the stack; any other stack goes to one stacked
    LAPACK ``gesv`` call.  ``a`` and ``rhs`` are left unchanged.
    ``_parts`` is private, as in :func:`lu_solve`, and so is
    ``_overwrite``, with which a caller that built ``a`` and ``rhs`` for
    this one solve lets the elimination work in them, and so is
    ``_schedule``, the :class:`_Schedule` of a pattern that every system
    of the stack keeps, over which the elimination runs.

    Parameters
    ----------
    a : (m, n, n) array_like
    rhs : (m, n) array_like

    Returns
    -------
    (m, n) ndarray

    Raises
    ------
    SingularMatrixError
        As :func:`lu_solve`, for the first such system; the message names
        its batch index.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    m, n, _ = a.shape
    if b.shape != (m, n):
        raise ValueError(f"rhs shape {b.shape} does not match stack shape {(m, n)}")
    return _solve_stack(a, b, _parts, _overwrite, _schedule)


def is_diagonally_dominant(a, mode: str = "column", strict: bool = True) -> bool:
    """Check diagonal dominance of a square matrix.

    Column mode requires ``|a[j, j]| > sum_{i != j} |a[i, j]|`` for every
    column j (``>=`` when ``strict`` is false); row mode sums across each
    row instead.
    """
    a = _as_square(a)
    if mode not in ("row", "column"):
        raise ValueError(f"mode must be 'row' or 'column', got {mode!r}")
    slack = _slack_parts(a if mode == "column" else a.T)[0]
    if strict:
        return bool(np.all(slack > 0.0))
    return bool(np.all(slack >= 0.0))


def is_metzler(a) -> bool:
    """True iff every off-diagonal entry of the square matrix is >= 0."""
    a = _as_square(a)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.all(off >= 0.0))


def eigenvalues(a) -> list[complex]:
    """All eigenvalues of a real square matrix, by LAPACK ``geev``.

    Returns
    -------
    list of complex
        The n eigenvalues in LAPACK's order; complex conjugate pairs are
        adjacent.

    Raises
    ------
    EigenConvergenceError
        If the QR iteration fails to converge.
    """
    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        lams = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return [complex(lam) for lam in lams]


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x):
    """Central finite-difference Jacobian of ``fun`` at ``x``.

    Column j is ``(fun(x + eps e_j) - fun(x - eps e_j)) / (2 eps)`` with
    the step ``eps = 1e-6 * (1 + ||x||_inf)``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    eps = 1e-6 * (1.0 + (float(np.abs(x).max()) if x.size else 0.0))
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xp[j] += eps
        xm = x.copy()
        xm[j] -= eps
        fp = np.asarray(fun(xp), dtype=float)
        fm = np.asarray(fun(xm), dtype=float)
        cols.append((fp - fm) / (2.0 * eps))
    if not cols:
        return np.zeros((0, 0))
    return np.column_stack(cols)
