"""Dense linear algebra for small systems, on numpy's LAPACK.

Linear solves run LAPACK ``gesv`` (LU with partial pivoting) through one
``np.linalg.solve`` call, for one system or a stack of them, behind a
guard that refuses numerically singular and non-finite systems, which
``gesv`` would solve without complaint.  The one exception is a large
stack of strictly column dominant systems, which needs no pivoting: it
is solved by elimination across the stack axis, one elementwise
operation per entry, whose bits depend on neither the stack's size nor
the BLAS kernel.  The guard's usual case costs one ``abs`` pass and a
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


def _abs_parts(a) -> tuple[np.ndarray, np.ndarray]:
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
    """
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


def _slack_parts(a) -> tuple[np.ndarray, np.ndarray, float]:
    """Column slacks, column 1-norms and the smallest slack of a matrix or a stack.

    The slack ``|a[j, j]| - sum_{i != j} |a[i, j]|`` and the 1-norm
    ``sum_i |a[i, j]|`` come from one :func:`_abs_parts` pass and have
    shape ``a.shape[:-1]``; the 1-norm is formed in the diagonal's own
    buffer.  The smallest slack is inf for an empty stack.  A matrix is
    strictly column diagonally dominant iff its smallest slack is
    positive, which a NaN slack fails.  These are the parts the solve
    guard certifies from, so a caller that has already made them for its
    own check hands them on to :func:`lu_solve`.
    """
    diag, off = _abs_parts(a)
    slack = diag - off
    return slack, np.add(diag, off, out=diag), slack.min(initial=np.inf)


def _solve_stack(a: np.ndarray, b: np.ndarray, parts=None, overwrite: bool = False) -> np.ndarray:
    """Solve ``a[k] @ x[k] = b[k]`` over a stack of systems.

    ``a`` is one (n, n) system or an (m, n, n) stack, ``b`` the matching
    vector or (m, n) stack, and ``parts`` the :func:`_slack_parts` of
    ``a`` when the caller has them, made here otherwise.  A stack of at
    least ``2 n^3`` strictly column dominant systems is solved by
    :func:`_eliminate`, in place when ``overwrite`` is true; every other
    system or stack goes to one LAPACK ``gesv`` call.  Each system
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
        return _eliminate(a, b, overwrite)
    # The explicit trailing axis keeps b a stack of vectors under both the
    # numpy 1.x and 2.x broadcasting rules of solve.  A single vector is
    # one under both, and numpy solves it as it is with less overhead.
    return np.linalg.solve(a, b[..., None])[..., 0]


def _eliminate(a: np.ndarray, b: np.ndarray, overwrite: bool) -> np.ndarray:
    """Gaussian elimination without pivoting across an (m, n, n) stack.

    Only for strictly column dominant systems: there partial pivoting
    would never swap rows, every multiplier is at most 1 in size and the
    growth factor at most 2 (Golub & Van Loan, *Matrix Computations*,
    4th ed., Thm 3.4.3), so the result is as stable as LAPACK's.  The
    stack is worked entries first, as an (n, n, m) array, and each
    operation is one elementwise ufunc on a contiguous (m,) row, with no
    reduction or matrix product: every system gets the same bits
    whatever the stack's size, the BLAS kernel or the SIMD width.  With
    ``overwrite`` the factors replace ``a`` when its entries-first view
    is contiguous, as the integrator lays out its stacks, and the
    solution replaces ``b``; otherwise both are left as they are.
    """
    m, n = b.shape
    e = a.transpose(1, 2, 0)
    if not (overwrite and e.flags.c_contiguous):
        e = e.copy()
    yt = b.T.copy()
    rows, y = [list(r) for r in e], list(yt)
    t = np.empty(m)
    for k in range(n):
        top = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            lik = np.divide(row[k], top[k], out=row[k])
            for j in range(k + 1, n):
                np.subtract(row[j], np.multiply(lik, top[j], out=t), out=row[j])
            np.subtract(y[i], np.multiply(lik, y[k], out=t), out=y[i])
    for i in range(n - 1, -1, -1):
        row = rows[i]
        for j in range(i + 1, n):
            np.subtract(y[i], np.multiply(row[j], y[j], out=t), out=y[i])
        np.divide(y[i], row[i], out=y[i])
    x = b if overwrite else np.empty((m, n))
    x[...] = yt.T
    return x


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


def lu_solve(a, rhs, *, _parts=None):
    """Solve ``a @ x = rhs`` with LAPACK ``gesv``.

    The private ``_parts`` takes the :func:`_slack_parts` of ``a`` from a
    caller that has already made them, so that the guard need not.

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
    a = _as_square(a)
    n = a.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    return _solve_stack(a, b, _parts)


def lu_solve_batch(a, rhs, *, _parts=None, _overwrite=False):
    """Solve a stack of square systems ``a[m] @ x[m] = rhs[m]``.

    One pass over the whole stack, so that audits over thousands of
    states cost no Python loop over them.  A stack of at least ``2 n^3``
    strictly column dominant systems is solved by elimination without
    pivoting, which such systems never need, one elementwise operation
    per entry across the stack; any other stack goes to one stacked
    LAPACK ``gesv`` call.  ``a`` and ``rhs`` are left unchanged.
    ``_parts`` is private, as in :func:`lu_solve`, and so is
    ``_overwrite``, with which a caller that built ``a`` and ``rhs`` for
    this one solve lets the elimination work in them.

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
    return _solve_stack(a, b, _parts, _overwrite)


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
