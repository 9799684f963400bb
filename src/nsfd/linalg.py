"""Dense linear algebra for small systems, on numpy's LAPACK.

Linear solves run LAPACK ``gesv`` (LU with partial pivoting) through one
``np.linalg.solve`` call, for one system or a stack of them, behind a
guard that refuses numerically singular and non-finite systems, which
``gesv`` would solve without complaint.  Strictly column dominant
systems need no pivoting.  The integrator's step systems come as the
values of the entries of an elimination schedule (:class:`_Schedule`),
which leaves out the operations on entries that stay zero, and such a
system is solved by Gaussian elimination without pivoting instead when
its schedule makes at most FLOAT_ELIMINATION_MAX_OPS operations, alone
or in a stack of any size, or when it is one of a stack of at least
``2 n^3``.  Dense systems go through :func:`_solve_stack`, and pattern
systems, one or a stack, through :func:`_solve_pattern`, where the one
predicate ``_Schedule.eliminates`` makes this choice.  The elimination
runs the same straight-line code, made once per schedule
(``_Schedule.slack_pass`` and ``_Schedule.eliminate``, each on its first
use) from the one cache of generated code (:func:`_kernel_code`): on
Python floats for one system, and on the stack's (m,) columns, one
elementwise operation across the stack for each operation of the
schedule.  It calls no BLAS, so its bits depend on neither the stack's
size nor the BLAS kernel, and a system gets the same bits alone as in a
stack.  The guard's usual case costs one ``abs`` pass and a few
reductions: Varah's bound certifies a strictly column dominant stack at
once, and the exact condition number is computed only for what it
leaves uncertain.  The integrator makes
that pass, the schedule's ``slack_pass``, for its own dominance check
and hands it on to the solve, so a step makes it once.
Eigenvalues come from LAPACK ``geev`` through ``np.linalg.eigvals``.
Also here: the column dominance slack that the guard and the
integrator's dominance check share, the dominance and Metzler
predicates, and central finite-difference Jacobians.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from types import CodeType, FunctionType
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

# A dominant system, alone in Python floats or in a stack, is solved by
# its schedule's compiled elimination when the schedule makes at most
# this many elementwise operations (``_Schedule.eliminates``).  Timed for
# one system on SIR rings of n = 6 to 36 (2-core Xeon, Python 3.11,
# numpy 2.4), a step that ran and eliminated in Python floats was the
# faster, against one assembled in numpy and solved by LAPACK, up to 916
# operations and the slower from 1,140; the cut-off stays below a
# 33-state ring of 571, whose stability verdict at a non-hyperbolic
# equilibrium turns on a last bit.
FLOAT_ELIMINATION_MAX_OPS = 550


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


def _slack_parts(a: np.ndarray) -> tuple:
    """Column slacks, column 1-norms and the smallest slack of a matrix or a stack.

    The slack ``|a[j, j]| - sum_{i != j} |a[i, j]|`` and the 1-norm
    ``sum_i |a[i, j]|`` have shape ``a.shape[:-1]`` and come from one
    ``abs`` pass: the diagonal is read through a strided view of the
    flattened ``abs`` values and zeroed in place before the column sums,
    which add the rows in order; the 1-norm is formed in the diagonal's
    buffer.  The smallest slack is inf for an empty stack, and NaN when a
    slack is NaN; it is positive iff every matrix is strictly column
    diagonally dominant.  The solve guard certifies from these parts.
    """
    n = a.shape[-1]
    flat = np.abs(a, order="C").reshape(*a.shape[:-2], n * n)
    diag = flat[..., :: n + 1].copy()
    flat[..., :: n + 1] = 0.0
    off = np.add.reduce(flat.reshape(a.shape), -2)
    slack = diag - off
    return slack, np.add(diag, off, out=diag), slack.min(initial=np.inf)


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a[k] @ x[k] = b[k]`` by one LAPACK ``gesv`` call, behind the guard.

    ``a`` is one (n, n) system or an (m, n, n) stack, and ``b`` the
    matching vector or (m, n) stack.  Each system must have reciprocal
    1-norm condition at least PIVOT_RTOL.  Varah's bound certifies most of
    them without an inverse: a strictly column dominant ``a`` has
    ``||a^-1||_1 <= 1 / min slack``, so ``min slack / ||a||_1`` bounds the
    reciprocal condition from below.  One test over the whole stack, the
    smallest slack against the largest 1-norm, certifies the usual case.
    Otherwise :func:`_check_condition` takes the bound system by system,
    and only the systems it leaves below PIVOT_RTOL, zero and non-finite
    matrices among them, get the exact inverse-based check.
    """
    slack, colsum, smin = _slack_parts(a)
    # smin < inf keeps a stack whose every diagonal is infinite, where the
    # ratio is inf / inf, from certifying itself; it also means the stack
    # is not empty, so colsum has a maximum.
    if not (0.0 < smin < np.inf and smin >= PIVOT_RTOL * colsum.max()):
        _check_condition(a, slack, colsum)
    if b.ndim == 1:
        return np.linalg.solve(a, b)
    # The explicit trailing axis keeps b a stack of vectors under both the
    # numpy 1.x and 2.x broadcasting rules of solve.  A single vector is
    # one under both, and numpy solves it as it is with less overhead.
    return np.linalg.solve(a, b[..., None])[..., 0]


def _solve_pattern(v, y, parts, schedule: _Schedule) -> np.ndarray:
    """Solve the systems of a ``schedule`` given by the values of its pattern entries: the integrator's solve.

    ``v`` is one system's list of Python floats, in the order of
    ``schedule.pattern``, and ``y`` its n right-hand side values; or ``v``
    is an (m, p) stack of them and ``y`` its (m, n) right-hand sides, each
    the transpose of a contiguous array made for this solve, which works
    in it.  ``parts`` are the ``schedule.slack_parts`` of ``v``, made here
    when the caller has none.  The guard is :func:`_solve_stack`'s.
    Strictly column dominant systems that ``schedule.eliminates`` are
    solved by its compiled ``eliminate``, with no BLAS call: one system in
    Python floats, and a stack in place on its (m,) columns, so that each
    row gets the bits of its system alone.  Such systems need no pivoting:
    every multiplier is at most 1 in size and the growth factor at most 2
    (Golub & Van Loan, *Matrix Computations*, 4th ed., Thm 3.4.3).  All
    others go to one LAPACK ``gesv`` call on their :func:`_dense` matrices.
    """
    one = isinstance(y, list)
    slack, colsum, smin = schedule.slack_parts(v) if parts is None else parts
    if not (0.0 < smin < math.inf and smin >= PIVOT_RTOL * (max(colsum) if one else colsum.max())):
        _check_condition(_dense(v, schedule), slack, colsum)
    if smin > 0.0 and schedule.eliminates(1 if one else len(y)):
        if one:
            return np.array(schedule.eliminate(v, y))
        # Python floats raise no warning, nor do their columns: a non-finite
        # system that the guard passed solves to the single step's values.
        with np.errstate(over="ignore", invalid="ignore"):
            schedule.eliminate(list(v.T), list(y.T))
        return y
    if one:
        return np.linalg.solve(_dense(v, schedule), np.array(y))
    return np.linalg.solve(_dense(v, schedule), y[..., None])[..., 0]


def _dense(values, schedule: _Schedule) -> np.ndarray:
    """The (n, n) matrix of one system's p pattern values, or the (m, n, n) stack of an (m, p) stack of them."""
    values = np.asarray(values, dtype=float)
    lead = values.shape[:-1]
    out = np.zeros(lead + (schedule.n**2,))
    out.T[schedule.index] = values.T  # for one system, faster than out[..., schedule.index]
    return out.reshape(lead + (schedule.n, schedule.n))


class _Schedule:
    """Gaussian elimination without pivoting of every (n, n) system with one pattern.

    Entries are numbered row by row, ``i * n + j``, and the ``pattern``
    is the given entries and the diagonal: every entry that can be
    nonzero; ``index`` holds it as an intp array, for :func:`_dense`.
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
        self.index = np.array(self.pattern, dtype=np.intp)
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

    def eliminates(self, m: int) -> bool:
        """Whether a strictly column dominant system of the schedule, one of m solved together, goes to ``eliminate``.

        The one choice between elimination and LAPACK, for one system
        (m = 1) and for a stack.  A schedule of at most
        FLOAT_ELIMINATION_MAX_OPS operations is eliminated at every m, so
        its systems get the same bits alone and in any stack.  A larger
        one is eliminated from ``2 n^3`` systems on, where LAPACK would
        need the whole (m, n, n) stack of dense matrices.
        """
        return self.size <= FLOAT_ELIMINATION_MAX_OPS or m >= 2 * self.n**3

    def slack_parts(self, v) -> tuple:
        """The :func:`_slack_parts` of the systems whose pattern values are ``v``, from one ``slack_pass``.

        For one system's list of Python floats, the slacks and 1-norms are
        lists of Python floats; for an (m, p) stack, (m, n) arrays.
        """
        if isinstance(v, list):
            slack, colsum = self.slack_pass(v)
            return slack, colsum, math.nan if any(map(math.isnan, slack)) else min(slack)
        slack, colsum = self.slack_pass(v.T)
        slack = np.array(slack).T
        return slack, np.array(colsum).T, slack.min(initial=np.inf)

    # The loops over ``columns``, ``forward`` and ``backward`` as straight
    # code, each made on its first use: a model above the cut-off runs the
    # slack pass on every step and the elimination only on a stack of at
    # least ``2 n^3`` rows.  Each takes one system as Python floats or a
    # stack of them as (m,) float64 columns, one per value: ``v``, the
    # values of the ``pattern`` entries in its order, and ``y``, the n
    # right-hand side values.  The code is ``+ - * / abs`` only, so numpy
    # makes the same IEEE operations in the same order on every row of a
    # column as Python does on a float, and a system gets the same bits
    # alone and in a stack.  Each makes its loops' operations in their
    # order; only a sum of ``abs`` values starts from its first term, not
    # from 0.0, as an ``abs`` is never -0.0.

    @cached_property
    def slack_pass(self) -> Callable:
        """``slack_pass(v)``: the lists of the n slacks and 1-norms of :meth:`slack_parts`."""
        return _kernel(_slack_pass_source, self.n, self.pattern)

    @cached_property
    def eliminate(self) -> Callable:
        """``eliminate(v, y)``: the solution as a list; on columns it works in place, in the columns of ``y``."""
        return _kernel(_eliminate_source, self.n, self.pattern)


def _slack_pass_source(n: int, pattern: tuple[int, ...]) -> str:
    """The source of ``_Schedule.slack_pass`` for the schedule of ``pattern``."""
    lines = ["def slack_pass(v):", f"    {''.join(f'a{e}, ' for e in pattern)}= v"]
    for j, (d, column) in enumerate(_schedule_of(n, pattern).columns):
        sums, off = _sum_code([f"abs(a{e})" for e in column], f"o{j}")
        lines += [f"    d{j} = abs(a{d})", *sums, f"    o{j} = {off or '0.0'}", f"    s{j} = d{j} - o{j}"]
    lines.append(
        f"    return [{', '.join(f's{j}' for j in range(n))}], [{', '.join(f'd{j} + o{j}' for j in range(n))}]"
    )
    return "\n".join(lines)


def _eliminate_source(n: int, pattern: tuple[int, ...]) -> str:
    """The source of ``_Schedule.eliminate`` for the schedule of ``pattern``."""
    schedule = _schedule_of(n, pattern)
    lines = [
        "def eliminate(v, y):",
        f"    {''.join(f'a{e}, ' for e in pattern)}= v",
        f"    {_unpack('y', n)}= y",
        *(f"    a{e} = 0.0" for e in schedule.fill),
    ]
    for mult, pivot, i, k, updates in schedule.forward:
        lines.append(f"    lik = a{mult} / a{pivot}")
        lines += [f"    a{target} -= lik * a{source}" for target, source in updates]
        lines.append(f"    y{i} -= lik * y{k}")
    for i, diag, terms in schedule.backward:
        lines += [f"    y{i} -= a{e} * y{j}" for e, j in terms]
        lines.append(f"    y{i} /= a{diag}")
    lines.append(f"    return [{', '.join(f'y{i}' for i in range(n))}]")
    return "\n".join(lines)


def _unpack(name: str, n: int) -> str:
    """The targets ``name0, name1, ..., `` that unpack n values in generated code."""
    return "".join(f"{name}{i}, " for i in range(n))


# The longest chain ``a + b + ...`` that a generated expression holds.
# Python's compiler recurses once per operator of a chain: on Python 3.11
# one of 1,000 terms compiled and one of 3,000 raised RecursionError.
_SUM_CHUNK = 200


def _sum_code(terms: list[str], name: str) -> tuple[list[str], str]:
    """The sum of the code ``terms`` from left to right: the statements it needs, and its expression.

    A sum of at most ``_SUM_CHUNK`` terms is one chain and needs no
    statement.  A longer one is summed into ``name``, ``_SUM_CHUNK`` terms
    at a time, by statements ``name = name + ...``, and the expression is
    ``name + ...`` over the last terms: the same additions in the same
    order, so the chain's bits.  No terms give the expression "".
    """
    chunks = [" + ".join(terms[i:i + _SUM_CHUNK]) for i in range(0, len(terms), _SUM_CHUNK)] or [""]
    lines = [f"    {name} = {chunks[0]}"] if len(chunks) > 1 else []
    lines += [f"    {name} = {name} + {chunk}" for chunk in chunks[1:-1]]
    return lines, chunks[-1] if len(chunks) == 1 else f"{name} + {chunks[-1]}"


KERNEL_CODE_MAX = 16


@lru_cache(maxsize=KERNEL_CODE_MAX)
def _kernel_code(generator: Callable[..., str], *args) -> CodeType:
    """The code of the function that ``generator(*args)`` defines: the package's one cache of generated code.

    Keyed by the generator and its inputs, so that a model loaded or made
    again neither builds a source (0.3 to 0.5 ms for the benchmark's
    30-state network's field) nor compiles one (about 117 ms for a
    900-state ring's field).  Equal inputs must make equal source: a
    generator that writes a float's ``repr`` takes it in a form that tells
    -0.0 from 0.0, or writes no zero.  The code and its key outlive their
    models, so the cache keeps the last ``KERNEL_CODE_MAX``.  One CLI call
    on one model uses at most five, in ``invariance``: its field and step
    kernels, its schedule's two and the run kernel of an explicit audit
    scheme.  So 16 hold a few models.
    """
    module = compile(generator(*args), "<nsfd kernel>", "exec")
    return next(const for const in module.co_consts if isinstance(const, CodeType))


def _kernel(generator: Callable[..., str], *args) -> FunctionType:
    """The function of :func:`_kernel_code`, with globals of its own: inf and nan, for generated floats.

    They do not hold the function, so it is freed with its model by
    reference counting alone, not left in a cycle for the collector.
    """
    return FunctionType(_kernel_code(generator, *args), {"inf": math.inf, "nan": math.nan})


@lru_cache(maxsize=8)
def _schedule_of(n: int, pattern: tuple[int, ...]) -> _Schedule:
    """The :class:`_Schedule` of a pattern, made once for all the models that have it."""
    return _Schedule(n, pattern)


def _check_condition(a: np.ndarray, slack, colsum) -> None:
    """The guard's slow path, over one (n, n) system or an (m, n, n) stack, and the slacks and 1-norms of its parts.

    Raises SingularMatrixError for the first system whose reciprocal
    1-norm condition is below PIVOT_RTOL or undefined (NaN).
    """
    n = a.shape[-1]
    a = a.reshape(-1, n, n)
    norms = np.reshape(colsum, (-1, n)).max(axis=-1, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = np.reshape(slack, (-1, n)).min(axis=-1, initial=np.inf) / norms
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
    """Solve ``a @ x = rhs`` with LAPACK ``gesv``.

    ``_parts`` and ``_schedule`` are private: with them, ``a`` and ``rhs``
    are the lists of one system of the integrator, solved by
    :func:`_solve_pattern`.

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
        return _solve_pattern(a, rhs, _parts, _schedule)
    a = _as_square(a)
    n = a.shape[0]
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    return _solve_stack(a, b)


def lu_solve_batch(a, rhs, *, _parts=None, _schedule=None):
    """Solve a stack of square systems ``a[m] @ x[m] = rhs[m]``.

    One pass over the whole stack, so that audits over thousands of
    states cost no Python loop over them: one stacked LAPACK ``gesv``
    call, and ``a`` and ``rhs`` are left unchanged.  ``_parts`` and
    ``_schedule`` are private, as in :func:`lu_solve`: with them, ``a`` and
    ``rhs`` are the integrator's stacks, solved by :func:`_solve_pattern`,
    which works in them.

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
    if _schedule is not None:
        return _solve_pattern(a, rhs, _parts, _schedule)
    a = np.asarray(a, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    m, n, _ = a.shape
    if b.shape != (m, n):
        raise ValueError(f"rhs shape {b.shape} does not match stack shape {(m, n)}")
    return _solve_stack(a, b)


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
