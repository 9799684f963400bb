"""Mass-action systems in two-slot split form.

A model is the vector field ``f(x) = B(x, x) + L x + b`` where the
bilinear part B is stored as sparse coefficient triplets.  The split
evaluator ``phi(y, z) = B(y, z) + (L/2)(y + z) + b`` satisfies
``phi(x, x) = f(x)`` and defines the reversible integrator: each bilinear
product takes one factor from the old state and one from the new state,
which is what makes the implicit update a linear solve.

The two matrix views of B,

    P(y)[i, k] = sum over terms (i, j, k, c) of c * y[j]
    Q(z)[i, j] = sum over terms (i, j, k, c) of c * z[k]

satisfy ``P(y) @ z = Q(z) @ y = B(y, z)``, and the field Jacobian is
``P(x) + Q(x) + L``.  Its entries are encoded once, from the term list
(``MassActionModel._entry_terms``): the step's kernel and the Python
float sums of :func:`f_jacobian` add ``x_j * c_j`` over them in one
order, with no BLAS call.

The field ``f`` is generated code, straight-line Python over the term
list, the nonzeros of each row of L and b (``MassActionModel._f_kernel``),
made on the model's first use by the one generator of field code,
:func:`_field_source`, which also writes the integrator's Euler and RK4
run kernels.  These sources and the step kernel's (:func:`_step_source`)
are compiled once per process for each model's terms, L and b
(``linalg._kernel_code``).  They run on the n Python floats of one state
or on the n (m,) columns of a stack (:func:`_on_rows`), with no BLAS
call, so a row of a stack has the bits of its state alone.  No step
evaluates phi: :func:`eval_phi` is a plain loop in Python floats.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .linalg import _Schedule, _kernel, _schedule_of, _sum_code, _unpack, is_metzler

__all__ = [
    "SpecError",
    "BilinearTerm",
    "Constraint",
    "Domain",
    "MassActionModel",
    "GeneralSplitSystem",
    "ValidationReport",
    "eval_f",
    "eval_phi",
    "assemble_P",
    "assemble_Q",
    "f_jacobian",
    "validate",
    "as_split_system",
    "model_to_dict",
    "model_from_dict",
    "dump_model",
    "load_model",
]

# Cap on the interval passes of _tight_box, which bound the domain and
# every face of it.
_BOX_PASSES = 100


class SpecError(ValueError):
    """Invalid model definition, parameters, or input document."""


def _finite_float(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{what} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SpecError(f"{what} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class BilinearTerm:
    """One coefficient of B: contributes ``c * y[j] * z[k]`` to component i."""

    i: int
    j: int
    k: int
    c: float

    def __post_init__(self) -> None:
        for name in ("i", "j", "k"):
            idx = getattr(self, name)
            if isinstance(idx, bool) or not isinstance(idx, int) or idx < 0:
                raise SpecError(f"bilinear index {name}={idx!r} must be a nonnegative integer")
        c = _finite_float(self.c, "bilinear coefficient")
        if c == 0.0:
            raise SpecError("bilinear coefficient must be nonzero")
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class Constraint:
    """Half-space ``normal . x <= bound`` with outward normal ``normal``."""

    normal: tuple[float, ...]
    bound: float

    def __post_init__(self) -> None:
        normal = tuple(_finite_float(v, "constraint normal entry") for v in self.normal)
        if not normal or all(v == 0.0 for v in normal):
            raise SpecError("constraint normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "bound", _finite_float(self.bound, "constraint bound"))

    @cached_property
    def normal_array(self) -> np.ndarray:
        out = np.array(self.normal, dtype=float)
        out.setflags(write=False)
        return out


def _box_pass(normals: np.ndarray, bounds: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The box [lo, hi] cut by one pass of bound tightening over the caps ``normals @ x <= bounds``.

    In a cap ``u . x <= c``, each ``u_i x_i`` with u_i != 0 is at most c less
    the least value over [lo, hi] of the other terms (-inf, so no bound, if
    one is unbounded below): an upper bound on x_i for u_i > 0, a lower one
    for u_i < 0.  All bounds come from the given box.
    """
    with np.errstate(all="ignore"):
        least = np.where(normals > 0.0, normals * lo, np.where(normals < 0.0, normals * hi, 0.0))
        others = np.where(np.eye(lo.size, dtype=bool), 0.0, least[:, None, :]).sum(axis=2)
        cut = (bounds[:, None] - others) / normals
    # Of equal bounds, such as 0.0 and -0.0, the box's or the earliest cap's is taken.
    lower = np.vstack([lo, np.where(normals < 0.0, cut, -np.inf)])
    upper = np.vstack([hi, np.where(normals > 0.0, cut, np.inf)])
    cols = np.arange(lo.size)
    return lower[lower.argmax(axis=0), cols], upper[upper.argmin(axis=0), cols]


def _tight_box(normals: np.ndarray, bounds: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The box [lo, hi] after :func:`_box_pass` is repeated until neither end moves.

    At most _BOX_PASSES passes are made: each only shrinks the box, but
    the ends may close in on their limit geometrically.
    """
    for _ in range(_BOX_PASSES):
        box = _box_pass(normals, bounds, lo, hi)
        if np.array_equal(box, (lo, hi)):
            break
        lo, hi = box
    return lo, hi


def _check_normals(constraints, n: int) -> None:
    for con in constraints:
        if len(con.normal) != n:
            raise SpecError(f"constraint normal length {len(con.normal)} does not match dimension {n}")


@dataclass(frozen=True)
class Domain:
    """Convex state domain: per-component nonnegativity plus half-spaces.

    ``box_upper`` ends the box of :func:`_tight_box` over the constraints from ``[box_lower, +inf]``.
    """

    nonnegative: tuple[bool, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        flags = tuple(bool(v) for v in self.nonnegative)
        if not flags:
            raise SpecError("domain must have at least one component")
        object.__setattr__(self, "nonnegative", flags)
        cons = tuple(self.constraints)
        _check_normals(cons, len(flags))
        object.__setattr__(self, "constraints", cons)

    @property
    def n(self) -> int:
        return len(self.nonnegative)

    @cached_property
    def _caps(self) -> tuple[np.ndarray, np.ndarray]:
        # The constraints' normals, shape (caps, n), and their bounds.
        normals = np.array([con.normal_array for con in self.constraints]).reshape(-1, self.n)
        return normals, np.array([con.bound for con in self.constraints])

    @cached_property
    def box_upper(self) -> np.ndarray:
        upper = _tight_box(*self._caps, self.box_lower, np.full(self.n, np.inf))[1]
        upper.setflags(write=False)
        return upper

    @cached_property
    def box_lower(self) -> np.ndarray:
        lower = np.where(np.array(self.nonnegative), 0.0, -np.inf)
        lower.setflags(write=False)
        return lower

    @property
    def is_compact(self) -> bool:
        return all(self.nonnegative) and bool(np.all(np.isfinite(self.box_upper)))

    @cached_property
    def _cap_terms(self) -> tuple[tuple[float, tuple[tuple[int, float], ...]], ...]:
        # Each cap's bound and the (j, u_j) of its normal's nonzero entries, in coordinate order.
        return tuple(
            (con.bound, tuple((j, u) for j, u in enumerate(con.normal) if u != 0.0))
            for con in self.constraints
        )

    def margin(self, x) -> float | np.ndarray:
        """Smallest slack of ``x`` against all facets (negative = outside).

        States stack on the leading axes of ``x``, one margin each; a
        single state gives a float.  The facets are taken in order from the
        state's columns, elementwise and with no BLAS call: a running
        minimum of the flagged components, then of each cap's ``c - u . x``,
        whose ``u . x`` sums ``u_j * x_j`` over the normal's nonzero entries
        in coordinate order, ``x_j`` alone where ``u_j`` is 1.  A row of a
        stack so has the bits of its state alone, and a NaN anywhere in a
        slack gives a NaN margin.
        """
        # x.T puts the components first and reverses the leading axes, which out.T puts back.
        cols = np.asarray(x, dtype=float).T
        flagged = [cols[i] for i, flag in enumerate(self.nonnegative) if flag]
        out = np.array(flagged[0]) if flagged else np.full(cols.shape[1:], np.inf)
        # A sum that overflows, or meets infinities of both signs, is quiet, as in BLAS.
        with np.errstate(over="ignore", invalid="ignore"):
            for col in flagged[1:]:
                np.minimum(out, col, out=out)
            for bound, terms in self._cap_terms:
                total = None
                for j, u in terms:
                    term = cols[j] if u == 1.0 else u * cols[j]
                    total = term if total is None else total + term
                np.minimum(out, bound - total, out=out)
        return float(out) if out.ndim == 0 else out.T

    def contains(self, x, slack: float = 0.0) -> bool:
        return self.margin(x) >= -slack


def _readonly_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    message = f"{what} must be an array of real numbers with shape {shape}"
    try:
        entries = np.array(values, dtype=object)
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(message) from exc
    # Each entry type once, since large models have many entries of few types.
    kinds = {type(v) for v in entries.flat}
    if not all(issubclass(k, numbers.Real) and not issubclass(k, (bool, np.bool_)) for k in kinds):
        raise SpecError(message)
    if arr.shape != shape:
        raise SpecError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{what} must have finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MassActionModel:
    """Immutable mass-action system ``f(x) = B(x, x) + L x + b``."""

    n: int
    bilinear: tuple[BilinearTerm, ...]
    linear: np.ndarray
    constant: np.ndarray
    domain: Domain
    labels: tuple[str, ...]
    name: str = "model"

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise SpecError(f"dimension must be a positive integer, got {self.n!r}")
        terms = tuple(self.bilinear)
        for t in terms:
            if not isinstance(t, BilinearTerm):
                raise SpecError("bilinear entries must be BilinearTerm instances")
            if max(t.i, t.j, t.k) >= self.n:
                raise SpecError(f"bilinear term {t} has an index outside dimension {self.n}")
        object.__setattr__(self, "bilinear", terms)
        object.__setattr__(self, "linear", _readonly_array(self.linear, (self.n, self.n), "linear part"))
        object.__setattr__(self, "constant", _readonly_array(self.constant, (self.n,), "constant part"))
        if not isinstance(self.domain, Domain):
            raise SpecError("domain must be a Domain instance")
        if self.domain.n != self.n:
            raise SpecError(f"domain dimension {self.domain.n} does not match model dimension {self.n}")
        labels = tuple(str(v) for v in self.labels)
        if len(labels) != self.n:
            raise SpecError(f"expected {self.n} labels, got {len(labels)}")
        for lab in labels:
            if not lab or ("," in lab) or ("\n" in lab):
                raise SpecError(f"label {lab!r} is empty or not CSV-safe")
        object.__setattr__(self, "labels", labels)
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("model name must be a nonempty string")

    # The one table of S(x): the entries of I - h S(x) that can be nonzero,
    # in order (the diagonal, the nonzeros of L and the entries of P(x) +
    # Q(x) that some term touches, joined by a set, as np.union1d's first
    # call costs about 1 MB of memory), each as (flat entry, its identity
    # entry, its L entry, its (j, c_j) terms with c_j != 0 in coordinate
    # order), so that x_j * c_j summed over the terms is its P(x) + Q(x)
    # value.  Each c_j sums from 0.0, first the P contributions c of the
    # terms (i, j, k, c) to entry (i, k) in term order, then their Q
    # contributions to (i, j) at k.  An entry whose coefficients cancel
    # stays, with no terms.
    @cached_property
    def _entry_terms(self) -> tuple[tuple[int, float, float, tuple[tuple[int, float], ...]], ...]:
        n, terms = self.n, self.bilinear
        pq: dict[int, dict[int, float]] = {}
        for e, j, c in [(t.i * n + t.k, t.j, t.c) for t in terms] + [(t.i * n + t.j, t.k, t.c) for t in terms]:
            coefs = pq.setdefault(e, {})
            coefs[j] = coefs.get(j, 0.0) + c
        pattern = sorted(set(range(0, n * n, n + 1)).union(np.flatnonzero(self.linear).tolist(), pq))
        return tuple(
            (e, float(e % (n + 1) == 0), lin, tuple((j, c) for j, c in sorted(pq.get(e, {}).items()) if c))
            for e, lin in zip(pattern, self.linear.ravel()[pattern].tolist())
        )

    # The elimination schedule of the entries of _entry_terms, made on the
    # model's first step, not with the model.
    @cached_property
    def _schedule(self) -> _Schedule:
        return _schedule_of(self.n, tuple(e for e, *_ in self._entry_terms))

    # Row i of L as its (j, L[i, j]) nonzeros in column order, as np.nonzero
    # gives them, without a pass over the zeros of L: the right-hand side of
    # a step sums L x over them.
    @cached_property
    def _linear_rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        rows: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
        nonzero = np.nonzero(self.linear)
        for i, j, c in zip(*(a.tolist() for a in (*nonzero, self.linear[nonzero]))):
            rows[i].append((j, c))
        return tuple(map(tuple, rows))

    # The interval pass of integrator.step_bound, run on its first call for
    # the model: the U_j of every column j, read-only.
    @cached_property
    def _column_sups(self) -> np.ndarray:
        lo_x = self.domain.box_lower
        hi_x = self.domain.box_upper
        s_lo = 0.5 * np.array(self.linear)
        s_hi = 0.5 * np.array(self.linear)
        for t in self.bilinear:
            for col, var in ((t.k, t.j), (t.j, t.k)):
                g = 0.5 * t.c
                a = g * lo_x[var]
                b = g * hi_x[var]
                s_lo[t.i, col] += min(a, b)
                s_hi[t.i, col] += max(a, b)
        u = np.maximum(np.abs(s_lo), np.abs(s_hi)).sum(axis=0)
        u.setflags(write=False)
        return u

    # The step system of one state in Python floats or of a stack in (m,)
    # columns, made on its first step: step_system(x, h), for n values
    # x and a signed h, a float or an (m,) array, gives the values of
    # I - h S(x) at the _schedule's pattern, each base - (t + L_e) * 0.5 * h
    # with t summed from 0.0 over _entry_terms, and the right-hand side
    # s * (0.5 h) + x_i + h b_i + 0.0 with s summed from 0.0 over
    # _linear_rows.  The code leaves out the terms that change no bit: the
    # 0.0 that starts each sum, and an L_e, an h b_i or a whole product
    # that is zero.  Without them a sum can only turn a +0.0 into -0.0, and
    # the sign of that zero is lost in the next step: base - (+-0.0) for a
    # base of 0.0 or 1.0, an addition of a nonzero value, or the closing
    # + 0.0.  A pattern entry that no term touches is a float for a float h.
    @cached_property
    def _step_kernel(self) -> Callable:
        return _kernel(_step_source, self.n, self._entry_terms, self._linear_rows, tuple(self.constant.tolist()))

    # The field f(x) of one state in Python floats or of a stack in (m,)
    # columns, made on its first use: for n values x, the list of the n
    # values of row i, its bilinear terms (c * x_j) * x_k in term order,
    # then the sum of L_ij x_j over the row's nonzeros in column order,
    # then + b_i, each sum from its first term.  A row with no terms and no
    # L entry is the float b_i.  The explicit schemes' run kernels write
    # out the same rows at each stage (_field_source).
    #
    # A mass-action reaction is a loss in one row and a gain in another, so
    # rows repeat or mirror each other's term lists, read as (c, j, k) in
    # term order.  A row that sums its own terms names the sum s_i.  A later
    # row with the same list takes s_i, with its bits.  A later row with the
    # negated list takes 0.0 - s_i: negation is exact and round-to-nearest
    # is symmetric, so each of its products and partial sums is the
    # negation of the other's, and 0.0 - s_i is -s_i, with the NaN of s_i,
    # whose sign unary minus would flip.  Only a zero sum may differ, where
    # 0.0 - s_i is +0.0: the row's closing + b_i gives its own bits for any
    # b_i but -0.0, and a row with b_i = -0.0 sums its own terms.
    @cached_property
    def _f_kernel(self) -> Callable:
        return _kernel(_field_source, "f", self.n, self.bilinear, self._linear_rows, self.constant.tobytes())


def _step_source(n: int, entry_terms: tuple, linear_rows: tuple, constant: tuple) -> str:
    """The source of ``MassActionModel._step_kernel`` from the model's ``_entry_terms``, ``_linear_rows`` and b.

    Equal arguments make equal source, as ``linalg._kernel_code`` needs:
    the only equal floats with different ``repr``s are the two zeros, and
    the source holds no zero but each entry's base, which is +0.0 or 1.0.
    """

    def products(terms):
        return [f"x{j} * {c!r}" for j, c in terms]

    sums, entries = [], []
    for e, (_, base, lin, terms) in enumerate(entry_terms):
        lines, t = _sum_code([*products(terms), *([f"{lin!r}"] if lin else [])], f"t{e}")
        sums += lines
        entries.append(f"{base!r} - ({t}) * 0.5 * h" if t else f"{base!r}")
    rhs = []
    for i, (terms, b) in enumerate(zip(linear_rows, constant)):
        lines, s = _sum_code(products(terms), f"s{i}")
        sums += lines
        rhs.append(f"{f'({s}) * half + ' if s else ''}x{i}{f' + h * {b!r}' if b else ''} + 0.0")
    return "\n".join([
        "def step_system(x, h):",
        f"    {_unpack('x', n)}= x",
        "    half = 0.5 * h",
        *sums,
        f"    return [{', '.join(entries)}], [{', '.join(rhs)}]",
    ])


def _field_source(scheme: str, n: int, bilinear: tuple, linear_rows: tuple, constant: bytes) -> str:
    """The source of a model's field kernel ``f(x)`` (``scheme`` 'f') or run kernel ``euler(x, h, k)`` or ``rk4(x, h, k)``.

    b comes as bytes, as the source writes a b_i of -0.0 and the
    mirrored-row rule reads its sign.  A run kernel runs k steps of
    ``x + h f(x)`` or the classical four-stage formula and gives the last
    state.  Each stage writes out the rows of ``f``, so its bits, on the
    stage's variables: x, then ``u = x + step * k`` for the stage k before.
    """

    def stage(inputs: str, out: str) -> list[str]:
        sums, rows = _field_rows(bilinear, linear_rows, constant, inputs)
        return [*sums, *(f"    {out}{i} = {row}" for i, row in enumerate(rows))]

    head = [f"def {scheme}(x{'' if scheme == 'f' else ', h, k'}):", f"    {_unpack('x', n)}= x"]
    if scheme == "f":
        sums, rows = _field_rows(bilinear, linear_rows, constant, "x")
        return "\n".join([*head, *sums, f"    return [{', '.join(rows)}]"])
    body = stage("x", "a")
    if scheme == "euler":
        body += [f"    x{i} = x{i} + h * a{i}" for i in range(n)]
    else:
        for k, step, out in (("a", "half", "b"), ("b", "half", "c"), ("c", "h", "d")):
            body += [f"    u{i} = x{i} + {step} * {k}{i}" for i in range(n)]
            body += stage("u", out)
        body += [f"    x{i} = x{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})" for i in range(n)]
    return "\n".join([
        *head,
        *(["    half = 0.5 * h", "    sixth = h / 6.0"] if scheme == "rk4" else []),
        "    for _ in range(k):",
        *(f"    {line}" for line in body),
        f"    return [{', '.join(f'x{i}' for i in range(n))}]",
    ])


def _field_rows(bilinear: tuple, linear_rows: tuple, constant: bytes, x: str) -> tuple:
    """The statements and the n row expressions of the field on the variables ``x0, x1, ...``.

    By the rules of ``MassActionModel._f_kernel``, for each field that
    :func:`_field_source` writes out.  The statements, one indent deep,
    name sums ``s<i>`` and ``l<i>``.
    """
    rows_terms: list[list[tuple[float, int, int]]] = [[] for _ in linear_rows]
    for t in bilinear:
        rows_terms[t.i].append((t.c, t.j, t.k))
    # The name of the sum of each term list that a row sums itself.
    summed: dict[tuple[tuple[float, int, int], ...], str] = {}
    sums, rows = [], []
    for i, (terms, lin, b) in enumerate(zip(map(tuple, rows_terms), linear_rows, np.frombuffer(constant).tolist())):
        mirror = tuple((-c, j, k) for c, j, k in terms)
        if terms in summed:
            bilinear_sum = summed[terms]
        elif mirror in summed and not (b == 0.0 and math.copysign(1.0, b) < 0.0):
            bilinear_sum = f"0.0 - {summed[mirror]}"
        elif terms:
            lines, total = _sum_code([f"{c!r} * {x}{j} * {x}{k}" for c, j, k in terms], f"s{i}")
            sums += [*lines, f"    s{i} = {total}"]
            bilinear_sum = summed[terms] = f"s{i}"
        else:
            bilinear_sum = ""
        more, linear_sum = _sum_code([f"{c!r} * {x}{j}" for j, c in lin], f"l{i}")
        sums += more
        rows.append(" + ".join(filter(None, (bilinear_sum, linear_sum and f"({linear_sum})", f"{b!r}"))))
    return sums, rows


def _check_state(model: MassActionModel, x, what: str = "state") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (model.n,):
        raise SpecError(f"{what} must have shape ({model.n},), got {arr.shape}")
    # A finite sum has finite terms and costs less than a ufunc; as a sum of
    # finite terms may overflow, the entries are read only when it is not.
    if not math.isfinite(sum(arr.tolist())) and not np.isfinite(arr).all():
        raise SpecError(f"{what} must have finite entries")
    return arr


def _on_rows(kernel: Callable, x: np.ndarray, *args) -> np.ndarray:
    """A generated kernel of the model run on one state or on each row of a stack, with ``args`` after it.

    One (n,) state runs in Python floats and gives an (n,) array.  An
    (m, n) stack runs the same code on its n contiguous (m,) columns, so
    that row r gets the bits of its state alone, and gives a C-ordered
    (m, n) array.  numpy's floating-point warnings are off for a stack, as
    Python floats raise none.
    """
    if x.ndim == 1:
        return np.array(kernel(x.tolist(), *args))
    out = np.empty(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernel(list(np.ascontiguousarray(x.T)), *args)
    for column, value in zip(out.T, got):
        column[...] = value
    return out


def eval_phi(model: MassActionModel, y, z) -> np.ndarray:
    """Split field ``phi(y, z) = B(y, z) + (L/2)(y + z) + b`` of two checked states, with no stack axis.

    A loop in Python floats, in the field kernel's order: per row, the
    terms ``(c * y_j) * z_k``, then ``0.5 *`` the sum of ``L_ij * (y_j +
    z_j)``, then ``b_i``.  ``eval_phi(m, x, x)`` agrees exactly with
    :func:`eval_f` wherever no product ``L_ij x_j`` is subnormal and no
    doubled ``x_j``, product or partial sum of the L part overflows.
    """
    y = _check_state(model, y, "first argument").tolist()
    z = _check_state(model, z, "second argument").tolist()
    rows: list[list[float]] = [[] for _ in range(model.n)]
    for t in model.bilinear:
        rows[t.i].append(t.c * y[t.j] * z[t.k])
    for row, terms in zip(rows, model._linear_rows):
        if terms:
            row.append(0.5 * reduce(operator.add, [c * (y[j] + z[j]) for j, c in terms]))
    return np.array([reduce(operator.add, [*row, b]) for row, b in zip(rows, model.constant.tolist())])


def eval_f(model: MassActionModel, x) -> np.ndarray:
    """Vector field ``f(x) = B(x, x) + L x + b``.

    The state is checked, then evaluated by the model's generated
    ``_f_kernel``.  It agrees exactly with ``eval_phi(m, x, x)`` wherever
    no product ``L_ij x_j`` is subnormal and no doubled ``x_j``, product or
    partial sum of the L part overflows; at those edges ``phi(x, x)``
    rounds otherwise, or overflows where ``f(x)`` does not.
    """
    return _on_rows(model._f_kernel, _check_state(model, x))


def _slot_matrix(n: int, products) -> np.ndarray:
    """The (n, n) matrix whose flat entry e sums the values of the ``(e, value)`` pairs from 0.0, in their order.

    The sums are in Python floats, so one that overflows is quiet.
    """
    sums: dict[int, float] = {}
    for e, value in products:
        sums[e] = sums.get(e, 0.0) + value
    out = np.zeros(n * n)
    out[list(sums)] = list(sums.values())
    return out.reshape(n, n)


def assemble_P(model: MassActionModel, y) -> np.ndarray:
    """First-slot matrix: ``P(y)[i, k] = sum c * y[j]`` over terms (i, j, k, c), in term order."""
    y = _check_state(model, y).tolist()
    return _slot_matrix(model.n, [(t.i * model.n + t.k, t.c * y[t.j]) for t in model.bilinear])


def assemble_Q(model: MassActionModel, z) -> np.ndarray:
    """Second-slot matrix: ``Q(z)[i, j] = sum c * z[k]`` over terms (i, j, k, c), in term order."""
    z = _check_state(model, z).tolist()
    return _slot_matrix(model.n, [(t.i * model.n + t.j, t.c * z[t.k]) for t in model.bilinear])


def f_jacobian(model: MassActionModel, x) -> np.ndarray:
    """Analytic field Jacobian ``P(x) + Q(x) + L``, zero off the entries of ``_entry_terms``.

    Each entry sums ``x_j * c_j`` over its terms from 0.0, in coordinate
    order, then adds its L value, as ``_step_kernel`` does, in Python
    floats: a sum that overflows, or meets infinities of both signs, is quiet.
    """
    x = _check_state(model, x).tolist()
    out = np.zeros(model.n * model.n)
    for e, _, lin, terms in model._entry_terms:
        s = 0.0
        for j, c in terms:
            s += x[j] * c
        out[e] = s + lin
    return out.reshape(model.n, model.n)


@dataclass(frozen=True)
class ValidationReport:
    """Structural health flags for a model; report-only, never raises."""

    metzler: bool
    constant_nonnegative: bool
    compact_domain: bool
    issues: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.metzler and self.constant_nonnegative and self.compact_domain


def validate(model: MassActionModel) -> ValidationReport:
    """Check sign structure, constant part and domain compactness.

    The sign check is structural, not sampled: off-diagonal entries of L
    must be >= 0, and a bilinear term with c < 0 must touch its own target
    component (i == j or i == k) so that the negative contribution carries
    a factor x[i] and vanishes on the facet x[i] = 0.  Together with b >= 0
    this is what keeps the implicit update nonnegativity-preserving.
    ``P(y) z == Q(z) y`` is not checked: both sum ``c y_j z_k`` over the
    same terms, by the definitions of :func:`assemble_P` and
    :func:`assemble_Q`, for every model.
    """
    issues: list[str] = []

    metzler = is_metzler(model.linear)
    if not metzler:
        issues.append("linear part has a negative off-diagonal entry")
    for t in model.bilinear:
        if t.c < 0.0 and t.i != t.j and t.i != t.k:
            metzler = False
            issues.append(
                f"bilinear term (i={t.i}, j={t.j}, k={t.k}, c={t.c}) drains a component it does not touch"
            )

    constant_nonnegative = bool(np.all(model.constant >= 0.0))
    if not constant_nonnegative:
        issues.append("constant part has a negative entry")

    compact = model.domain.is_compact
    if not compact:
        issues.append("domain is not compact (missing nonnegativity or an upper bound)")

    return ValidationReport(
        metzler=metzler, constant_nonnegative=constant_nonnegative, compact_domain=compact, issues=tuple(issues)
    )


@dataclass(frozen=True)
class GeneralSplitSystem:
    """A system given directly by its split evaluator ``phi(y, z)``.

    ``phi(x, x)`` must equal the vector field.  The slot Jacobians are
    optional; the implicit stepper falls back to finite differences when
    they are absent.
    """

    n: int
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi_dy: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    dphi_dz: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def as_split_system(model: MassActionModel) -> GeneralSplitSystem:
    """Wrap a mass-action model as a split system with analytic Jacobians."""
    half_l = 0.5 * np.array(model.linear)

    def dphi_dy(y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return assemble_Q(model, z) + half_l

    def dphi_dz(y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return assemble_P(model, y) + half_l

    return GeneralSplitSystem(
        n=model.n,
        phi=lambda y, z: eval_phi(model, y, z),
        dphi_dy=dphi_dy,
        dphi_dz=dphi_dz,
    )


# ---------------------------------------------------------------------------
# JSON document format
#
# {"name": str, "dim": int, "labels": [str], "bilinear": [{"i", "j", "k",
#  "c"}], "linear": [[...]] (row-major), "constant": [...], "domain":
#  {"nonnegative": [bool] or true, "constraints": [{"normal": [...],
#  "bound": ...}]}}.  Unknown keys are rejected at every level.
# ---------------------------------------------------------------------------

_TOP_KEYS = ("name", "dim", "labels", "bilinear", "linear", "constant", "domain")
_TERM_KEYS = ("i", "j", "k", "c")
_DOMAIN_KEYS = ("nonnegative", "constraints")
_CONSTRAINT_KEYS = ("normal", "bound")


def _require_keys(doc: dict, allowed: tuple[str, ...], required: tuple[str, ...], where: str) -> None:
    if not isinstance(doc, dict):
        raise SpecError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise SpecError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise SpecError(f"missing keys in {where}: {', '.join(missing)}")


def _int_field(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{what} must be an integer, got {value!r}")
    return value


def model_from_dict(doc: dict) -> MassActionModel:
    """Build a model from a schema document, rejecting unknown keys."""
    _require_keys(doc, _TOP_KEYS, _TOP_KEYS, "model document")
    if not isinstance(doc["name"], str):
        raise SpecError("name must be a string")
    dim = _int_field(doc["dim"], "dim")
    if dim < 1:
        raise SpecError(f"dim must be positive, got {dim}")
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise SpecError("labels must be a list of strings")

    if not isinstance(doc["bilinear"], list):
        raise SpecError("bilinear must be a list")
    terms = []
    for idx, item in enumerate(doc["bilinear"]):
        _require_keys(item, _TERM_KEYS, _TERM_KEYS, f"bilinear[{idx}]")
        terms.append(
            BilinearTerm(
                i=_int_field(item["i"], f"bilinear[{idx}].i"),
                j=_int_field(item["j"], f"bilinear[{idx}].j"),
                k=_int_field(item["k"], f"bilinear[{idx}].k"),
                c=_finite_float(item["c"], f"bilinear[{idx}].c"),
            )
        )

    dom = doc["domain"]
    _require_keys(dom, _DOMAIN_KEYS, ("nonnegative",), "domain")
    nn = dom["nonnegative"]
    if isinstance(nn, list) and all(isinstance(v, bool) for v in nn):
        if len(nn) != dim:
            raise SpecError(f"nonnegative has {len(nn)} entries, expected {dim}")
    elif nn is not True:
        raise SpecError("nonnegative must be true or a list of booleans")
    if not isinstance(dom.get("constraints", []), list):
        raise SpecError("constraints must be a list")
    constraints = []
    for idx, item in enumerate(dom.get("constraints", [])):
        _require_keys(item, _CONSTRAINT_KEYS, _CONSTRAINT_KEYS, f"constraints[{idx}]")
        if not isinstance(item["normal"], list):
            raise SpecError(f"constraints[{idx}].normal must be a list")
        constraints.append(
            Constraint(
                normal=tuple(_finite_float(v, f"constraints[{idx}].normal entry") for v in item["normal"]),
                bound=_finite_float(item["bound"], f"constraints[{idx}].bound"),
            )
        )
    if nn is True:
        # The flags take memory in dim: a dim that the document's lists cannot
        # match is refused first, by the domain's or the linear part's check.
        _check_normals(constraints, dim)
        if not (isinstance(doc["linear"], list) and len(doc["linear"]) == dim):
            _readonly_array(doc["linear"], (dim, dim), "linear part")
        nn = (True,) * dim

    return MassActionModel(
        n=dim,
        bilinear=tuple(terms),
        linear=doc["linear"],
        constant=doc["constant"],
        domain=Domain(nonnegative=nn, constraints=tuple(constraints)),
        labels=tuple(labels),
        name=doc["name"],
    )


def model_to_dict(model: MassActionModel) -> dict:
    """Canonical schema document for a model (floats survive a round trip)."""
    return {
        "name": model.name,
        "dim": model.n,
        "labels": list(model.labels),
        "bilinear": [{"i": t.i, "j": t.j, "k": t.k, "c": t.c} for t in model.bilinear],
        "linear": [[float(v) for v in row] for row in model.linear],
        "constant": [float(v) for v in model.constant],
        "domain": {
            "nonnegative": list(model.domain.nonnegative),
            "constraints": [
                {"normal": [float(v) for v in c.normal], "bound": c.bound}
                for c in model.domain.constraints
            ],
        },
    }


def dump_model(model: MassActionModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def _read_model_text(path) -> str:
    """The text of a model file; a file that cannot be read or decoded is a SpecError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:
        # Undecodable bytes.
        raise SpecError(f"model file {path} is not valid JSON: {exc}") from exc


def _model_from_text(text: str, path) -> MassActionModel:
    """A new model from the text of the model file at ``path``, which names it in errors."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # Also integers beyond Python's digit limit.
        raise SpecError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def load_model(path) -> MassActionModel:
    """Load a model document from a JSON file, as a new model on every call; all failures are SpecError."""
    return _model_from_text(_read_model_text(path), path)
