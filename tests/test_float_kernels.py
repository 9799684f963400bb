"""The compiled kernels of a model, against the interpreted loops they replaced.

A model steps one state through straight-line code made from its
elimination schedule (``linalg._Schedule.slack_pass`` and, for a small
model, ``linalg._Schedule.eliminate``) and from its entry formulas
(``MassActionModel._step_kernel``), in Python floats, and a stack of
states through the same code on its (m,) columns; a larger model's
system goes to LAPACK.  Every model evaluates its split field and the
explicit Euler and RK4 steps through its generated ``_phi_kernel`` in
the same two ways.  The reference here is
the loop form of the same code, over the same schedule tuples and term
lists: every output must have its bits, signed zeros and errors
included.
"""

import dataclasses
import gc
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

import nsfd.integrator
import nsfd.linalg
from nsfd.integrator import (
    _check_dominance,
    step_backward,
    step_backward_batch,
    step_bound,
    step_forward,
    step_forward_batch,
)
from nsfd.integrator import _explicit_step
from nsfd.invariance import invariance_audit
from nsfd.linalg import (
    FLOAT_ELIMINATION_MAX_OPS,
    KERNEL_CODE_MAX,
    PIVOT_RTOL,
    _check_condition,
    _dense,
    _kernel_code,
    _schedule_of,
    _slack_parts,
)
from nsfd.model import (
    BilinearTerm, Domain, MassActionModel, _on_rows, _phi_rows, dump_model, eval_f, eval_phi, load_model
)
from nsfd.models import HostVectorParameters, make_host_vector, make_logistic


def _interpreted_system(model, x, h):
    """The step system of one state by loops: entries, right-hand side and slack parts."""
    xs = x.tolist()
    n = model.n
    mats = [0.0] * (n * n)
    for e, base, lin, terms in model._entry_terms:
        t = 0.0
        for j, c in terms:
            t += xs[j] * c
        mats[e] = base - (t + lin) * 0.5 * h
    diag, off = [], []
    for d, column in model._schedule.columns:
        total = 0.0
        for e in column:
            total += abs(mats[e])
        diag.append(abs(mats[d]))
        off.append(total)
    slack = [d - o for d, o in zip(diag, off)]
    smin = math.nan if any(map(math.isnan, slack)) else min(slack)
    parts = slack, [d + o for d, o in zip(diag, off)], smin
    half = 0.5 * h
    rhs = []
    for xi, terms, b in zip(xs, model._linear_rows, model.constant.tolist()):
        s = 0.0
        for j, c in terms:
            s += xs[j] * c
        rhs.append(s * half + xi + h * b + 0.0)
    return mats, rhs, parts


def _interpreted_eliminate(v, y, schedule):
    """Elimination over ``schedule`` by loops, in the lists ``v`` and ``y``; ``y`` becomes the solution."""
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


def _interpreted_step(model, x, h, lapack=False):
    """One step with signed h by the loops, through the dominance check and the solve guard.

    The looped system is solved by the looped elimination, or with
    ``lapack`` by ``np.linalg.solve`` on its pattern values scattered
    into the (n, n) matrix.
    """
    mats, rhs, parts = _interpreted_system(model, x, h)
    _check_dominance(model, parts, h)
    slack, colsum, smin = parts
    if not (0.0 < smin < math.inf and smin >= PIVOT_RTOL * max(colsum)):
        n = model.n
        _check_condition(np.reshape(mats, (1, n, n)), np.reshape(slack, (1, n)), np.reshape(colsum, (1, n)))
    if lapack:
        schedule = model._schedule
        return np.linalg.solve(_dense([[mats[e] for e in schedule.pattern]], schedule)[0], np.array(rhs))
    return np.array(_interpreted_eliminate(mats, rhs, model._schedule))


def _outcome(fn, *args):
    """The bytes of what ``fn`` returns, or the type and message of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return tuple(_outcome(lambda part=part: part) for part in out)
    return np.array(out, dtype=float).tobytes()


# Magnitudes from subnormal to near overflow, both signed zeros, and the
# moderate values with which the step matrices stay dominant, some with
# all 53 bits of their significand in use, so that sums in another order
# round otherwise.
_EXTREMES = (5e-324, 1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e300)
_values = st.one_of(
    st.sampled_from((0.0, -0.0)),
    st.floats(-2.0, 2.0),
    st.integers(-(2**53), 2**53).map(lambda k: k * 2.0**-52),
    st.sampled_from(_EXTREMES).flatmap(lambda v: st.sampled_from((v, -v))),
)


def _model(linear, constant=None, terms=()):
    n = len(linear)
    return MassActionModel(
        n=n,
        bilinear=tuple(BilinearTerm(*t) for t in terms),
        linear=linear,
        constant=[0.0] * n if constant is None else constant,
        domain=Domain((True,) * n),
        labels=tuple(f"x{i}" for i in range(n)),
    )


# Its one term adds 1e308 to the coefficient of x0 in entry (0, 0) twice,
# once from P and once from Q, and 2e308 overflows to inf.
_OVERFLOWING = _model([[0.0]], terms=((0, 0, 0, 1e308),))


@st.composite
def _small_steps(draw):
    """A random model of one to four states and a state of it."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    terms = draw(st.lists(st.tuples(index, index, index, _values.filter(bool)), max_size=2 * n))
    linear = draw(st.lists(_values, min_size=n * n, max_size=n * n))
    constant = draw(st.lists(_values, min_size=n, max_size=n))
    x = draw(st.lists(_values, min_size=n, max_size=n))
    return _model(np.reshape(linear, (n, n)), constant, terms), np.array(x)


@seed(29)
@given(
    step=_small_steps(),
    h=st.one_of(st.floats(1e-3, 1.0), st.sampled_from((5e-324, 1e-200, 1e10))),
    backward=st.booleans(),
)
# Row 0 of L x sums to 1.0 in column order and to 1 + 2^-52 the other way.
@example(
    step=(_model([[0.0, 1.0, 1e-16, 1e-16], *[[0.0] * 4] * 3]), np.array([0.0, 1, 1, 1])), h=2.0, backward=False
)
# Column 1 overflows to -inf twice, so its slack is NaN, after column 0's 1.0.
@example(step=(_model([[0.0, 1e300], [0.0, 1e300]]), np.ones(2)), h=1e10, backward=False)
@example(step=(_OVERFLOWING, np.array([0.5])), h=0.5, backward=True)
@example(step=(_OVERFLOWING, np.array([0.0])), h=0.5, backward=False)
# h b_1 overflows, and the eliminated stack of 16 rows takes inf * 5e-324.
@example(step=(_model([[0.0, 5e-324], [0.0, 0.0]], [0.0, 1e300]), np.zeros(2)), h=1e10, backward=False)
# The coefficient of x1 in entry (0, 0) sums to 1.0 from P first and to
# 1 + 2^-52 from Q first; those of entries (1, 0) and (1, 1) cancel.
@example(
    step=(_model([[0.0] * 2] * 2, terms=((0, 1, 0, 1.0), *[(0, 0, 1, 2.0**-53)] * 2, (1, 1, 0, 0.5), (1, 1, 0, -0.5))),
          np.ones(2)),
    h=0.5,
    backward=False,
)
def test_the_compiled_step_matches_the_interpreted_loops(step, h, backward, touched_map):
    model, x = step
    signed = -h if backward else h
    assert model._schedule.size <= FLOAT_ELIMINATION_MAX_OPS
    assert repr(model._entry_terms) == repr(_touched_entry_terms(model, touched_map))
    mats, rhs, parts = _interpreted_system(model, x, signed)
    values = [mats[e] for e in model._schedule.pattern]
    assert _outcome(model._step_kernel, x.tolist(), signed) == _outcome(lambda: (values, rhs))
    slack_pass, eliminate = model._schedule.slack_pass, model._schedule.eliminate
    assert _outcome(slack_pass, values) == _outcome(lambda: parts[:2])
    assert _outcome(_slack_parts, values, model._schedule) == _outcome(lambda: parts)
    assert _outcome(eliminate, values, list(rhs)) == _outcome(_interpreted_eliminate, mats, rhs, model._schedule)
    stepper, batch = (step_backward, step_backward_batch) if backward else (step_forward, step_forward_batch)
    alone = _outcome(_interpreted_step, model, x, signed)
    assert _outcome(stepper, model, x, h) == alone
    # The same code steps a stack on its columns, eliminated from 2 n^3 rows.
    m = max(2 * model.n**3, 3)
    rows = _outcome(batch, model, np.tile(x, (m, 1)), h)
    if isinstance(alone, tuple):
        assert rows[0] == alone[0]
    else:
        assert rows == alone * m


@pytest.mark.parametrize("step, sign", [(step_forward, 1.0), (step_backward, -1.0)])
def test_the_compiled_step_keeps_the_bits_of_the_loops_on_the_built_ins(all_models, sir_network, rng, step, sign):
    # The entries of S_p in sir_network read three coordinates of x each.
    for model in (*all_models, sir_network):
        lo, hi = model.domain.box_lower, model.domain.box_upper
        xs = lo + (hi - lo) * rng.random((2000, model.n))
        zeros = rng.random(xs.shape) < 0.2
        xs[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        hs = rng.uniform(0.05, 0.95, 2000) * step_bound(model).h_bar
        for x, h in zip(xs, hs):
            assert _outcome(step, model, x, h) == _outcome(_interpreted_step, model, x, sign * h), model.name


def _touched_entry_terms(model, touched_map):
    """``model._entry_terms`` as read from the dense map of ``touched_map``, which the model no longer builds."""
    entries, g = touched_map(model)
    n = model.n
    pattern = sorted(set(range(0, n * n, n + 1)).union(np.flatnonzero(model.linear).tolist(), entries.tolist()))
    cols = dict(zip(entries.tolist(), g.T.tolist()))
    eye, lin = np.eye(n).ravel().tolist(), model.linear.ravel().tolist()
    return tuple((e, eye[e], lin[e], tuple((j, c) for j, c in enumerate(cols.get(e, ())) if c)) for e in pattern)


def test_the_entry_terms_match_the_dense_map(
    all_models, sir_network, sir_ring_30, seeded_network, two_coordinate_entries, touched_map
):
    # The entries of S_p read three coordinates of x in sir_network and
    # sir_ring_30, and four in seeded_network.
    for model in (*all_models, sir_network, sir_ring_30, seeded_network, two_coordinate_entries):
        assert repr(model._entry_terms) == repr(_touched_entry_terms(model, touched_map)), model.name


@pytest.mark.parametrize("step, sign", [(step_forward, 1.0), (step_backward, -1.0)])
def test_a_state_past_the_cut_off_steps_with_the_bytes_of_lapack_on_the_loops(
    sir_ring_30, seeded_network, rng, step, sign
):
    # Its system is assembled by the compiled kernel and solved by LAPACK:
    # the bits of the looped system solved so, and the same error type and
    # message for an h far above h_bar and for a start whose right-hand
    # side overflows.
    for model in (sir_ring_30, seeded_network):
        assert model._schedule.size > FLOAT_ELIMINATION_MAX_OPS
        lo, hi = model.domain.box_lower, model.domain.box_upper
        xs = lo + (hi - lo) * rng.random((100, model.n))
        xs[rng.random(xs.shape) < 0.2] = 0.0
        h_bar = step_bound(model).h_bar
        for x in xs:
            want = _outcome(_interpreted_step, model, x, sign * 0.9 * h_bar, True)
            assert _outcome(step, model, x, 0.9 * h_bar) == want, model.name
        # From the largest float, x + (h/2) (L x)_i overflows in some rows.
        for x, h in ((xs[0], 30.0 * h_bar), (np.full(model.n, np.finfo(float).max), 0.5 * h_bar)):
            want = _outcome(_interpreted_step, model, x, sign * h, True)
            assert want[0] == "DominanceError"
            assert _outcome(step, model, x, h) == want, model.name


def _chain(values):
    """The sum of ``values`` from left to right, starting from the first."""
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def _interpreted_phi(model, y, z):
    """The split field by loops: per row, its bilinear terms in term order, half its L sum in column order, b."""
    out = []
    for i, b in enumerate(model.constant.tolist()):
        parts = [t.c * y[t.j] * z[t.k] for t in model.bilinear if t.i == i]
        lin = [c * (y[j] + z[j]) for j, c in enumerate(model.linear[i].tolist()) if c]
        if lin:
            parts.append(0.5 * _chain(lin))
        out.append(_chain([*parts, b]))
    return out


def _interpreted_steps(model, x, h):
    """Euler's and RK4's step from x in numpy, as the formulas read, on the looped field."""

    def f(u):
        return np.array(_interpreted_phi(model, u.tolist(), u.tolist()))

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(x)
        k2 = f(x + (0.5 * h) * k1)
        k3 = f(x + (0.5 * h) * k2)
        k4 = f(x + h * k3)
        return x + h * k1, x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# States may hold infinities, from which inf - inf and 0 * inf make the one
# NaN of the hardware.  Which of two different NaNs an operation passes on
# depends on the interpreter's path (on CPython 3.11, nan + -nan gave -nan
# before the instruction was specialized and nan after), so NaN inputs are
# left to the examples, each with one NaN that no other NaN meets.
_states = st.one_of(_values, st.sampled_from((math.inf, -math.inf)))
_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0BAD))[0]


@st.composite
def _small_fields(draw):
    """A random model of one to four states and two states of it, which may hold infinities.

    Each row past the first may take instead the term list of an earlier
    row, as it is or negated, as reactions give the rows of a mass-action
    model; a negated one may end in b = -0.0.
    """
    model, _ = draw(_small_steps())
    terms, constant = [dataclasses.astuple(t) for t in model.bilinear], model.constant.tolist()
    for i in range(1, model.n):
        kind = draw(st.sampled_from(("own", "repeated", "mirrored")))
        if kind != "own":
            row, sign = draw(st.integers(0, i - 1)), 1.0 if kind == "repeated" else -1.0
            terms = [t for t in terms if t[0] != i] + [(i, j, k, sign * c) for r, j, k, c in terms if r == row]
            if kind == "mirrored" and draw(st.booleans()):
                constant[i] = -0.0
    model = _model(model.linear, constant, terms)
    y, z = (np.array(draw(st.lists(_states, min_size=model.n, max_size=model.n))) for _ in range(2))
    return model, y, z


# Rows 1 and 3 mirror row 0, and row 2 repeats it; row 3 ends in -0.0.
_MIRRORED = _model(
    np.zeros((4, 4)),
    [0.5, 0.0, 0.25, -0.0],
    [(i, j, k, sign * c) for i, sign in enumerate((1.0, -1.0, 1.0, -1.0)) for j, k, c in ((0, 1, 1.5), (2, 2, -3.0))],
)


@seed(31)
@given(field=_small_fields(), h=st.one_of(st.floats(1e-3, 1.0), st.sampled_from((5e-324, 1e-200, 1e10))))
# Row 0 sums its terms to 1.0 in term order and to 1 + 2^-52 from the right.
@example(
    field=(_model([[0.0]], terms=((0, 0, 0, 1.0), (0, 0, 0, 2.0**-53), (0, 0, 0, 2.0**-53))), np.ones(1), np.ones(1)),
    h=0.5,
)
# Mirrored and repeated sums of NaNs, infinities and signed zeros: a NaN
# with a payload, a negative NaN, and the NaN that inf * 0.0 makes, each
# of whose signs unary minus would flip.
@example(field=(_MIRRORED, np.array([_NAN_PAYLOAD, 1.0, -0.0, 2.0]), np.array([1.0, -2.0, 3.0, -0.0])), h=0.5)
@example(field=(_MIRRORED, np.array([1.0, 2.0, -math.nan, -math.inf]), np.array([-0.0, math.inf, 2.0, 1.0])), h=0.5)
@example(field=(_MIRRORED, np.array([math.inf, 1.0, 0.0, 1.0]), np.array([0.0, -0.0, -math.inf, 1.0])), h=1e10)
# Row 0 sums 0.0 + 0.0 and row 3 its own -0.0 + -0.0, which 0.0 - s0 would
# make +0.0, and its closing + -0.0 would keep.
@example(field=(_MIRRORED, np.array([0.0, 1.0, -0.0, 0.0]), np.array([0.0, 1.0, 1.0, 0.0])), h=0.5)
def test_the_compiled_field_matches_the_interpreted_loop(field, h):
    model, y, z = field
    looped = _outcome(_interpreted_phi, model, y.tolist(), z.tolist())
    assert _outcome(model._phi_kernel, y.tolist(), z.tolist()) == looped
    assert _outcome(_phi_rows, model, y, z) == looped
    # eval_phi and eval_f refuse a state that is not finite alike.
    assert _outcome(eval_phi, model, y, y) == _outcome(eval_f, model, y)
    euler, rk4 = _interpreted_steps(model, y, h)
    assert _outcome(_on_rows, _explicit_step(model, "euler"), y, h) == euler.tobytes()
    assert _outcome(_on_rows, _explicit_step(model, "rk4"), y, h) == rk4.tobytes()
    # The same code on the columns of a stack gives each row its bits alone.
    ys, zs = np.tile(y, (3, 1)), np.tile(z, (3, 1))
    assert _outcome(_phi_rows, model, ys, zs) == looped * 3
    assert _outcome(_on_rows, _explicit_step(model, "euler"), ys, h) == euler.tobytes() * 3
    assert _outcome(_on_rows, _explicit_step(model, "rk4"), ys, h) == rk4.tobytes() * 3


def test_a_row_of_a_stack_has_the_bits_of_its_state_alone(sir_network, sir_ring_30, rng):
    # Rows of S_p and I_p sum four bilinear terms here, and three in sir_network.
    for model in (sir_network, sir_ring_30):
        ys, zs = rng.uniform(0.0, 3.0, (2, 1000, model.n))
        h = 0.5 * step_bound(model).h_bar
        euler, rk4 = _explicit_step(model, "euler"), _explicit_step(model, "rk4")
        stacks = (_phi_rows(model, ys, zs), _phi_rows(model, ys), _on_rows(euler, ys, h), _on_rows(rk4, ys, h))
        for r, (y, z) in enumerate(zip(ys, zs)):
            alone = (_phi_rows(model, y, z), _phi_rows(model, y), _on_rows(euler, y, h), _on_rows(rk4, y, h))
            assert [a.tobytes() for a in alone] == [s[r].tobytes() for s in stacks]


def test_a_hub_row_of_thousands_of_terms_compiles(rng):
    # Python 3.11 cannot compile a chain of 3,000 additions in one expression.
    n = 64
    factors = zip(*rng.integers(0, n, (2, 4000)).tolist(), rng.uniform(-1.0, 1.0, 4000).tolist())
    terms = [(0, j, k, c) for j, k, c in factors]
    linear = np.diag(np.full(n, -1.0))
    linear[0] = rng.uniform(0.1, 1.0, n)
    model = _model(linear, rng.uniform(0.0, 1.0, n).tolist(), terms)
    y, z = rng.uniform(0.0, 1.0, (2, n)).tolist()
    assert model._phi_kernel(y, z) == _interpreted_phi(model, y, z)


@pytest.fixture
def compiles(monkeypatch):
    """The sources compiled into kernels, counted at the one ``compile`` call of ``linalg._kernel_code``."""
    sources = []

    def counted(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(nsfd.linalg, "compile", counted, raising=False)
    # A schedule made by an earlier test may hold its kernels already, and
    # the code cache the code of any source an earlier test compiled.
    _schedule_of.cache_clear()
    _kernel_code.cache_clear()
    return sources


def _names(sources):
    """The name of the function that each compiled source defines first."""
    return [source.split("(", 1)[0].removeprefix("def ") for source in sources]


def test_the_first_step_of_a_small_model_compiles_its_kernels_once(compiles):
    model = make_host_vector()
    h = 0.5 * step_bound(model).h_bar
    xs = np.tile([4.0, 2.0, 3.0, 1.0, 1.0], (3, 1))
    assert compiles == []
    step_forward_batch(model, xs, h)
    # A stack of 3 < 2 n^3 rows goes to LAPACK: no elimination yet.
    assert _names(compiles) == ["step_system", "slack_pass"]
    step_backward_batch(model, xs, h)
    invariance_audit(model, h=h, trials=20, steps=5, seed=1)
    first = step_forward(model, xs[0], h)
    assert step_backward(model, first, h).tobytes() == _interpreted_step(model, first, -h).tobytes()
    assert _names(compiles) == ["step_system", "slack_pass", "eliminate"]


def test_a_stack_below_the_elimination_size_compiles_no_elimination(compiles, sir_ring_30):
    # 100 rows are far below 2 n^3 = 54,000: the stack goes to LAPACK.  A
    # copy compiles its own step kernel: the session's model may hold one.
    model = dataclasses.replace(sir_ring_30)
    step_forward_batch(model, np.full((100, model.n), 0.5), 0.5 * step_bound(model).h_bar)
    assert _names(compiles) == ["step_system", "slack_pass"]


def test_a_model_past_the_cut_off_compiles_no_elimination(compiles, sir_ring_30):
    # A copy compiles its own step kernel: the session's model may hold one.
    model = dataclasses.replace(sir_ring_30)
    assert model._schedule.size > FLOAT_ELIMINATION_MAX_OPS
    step_forward(model, np.full(model.n, 0.5), 0.5 * step_bound(model).h_bar)
    assert _names(compiles) == ["step_system", "slack_pass"]


def test_two_models_with_one_pattern_share_the_schedule_kernels(compiles):
    # M_v changes only the domain, and p a coefficient: the pattern stays
    a = make_host_vector()
    b = make_host_vector(HostVectorParameters(M_v=12.0, p=0.07))
    x = np.array([4.0, 2.0, 3.0, 1.0, 1.0])
    step_forward(a, x, 0.5)
    step_forward(b, x, 0.5)
    assert a._schedule is b._schedule
    assert a._step_kernel is not b._step_kernel
    assert _names(compiles) == ["step_system", "slack_pass", "eliminate", "step_system"]


def test_models_of_one_dimension_share_the_explicit_step_code(compiles):
    # Each model compiles its own field; the steps that call it are shared.
    a = make_host_vector()
    b = make_host_vector(HostVectorParameters(p=0.07))
    x = np.array([4.0, 2.0, 3.0, 1.0, 1.0])
    for model in (a, b):
        _on_rows(_explicit_step(model, "rk4"), x, 0.1)
        _on_rows(_explicit_step(model, "euler"), np.tile(x, (3, 1)), 0.1)
    assert _explicit_step(a, "rk4").__code__ is _explicit_step(b, "rk4").__code__
    assert _on_rows(_explicit_step(b, "rk4"), x, 0.1).tobytes() == _interpreted_steps(b, x, 0.1)[1].tobytes()
    assert _names(compiles) == ["phi", "rk4", "euler", "phi"]


@pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_zero_of_either_sign_in_b_gets_the_kernels_of_its_own_bits(compiles, signs):
    # Row 1 mirrors row 0 and has no L terms, and b_1 is the zero.  The
    # field writes b_1, and row 1 sums its own terms for -0.0 only, so each
    # sign gets field code of its own.  The step kernel writes neither a
    # zero b nor a zero L entry, such as (0, 1), a pattern entry, so the two
    # share it.  Each keeps the bits of the loops, in either load order.
    models = [
        _model([[-1.0, zero], [0.0, 0.0]], [1.0, zero], [(0, 0, 1, 0.25), (1, 0, 1, -0.25)]) for zero in signs
    ]
    y = [0.0, 1.0]
    for model in models:
        assert _outcome(model._phi_kernel, y, y) == _outcome(_interpreted_phi, model, y, y)
        x = np.array([0.5, -0.0])
        for h in (0.5, -0.5):
            mats, rhs, _ = _interpreted_system(model, x, h)
            values = [mats[e] for e in model._schedule.pattern]
            assert _outcome(model._step_kernel, x.tolist(), h) == _outcome(lambda: (values, rhs))
    assert models[0]._phi_kernel.__code__ is not models[1]._phi_kernel.__code__
    assert models[0]._step_kernel.__code__ is models[1]._step_kernel.__code__
    assert _names(compiles) == ["phi", "step_system", "phi"]


def test_mirrored_and_repeated_rows_share_one_sum_in_the_field_source(compiles, sir_network):
    dataclasses.replace(_MIRRORED)._phi_kernel
    # Row 3 ends in -0.0, so it sums its own terms.
    assert compiles[-1].splitlines()[-2:] == [
        "    s3 = -1.5 * y0 * z1 + 3.0 * y2 * z2",
        "    return [s0 + 0.5, 0.0 - s0 + 0.0, s0 + 0.25, s3 + -0.0]",
    ]
    # The infection terms of S_p come back negated, as the same rates, in I_p.
    dataclasses.replace(sir_network)._phi_kernel
    rows = compiles[-1].rsplit("return [", 1)[1].split(", ")
    assert [rows[3 * p + 1].startswith(f"0.0 - s{3 * p} + ") for p in range(4)] == [True] * 4


def test_a_model_loaded_again_builds_no_source_and_reuses_the_code(compiles, monkeypatch, tmp_path):
    # Each load makes kernel functions of its own, with globals of their
    # own, on the code that the first load compiled, and builds no source:
    # every generator writes one with _unpack or _sum_code.  The schedule
    # is made again, so its kernels come from the code cache too.
    built = []
    for module, name in ((nsfd.linalg, "_unpack"), (nsfd.linalg, "_sum_code"), (nsfd.model, "_unpack"),
                         (nsfd.model, "_sum_code"), (nsfd.integrator, "_unpack")):
        helper = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, helper=helper: built.append(args) or helper(*args))
    path = tmp_path / "host-vector.json"
    path.write_text(dump_model(make_host_vector()))
    x = np.array([4.0, 2.0, 3.0, 1.0, 1.0])
    names = ["phi", "rk4", "euler", "step_system", "slack_pass", "eliminate"]

    def run(model):
        rk4, euler = _explicit_step(model, "rk4"), _explicit_step(model, "euler")
        out = [step_forward(model, x, 0.5), eval_f(model, x), _on_rows(rk4, x, 0.1), _on_rows(euler, x, 0.1)]
        kernels = [model._step_kernel, model._schedule.slack_pass, model._schedule.eliminate, model._phi_kernel]
        return [v.tobytes() for v in out], [*kernels, rk4, euler]

    first, kernels_a = run(load_model(path))
    assert _names(compiles) == names and built
    built.clear()
    _schedule_of.cache_clear()
    again, kernels_b = run(load_model(path))
    assert _names(compiles) == names and built == []
    for kernel_a, kernel_b in zip(kernels_a, kernels_b):
        assert kernel_a is not kernel_b and kernel_a.__globals__ is not kernel_b.__globals__
        assert kernel_a.__code__ is kernel_b.__code__
    assert first == again


def test_a_changed_coefficient_compiles_new_code(compiles):
    a = make_host_vector()
    b = make_host_vector(HostVectorParameters(p=0.07))
    assert a._phi_kernel.__code__ is not b._phi_kernel.__code__
    assert _names(compiles) == ["phi", "phi"]


def test_the_code_cache_keeps_at_most_its_bound(compiles):
    for r in range(1, KERNEL_CODE_MAX + 4):
        make_logistic(r=float(r))._phi_kernel
    assert len(compiles) == KERNEL_CODE_MAX + 3
    assert _kernel_code.cache_info().currsize == KERNEL_CODE_MAX
    # The oldest source was dropped, so it compiles again.
    make_logistic(r=1.0)._phi_kernel
    assert len(compiles) == KERNEL_CODE_MAX + 4


def test_the_kernels_of_a_model_are_freed_with_it():
    # By reference counting alone: a kernel in a cycle with its own
    # namespace would wait for the cyclic collector.
    model = make_host_vector()
    x = np.array([4.0, 2.0, 3.0, 1.0, 1.0])
    step_forward(model, x, 0.5)
    _on_rows(_explicit_step(model, "rk4"), x, 0.1)
    kernels = [weakref.ref(model.__dict__[name]) for name in ("_phi_kernel", "_step_kernel")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert [kernel() for kernel in kernels] == [None, None]
    finally:
        if enabled:
            gc.enable()
