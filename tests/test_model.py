"""Model containers, field evaluation, structural checks, JSON round trips."""

import dataclasses
import functools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from nsfd.integrator import step_bound
from nsfd.linalg import fd_jacobian
from nsfd.model import (
    BilinearTerm,
    Constraint,
    Domain,
    GeneralSplitSystem,
    MassActionModel,
    SpecError,
    as_split_system,
    assemble_P,
    assemble_Q,
    dump_model,
    eval_f,
    eval_phi,
    f_jacobian,
    load_model,
    model_from_dict,
    model_to_dict,
    validate,
    _box_pass,
    _check_state,
    _on_rows,
)

JAC_ATOL = 1e-7
PQ_ATOL = 1e-13


def _random_states(model, rng, count):
    lo = model.domain.box_lower
    hi = model.domain.box_upper
    return lo + (hi - lo) * rng.random((count, model.n))


def test_constraint_normal_array():
    c = Constraint((1.0, 2.0), 5.0)
    arr = c.normal_array
    assert isinstance(arr, np.ndarray)
    assert np.array_equal(arr, [1.0, 2.0])
    assert c.bound == 5.0


def test_domain_margin_hand_values(host_vector):
    dom = host_vector.domain
    x = np.array([1.0, 2.0, 3.0, 1.0, 0.5])
    # slack to S_v+I_v <= 10 is 7, to S+I+R <= 10 is 5.5, to x >= 0 is 0.5
    assert dom.margin(x) == pytest.approx(0.5, abs=1e-15)
    on_face = np.array([0.0, 2.0, 3.0, 1.0, 0.5])
    assert dom.margin(on_face) == 0.0
    outside = np.array([-1.0, 2.0, 3.0, 1.0, 0.5])
    assert dom.margin(outside) == pytest.approx(-1.0, abs=1e-15)
    # states stacked on the leading axis get one margin each
    stacked = dom.margin(np.stack([x, on_face, outside]))
    assert np.allclose(stacked, [0.5, 0.0, -1.0], rtol=0, atol=1e-15)


def _margin_reference(dom, x):
    # the smallest slack of one state, in Python floats: each cap's u . x
    # is its coordinates' sum in coordinate order, for 0/1 normals
    slacks = [x[i] for i, flag in enumerate(dom.nonnegative) if flag]
    for con in dom.constraints:
        slacks.append(con.bound - functools.reduce(operator.add, [x[j] for j, u in enumerate(con.normal) if u]))
    return min(slacks, default=math.inf)


@st.composite
def _zero_one_domains_and_stacks(draw):
    n = draw(st.integers(1, 6))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    normals = draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n).filter(any), max_size=3))
    caps = tuple(Constraint(tuple(u), draw(st.floats(0.5, 100.0))) for u in normals)
    # No zero entries: which of two equal zeros a minimum keeps is left to numpy.
    value = st.floats(-1e300, 1e300).filter(lambda v: v != 0.0)
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=5))
    return Domain(nonnegative=tuple(flags), constraints=caps), np.array(rows)


@pytest.mark.deep
@seed(23)
@given(_zero_one_domains_and_stacks())
def test_domain_margin_matches_python_floats_bit_for_bit(case):
    dom, xs = case
    expected = [_margin_reference(dom, row.tolist()) for row in xs]
    for row, want in zip(xs, expected):
        got = dom.margin(row)
        assert type(got) is float
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
    for stack in (xs, np.asfortranarray(xs), xs[:, None, :]):
        got = dom.margin(stack)
        assert got.shape == stack.shape[:-1]
        assert np.array_equal(got.ravel(), expected)
        assert np.array_equal(np.signbit(got.ravel()), np.signbit(expected))


def test_domain_margin_of_a_stack_is_a_new_array():
    dom = Domain(nonnegative=(True, False))
    xs = np.array([[1.0, 5.0], [2.0, 6.0]])
    out = dom.margin(xs)
    assert not np.shares_memory(out, xs)
    out[0] = -1.0
    assert xs[0, 0] == 1.0
    assert np.array_equal(Domain(nonnegative=(False, False)).margin(xs), [np.inf, np.inf])


def test_domain_contains_uses_slack(host_vector):
    dom = host_vector.domain
    barely_out = np.array([-1e-13, 1.0, 1.0, 1.0, 1.0])
    assert dom.contains(barely_out, slack=1e-12)
    assert not dom.contains(barely_out, slack=1e-14)


def test_domain_box_bounds(host_vector, logistic):
    assert np.array_equal(host_vector.domain.box_lower, np.zeros(5))
    assert np.array_equal(host_vector.domain.box_upper, np.full(5, 10.0))
    assert np.array_equal(logistic.domain.box_upper, [1.0])
    assert host_vector.domain.is_compact


def test_domain_without_constraints_is_not_compact():
    dom = Domain(nonnegative=(True,), constraints=())
    assert not dom.is_compact
    assert dom.box_upper[0] == np.inf


def _first(values, better):
    """The pick of np.argmax (better is operator.gt) or np.argmin (operator.lt): the first NaN, else the first best."""
    best = values[0]
    for v in values[1:]:
        if best != best:
            break
        if v != v or better(v, best):
            best = v
    return best


def _looped_box_upper(dom):
    """Reference for Domain.box_upper, one constraint and coordinate at a time, to its fixed point.

    A pass bounds x_i by each constraint with normal[i] != 0: by bound less
    the least value of the constraint's other terms over the box of the
    pass before (summed from 0.0 in coordinate order), divided by
    normal[i], which is an upper bound for normal[i] > 0 and a lower one
    for normal[i] < 0.  Of the box's own bound and the constraints', the
    tightest is kept, the first of equal ones.  Passes repeat until no
    bound moves, at most 100 times.
    """
    n = dom.n
    lo = [0.0 if flag else -math.inf for flag in dom.nonnegative]
    hi = [math.inf] * n
    caps = [([float(v) for v in con.normal], con.bound) for con in dom.constraints]
    for _ in range(100):
        lower, upper = [[v] for v in lo], [[v] for v in hi]
        for u, c in caps:
            least = [u[m] * lo[m] if u[m] > 0.0 else u[m] * hi[m] if u[m] < 0.0 else 0.0 for m in range(n)]
            for i in range(n):
                others = 0.0
                for m in range(n):
                    if m != i:
                        others += least[m]
                if u[i] > 0.0:
                    upper[i].append((c - others) / u[i])
                elif u[i] < 0.0:
                    lower[i].append((c - others) / u[i])
        new_lo = [_first(v, operator.gt) for v in lower]
        new_hi = [_first(v, operator.lt) for v in upper]
        if all(a == b for a, b in zip(new_lo + new_hi, lo + hi)):
            break
        lo, hi = new_lo, new_hi
    return np.array(hi)


@st.composite
def _mixed_sign_domains(draw):
    """Domains whose caps mix signs, with negative and signed-zero bounds
    and coordinates that are not flagged nonnegative."""
    n = draw(st.integers(1, 5))
    entries = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-4.0, 4.0)
    normals = st.lists(entries, min_size=n, max_size=n).filter(any)
    bounds = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
    caps = draw(st.lists(st.builds(Constraint, normals.map(tuple), bounds), max_size=5))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Domain(nonnegative=tuple(flags), constraints=tuple(caps))


@pytest.mark.deep
@seed(17)
@given(dom=_mixed_sign_domains())
def test_box_upper_matches_the_looped_reference(dom):
    # Bit for bit, so signed zeros too: of equal bounds the first cap's is kept.
    with np.errstate(over="ignore"):
        expected = _looped_box_upper(dom)
    assert dom.box_upper.tobytes() == expected.tobytes()


@pytest.mark.deep
def test_box_upper_takes_the_bounds_that_only_a_second_pass_gives():
    # x_0 - x_1 <= 0.5 bounds x_0 only once x_1 <= 0.5 has bounded x_1
    dom = Domain((True, True), (Constraint((1.0, -1.0), 0.5), Constraint((0.0, 1.0), 0.5)))
    assert np.array_equal(dom.box_upper, [1.0, 0.5])
    assert dom.is_compact
    # so a bilinear term that reads x_0 has a finite step bound: the term
    # puts -x_0 / 2 into column 1 of S(x), at most 0.5 in size on the box
    model = MassActionModel(
        n=2,
        bilinear=(BilinearTerm(1, 0, 1, -1.0),),
        linear=np.zeros((2, 2)),
        constant=np.zeros(2),
        domain=dom,
        labels=("a", "b"),
    )
    report = step_bound(model)
    assert not report.capped
    assert report.h_bar == 2.0


def test_box_upper_sums_each_cap_over_its_nonzeros_only(metapop_sir):
    # A 60-patch ring has n = 180 and 60 caps of 3 nonzeros each: a (caps,
    # n, n) array of each cap's other terms would take 15.6 MB on each pass.
    ring = metapop_sir(tuple(((p, 0.02), ((p + 1) % 60, 0.01)) for p in range(60)), mu=0.1)
    dom = Domain(ring.domain.nonnegative, ring.domain.constraints)
    tracemalloc.start()
    try:
        upper = dom.box_upper
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(upper, np.full(180, 10.0))
    assert peak < 2e6


def test_box_pass_bounds_each_coordinate_from_the_given_box_at_once():
    # -x_0 + x_1 <= -0.5 on [0, 1]^2 gives x_0 >= 0.5 and x_1 <= 0.5, and
    # x_0 + x_1 <= 1.2 gives x_0, x_1 <= 1.2 from lo = 0, not from the new
    # lower bound of the other coordinate.
    normals = np.array([[-1.0, 1.0], [1.0, 1.0]])
    lo, hi = _box_pass(normals, np.array([-0.5, 1.2]), np.zeros(2), np.ones(2))
    assert np.array_equal(lo, [0.5, 0.0])
    assert np.array_equal(hi, [1.0, 0.5])
    # With x_0 unbounded both ways, no cap bounds x_1, while x_1 >= 0
    # still bounds x_0 on both sides.
    lo, hi = _box_pass(normals, np.array([-0.5, 1.2]), np.array([-np.inf, 0.0]), np.full(2, np.inf))
    assert np.array_equal(lo, [0.5, 0.0])
    assert np.array_equal(hi, [1.2, np.inf])


def test_eval_f_hand_values(logistic, si):
    assert eval_f(logistic, np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-16)
    out = eval_f(si, np.array([0.9, 0.1]))
    assert np.allclose(out, [-0.09, 0.09], rtol=0, atol=1e-16)


def test_eval_phi_mixes_slots(logistic):
    # phi(y, z) = -y z + (y + z)/2 for the unit logistic model
    got = eval_phi(logistic, np.array([0.2]), np.array([0.4]))[0]
    assert got == pytest.approx(-0.2 * 0.4 + 0.5 * 0.6, abs=1e-15)


def test_eval_phi_diagonal_equals_field(all_models, rng):
    for model in all_models:
        for x in _random_states(model, rng, 20):
            assert np.array_equal(eval_phi(model, x, x), eval_f(model, x))


def test_single_state_field_equals_the_one_row_stack(all_models, sir_network, rng):
    # a vector runs the field kernel on Python floats, a stack on its
    # columns; the bits must be those of row 0 of the (1, n) stack
    for model in (*all_models, sir_network):
        for _ in range(50):
            x = 10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=model.n)
            vector = _on_rows(model._f_kernel, x)
            stacked = _on_rows(model._f_kernel, x[None])
            assert vector.shape == (model.n,)
            assert vector.tobytes() == stacked[0].tobytes()


def test_eval_f_rejects_wrong_length(logistic):
    with pytest.raises(SpecError):
        eval_f(logistic, np.array([1.0, 2.0]))
    with pytest.raises(SpecError):
        eval_phi(logistic, np.array([1.0]), np.array([1.0, 2.0]))


def test_slot_matrices_reproduce_bilinear_part(all_models, sir_network, rng):
    # the slot matrices sum term by term, and eval_phi each row's terms in
    # term order; the two agree up to summation order
    for model in (*all_models, sir_network):
        ys = _random_states(model, rng, 10)
        zs = _random_states(model, rng, 10)
        for y, z in zip(ys, zs):
            left = assemble_P(model, y) @ z
            right = assemble_Q(model, z) @ y
            assert np.allclose(left, right, rtol=0, atol=PQ_ATOL)
            field = left + 0.5 * (model.linear @ (y + z)) + model.constant
            assert np.allclose(eval_phi(model, y, z), field, rtol=0, atol=PQ_ATOL)


def test_slot_matrix_entries_host_vector(host_vector):
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    P = assemble_P(host_vector, x)
    Q = assemble_Q(host_vector, x)
    # S_v drain: first-slot factor is I, second-slot factor is S_v
    assert P[0, 0] == pytest.approx(-0.05 * 4.0, abs=1e-16)
    assert Q[0, 3] == pytest.approx(-0.05 * 1.0, abs=1e-16)
    assert P[1, 0] == pytest.approx(0.05 * 4.0, abs=1e-16)
    assert Q[3, 1] == pytest.approx(0.03 * 3.0, abs=1e-16)


def test_f_jacobian_matches_finite_differences(all_models, sir_network, rng):
    for model in (*all_models, sir_network):
        for x in _random_states(model, rng, 5):
            jac = f_jacobian(model, x)
            num = fd_jacobian(lambda v: eval_f(model, v), x)
            assert np.allclose(jac, num, rtol=0, atol=JAC_ATOL)
            slots = assemble_P(model, x) + assemble_Q(model, x) + model.linear
            assert np.allclose(jac, slots, rtol=0, atol=PQ_ATOL)


def test_f_jacobian_builds_no_elimination_schedule(sir_ring_30):
    # The Jacobian reads the model's entries, not the schedule, whose fill
    # pass grows fast with n; a fresh copy has no cached schedule.
    model = dataclasses.replace(sir_ring_30)
    f_jacobian(model, np.full(model.n, 0.5))
    assert "_entry_terms" in model.__dict__ and "_schedule" not in model.__dict__


def test_linear_rows_are_the_nonzeros_of_each_row_of_L(all_models, sir_network, sir_ring_30, seeded_network, rng):
    # The dense scan that _linear_rows replaced; -0.0 is no nonzero in either.
    def scanned(model):
        return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in model.linear.tolist())

    linear = rng.uniform(-1.0, 1.0, (7, 7))
    linear[rng.random((7, 7)) < 0.5] = -0.0
    linear[2] = 0.0
    random = MassActionModel(7, (), linear, np.zeros(7), Domain((True,) * 7), tuple("abcdefg"))
    assert np.signbit(random.linear).any() and not random.linear[2].any()
    for model in (*all_models, sir_network, sir_ring_30, seeded_network, random):
        rows = dataclasses.replace(model)._linear_rows
        assert rows == scanned(model)
        assert all(type(j) is int and type(c) is float for row in rows for j, c in row)


@seed(11)
@given(
    y0=st.floats(0.0, 1.0),
    z0=st.floats(0.0, 1.0),
)
def test_logistic_phi_is_symmetric_in_its_bilinear_part(y0, z0):
    model_phi_yz = -y0 * z0 + 0.5 * (y0 + z0)
    from nsfd.models import make_logistic

    m = make_logistic()
    got = eval_phi(m, np.array([y0]), np.array([z0]))[0]
    assert got == pytest.approx(model_phi_yz, abs=1e-14)


def test_validate_passes_builtins(all_models):
    for model in all_models:
        report = validate(model)
        assert report.passed, report.issues
        assert report.metzler and report.constant_nonnegative
        assert report.compact_domain
        assert report.issues == ()


def test_validate_flags_drain_without_own_factor(logistic):
    # a negative term that does not touch its target row cannot vanish
    # on the facet x[i] = 0, so positivity of the solve is at risk
    bad = dataclasses.replace(
        logistic,
        n=2,
        bilinear=(BilinearTerm(0, 1, 1, -1.0),),
        linear=np.zeros((2, 2)),
        constant=np.zeros(2),
        domain=Domain(nonnegative=(True, True), constraints=(Constraint((1.0, 1.0), 1.0),)),
        labels=("x", "y"),
    )
    report = validate(bad)
    assert not report.metzler
    assert not report.passed
    assert any("drain" in msg for msg in report.issues)


def test_validate_flags_negative_offdiagonal_linear(si):
    bad = dataclasses.replace(si, linear=np.array([[0.0, -0.5], [0.0, 0.0]]))
    report = validate(bad)
    assert not report.metzler
    assert not report.passed


def test_validate_flags_negative_constant(si):
    bad = dataclasses.replace(si, constant=np.array([-0.1, 0.0]))
    report = validate(bad)
    assert not report.constant_nonnegative
    assert not report.passed


def test_validate_flags_noncompact_domain(logistic):
    bad = dataclasses.replace(logistic, domain=Domain(nonnegative=(True,), constraints=()))
    report = validate(bad)
    assert not report.compact_domain
    assert not report.passed


def test_labels_must_be_csv_safe():
    with pytest.raises(SpecError):
        MassActionModel(
            n=1,
            bilinear=(),
            linear=[[0.0]],
            constant=[0.0],
            domain=Domain(nonnegative=(True,), constraints=(Constraint((1.0,), 1.0),)),
            labels=("a,b",),
            name="bad",
        )


def test_bilinear_index_out_of_range():
    with pytest.raises(SpecError):
        MassActionModel(
            n=1,
            bilinear=(BilinearTerm(0, 0, 1, 1.0),),
            linear=[[0.0]],
            constant=[0.0],
            domain=Domain(nonnegative=(True,), constraints=(Constraint((1.0,), 1.0),)),
            labels=("x",),
            name="bad",
        )


def test_dict_round_trip_preserves_field(all_models, rng):
    for model in all_models:
        doc = model_to_dict(model)
        back = model_from_dict(doc)
        assert back.name == model.name
        assert back.labels == model.labels
        for x in _random_states(model, rng, 10):
            assert np.allclose(eval_f(back, x), eval_f(model, x), rtol=0, atol=1e-15)


def test_file_round_trip(tmp_path, host_vector, rng):
    path = tmp_path / "hv.json"
    path.write_text(dump_model(host_vector))
    back = load_model(path)
    for x in _random_states(host_vector, rng, 5):
        assert np.allclose(eval_f(back, x), eval_f(host_vector, x), rtol=0, atol=1e-15)


def test_dict_schema_rejects_unknown_key(logistic):
    doc = model_to_dict(logistic)
    doc["extra"] = 1
    with pytest.raises(SpecError):
        model_from_dict(doc)


def test_dict_schema_rejects_missing_key(logistic):
    doc = model_to_dict(logistic)
    del doc["constant"]
    with pytest.raises(SpecError):
        model_from_dict(doc)


def test_dict_schema_rejects_bad_shapes(logistic):
    doc = model_to_dict(logistic)
    doc["linear"] = [[0.0, 1.0]]
    with pytest.raises(SpecError):
        model_from_dict(doc)
    doc = model_to_dict(logistic)
    doc["labels"] = ["x", "y"]
    with pytest.raises(SpecError):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "constraints, message",
    [
        (None, "constraint normal length 1 does not match dimension 1000000"),
        ([], r"linear part must have shape \(1000000, 1000000\), got \(1, 1\)"),
    ],
)
def test_a_dim_that_the_lists_cannot_match_is_refused_before_its_flags_are_made(logistic, constraints, message):
    # A dim of 10^6 over one-state lists, with every component nonnegative,
    # gets the message of the first check that the lists fail, the domain's
    # or the linear part's, and allocates next to nothing.
    doc = model_to_dict(logistic)
    doc["dim"] = 10**6
    doc["domain"]["nonnegative"] = True
    if constraints is not None:
        doc["domain"]["constraints"] = constraints
    tracemalloc.start()
    try:
        with pytest.raises(SpecError, match=f"^{message}$"):
            model_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_load_model_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    with pytest.raises(SpecError):
        load_model(path)


def test_as_split_system_wraps_model(host_vector, rng):
    sys = as_split_system(host_vector)
    assert isinstance(sys, GeneralSplitSystem)
    assert sys.n == host_vector.n
    ys = _random_states(host_vector, rng, 5)
    zs = _random_states(host_vector, rng, 5)
    for y, z in zip(ys, zs):
        assert np.allclose(sys.phi(y, z), eval_phi(host_vector, y, z), rtol=0, atol=1e-15)


def test_general_split_system_optional_slots_default_to_none():
    sys = GeneralSplitSystem(n=1, phi=lambda y, z: -y * z)
    assert sys.dphi_dy is None and sys.dphi_dz is None


@pytest.mark.parametrize(
    "x, finite",
    [
        ([1e308, 1e308, -1e308, 1e308, 1e308], True),  # the sum overflows
        ([1e308, 0.0, 0.0, 0.0, math.inf], False),
        ([math.inf, -math.inf, 1.0, 1.0, 1.0], False),  # the sum is NaN
        ([1.0, math.nan, 1.0, 1.0, 1.0], False),
    ],
)
def test_check_state_refuses_exactly_the_states_with_a_non_finite_entry(host_vector, x, finite):
    if finite:
        assert _check_state(host_vector, x).tolist() == x
    else:
        with pytest.raises(SpecError, match="^state must have finite entries$"):
            _check_state(host_vector, x)
