"""Step maps, reversibility, safe step bounds, implicit fallback, integration."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from nsfd.integrator import (
    DEFAULT_H_MAX,
    SCHEMES,
    DominanceError,
    NewtonDivergenceError,
    Trajectory,
    integrate,
    reversibility_residual,
    step_backward,
    step_backward_batch,
    step_bound,
    step_forward,
    step_forward_batch,
    step_implicit_general,
    step_matrix,
    _explicit_step,
    _pattern_system,
)
from nsfd.linalg import FLOAT_ELIMINATION_MAX_OPS, LinAlgError, SingularMatrixError, _dense, lu_solve_batch
from nsfd.model import (
    BilinearTerm,
    Constraint,
    Domain,
    GeneralSplitSystem,
    MassActionModel,
    SpecError,
    _on_rows,
    as_split_system,
    eval_f,
    f_jacobian,
)
from nsfd.models import make_host_vector, make_logistic

REV_ATOL = 1e-12
BATCH_ATOL = 1e-14
IMPLICIT_ATOL = 1e-11


def _interior_states(model, rng, count):
    lo = model.domain.box_lower
    hi = model.domain.box_upper
    return lo + (hi - lo) * (0.05 + 0.9 * rng.random((count, model.n)))


def _row_steps(model, count):
    # one step size per row, spread over (0, h_bar)
    return np.linspace(0.1, 0.9, count) * step_bound(model).h_bar


def _linear_decay():
    return MassActionModel(
        n=1,
        bilinear=(),
        linear=[[-1.0]],
        constant=[0.0],
        domain=Domain(nonnegative=(True,), constraints=(Constraint((1.0,), 10.0),)),
        labels=("x",),
        name="decay",
    )


def test_step_matrix_is_half_the_field_jacobian(host_vector, rng):
    for x in _interior_states(host_vector, rng, 5):
        assert np.array_equal(step_matrix(host_vector, x), 0.5 * f_jacobian(host_vector, x))


def test_logistic_forward_hand_value(logistic):
    # at x = 1/2 the half-Jacobian vanishes, so x' = (1 + h/2) x exactly
    out = step_forward(logistic, np.array([0.5]), 0.1)
    assert out[0] == 0.525


def test_forward_and_backward_are_mutually_inverse(all_models, h_bars, rng):
    for model in all_models:
        h = 0.5 * h_bars[model.name]
        for x in _interior_states(model, rng, 20):
            y = step_forward(model, x, h)
            back = step_backward(model, y, h)
            assert np.max(np.abs(back - x)) <= REV_ATOL * (1.0 + np.max(np.abs(x)))


def test_reversibility_residual_matches_composition(logistic):
    x = np.array([0.3])
    r = reversibility_residual(logistic, x, 0.7)
    manual = np.max(np.abs(step_backward(logistic, step_forward(logistic, x, 0.7), 0.7) - x))
    assert r == manual


def test_reversibility_residual_zero_at_equilibrium(logistic):
    assert reversibility_residual(logistic, np.array([1.0]), 0.5) == 0.0


@seed(3)
@given(x0=st.floats(0.01, 0.99), h=st.floats(0.05, 1.9))
def test_logistic_reversibility_property(x0, h):
    m = make_logistic()
    x = np.array([x0])
    assert reversibility_residual(m, x, h) <= 1e-10 * (1.0 + x0)


def test_forward_linear_model_resolvent(caplog):
    # with no bilinear part both maps reduce to the trapezoidal resolvent
    m = _linear_decay()
    h = 0.4
    x = np.array([2.0])
    expected = (1.0 - h / 2.0) / (1.0 + h / 2.0) * 2.0
    assert step_forward(m, x, h)[0] == pytest.approx(expected, abs=1e-15)


def test_step_size_must_be_positive_and_finite(logistic):
    x = np.array([0.5])
    with pytest.raises(SpecError):
        step_forward(logistic, x, 0.0)
    with pytest.raises(SpecError):
        step_forward(logistic, x, -0.1)
    with pytest.raises(SpecError):
        step_forward(logistic, x, float("inf"))


def test_forward_loses_dominance_above_bound(host_vector):
    from nsfd.models import host_vector_dfe

    with pytest.raises(DominanceError, match="column 3"):
        step_forward(host_vector, host_vector_dfe(), 3.0)


def test_backward_loses_dominance_above_bound(host_vector):
    from nsfd.models import host_vector_dfe

    with pytest.raises(DominanceError):
        step_backward(host_vector, host_vector_dfe(), 3.0)


def test_batch_forward_matches_scalar(all_models, sir_network, h_bars, rng):
    cases = [(model, np.full(12, 0.4 * h_bars[model.name])) for model in all_models]
    cases.append((sir_network, _row_steps(sir_network, 12)))
    for model, hs in cases:
        xs = _interior_states(model, rng, 12)
        batch = step_forward_batch(model, xs, hs)
        for r in range(xs.shape[0]):
            single = step_forward(model, xs[r], hs[r])
            assert np.allclose(batch[r], single, rtol=0, atol=BATCH_ATOL)


def test_batch_backward_matches_scalar(host_vector, sir_network, h_bars, rng):
    cases = (
        (host_vector, np.full(12, 0.4 * h_bars["host-vector"])),
        (sir_network, _row_steps(sir_network, 12)),
    )
    for model, hs in cases:
        xs = _interior_states(model, rng, 12)
        batch = step_backward_batch(model, xs, hs)
        for r in range(xs.shape[0]):
            assert np.allclose(batch[r], step_backward(model, xs[r], hs[r]), rtol=0, atol=BATCH_ATOL)


@pytest.mark.parametrize("step, direction", [(step_forward, "forward"), (step_backward, "backward")])
def test_scalar_dominance_error_names_the_column(host_vector, step, direction):
    # a single state's message names no batch row
    with pytest.raises(DominanceError) as info:
        step(host_vector, [9.0, 0.5, 9.0, 0.5, 0.0], 5.0)
    assert str(info.value) == (
        f"{direction} solve matrix lost strict column dominance in column 3; "
        "reduce h below the safe step bound for this state"
    )


@pytest.mark.parametrize("step", [step_forward, step_backward, step_forward_batch, step_backward_batch])
def test_overflowing_solve_matrix_is_refused(logistic, step):
    # The state is finite but h S(x) overflows to an infinite diagonal,
    # whose infinite slack passes the dominance check; the solve guard
    # refuses it through the smin < inf clause of its certificate.
    x = np.array([1e308])
    if step in (step_forward_batch, step_backward_batch):
        x = x[None]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMatrixError, match="matrix entries are not finite"):
            step(logistic, x, 0.1)


def test_batch_accepts_per_row_step_sizes(logistic, sir_network, rng):
    cases = ((logistic, np.linspace(0.1, 1.0, 6)), (sir_network, _row_steps(sir_network, 6)))
    for model, hs in cases:
        xs = _interior_states(model, rng, 6)
        batch = step_forward_batch(model, xs, hs)
        for r in range(6):
            assert np.allclose(batch[r], step_forward(model, xs[r], hs[r]), rtol=0, atol=BATCH_ATOL)


@pytest.mark.parametrize("step", [step_forward_batch, step_backward_batch])
def test_batch_scalar_step_size_matches_per_row_bits(all_models, sir_network, rng, step):
    # a scalar h is shared by the rows as a float; it must give the bits
    # of the same h spelled out once per row
    for model in (*all_models, sir_network):
        h = 0.4 * step_bound(model).h_bar
        xs = _interior_states(model, rng, 9)
        shared = step(model, xs, h)
        per_row = step(model, xs, np.full(len(xs), h))
        assert shared.tobytes() == per_row.tobytes(), model.name


def _coordinate_order_jacobians(model, xs, touched_map):
    """The field Jacobians of the rows of ``xs``, each P + Q entry summed over its coordinates in order.

    The entries and their coefficients come from the term list, through
    the ``np.add.at`` map of ``touched_map``.
    """
    entries, g = touched_map(model)
    touched = np.zeros((len(xs), len(entries)))
    for j in range(model.n):
        for col in np.flatnonzero(g[j]):
            touched[:, col] += xs[:, j] * g[j, col]
    out = np.zeros((len(xs), model.n * model.n))
    out[:, entries] = touched
    return out.reshape(-1, model.n, model.n) + model.linear


def test_stack_systems_match_the_jacobian_expression_bits(all_models, sir_network, touched_map, rng):
    # the stack's pattern values come from the generated step kernel; each
    # matrix must still be I - h (0.5 J(x)) with the field Jacobian whose
    # P + Q entries sum their coordinates in order, bit for bit, for a
    # shared and a per-row h; f_jacobian sums them so too
    for model in (*all_models, sir_network):
        h_bar = step_bound(model).h_bar
        xs = _interior_states(model, rng, 7)
        jacobians = _coordinate_order_jacobians(model, xs, touched_map)
        assert jacobians.tobytes() == np.array([f_jacobian(model, x) for x in xs]).tobytes(), model.name
        for h in (0.4 * h_bar, -0.4 * h_bar, np.linspace(-0.9, 0.9, 7) * h_bar):
            hv, hm = (h, h) if np.ndim(h) == 0 else (h[:, None], h[:, None, None])
            values, rhs, _ = _pattern_system(model, xs, h)
            expected = np.eye(model.n) - hm * (0.5 * jacobians)
            assert _dense(values, model._schedule).tobytes() == expected.tobytes(), model.name
            # L x is summed elementwise over each row's nonzeros, in column order
            lx = np.zeros_like(xs)
            for i, j in zip(*np.nonzero(model.linear)):
                lx[:, i] += xs[:, j] * model.linear[i, j]
            expected = lx * (0.5 * hv) + xs + hv * model.constant + 0.0
            assert rhs.tobytes() == expected.tobytes(), model.name


@pytest.mark.parametrize("frac", [0.4, 0.9])
def test_single_steps_have_the_bits_of_their_row_of_an_eliminated_stack(
    all_models, sir_network, two_coordinate_entries, rng, monkeypatch, frac
):
    # A small model steps one state in Python floats and a stack of any
    # size in (m,) columns, by the same generated kernel, so a state gets
    # one set of bits, alone or in a stack, and neither depends on the BLAS
    # kernel: also where a P + Q entry reads several coordinates of x.
    def no_lapack(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    for model in (*all_models, sir_network, two_coordinate_entries):
        assert model._schedule.size <= FLOAT_ELIMINATION_MAX_OPS, model.name
        h = frac * step_bound(model).h_bar
        for m in (1, 3, 100, 249, max(2 * model.n**3, 2000)):
            xs = _interior_states(model, rng, m)
            for single, batch in ((step_forward, step_forward_batch), (step_backward, step_backward_batch)):
                rows = batch(model, xs, h)
                alone = np.array([single(model, x, h) for x in xs])
                assert alone.tobytes() == rows.tobytes(), (model.name, m, single.__name__)


def test_a_model_past_the_cut_off_steps_one_state_with_lapack(sir_ring_30, rng, monkeypatch):
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    assert sir_ring_30._schedule.size > FLOAT_ELIMINATION_MAX_OPS
    x = _interior_states(sir_ring_30, rng, 1)[0]
    step_forward(sir_ring_30, x, 0.4 * step_bound(sir_ring_30).h_bar)
    assert len(calls) == 1


def test_batch_dominance_error_names_row_and_column(host_vector, h_bars):
    from nsfd.models import host_vector_dfe

    # only the last row steps above h_bar; at the DFE it fails in column 3
    xs = np.tile(host_vector_dfe(), (4, 1))
    hs = np.append(np.array([0.25, 0.5, 0.75]) * h_bars["host-vector"], 3.0)
    with pytest.raises(DominanceError, match="column 3 of batch state 3"):
        step_forward_batch(host_vector, xs, hs)


@pytest.mark.parametrize("step", [step_forward_batch, step_backward_batch])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batch_steps_reject_non_finite_states(host_vector, h_bars, rng, step, bad):
    # an input error, not a lost-dominance numerical failure
    xs = _interior_states(host_vector, rng, 3)
    xs[1, 2] = bad
    with pytest.raises(SpecError, match="batch state 1 must have finite entries"):
        step(host_vector, xs, 0.4 * h_bars["host-vector"])


def test_step_bound_reports(logistic, si, host_vector):
    rl = step_bound(logistic)
    assert rl.h_bar == pytest.approx(2.0, abs=1e-12)
    assert rl.limiting_column == 0
    assert not rl.capped
    assert rl.per_column == ((0, 0.5),)

    rs = step_bound(si)
    assert rs.h_bar == pytest.approx(1.0, abs=1e-12)

    rh = step_bound(host_vector)
    assert rh.h_bar == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rh.limiting_column == 3
    assert len(rh.per_column) == 5


def test_step_bound_caps_unbounded_quadratic():
    quad = MassActionModel(
        n=1,
        bilinear=(BilinearTerm(0, 0, 0, -1.0),),
        linear=[[0.0]],
        constant=[0.0],
        domain=Domain(nonnegative=(True,), constraints=()),
        labels=("x",),
        name="quad",
    )
    report = step_bound(quad)
    assert report.capped
    assert report.h_bar == DEFAULT_H_MAX


def test_step_bound_caps_zero_field():
    zero = MassActionModel(
        n=1,
        bilinear=(),
        linear=[[0.0]],
        constant=[0.0],
        domain=Domain(nonnegative=(True,), constraints=(Constraint((1.0,), 1.0),)),
        labels=("x",),
        name="zero",
    )
    report = step_bound(zero)
    assert report.capped
    assert report.h_bar == DEFAULT_H_MAX


def test_step_bound_as_dict_round_trips_to_json(host_vector):
    import json

    doc = step_bound(host_vector).as_dict()
    text = json.dumps(doc)
    assert json.loads(text)["h_bar"] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_dominance_holds_for_all_h_below_bound(host_vector, h_bars, rng):
    from nsfd.linalg import is_diagonally_dominant

    h = 0.999 * h_bars["host-vector"]
    for x in _interior_states(host_vector, rng, 50):
        s = step_matrix(host_vector, x)
        assert is_diagonally_dominant(np.eye(5) - h * s)
        assert is_diagonally_dominant(np.eye(5) + h * s)


def test_implicit_square_split_reaches_closed_form():
    # phi(y, z) = -z^2 splits x' = -x^2; one unit step from 1 solves
    # y = 1 - (y^2 + 1)/2, whose positive root is sqrt(2) - 1
    sys = GeneralSplitSystem(n=1, phi=lambda y, z: -z * z)
    y = step_implicit_general(sys, np.array([1.0]), 1.0)
    assert abs(y[0] - (np.sqrt(2.0) - 1.0)) <= IMPLICIT_ATOL


def test_implicit_product_split_reaches_closed_form():
    # phi(y, z) = -y z makes the unit step from 1 exactly linear: y = 1 - y
    sys = GeneralSplitSystem(n=1, phi=lambda y, z: -y * z)
    y = step_implicit_general(sys, np.array([1.0]), 1.0)
    assert abs(y[0] - 0.5) <= IMPLICIT_ATOL


def test_implicit_agrees_with_mass_action_solver(all_models, h_bars, rng):
    for model in all_models:
        sys = as_split_system(model)
        h = 0.5 * h_bars[model.name]
        for x in _interior_states(model, rng, 10):
            direct = step_forward(model, x, h)
            iterated = step_implicit_general(sys, x, h)
            assert np.max(np.abs(direct - iterated)) <= IMPLICIT_ATOL * (1 + np.max(np.abs(x)))


def test_implicit_without_jacobians_falls_back_to_differences(host_vector, h_bars):
    analytic = as_split_system(host_vector)
    bare = GeneralSplitSystem(n=5, phi=analytic.phi)
    x = np.array([5.0, 1.0, 5.0, 1.0, 1.0])
    h = 0.5 * h_bars["host-vector"]
    ya = step_implicit_general(analytic, x, h)
    yb = step_implicit_general(bare, x, h)
    assert np.allclose(ya, yb, rtol=0, atol=1e-9)


def test_implicit_diverges_when_no_solution_exists():
    # y = (y^2 + 1 + x^2 + 1) h/2 + x has no real root at x = 0, h = 1
    sys = GeneralSplitSystem(n=1, phi=lambda y, z: 1.0 + y * y)
    with pytest.raises(NewtonDivergenceError):
        step_implicit_general(sys, np.array([0.0]), 1.0)


def test_singular_error_of_a_slot_jacobian_propagates():
    # only a singular Newton solve becomes NewtonDivergenceError; an error
    # the caller's own Jacobian raises reaches the caller unchanged
    failure = SingularMatrixError("slot Jacobian undefined here")

    def dphi_dy(y, z):
        raise failure

    sys = GeneralSplitSystem(n=1, phi=lambda y, z: -y * z, dphi_dy=dphi_dy)
    with pytest.raises(SingularMatrixError) as caught:
        step_implicit_general(sys, np.array([1.0]), 1.0)
    assert caught.value is failure


def test_integrate_shapes_and_times(logistic):
    traj = integrate(logistic, np.array([0.5]), 0.1, 10)
    assert isinstance(traj, Trajectory)
    assert traj.states.shape == (11, 1)
    assert traj.scheme == "nsfd"
    assert np.allclose(traj.times, 0.1 * np.arange(11), rtol=0, atol=1e-15)
    assert traj.final[0] == traj.states[-1, 0]
    assert traj.states.flags.writeable is False


def test_integrate_holds_the_states_once(host_vector):
    x0 = np.array([9.0, 0.5, 9.0, 0.5, 0.0])
    integrate(host_vector, x0, 0.5, 2)  # fills the model's caches
    tracemalloc.start()
    try:
        traj = integrate(host_vector, x0, 0.5, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copy of the states in Trajectory would double the peak
    assert peak < 1.25 * traj.states.nbytes


@pytest.mark.parametrize("step", [step_forward_batch, step_backward_batch])
def test_batch_step_makes_no_second_stack(host_vector, h_bars, rng, step):
    # A step with a shared h holds its pattern values, right-hand sides and
    # slacks, each smaller than the (m, n, n) stack.  Another stack-sized
    # temporary would take the transient heap of each audit step past twice
    # the stack, where the allocator hands the top of the heap back to the
    # system and the next step faults it in again.
    m = 1000
    xs = _interior_states(host_vector, rng, m)
    h = 0.4 * h_bars["host-vector"]
    step(host_vector, xs, h)  # fills the model's caches
    tracemalloc.start()
    try:
        step(host_vector, xs, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * m * host_vector.n**2 * 8


@pytest.mark.parametrize("name, count", [("host_vector", 100), ("host_vector", 1000), ("sir_ring_30", 100)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_batch_step_solving_its_own_system_in_place_keeps_the_bits(request, rng, name, count, sign):
    # The step hands its stack and right-hand sides to the solve to be
    # overwritten; the answer must be the one a solve on copies gives, on
    # both sides of the elimination rule: host-vector's stacks are
    # eliminated, and 100 rows of the 30-state ring, past the cut-off and
    # below 2 n^3, go to LAPACK.
    model = request.getfixturevalue(name)
    assert model._schedule.eliminates(count) == (name == "host_vector")
    xs = _interior_states(model, rng, count)
    h = 0.4 * step_bound(model).h_bar
    values, rhs, _ = _pattern_system(model, xs, sign * h)
    want = lu_solve_batch(values.T.copy().T, rhs.T.copy().T, _schedule=model._schedule)
    step = step_forward_batch if sign > 0 else step_backward_batch
    assert step(model, xs, h).tobytes() == want.tobytes()


def test_trajectory_views_a_float_array_without_freezing_it():
    states = np.zeros((3, 2))
    traj = Trajectory(h=0.1, states=states, scheme="nsfd")
    assert np.shares_memory(traj.states, states)
    assert traj.states.flags.writeable is False
    assert states.flags.writeable is True
    # other inputs are converted into an array of their own
    ints = np.zeros((3, 2), dtype=int)
    for given in (ints, ints.tolist()):
        traj = Trajectory(h=0.1, states=given, scheme="nsfd")
        assert traj.states.dtype == np.float64
        assert traj.states.flags.writeable is False
    assert ints.flags.writeable is True


def test_integrate_zero_steps(logistic):
    traj = integrate(logistic, np.array([0.5]), 0.1, 0)
    assert traj.states.shape == (1, 1)
    assert traj.final[0] == 0.5


def test_integrate_accuracy_against_closed_form(logistic):
    traj = integrate(logistic, np.array([0.5]), 0.1, 10)
    exact = 1.0 / (1.0 + np.exp(-1.0))
    assert abs(traj.final[0] - exact) <= 2e-4


def test_integrate_validates_inputs(logistic):
    x = np.array([0.5])
    with pytest.raises(SpecError):
        integrate(logistic, x, 0.1, -1)
    with pytest.raises(SpecError):
        integrate(logistic, x, 0.1, 2.5)
    with pytest.raises(SpecError):
        integrate(logistic, x, 0.1, True)
    with pytest.raises(SpecError):
        integrate(logistic, x, 0.1, 5, scheme="leapfrog")


def test_integrate_warns_above_safe_bound(logistic):
    with pytest.warns(RuntimeWarning):
        integrate(logistic, np.array([0.9]), 2.5, 3)


def test_integrate_failure_names_the_step(host_vector):
    from nsfd.models import host_vector_dfe

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DominanceError, match="step 0"):
            integrate(host_vector, host_vector_dfe(), 3.0, 5)


def test_euler_scheme_single_step(logistic):
    traj = integrate(logistic, np.array([0.2]), 0.1, 1, scheme="euler")
    assert traj.final[0] == pytest.approx(0.2 + 0.1 * (0.2 - 0.04), abs=1e-15)


def test_rk4_orbit_equals_a_loop_of_stacked_steps(all_models, sir_network, rng):
    # integrate steps a vector; a (1, n) stack must give the same bits
    for model in (*all_models, sir_network):
        x0 = _interior_states(model, rng, 1)[0]
        traj = integrate(model, x0, 0.05, 40, scheme="rk4")
        xs = x0[None]
        for k in range(40):
            xs = _on_rows(_explicit_step(model, "rk4"), xs, 0.05, 1)
            assert traj.states[k + 1].tobytes() == xs[0].tobytes()


@pytest.mark.parametrize("scheme, step", [("euler", 1), ("rk4", 0)])
def test_explicit_overflow_names_its_step(logistic, scheme, step):
    # at h = 1e200 euler's second step and rk4's first overflow; both
    # schemes refuse the orbit the same way
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LinAlgError, match=f"^step {step}: state is not finite$"):
            integrate(logistic, np.array([0.5]), 1e200, 3, scheme=scheme)


def test_trapezoidal_overflow_is_a_numerical_failure(logistic):
    # the explicit first guess x + h f(x) overflows to -inf; that is the
    # explicit schemes' failure, not an invalid argument to the field
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LinAlgError, match="^step 0: state is not finite$"):
            integrate(logistic, np.array([1e200]), 1.0, 3, scheme="trapezoidal")


def test_integrate_refuses_a_step_count_numpy_cannot_hold(logistic):
    # far above 2**63 bytes, so numpy refuses it before allocating anything
    with pytest.raises(SpecError, match="do not fit in memory"):
        integrate(logistic, np.array([0.5]), 0.1, 2**70)


def test_rk4_scheme_is_high_accuracy():
    m = _linear_decay()
    traj = integrate(m, np.array([1.0]), 0.01, 100, scheme="rk4")
    assert abs(traj.final[0] - np.exp(-1.0)) <= 1e-9


def test_trapezoidal_equals_reversible_map_on_linear_models():
    m = _linear_decay()
    x0 = np.array([3.0])
    a = integrate(m, x0, 0.2, 25, scheme="nsfd")
    b = integrate(m, x0, 0.2, 25, scheme="trapezoidal")
    assert np.allclose(a.states, b.states, rtol=0, atol=1e-13)


def test_trapezoidal_differs_from_reversible_map_on_quadratic_models(logistic):
    a = integrate(logistic, np.array([0.2]), 0.5, 8, scheme="nsfd")
    b = integrate(logistic, np.array([0.2]), 0.5, 8, scheme="trapezoidal")
    assert np.max(np.abs(a.states - b.states)) > 1e-6


def test_schemes_tuple_is_frozen():
    assert SCHEMES == ("nsfd", "euler", "rk4", "trapezoidal")


def test_si_total_conserved_along_trajectory(si):
    traj = integrate(si, np.array([0.9, 0.1]), 0.5, 100)
    totals = traj.states.sum(axis=1)
    assert np.max(np.abs(totals - 1.0)) <= 1e-12
