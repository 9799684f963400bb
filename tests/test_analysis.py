"""Equilibria, eigenvalue transfer, stability rows, convergence order."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from nsfd import analysis
from nsfd.analysis import (
    EquilibriumResult,
    OrderEstimate,
    StabilityRow,
    find_equilibria,
    mu_of_lambda,
    observed_order,
    rk4_reference,
    stability_report,
    _pair_eigenvalues,
)
from nsfd.integrator import integrate
from nsfd.linalg import LinAlgError, eigenvalues
from nsfd.model import SpecError
from nsfd.models import host_vector_dfe

MU_ATOL = 1e-12
MU_MEASURED_ATOL = 1e-6
ORDER_BAND_TWO = (1.9, 2.1)
ORDER_BAND_ONE = (0.9, 1.1)


def test_mu_hand_values():
    assert mu_of_lambda(-1.0, 0.1) == pytest.approx(0.9047619047619047, abs=MU_ATOL)
    assert mu_of_lambda(1.0, 0.1) == pytest.approx(1.105263157894737, abs=MU_ATOL)
    assert mu_of_lambda(0.0, 0.7) == 1.0


def test_mu_rotates_imaginary_axis_to_unit_circle():
    # (1 + i)/(1 - i) = i: purely imaginary rates land on the circle
    got = mu_of_lambda(1j, 2.0)
    assert abs(got - 1j) <= 1e-15
    for im in (0.3, -2.0, 11.0):
        assert abs(abs(mu_of_lambda(1j * im, 0.5)) - 1.0) <= 1e-13


def test_mu_pole_raises():
    with pytest.raises(LinAlgError):
        mu_of_lambda(2.0 / 0.1, 0.1)
    with pytest.raises(LinAlgError):
        mu_of_lambda(20.0 * (1.0 + 5e-15), 0.1)


def test_mu_rejects_bad_step():
    with pytest.raises(SpecError):
        mu_of_lambda(-1.0, -0.1)
    with pytest.raises(SpecError):
        mu_of_lambda(-1.0, float("nan"))


def test_mu_preserves_stability_classification(rng):
    # the rational map sends the open left half-plane exactly inside the
    # unit circle, for every admissible step size
    for _ in range(10000):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        h = rng.uniform(1e-3, 2.0)
        if abs(lam.real) < 1e-12 or abs(lam - 2.0 / h) < 1e-6:
            continue
        mu = mu_of_lambda(lam, h)
        assert (lam.real < 0) == (abs(mu) < 1.0)


def test_find_equilibria_logistic(logistic):
    seeds = [np.array([0.2]), np.array([0.8]), np.array([0.9])]
    results = find_equilibria(logistic, seeds)
    assert all(isinstance(r, EquilibriumResult) for r in results)
    converged = [r for r in results if r.status == "converged"]
    points = sorted(float(r.point[0]) for r in converged)
    assert len(points) == 2  # the third seed lands on a duplicate
    assert points[0] == pytest.approx(0.0, abs=1e-10)
    assert points[1] == pytest.approx(1.0, abs=1e-10)
    assert {r.seed_index for r in converged} == {0, 1}
    for r in converged:
        assert r.residual <= 1e-10


def test_find_equilibria_host_vector(host_vector):
    seeds = [np.array([9.0, 0.5, 9.0, 0.5, 0.5])]
    results = find_equilibria(host_vector, seeds)
    assert results[0].status == "converged"
    assert np.allclose(results[0].point, host_vector_dfe(), rtol=0, atol=1e-8)


def test_find_equilibria_singular_jacobian(si):
    # the contact model's equilibrium set is a continuum; the Jacobian is
    # singular there and the probe must say so instead of pretending
    results = find_equilibria(si, [np.array([0.5, 0.3])])
    assert results[0].status == "singular"


def test_find_equilibria_no_convergence(logistic):
    results = find_equilibria(logistic, [np.array([50.0])], max_iter=1)
    assert results[0].status == "no-convergence"


def test_find_equilibria_newton_overflow_is_a_numerical_failure(logistic):
    # the second seed's first Newton step overflows; the error names it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LinAlgError, match="^Newton iteration from seed 1: state is not finite$"):
            find_equilibria(logistic, [np.array([0.5]), np.array([1e200])])


def test_find_equilibria_without_iterations_only_tests_the_seed(logistic):
    # max_iter=0 takes no Newton step: an exact equilibrium converges at
    # once, any other seed ends unconverged where it started
    at_rest, moving = find_equilibria(logistic, [np.array([1.0]), np.array([0.5])], max_iter=0)
    assert (at_rest.status, at_rest.point.tolist(), at_rest.residual) == ("converged", [1.0], 0.0)
    assert (moving.status, moving.point.tolist(), moving.residual) == ("no-convergence", [0.5], 0.25)


def test_stability_logistic_interior_equilibrium(logistic):
    rows = stability_report(logistic, np.array([1.0]), 0.1)
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, StabilityRow)
    assert row.lam == pytest.approx(-1.0, abs=1e-12)
    assert row.mu_predicted == pytest.approx(0.95 / 1.05, abs=MU_ATOL)
    assert abs(row.mu_measured - row.mu_predicted) <= MU_MEASURED_ATOL
    assert row.continuous_stable and row.discrete_stable and row.consistent
    assert not row.ambiguous
    assert not row.near_nonhyperbolic


def test_stability_logistic_origin(logistic):
    rows = stability_report(logistic, np.array([0.0]), 0.1)
    row = rows[0]
    assert row.lam == pytest.approx(1.0, abs=1e-12)
    assert row.mu_predicted == pytest.approx(1.05 / 0.95, abs=MU_ATOL)
    assert not row.continuous_stable and not row.discrete_stable
    assert row.consistent


def test_stability_host_vector_dfe(host_vector):
    rows = stability_report(host_vector, host_vector_dfe(), 0.5)
    assert len(rows) == 5
    lams = [row.lam for row in rows]
    expected = sorted(
        [-0.6405124837953327, -0.2, -0.15, -0.1, 0.1405124837953327],
        key=lambda v: v,
    )
    for got, want in zip(lams, expected):
        assert got.real == pytest.approx(want, abs=1e-9)
        assert abs(got.imag) <= 1e-9
    for row in rows:
        assert abs(row.mu_predicted - row.mu_measured) <= MU_MEASURED_ATOL * (
            1.0 + abs(row.mu_predicted)
        )
        assert row.consistent
        assert not row.ambiguous
        assert row.continuous_stable == (row.lam.real < 0)
    # exactly one unstable direction
    assert sum(not row.discrete_stable for row in rows) == 1


def test_stability_rows_are_sorted_by_real_part(host_vector):
    rows = stability_report(host_vector, host_vector_dfe(), 0.5)
    reals = [row.lam.real for row in rows]
    assert reals == sorted(reals)


def test_stability_flags_zero_eigenvalue(si):
    # (1, 0) is an equilibrium with a zero eigenvalue along the equilibrium
    # continuum; the row is marked instead of silently classified
    rows = stability_report(si, np.array([1.0, 0.0]), 0.5)
    assert len(rows) == 2
    assert rows[0].near_nonhyperbolic
    assert rows[0].mu_predicted == pytest.approx(1.0, abs=MU_ATOL)
    assert rows[1].lam == pytest.approx(1.0, abs=1e-12)
    assert rows[1].mu_predicted == pytest.approx(5.0 / 3.0, abs=MU_ATOL)
    assert not rows[1].near_nonhyperbolic


def test_stability_rejects_non_equilibrium(logistic):
    # at 1e308 the field overflows to a NaN residual, which must fail too
    for x_bar in (0.4, 1e308):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SpecError):
            stability_report(logistic, np.array([x_bar]), 0.1)


def _pair_by_generator(predicted, measured):
    # The earlier pairing, kept as the oracle: the tuple-min over free
    # (distance, i, j) and the runner-up among the free columns of row i.
    predicted = np.asarray(predicted, dtype=complex)
    measured = np.asarray(measured, dtype=complex)
    n = predicted.size
    dist = np.abs(predicted[:, None] - measured[None, :])
    free_p, free_m = set(range(n)), set(range(n))
    pairs = []
    while free_p:
        d, i, j = min((dist[i, j], i, j) for i in free_p for j in free_m)
        others = [dist[i, jj] for jj in free_m if jj != j]
        pairs.append((i, j, bool(others) and min(others) < 2.0 * d))
        free_p.remove(i)
        free_m.remove(j)
    return pairs


def _pairing_cases(rng):
    for n in (1, 2, 3, 5, 8, 30):
        for _ in range(20):
            predicted = rng.normal(size=n) + 1j * rng.normal(size=n)
            yield predicted, predicted + 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    # exact ties: repeated values on both sides and equal distances
    yield np.zeros(4), np.zeros(4)
    yield np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.5, 0.5, 0.5, 0.5])
    yield np.array([1.0, -1.0, 1j, -1j]), np.zeros(4)
    for _ in range(20):
        yield rng.integers(-2, 3, size=6).astype(float), rng.integers(-2, 3, size=6).astype(float)
    # conjugate pairs, as a real matrix's eigenvalues come
    for _ in range(20):
        half = rng.normal(size=3) + 1j * rng.normal(size=3)
        predicted = np.concatenate([half, half.conj()])
        yield predicted, predicted[::-1] + 1e-9 * rng.normal(size=6)
    yield np.array([0.3 + 0.0j]), np.array([-0.7 + 0.2j])


def test_pairing_equals_the_generator_oracle(rng):
    cases = 0
    for predicted, measured in _pairing_cases(rng):
        assert _pair_eigenvalues(predicted, measured) == _pair_by_generator(predicted, measured)
        cases += 1
    assert cases == 164


def test_stability_refuses_an_overflowing_prediction(logistic, monkeypatch):
    # |lambda| is at most the Jacobian's 1-norm, so an h at which
    # h * lambda / 2 overflows brings the step matrix's column norms to
    # the float limit too, and the solve guard refused it first in every
    # case tried; the field eigenvalue is scaled past it here instead:
    # lambda = -1e308 at h = 4 gives mu = -inf / inf, a NaN
    calls = []

    def scaled(a):
        lams = eigenvalues(a)
        calls.append(lams)
        return [1e308 * lam for lam in lams] if len(calls) == 1 else lams

    monkeypatch.setattr(analysis, "eigenvalues", scaled)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LinAlgError, match="not finite"):
        stability_report(logistic, np.array([1.0]), 4.0)


def test_rk4_reference_logistic_closed_form(logistic):
    traj = rk4_reference(logistic, np.array([0.5]), 1e-3, 1.0)
    exact = 1.0 / (1.0 + np.exp(-1.0))
    assert abs(traj.final[0] - exact) <= 1e-10
    assert traj.scheme == "rk4"


def test_rk4_reference_rounds_horizon(logistic):
    traj = rk4_reference(logistic, np.array([0.5]), 0.3, 1.0)
    assert traj.states.shape == (4, 1)
    assert traj.times[-1] == pytest.approx(0.9, abs=1e-12)


def test_observed_order_nsfd_is_second_order(logistic):
    est = observed_order(logistic, np.array([0.5]), T=1.0, h=0.1)
    assert isinstance(est, OrderEstimate)
    assert est.defined
    assert est.scheme == "nsfd"
    assert ORDER_BAND_TWO[0] <= est.p_hat <= ORDER_BAND_TWO[1]
    assert est.error_h > est.error_h2 > 0.0


def test_observed_order_euler_is_first_order(logistic):
    est = observed_order(logistic, np.array([0.5]), T=1.0, h=0.1, scheme="euler")
    assert est.defined
    assert ORDER_BAND_ONE[0] <= est.p_hat <= ORDER_BAND_ONE[1]


def test_observed_order_rounds_horizon_to_whole_steps(logistic):
    est = observed_order(logistic, np.array([0.5]), T=1.0, h=0.3)
    assert est.t_effective == pytest.approx(0.9, abs=1e-12)
    assert est.h == 0.3


def test_observed_order_degenerate_at_equilibrium(logistic):
    est = observed_order(logistic, np.array([1.0]), T=1.0, h=0.1)
    assert not est.defined
    assert est.p_hat != est.p_hat  # NaN


def test_observed_order_refuses_a_long_reference_before_any_run(logistic, monkeypatch):
    runs = []
    monkeypatch.setattr(analysis, "integrate", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr(analysis, "_final_state", lambda *args, **kwargs: runs.append(args))
    # 1,001 steps of h put 200,200 reference steps at h/200, past the limit.
    h = 1e-3
    assert analysis.MAX_REFERENCE_STEPS == 200 * 1000
    with pytest.raises(SpecError, match="200200 steps, more than 200000"):
        observed_order(logistic, np.array([0.5]), T=1001 * h, h=h)
    assert runs == []


def test_observed_order_validates_inputs(logistic):
    with pytest.raises(SpecError):
        observed_order(logistic, np.array([0.5]), T=0.0, h=0.1)
    with pytest.raises(SpecError):
        observed_order(logistic, np.array([0.5]), T=1.0, h=0.0)
    with pytest.raises(SpecError):
        observed_order(logistic, np.array([0.5]), T=1.0, h=0.1, scheme="leapfrog")
    # T / h overflows: no step count exists
    with pytest.raises(SpecError, match="too many steps"):
        observed_order(logistic, np.array([0.5]), T=1e308, h=0.1)
    with pytest.raises(SpecError, match="too many steps"):
        rk4_reference(logistic, np.array([0.5]), 0.1, 1e308)


@pytest.mark.parametrize("h_ref", [0.0, math.nan, math.inf, -0.1])
def test_rk4_reference_refuses_a_bad_step_size(logistic, h_ref):
    with pytest.raises(SpecError, match="h must be positive and finite"):
        rk4_reference(logistic, np.array([0.5]), h_ref, 1.0)


@pytest.mark.parametrize("T, h", [(0.01, 0.1), (0.05, 0.1), (12000.0, 1e200)])
def test_a_horizon_that_holds_no_step_is_refused(logistic, T, h):
    # T / h rounds to 0: no run covers the horizon asked for.
    message = re.escape(f"horizon T={T:g} holds no step of size h={h:g}")
    with pytest.raises(SpecError, match=message):
        observed_order(logistic, np.array([0.5]), T, h)
    with pytest.raises(SpecError, match=message):
        rk4_reference(logistic, np.array([0.5]), h, T)


@pytest.mark.parametrize("scheme, h, step", [("euler", 1e200, 1), ("rk4", 1e200, 0), ("euler", 5.0, 9)])
def test_observed_order_names_the_overflowing_step_as_integrate_does(logistic, scheme, h, step):
    # At h = 1e200 euler's second step and rk4's first overflow.  At h = 5
    # euler's steps from 0.5 grow as -5 x^2 and pass 1e308 at the tenth.
    # The state stays non-finite to the end of the coarse run's 12 steps,
    # and order names that run before integrate's text.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(LinAlgError) as orbit:
            integrate(logistic, np.array([0.5]), h, 12, scheme=scheme)
        with pytest.raises(LinAlgError) as order:
            observed_order(logistic, np.array([0.5]), 12 * h, h, scheme=scheme)
    assert str(orbit.value) == f"step {step}: state is not finite"
    assert str(order.value) == f"run at h: {orbit.value}"


def test_observed_order_names_the_reference_run_when_it_alone_fails(logistic):
    # From 1e300 both nsfd runs finish; the RK4 reference at h/200 overflows
    # in its first step.
    x0 = np.array([1e300])
    assert np.isfinite(integrate(logistic, x0, 0.05, 20).final).all()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LinAlgError) as order:
        observed_order(logistic, x0, 1.0, 0.1)
    assert str(order.value) == "reference run at h/200: step 0: state is not finite"


def test_observed_order_holds_no_orbit(logistic):
    # 500 steps of h put 100,000 reference steps at h/200, whose orbit
    # would take 800 kB; only the three final states are kept.
    h = 0.01
    observed_order(logistic, np.array([0.5]), 2 * h, h)  # compiles the kernels
    tracemalloc.start()
    try:
        est = observed_order(logistic, np.array([0.5]), 500 * h, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.defined
    assert peak < 0.05 * 100_000 * 8
