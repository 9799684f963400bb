"""Dense kernels checked against numpy.linalg as an independent oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nsfd.linalg import (
    FLOAT_ELIMINATION_MAX_OPS,
    EigenConvergenceError,
    LinAlgError,
    SingularMatrixError,
    _dense,
    _schedule_of,
    _slack_parts,
    eigenvalues,
    fd_jacobian,
    is_diagonally_dominant,
    is_metzler,
    lu_solve,
    lu_solve_batch,
)
from nsfd.integrator import _pattern_system, step_bound, step_forward
from nsfd.model import Constraint, Domain, MassActionModel, f_jacobian
from nsfd.models import host_vector_dfe

SOLVE_RTOL = 1e-10
EIG_ATOL = 1e-7


def test_lu_solve_matches_reference_solver(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        x_ref = np.linalg.solve(a, b)
        assert np.allclose(x, x_ref, rtol=SOLVE_RTOL, atol=1e-14)


def test_lu_solve_identity_is_exact():
    b = np.array([3.0, -1.0, 0.5])
    assert np.array_equal(lu_solve(np.eye(3), b), b)


def test_lu_solve_needs_pivoting():
    # zero top-left pivot forces a row swap
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0, 5.0])
    assert np.allclose(lu_solve(a, b), [5.0, 2.0], rtol=0, atol=1e-15)


def test_lu_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(np.zeros((2, 2)), np.ones(2))
    rank1 = np.outer([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(SingularMatrixError):
        lu_solve(rank1, np.ones(2))


def test_lu_solve_rejects_bad_shapes():
    # shape misuse is a programming error, not a numerical failure
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        lu_solve(np.eye(2), np.ones(3))


def test_lu_solve_batch_matches_scalar_solves(rng):
    m, n = 7, 4
    mats = rng.standard_normal((m, n, n)) + n * np.eye(n)
    rhs = rng.standard_normal((m, n))
    xs = lu_solve_batch(mats, rhs)
    assert xs.shape == (m, n)
    for r in range(m):
        assert np.allclose(xs[r], lu_solve(mats[r], rhs[r]), rtol=1e-13, atol=1e-14)


def test_lu_solve_batch_singular_member_raises(rng):
    mats = np.stack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularMatrixError):
        lu_solve_batch(mats, np.ones((2, 2)))


# The two rows are parallel up to 1e-15: a bare LAPACK solve returns
# entries near 2.4e16 for it without an error.
NEAR_SINGULAR = np.array([[0.1, 0.3], [1.0, 3.0 + 1e-15]])


def test_lu_solve_near_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_solve(NEAR_SINGULAR, np.ones(2))


def test_lu_solve_batch_names_first_near_singular_system():
    mats = np.stack([np.eye(2), 3.0 * np.eye(2), NEAR_SINGULAR])
    with pytest.raises(SingularMatrixError, match="system 2"):
        lu_solve_batch(mats, np.ones((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lu_solve_non_finite_matrix_raises(bad):
    # NaN fails every comparison, so the guard must not read it as a pass
    with pytest.raises(SingularMatrixError, match="system 0: matrix entries are not finite"):
        lu_solve([[bad, 0.0], [0.0, 1.0]], [1.0, 1.0])


def test_lu_solve_batch_names_non_finite_system():
    mats = np.stack([np.eye(2), 2.0 * np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]])
    with pytest.raises(SingularMatrixError, match="system 2: matrix entries are not finite"):
        lu_solve_batch(mats, np.ones((3, 2)))


def _dominant_systems(rng, m, n):
    a = rng.standard_normal((m, n, n))
    i = np.arange(n)
    a[:, i, i] = 0.0
    margin = 0.5 + rng.random((m, n))
    a[:, i, i] = rng.choice([-1.0, 1.0], (m, n)) * (np.abs(a).sum(axis=1) + margin)
    return a


def _forbid_cond(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("np.linalg.cond called on a certified system")

    monkeypatch.setattr(np.linalg, "cond", fail)


def test_dominant_but_ill_conditioned_system_gets_exact_check(monkeypatch):
    # column dominant, yet Varah's bound 1e-15 / 1 is below PIVOT_RTOL
    a = np.diag([1.0, 1e-15])
    assert is_diagonally_dominant(a)
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *args: calls.append(args) or cond(*args))
    with pytest.raises(SingularMatrixError, match="system 0: reciprocal condition"):
        lu_solve(a, np.ones(2))
    assert len(calls) == 1


def test_dominant_batch_is_certified_without_exact_check(rng, monkeypatch):
    a = _dominant_systems(rng, 1000, 5)
    b = rng.standard_normal((1000, 5))
    _forbid_cond(monkeypatch)
    xs = lu_solve_batch(a, b)
    assert np.allclose(xs, np.linalg.solve(a, b[..., None])[..., 0], rtol=1e-13, atol=1e-14)


def test_dominant_batch_of_mixed_scales_is_certified_system_by_system(rng, monkeypatch):
    # the smallest slack over the stack is far below PIVOT_RTOL times the
    # largest norm, but each system on its own is well conditioned
    a = _dominant_systems(rng, 6, 5) * np.array([1e-10, 1.0, 1e10, 1e-10, 1.0, 1e10])[:, None, None]
    b = rng.standard_normal((6, 5))
    _forbid_cond(monkeypatch)
    xs = lu_solve_batch(a, b)
    for k in range(6):
        assert np.allclose(a[k] @ xs[k], b[k], rtol=1e-12, atol=1e-12)


def _count_lapack_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    return calls


ELIMINATION_RTOL = 1e-14


def _full_pattern_solve(a, b):
    """``lu_solve_batch`` of a dense stack passed as the values of the full pattern's schedule.

    The pattern of every entry, ``range(n * n)``, has the dense loop as its
    schedule; the solve works in copies of ``a`` and ``b``, laid out
    entries first as the integrator lays out its stacks.
    """
    m, n = b.shape
    values, rhs = a.reshape(m, n * n).T.copy().T, b.T.copy().T
    return lu_solve_batch(values, rhs, _schedule=_schedule_of(n, tuple(range(n * n))))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
@pytest.mark.parametrize("side", ["one", "below", "at"])
def test_a_dominant_stack_is_eliminated_as_its_schedule_says(rng, monkeypatch, n, side):
    # A schedule at or below the cut-off eliminates a stack of any size; a
    # larger one sends a stack below 2 n^3 rows to LAPACK and eliminates
    # from there on, within a few ulps of LAPACK's answer.
    small = _schedule_of(n, tuple(range(n * n))).size <= FLOAT_ELIMINATION_MAX_OPS
    assert small == (n < 12)
    m = {"one": 1, "below": 2 * n**3 - 1, "at": 2 * n**3}[side]
    a = _dominant_systems(rng, m, n)
    b = rng.standard_normal((m, n))
    want = np.linalg.solve(a, b[..., None])[..., 0]
    calls = _count_lapack_solves(monkeypatch)
    xs = _full_pattern_solve(a, b)
    assert len(calls) == (not small and side != "at")
    gap = np.abs(xs - want).max(axis=1) / np.abs(want).max(axis=1)
    assert gap.max() <= ELIMINATION_RTOL


def test_eliminated_rows_do_not_depend_on_the_stack(rng):
    # every operation is elementwise across the stack, so a system gets the
    # same bits in any stack that takes the elimination
    a = _dominant_systems(rng, 1000, 5)
    b = rng.standard_normal((1000, 5))
    whole = _full_pattern_solve(a, b)
    part = _full_pattern_solve(a[700:], b[700:])
    assert whole[700:].tobytes() == part.tobytes()


def test_a_dominant_stack_with_no_schedule_goes_to_lapack(rng, monkeypatch):
    a = _dominant_systems(rng, 1000, 5)
    b = rng.standard_normal((1000, 5))
    want = np.linalg.solve(a, b[..., None])[..., 0]
    calls = _count_lapack_solves(monkeypatch)
    assert lu_solve_batch(a, b).tobytes() == want.tobytes()
    assert len(calls) == 1


def _dense_eliminate(a, b):
    """Elimination without pivoting over every entry, one ufunc per operation.

    The reference that every schedule must match bit for bit: the dense
    loop (column k, then row i, then column j) that the schedules leave
    operations out of.
    """
    m, n = b.shape
    rows = [list(r) for r in a.transpose(1, 2, 0).copy()]
    yt = b.T.copy()
    y = list(yt)
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
    return yt.T.copy()


def _eliminate(values, rhs, schedule):
    """The (m, n) solutions of ``schedule``'s compiled eliminate over the (m,) columns of copies of a stack.

    ``values`` is the (m, p) stack of the values of the schedule's
    pattern entries, and ``rhs`` the (m, n) right-hand sides.
    """
    y = rhs.T.copy()
    schedule.eliminate(list(values.T.copy()), list(y))
    return y.T


def test_a_stack_with_no_pattern_gets_the_dense_loop_bits(rng):
    a = _dominant_systems(rng, 300, 5)
    b = rng.standard_normal((300, 5))
    b[b < -1.0] = -0.0
    assert _full_pattern_solve(a, b).tobytes() == _dense_eliminate(a, b).tobytes()


def _step_states(model, rng, count):
    """Interior states of the box, half of them with entries set to 0.0 or -0.0."""
    lo, hi = model.domain.box_lower, model.domain.box_upper
    xs = lo + (hi - lo) * (0.05 + 0.9 * rng.random((count, model.n)))
    zeros = rng.random(xs.shape) < 0.3
    zeros[: count // 2] = False
    xs[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return xs


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_schedule_elimination_keeps_the_dense_loop_bits(all_models, sir_network, rng, sign):
    # A model's schedule leaves out the operations on entries that stay
    # zero; that changes no bit, also on states with zero and -0.0 entries,
    # because the step's right-hand sides hold no -0.0.
    dfe = host_vector_dfe()
    for model in (*all_models, sir_network):
        xs = _step_states(model, rng, 400)
        if model.name == "host-vector":
            xs = np.vstack([xs, dfe, np.where(dfe == 0.0, -0.0, dfe)])
        values, rhs, _ = _pattern_system(model, xs, sign * 0.4 * step_bound(model).h_bar)
        assert not np.signbit(rhs[rhs == 0.0]).any(), model.name
        got = _eliminate(values, rhs, model._schedule)
        assert got.tobytes() == _dense_eliminate(_dense(values, model._schedule), rhs).tobytes(), model.name


def test_host_vector_schedule_fills_two_entries(host_vector):
    # 13 entries can be nonzero: the diagonal, L's (2, 4) and (4, 3), and
    # the eight that the four bilinear terms touch; eliminating columns 1
    # and 2 fills (2, 3) and (3, 4)
    schedule = host_vector._schedule
    assert len(host_vector._entry_terms) == 13
    assert [divmod(e, 5) for e in schedule.fill] == [(2, 3), (3, 4)]
    assert schedule.size == 42


def _lower_triangular_model(slack):
    # a linear model whose I - h S(x) at h = 1 is [[1, 0], [-(1 - slack), 1]]
    return MassActionModel(
        n=2,
        bilinear=(),
        linear=[[0.0, 0.0], [2.0 * (1.0 - slack), 0.0]],
        constant=[0.0, 0.0],
        domain=Domain(nonnegative=(True, True), constraints=(Constraint((1.0, 1.0), 1.0),)),
        labels=("a", "b"),
    )


@pytest.mark.parametrize("singular", [False, True])
def test_a_float_step_that_varah_leaves_uncertain_gets_the_exact_check(monkeypatch, singular):
    # Column 0 is dominant by 2^-50 against a 1-norm near 2, below Varah's
    # PIVOT_RTOL, so the guard of the Python-float solve must compute the
    # condition number; the second matrix also has a diagonal near 1e-15.
    import nsfd.linalg

    model = _lower_triangular_model(2.0**-50)
    if singular:
        linear = np.array(model.linear)
        linear[1, 1] = 2.0 * (1.0 - 1e-15)
        model = dataclasses.replace(model, linear=linear)
    assert model._schedule.size <= FLOAT_ELIMINATION_MAX_OPS
    calls = []
    check = nsfd.linalg._check_condition
    monkeypatch.setattr(nsfd.linalg, "_check_condition", lambda *args: calls.append(args) or check(*args))
    x = np.array([0.25, 0.5])
    if singular:
        with pytest.raises(SingularMatrixError, match="system 0: reciprocal condition"):
            step_forward(model, x, 1.0)
    else:
        values, rhs, _ = _pattern_system(model, x, 1.0)
        want = np.linalg.solve(_dense([values], model._schedule)[0], rhs)
        assert np.allclose(step_forward(model, x, 1.0), want, rtol=1e-15, atol=0.0)
    assert len(calls) == 1


def _dense_by_loop(values, schedule):
    """The (m, n, n) stack with the rows of ``values`` at the pattern entries, written one entry at a time."""
    n = schedule.n
    out = np.zeros((len(values), n * n))
    for k, row in enumerate(values):
        for e, value in zip(schedule.pattern, row):
            out[k, e] = value
    return out.reshape(-1, n, n)


def test_dense_writes_the_pattern_entries_as_the_loop_does(rng, monkeypatch, sir_network):
    # A stack, and one system in Python floats on the condition check of
    # the float solve, with -0.0, inf and NaN among the values.
    import nsfd.linalg

    for model in (sir_network, _lower_triangular_model(0.5)):
        schedule = model._schedule
        values = rng.standard_normal((7, len(schedule.pattern)))
        values[np.abs(values) < 0.3] = -0.0
        values.flat[rng.integers(values.size, size=3)] = [np.inf, -np.inf, np.nan]
        assert _dense(values, schedule).tobytes() == _dense_by_loop(values, schedule).tobytes()
    calls = []
    check = nsfd.linalg._check_condition
    monkeypatch.setattr(nsfd.linalg, "_check_condition", lambda a, *rest: calls.append(a.copy()) or check(a, *rest))
    row = values[0].tolist()
    row[1] = math.nan
    with pytest.raises(SingularMatrixError, match="system 0: matrix entries are not finite"):
        lu_solve(row, [1.0, 1.0], _schedule=schedule)
    assert [a.tobytes() for a in calls] == [_dense_by_loop([row], schedule).tobytes()]


@pytest.mark.parametrize("layout", ["C-ordered", "entries-first"])
def test_lu_solve_batch_leaves_its_inputs_unchanged(rng, layout):
    a = _dominant_systems(rng, 300, 5)
    if layout == "entries-first":
        # the integrator's layout, whose own stacks the elimination works in
        a = np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)
    b = rng.standard_normal((300, 5))
    a_bytes, b_bytes = a.tobytes(), b.tobytes()
    lu_solve_batch(a, b)
    assert a.tobytes() == a_bytes and b.tobytes() == b_bytes


def test_lu_solve_batch_needs_pivoting():
    # a stack past the rule whose zero top-left pivots force row swaps
    a = np.tile([[0.0, 1.0], [1.0, 0.0]], (16, 1, 1))
    b = np.tile([2.0, 5.0], (16, 1))
    assert np.allclose(lu_solve_batch(a, b), [5.0, 2.0], rtol=0, atol=1e-15)


def test_stack_with_one_non_dominant_member_goes_to_lapack(rng, monkeypatch):
    a = _dominant_systems(rng, 300, 5)
    a[123] = rng.standard_normal((5, 5))
    b = rng.standard_normal((300, 5))
    want = np.linalg.solve(a, b[..., None])[..., 0]
    calls = _count_lapack_solves(monkeypatch)
    xs = lu_solve_batch(a, b)
    assert len(calls) == 1
    assert xs.tobytes() == want.tobytes()


def test_dominant_stack_past_the_rule_keeps_the_condition_check():
    # every member is dominant, but one is numerically singular
    a = np.tile(np.eye(2), (20, 1, 1))
    a[13] = np.diag([1.0, 1e-15])
    with pytest.raises(SingularMatrixError, match="system 13: reciprocal condition"):
        lu_solve_batch(a, np.ones((20, 2)))


def _awkward_stack(rng, m, n):
    # entries with NaN, +-inf and -0.0 scattered in, and one all-zero system
    a = rng.standard_normal((m, n, n))
    a[np.abs(a) < 0.3] = -0.0
    if a.size:
        for value in (np.nan, np.inf, -np.inf):
            a.flat[rng.integers(a.size, size=2)] = value
        a[0] = 0.0
    return a


@pytest.mark.parametrize("layout", ["C-ordered", "entries-first"])
@pytest.mark.parametrize("m, n", [(0, 3), (1, 1), (9, 1), (7, 2), (11, 5), (5, 12)])
def test_stack_slack_parts_match_each_matrix_bits(rng, layout, m, n):
    # the stack pass goes row block by row block; each system must still get
    # the slacks and 1-norms of its own 2-D pass, bit for bit
    a = _awkward_stack(rng, m, n)
    if layout == "entries-first":
        # as the integrator lays its stacks out, stack axis innermost
        a = np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1)
    slack, colsum, smin = _slack_parts(a)
    assert slack.shape == colsum.shape == (m, n)
    parts = [_slack_parts(np.array(a[k])) for k in range(m)]
    for got, k in ((slack, 0), (colsum, 1)):
        want = np.array([p[k] for p in parts]).reshape(m, n)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    smallest = np.array([p[2] for p in parts]).min(initial=np.inf)
    assert np.array(smin).tobytes() == smallest.tobytes()


@seed(7)
@given(
    a=arrays(np.float64, (4, 4), elements=st.floats(-10, 10)),
    b=arrays(np.float64, (4,), elements=st.floats(-10, 10)),
)
def test_lu_solve_residual_is_small_for_dominant_systems(a, b):
    shifted = a + (4.0 * 10.0 + 1.0) * np.eye(4)
    x = lu_solve(shifted, b)
    assert np.max(np.abs(shifted @ x - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))


def _match_eigenvalues(mine, reference, atol):
    # greedy nearest-match; robust to ordering differences
    pool = list(mine)
    for lam in reference:
        dists = [abs(lam - m) for m in pool]
        k = int(np.argmin(dists))
        assert dists[k] <= atol, f"no eigenvalue near {lam}: off by {dists[k]:.3e}"
        pool.pop(k)


def test_eigenvalues_companion_cubic():
    a = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    lams = eigenvalues(a)
    assert isinstance(lams, list)
    _match_eigenvalues(lams, [1.0, 2.0, 3.0], atol=1e-12)


def test_eigenvalues_rotation_gives_conjugate_pair():
    lams = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    _match_eigenvalues(lams, [1j, -1j], atol=1e-14)


def test_eigenvalues_triangular_reads_diagonal():
    a = np.array([[2.0, 5.0, 1.0], [0.0, -3.0, 2.0], [0.0, 0.0, 0.5]])
    _match_eigenvalues(eigenvalues(a), [2.0, -3.0, 0.5], atol=1e-12)


def test_eigenvalues_match_reference_on_random_matrices(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        scale = 1.0 + np.max(np.abs(a))
        _match_eigenvalues(eigenvalues(a), np.linalg.eigvals(a), atol=EIG_ATOL * scale)


def test_eigenvalues_symmetric_are_real(rng):
    a = rng.standard_normal((6, 6))
    sym = a + a.T
    lams = eigenvalues(sym)
    assert max(abs(l.imag) for l in lams) <= 1e-9
    _match_eigenvalues(lams, np.linalg.eigvalsh(sym), atol=1e-8 * (1 + np.max(np.abs(sym))))


# Infection sources (patch, beta) of a 4-patch metapopulation SIR: each
# patch infects itself and two random others, generator seed 293.
COMMON_MU_SOURCES = (
    ((0, 0.012448980093960126), (1, 0.010903197662149297), (3, 0.028056901125393947)),
    ((1, 0.009011228435649664), (2, 0.01491507286477118), (0, 0.02126777655838738)),
    ((2, 0.02023139548957675), (1, 0.010654417977599107), (0, 0.01613496594496979)),
    ((3, 0.016381114750460953), (1, 0.019782024462476292), (0, 0.009798863491561744)),
)


def test_eigenvalues_repeated_eigenvalues_of_common_mu_network(metapop_sir):
    # With one mortality for every patch, -mu and -(mu + gamma) are each
    # eigenvalues four times over at the disease-free equilibrium, which
    # stalls a plain Francis double-shift QR iteration.
    model = metapop_sir(COMMON_MU_SOURCES, mu=0.1)
    dfe = np.tile([10.0, 0.0, 0.0], 4)
    jac = f_jacobian(model, dfe)
    assert jac.shape == (12, 12)
    lams = eigenvalues(jac)
    assert len(lams) == 12
    _match_eigenvalues(lams, np.linalg.eigvals(jac), atol=EIG_ATOL)


def test_eigen_convergence_error_is_linalg_error():
    assert issubclass(EigenConvergenceError, LinAlgError)
    assert issubclass(SingularMatrixError, LinAlgError)


def test_is_diagonally_dominant_hand_cases():
    assert is_diagonally_dominant(np.array([[2.0, 1.0], [0.5, 2.0]]))
    # column equality must not count as strict, but passes the loose check
    tied = np.array([[1.0, 0.0], [1.0, 2.0]])
    assert not is_diagonally_dominant(tied)
    assert is_diagonally_dominant(tied, strict=False)
    assert not is_diagonally_dominant(np.array([[0.5, 1.0], [2.0, 0.5]]))


def test_is_diagonally_dominant_row_mode():
    a = np.array([[2.0, 1.5], [0.1, 1.0]])
    assert not is_diagonally_dominant(a)
    assert is_diagonally_dominant(a, mode="row")
    with pytest.raises(ValueError):
        is_diagonally_dominant(a, mode="diagonal")


def test_is_diagonally_dominant_checks_columns():
    # row-dominant but not column-dominant
    a = np.array([[3.0, 2.9], [2.95, 3.0]])
    assert is_diagonally_dominant(a)
    a = np.array([[1.0, 0.0], [5.0, 10.0]])
    assert not is_diagonally_dominant(a)


def test_is_metzler_hand_cases():
    assert is_metzler(np.array([[-5.0, 2.0], [0.0, -1.0]]))
    assert not is_metzler(np.array([[1.0, -0.1], [0.0, 1.0]]))
    # diagonal sign is unconstrained
    assert is_metzler(np.diag([-1.0, -2.0]))


def test_fd_jacobian_matches_analytic_quadratic():
    def f(x):
        return np.array([x[0] ** 2 + x[1], x[0] * x[1]])

    x = np.array([1.3, -0.7])
    jac = fd_jacobian(f, x)
    expected = np.array([[2 * 1.3, 1.0], [-0.7, 1.3]])
    assert np.allclose(jac, expected, rtol=0, atol=1e-7)


def test_fd_jacobian_linear_map_is_near_exact(rng):
    a = rng.standard_normal((3, 3))
    x = rng.standard_normal(3)
    jac = fd_jacobian(lambda v: a @ v, x)
    assert np.allclose(jac, a, rtol=0, atol=1e-9)
