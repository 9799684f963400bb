"""Boundary sampling, tangent conditions, and long-run domain audits."""

import dataclasses
import time
import types

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from nsfd import invariance
from nsfd.integrator import (
    _explicit_step,
    step_backward,
    step_backward_batch,
    step_bound,
    step_forward_batch,
)
from nsfd.invariance import (
    ACTIVITY_ATOL,
    AUDIT_SCHEMES,
    MAX_STORED_EXITS,
    MEMBERSHIP_SLACK,
    TANGENT_TOL,
    AuditReport,
    TangentReport,
    _draw,
    _face,
    continuous_tangent,
    discrete_tangent,
    facets,
    invariance_audit,
    sample_boundary,
    sample_interior,
)
from nsfd.model import Constraint, Domain, MassActionModel, SpecError, _on_rows, eval_f
from nsfd.models import HostVectorParameters, make_host_vector

ACTIVITY_TOL = 1e-12
PLANE_ATOL = 1e-12


def _shrunk_vector_cap(bound=5.0):
    # tighten the vector-population cap below its carrying capacity so the
    # inflow pushes boundary points outward and both tangent checks must fail
    hv = make_host_vector()
    dom = hv.domain
    tight = dataclasses.replace(dom.constraints[0], bound=bound)
    return dataclasses.replace(
        hv, domain=dataclasses.replace(dom, constraints=(tight, dom.constraints[1]))
    )


def _wide_vector_cap():
    return make_host_vector(HostVectorParameters(M_v=12.0))


def test_facets_enumeration(host_vector, si):
    fs = facets(host_vector.domain)
    assert [(f.kind, f.index) for f in fs] == [
        ("coordinate", 0),
        ("coordinate", 1),
        ("coordinate", 2),
        ("coordinate", 3),
        ("coordinate", 4),
        ("constraint", 0),
        ("constraint", 1),
    ]
    # coordinate outer normals point to negative coordinates
    assert np.array_equal(fs[0].normal, [-1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(fs[5].normal, [1.0, 1.0, 0.0, 0.0, 0.0])
    assert len(facets(si.domain)) == 3


def test_facet_normals_are_read_only(host_vector):
    fs = facets(host_vector.domain)
    with pytest.raises(ValueError):
        fs[0].normal[0] = 7.0


def test_sample_boundary_hits_every_facet(host_vector):
    pts = sample_boundary(host_vector.domain, 70, seed=3)
    assert len(pts) == 70
    seen = {fi for _, fi in pts}
    assert seen == set(range(7))


def test_sample_boundary_points_are_active_and_inside(host_vector):
    dom = host_vector.domain
    fs = facets(dom)
    for x, fi in sample_boundary(dom, 49, seed=1):
        f = fs[fi]
        bound = 0.0 if f.kind == "coordinate" else dom.constraints[f.index].bound
        assert abs(f.normal @ x - (bound if f.kind == "constraint" else 0.0)) <= ACTIVITY_TOL
        assert dom.margin(x) >= -ACTIVITY_TOL


def test_sample_boundary_is_deterministic(host_vector):
    a = sample_boundary(host_vector.domain, 30, seed=9)
    b = sample_boundary(host_vector.domain, 30, seed=9)
    assert len(a) == len(b)
    for (xa, fa), (xb, fb) in zip(a, b):
        assert fa == fb
        assert np.array_equal(xa, xb)


def test_sample_boundary_needs_compact_domain():
    dom = Domain(nonnegative=(True,), constraints=())
    with pytest.raises(SpecError):
        sample_boundary(dom, 10, seed=0)


def test_sample_interior_stays_strictly_inside(host_vector):
    xs = sample_interior(host_vector.domain, 200, seed=4)
    assert xs.shape == (200, 5)
    margins = np.array([host_vector.domain.margin(x) for x in xs])
    assert np.all(margins > 0.0)


def test_sample_interior_block_marginals_follow_beta(host_vector):
    # In a block u . x <= c of support size d, each u_i x_i / c of a
    # uniform point follows Beta(1, d), with CDF 1 - (1 - v)^d.  The
    # Kolmogorov-Smirnov statistic of n = 20 000 draws stays below the
    # asymptotic 1% critical value 1.628 / sqrt(n) = 0.0115.
    n = 20_000
    xs = sample_interior(host_vector.domain, n, seed=0)
    for con in host_vector.domain.constraints:
        u = con.normal_array
        support = np.flatnonzero(u > 0.0)
        for i in support:
            v = np.sort(u[i] * xs[:, i] / con.bound)
            cdf = 1.0 - (1.0 - v) ** support.size
            ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
            assert ks < 1.628 / np.sqrt(n), (con.normal, i, ks)


@st.composite
def _capped_domains(draw):
    """A compact domain: disjoint caps over a partition of the coordinates,
    plus, by kind, a cap overlapping them or one with a negative normal entry."""
    kind = draw(st.sampled_from(["disjoint", "overlapping", "negative"]))
    n = draw(st.integers(1 if kind == "disjoint" else 2, 5))
    part = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if kind == "overlapping":
        part[:2] = [0, 1]  # so that the overlapping cap spans two disjoint ones
    caps = []
    for block in sorted(set(part)):
        normal = [draw(st.floats(0.5, 2.0)) if part[i] == block else 0.0 for i in range(n)]
        caps.append(Constraint(tuple(normal), draw(st.floats(0.5, 10.0))))
    upper = Domain(nonnegative=(True,) * n, constraints=tuple(caps)).box_upper
    if kind == "overlapping":
        # Entries down to 1e-12 make faces far longer than the box.
        entries = st.sampled_from([0.0]) | st.floats(1e-12, 2.0)
        u = np.array([1.0, 1.0] + [draw(entries) for _ in range(n - 2)])
        # Over the disjoint caps, u . x peaks at `top`; on the face of cap
        # c it is at least c.bound * min u_i / normal_i.  A bound between
        # the largest such minimum and `top` leaves every face nonempty.
        ratios = [[u[i] / c.normal[i] for i in range(n) if c.normal[i]] for c in caps]
        top = sum(c.bound * max(r) for c, r in zip(caps, ratios))
        low = max(c.bound * min(r) for c, r in zip(caps, ratios))
        extra = Constraint(tuple(u), low + draw(st.floats(0.3, 0.95)) * (top - low))
    elif kind == "negative":
        a, b = draw(st.permutations(range(n)))[:2]
        normal = [1.0 if i == a else -1.0 if i == b else 0.0 for i in range(n)]
        extra = Constraint(tuple(normal), draw(st.floats(0.2, 1.0)) * upper[a])
    if kind != "disjoint":
        caps.insert(draw(st.integers(0, len(caps))), extra)
    return Domain(nonnegative=(True,) * n, constraints=tuple(caps))


@pytest.mark.deep
@seed(11)
@given(dom=_capped_domains(), draw_seed=st.integers(0, 2**32 - 1))
def test_samples_lie_inside_and_on_their_facets(dom, draw_seed):
    xs = sample_interior(dom, 16, draw_seed)
    assert xs.shape == (16, dom.n)
    assert np.all(dom.margin(xs) > 0.0)
    fs = facets(dom)
    if any(np.any(f.normal < 0.0) for f in fs if f.kind == "constraint"):
        with pytest.raises(SpecError, match="nonnegative entries only"):
            sample_boundary(dom, 2 * len(fs), draw_seed)
        return
    points = sample_boundary(dom, 2 * len(fs), draw_seed)
    assert [fi for _, fi in points] == [s % len(fs) for s in range(2 * len(fs))]
    for x, fi in points:
        scale = ACTIVITY_ATOL * (1.0 + np.abs(x).max())
        assert abs(fs[fi].normal @ x - fs[fi].bound) <= scale
        assert dom.margin(x) >= -scale


@pytest.mark.parametrize(
    "caps",
    [
        (Constraint((1.0,), 0.5), Constraint((1.0,), 1.0)),
        (Constraint((1.0, 1.0), 1.0), Constraint((1.0, 1.0), 2.0)),
    ],
    ids=["x<=0.5,x<=1", "x+y<=1,x+y<=2"],
)
def test_the_face_of_a_redundant_cap_gets_no_samples(caps):
    # The second cap's face lies outside the domain: it stays a facet, and
    # the round robin skips it.
    dom = Domain(nonnegative=(True,) * len(caps[0].normal), constraints=caps)
    fs = facets(dom)
    assert len(fs) == dom.n + 2
    live = list(range(len(fs) - 1))
    points = sample_boundary(dom, 5 * len(live), seed=0)
    assert [fi for _, fi in points] == live * 5
    for x, fi in points:
        assert abs(fs[fi].normal @ x - fs[fi].bound) <= ACTIVITY_ATOL
        assert dom.margin(x) >= -ACTIVITY_ATOL


@pytest.mark.parametrize(
    "caps, live",
    [
        # The face x = 1 meets x + y <= 1 only at the point (1, 0).
        ((Constraint((1.0, 1.0), 1.0), Constraint((1.0, 0.0), 1.0)), [0, 1, 2]),
        # The face x + y = 1 meets x + y + z <= 1 only on the edge z = 0.
        ((Constraint((1.0, 1.0, 1.0), 1.0), Constraint((1.0, 1.0, 0.0), 1.0)), [0, 1, 2, 3]),
        # A cap's exact copy shares its face, and neither is skipped.
        ((Constraint((1.0, 1.0), 1.0), Constraint((1.0, 1.0), 1.0)), [0, 1, 2, 3]),
    ],
    ids=["x+y<=1,x<=1", "x+y+z<=1,x+y<=1", "x+y<=1,x+y<=1"],
)
def test_a_face_that_meets_the_domain_in_measure_zero_gets_no_samples(caps, live):
    # No uniform draw on the face lands in the domain, so its facet must be
    # skipped rather than drawn until the attempts run out.
    dom = Domain(nonnegative=(True,) * len(caps[0].normal), constraints=caps)
    fs = facets(dom)
    points = sample_boundary(dom, 4 * len(live), seed=0)
    assert [fi for _, fi in points] == live * 4
    for x, fi in points:
        assert abs(fs[fi].normal @ x - fs[fi].bound) <= ACTIVITY_ATOL
        assert dom.margin(x) >= -ACTIVITY_ATOL


def _thin_face():
    # Facet 5, x_0 + x_1 = 1.875, is solved for x_0, which leaves the cap
    # -x_1 + x_2 + x_3 + x_4 <= -0.875: the face needs x_1 >= 0.875.
    return Domain(
        nonnegative=(True,) * 5,
        constraints=(
            Constraint((1.0, 1.0, 0.0, 0.0, 0.0), 1.875),
            Constraint((1.0, 0.0, 1.0, 1.0, 1.0), 1.0),
            Constraint((0.0, 1.0, 0.0, 0.0, 0.0), 1.0),
        ),
    )


def _cut_off_faces():
    # x_0 <= 0.5 / 0.83 cuts off the faces of the first two caps, which
    # need x_0 >= 0.86 and x_0 = 1.268, though each meets its simplex.
    return Domain(
        nonnegative=(True, True),
        constraints=(
            Constraint((2.0, 0.558), 2.0),
            Constraint((2.0, 0.0), 2.536),
            Constraint((0.83, 0.0), 0.5),
            Constraint((0.0, 2.0), 1.0),
        ),
    )


def _two_pass_face():
    # The face of the first cap, y + z >= 1.0996 once x is solved for, is
    # empty: one pass gives y <= 0.684 and z <= 0.832, and a second pass
    # from that box gives y <= 0.342 against the y >= 0.593 it needs.
    return Domain(
        nonnegative=(True,) * 3,
        constraints=(
            Constraint((1.0, 1.0, 1.0), 1.48),
            Constraint((2.447, 0.0, 0.0), 0.931),
            Constraint((0.0, 1.978, 1.627), 1.353),
        ),
    )


@pytest.mark.parametrize(
    "build, live",
    [(_thin_face, list(range(8))), (_cut_off_faces, [0, 1, 4, 5]), (_two_pass_face, [0, 1, 2, 4, 5])],
    ids=["thin", "cut-off", "two-pass"],
)
@pytest.mark.parametrize("draw_seed", range(4))
def test_the_face_pass_draws_a_thin_face_and_skips_faces_the_box_cuts_off(build, live, draw_seed):
    dom = build()
    fs = facets(dom)
    points = sample_boundary(dom, 6 * len(live), draw_seed)
    assert [fi for _, fi in points] == live * 6
    for x, fi in points:
        assert abs(fs[fi].normal @ x - fs[fi].bound) <= ACTIVITY_ATOL * (1.0 + np.abs(x).max())
        assert dom.margin(x) >= -ACTIVITY_ATOL


def _flat_domain():
    # x + y <= 0 with x, y >= 0 is the single point 0: compact, no interior.
    return Domain(nonnegative=(True, True), constraints=(Constraint((1.0, 1.0), 0.0),))


def test_sample_boundary_refuses_a_domain_with_an_empty_interior():
    with pytest.raises(SpecError, match="empty interior"):
        sample_boundary(_flat_domain(), 4, 0)


def test_continuous_tangent_refuses_a_domain_with_an_empty_interior():
    model = MassActionModel(
        n=2, bilinear=(), linear=np.zeros((2, 2)), constant=np.zeros(2), domain=_flat_domain(), labels=("x", "y")
    )
    with pytest.raises(SpecError, match="empty interior"):
        continuous_tangent(model, count=4, seed=0)


def test_sample_interior_makes_no_block_of_a_simplex_longer_than_the_box():
    # The first cap's simplex reaches x_2 = 1.5e12 while the box stops at
    # 1: drawn as a block, it would pass the other caps about once in 1e12.
    dom = Domain(
        nonnegative=(True,) * 3,
        constraints=(
            Constraint((1.0, 1.0, 1e-12), 1.5),
            Constraint((1.0, 0.0, 1.0), 1.0),
            Constraint((0.0, 1.0, 0.0), 1.0),
        ),
    )
    assert np.all(dom.margin(sample_interior(dom, 100, seed=0)) > 0.0)


def test_sample_boundary_draws_a_face_longer_than_the_box():
    # The first cap's face reaches x_2 = 1.5e12 while the box stops at 1:
    # drawn as a block, it would pass the second cap about once in 1e12.
    # Its points project onto the triangle 0.5 <= x_1 <= 1.5,
    # 0 <= x_2 <= x_1 - 0.5, so a uniform draw has mean (1/3, 7/6, 1/3).
    dom = Domain(
        nonnegative=(True,) * 3,
        constraints=(Constraint((1.0, 1.0, 1e-12), 1.5), Constraint((1.0, 0.0, 1.0), 1.0)),
    )
    xs = np.array([x for x, fi in sample_boundary(dom, 2000, seed=0) if fi == 3])
    assert xs.shape == (400, 3)
    assert np.all(np.abs(xs @ facets(dom)[3].normal - 1.5) <= 2 * ACTIVITY_ATOL)
    assert np.all(dom.margin(xs) >= -ACTIVITY_ATOL)
    assert np.allclose(xs.mean(axis=0), [1 / 3, 7 / 6, 1 / 3], atol=0.05)


def _tightened_simplex():
    # The cap x_0 <= 0.5 pulls the box below the vertex x_0 = 1 of the
    # simplex sum x <= 1, which is still far smaller than the box.
    return Domain(
        nonnegative=(True,) * 10,
        constraints=(Constraint((1.0,) * 10, 1.0), Constraint((1.0,) + (0.0,) * 9, 0.5)),
    )


def test_sample_interior_makes_a_block_of_a_simplex_that_another_cap_tightens():
    # Box rejection would accept about 1 draw in 10! / 2.  x_0 of a uniform
    # point has the law of Beta(1, 10) conditioned on x_0 <= 0.5, with CDF
    # (1 - (1 - v)^10) / (1 - 2^-10); the KS bound is as in the test above.
    dom = _tightened_simplex()
    n = 20_000
    xs = sample_interior(dom, n, seed=0)
    assert np.all(dom.margin(xs) > 0.0)
    v = np.sort(xs[:, 0])
    cdf = (1.0 - (1.0 - v) ** 10) / (1.0 - 2.0**-10)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.628 / np.sqrt(n)


def _simplex_behind_a_wider_cap():
    # The cap x_0 + x_1 <= 1 reaches past the box (x_0 <= 0.9) and comes
    # first, but the later simplex x_0 + x_2 + ... + x_10 <= 0.9 over the
    # same x_0 gains far more volume, so it must stay the block there: box
    # rejection on it would accept fewer than 1 draw in 10!.
    return Domain(
        nonnegative=(True,) * 11,
        constraints=(
            Constraint((1.0, 1.0) + (0.0,) * 9, 1.0),
            Constraint((1.0, 0.0) + (1.0,) * 9, 0.9),
        ),
    )


def test_sample_interior_keeps_the_larger_block_when_an_earlier_cap_overlaps_it():
    dom = _simplex_behind_a_wider_cap()
    xs = sample_interior(dom, 500, seed=0)
    assert xs.shape == (500, 11)
    assert np.all(dom.margin(xs) > 0.0)


@pytest.mark.parametrize(
    "build, facet",
    [(_tightened_simplex, f) for f in range(12)]
    + [(_simplex_behind_a_wider_cap, f) for f in range(13)],
)
def test_draw_makes_a_block_of_a_simplex_that_another_cap_tightens_on_its_faces(build, facet):
    dom = build()
    f = facets(dom)[facet]
    normals, bounds, box, lift = _face(dom, f)
    xs = lift(_draw(normals, bounds, box, np.random.default_rng(0), 50))
    assert xs.shape == (50, dom.n)
    assert np.all(np.abs(xs @ f.normal - f.bound) <= ACTIVITY_ATOL)
    assert np.all(dom.margin(xs) >= -ACTIVITY_ATOL)


def test_a_face_solved_for_its_one_coordinate_is_drawn_uniformly():
    # Facet 11 of the tightened simplex is x_0 = 0.5, on which sum x <= 1
    # leaves the simplex x_1 + ... + x_9 <= 0.5: each 2 x_j of a uniform
    # point follows Beta(1, 9), with CDF 1 - (1 - v)^9.  Nine KS statistics
    # are tested at once, so the bound is the asymptotic 1% value for the
    # largest of nine, sqrt(ln(2 * 9 / 0.01) / 2) / sqrt(n) = 1.936 / sqrt(n)
    # (Bonferroni): the one-statistic value 1.628 / sqrt(n) of the tests
    # above would fail about one seed in 13 by chance alone.
    dom = _tightened_simplex()
    n = 20_000
    normals, bounds, box, lift = _face(dom, facets(dom)[11])
    xs = lift(_draw(normals, bounds, box, np.random.default_rng(0), n))
    assert np.all(xs[:, 0] == 0.5)
    assert np.all(dom.margin(xs) >= -ACTIVITY_ATOL)
    for j in range(1, 10):
        v = np.sort(2.0 * xs[:, j])
        cdf = 1.0 - (1.0 - v) ** 9
        ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert ks < 1.936 / np.sqrt(n), (j, ks)


def test_boundary_sampling_refuses_a_negative_normal_entry_before_drawing_any_facet():
    # The face x_0 = 1 meets the domain only at (1, 0.5), and a draw on it
    # would run out of attempts; the refusal comes first, whatever the count.
    dom = Domain(
        nonnegative=(True, True),
        constraints=(
            Constraint((1.0, 0.0), 1.0),
            Constraint((1.0, -1.0), 0.5),
            Constraint((0.0, 1.0), 0.5),
        ),
    )
    for count in (2, 12):
        with pytest.raises(SpecError, match="nonnegative entries only"):
            sample_boundary(dom, count, seed=0)


def test_sample_interior_draws_a_ten_patch_network_quickly(metapop_sir):
    # 10 capped patches: box rejection would accept about (1/6)^10 of draws
    model = metapop_sir([((p, 0.02), ((p - 1) % 10, 0.01)) for p in range(10)], mu=0.1)
    start = time.perf_counter()
    xs = sample_interior(model.domain, 10_000, seed=0)
    elapsed = time.perf_counter() - start
    assert xs.shape == (10_000, 30)
    assert np.all(model.domain.margin(xs) > 0.0)
    assert elapsed < 0.5


def test_continuous_tangent_passes_on_canonical_model(host_vector):
    rep = continuous_tangent(host_vector, count=256, seed=0)
    assert isinstance(rep, TangentReport)
    assert rep.samples == 256
    assert rep.violations == ()
    assert rep.passed
    # both population caps sit exactly at the carrying capacities, so the
    # worst outward flux on the boundary is zero up to round-off
    assert abs(rep.worst_value) <= 1e-12


def test_continuous_tangent_flags_tight_cap():
    tight = _shrunk_vector_cap()
    rep = continuous_tangent(tight, count=128, seed=0)
    assert not rep.passed
    assert rep.violations
    # on the vector-cap facet the outward flux is constant:
    # u . f = Lambda_v - mu_v (S_v + I_v) = 2 - 0.2 * 5 = 1
    assert rep.worst_value == pytest.approx(1.0, abs=1e-12)
    cap_violations = [v for v in rep.violations if v[1] == 5]
    assert cap_violations
    for _, _, value in cap_violations:
        assert value == pytest.approx(1.0, abs=1e-12)


def test_discrete_tangent_passes_on_canonical_model(host_vector, h_bars):
    rep = discrete_tangent(host_vector, h=0.5 * h_bars["host-vector"], count=256, seed=0)
    assert rep.passed
    assert rep.violations == ()
    assert rep.samples == 256


def test_discrete_tangent_flags_tight_cap(h_bars):
    tight = _shrunk_vector_cap()
    h = 0.5 * step_bound(tight).h_bar
    rep = discrete_tangent(tight, h=h, count=128, seed=0)
    assert not rep.passed
    assert rep.violations
    # every violating backward image crosses the tightened cap facet
    assert {fi for _, fi, _ in rep.violations} == {5}


def test_discrete_tangent_validates_step_size(host_vector, h_bars):
    with pytest.raises(SpecError):
        discrete_tangent(host_vector, h=0.0)
    with pytest.raises(SpecError):
        discrete_tangent(host_vector, h=-0.5)
    with pytest.raises(SpecError):
        discrete_tangent(host_vector, h=1.01 * h_bars["host-vector"])


def test_backward_map_flux_through_vector_cap_plane():
    # on the plane S_v + I_v = M_v the backward displacement has an exact
    # closed form along the plane normal, independent of the sample point
    model = _wide_vector_cap()
    par = HostVectorParameters(M_v=12.0)
    h = 0.5
    expected = -h * (par.Lambda_v - par.mu_v * 12.0) / (1.0 - h * par.mu_v / 2.0)
    u = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    pts = [x for x, fi in sample_boundary(model.domain, 63, seed=2) if fi == 5]
    assert len(pts) >= 5
    for x in pts:
        y = step_backward(model, x, h)
        assert u @ (y - x) == pytest.approx(expected, abs=PLANE_ATOL)


def test_backward_displacement_shrinks_linearly_with_h():
    # as h -> 0 the boundary displacement approaches -h f(x); compare the
    # per-facet rate against the outward flux where the flux is not tiny
    from nsfd.invariance import facets as facets_of
    from nsfd.model import eval_f

    model = _wide_vector_cap()
    h = 1e-4 * step_bound(model).h_bar
    fs = facets_of(model.domain)
    checked = 0
    for x, fi in sample_boundary(model.domain, 200, seed=5):
        n = fs[fi].normal
        flux = n @ eval_f(model, x)
        if abs(flux) < 0.05:
            continue
        rate = (n @ (step_backward(model, x, h) - x)) / h
        assert abs(rate / (-flux) - 1.0) <= 0.05
        checked += 1
    assert checked >= 50


def _looped_tangent_report(domain, points, deltas, tol, pick, excess):
    """Reference tangent report: a Python loop over every sample and every facet.

    Values are (value, sample, facet) tuples in sample-then-facet order,
    so ``pick`` = max takes the last of equal largest values and min the
    first of equal smallest ones.
    """
    fs = facets(domain)
    values = []
    scale = 1.0
    for p, (x, _) in enumerate(points):
        size = 1.0 + float(np.abs(x).max())
        scale = max(scale, size)
        for fi, facet in enumerate(fs):
            if abs(float(facet.normal @ x) - facet.bound) <= ACTIVITY_ATOL * size:
                values.append((float(facet.normal @ deltas[p]), p, fi))
    tolerance = TANGENT_TOL * scale if tol is None else float(tol)
    worst_value, worst_p, _ = pick(values)
    return TangentReport(
        samples=len(points),
        worst_value=worst_value,
        worst_point=points[worst_p][0].copy(),
        violations=tuple(
            (points[p][0].copy(), fi, v) for v, p, fi in values if excess(v, p) > tolerance
        ),
        tolerance=tolerance,
    )


def _looped_tangent_reports(model, h, count, seed, tol):
    """Both reference reports, the field taken point by point as :func:`eval_f` gives it."""
    points = sample_boundary(model.domain, count, seed)
    xs = np.stack([x for x, _ in points])
    ys = step_backward_batch(model, xs, h)
    margins = model.domain.margin(ys)
    fields = np.stack([eval_f(model, x) for x in xs])
    return (
        _looped_tangent_report(model.domain, points, fields, tol, max, lambda v, p: v),
        _looped_tangent_report(model.domain, points, ys - xs, tol, min, lambda v, p: margins[p]),
    )


@pytest.mark.parametrize("name", ["host-vector", "tight-cap", "sir-network"])
@pytest.mark.parametrize("seed", [0, 1])
def test_tangent_reports_match_the_looped_reference(host_vector, sir_network, name, seed):
    model = {"host-vector": host_vector, "tight-cap": _shrunk_vector_cap(), "sir-network": sir_network}[name]
    h = 0.5 * step_bound(model).h_bar
    reports = (
        continuous_tangent(model, count=256, seed=seed),
        discrete_tangent(model, h=h, count=256, seed=seed),
    )
    # At tol = -inf every active (sample, facet) pair is a violation entry.
    every = (
        continuous_tangent(model, count=256, seed=seed, tol=-np.inf),
        discrete_tangent(model, h=h, count=256, seed=seed, tol=-np.inf),
    )
    for rep, ref, all_rep, all_ref in zip(
        reports, _looped_tangent_reports(model, h, 256, seed, None),
        every, _looped_tangent_reports(model, h, 256, seed, -np.inf),
    ):
        assert rep.samples == ref.samples == 256
        assert rep.tolerance == ref.tolerance
        assert [fi for _, fi, _ in rep.violations] == [fi for _, fi, _ in ref.violations]
        assert len(all_rep.violations) == len(all_ref.violations) >= 256
        scale = 1e-15 * max(abs(v) for _, _, v in all_ref.violations)
        for (x, fi, v), (x_ref, fi_ref, v_ref) in zip(all_rep.violations, all_ref.violations):
            assert np.array_equal(x, x_ref) and fi == fi_ref
            assert abs(v - v_ref) <= scale
        assert abs(rep.worst_value - ref.worst_value) <= scale
    # The tie rule, on each report's own values: the last of equal largest
    # values for the continuous check, the first of equal smallest ones for
    # the discrete check.
    for rep, all_rep, pick in zip(reports, every, (max, min)):
        v, p, _ = pick((v, p, fi) for p, (_, fi, v) in enumerate(all_rep.violations))
        assert rep.worst_value == v
        assert np.array_equal(rep.worst_point, all_rep.violations[p][0])


def test_tangent_ties_go_to_the_last_largest_and_the_first_smallest_value():
    # A zero field ties every facet value at 0: the continuous check reports
    # the last sample, the discrete check the first.
    still = MassActionModel(
        n=2,
        bilinear=(),
        linear=np.zeros((2, 2)),
        constant=np.zeros(2),
        domain=Domain(nonnegative=(True, True), constraints=(Constraint((1.0, 1.0), 1.0),)),
        labels=("x", "y"),
    )
    points = sample_boundary(still.domain, 7, seed=4)
    cont = continuous_tangent(still, count=7, seed=4)
    disc = discrete_tangent(still, h=0.5, count=7, seed=4)
    assert cont.worst_value == disc.worst_value == 0.0
    assert np.array_equal(cont.worst_point, points[-1][0])
    assert np.array_equal(disc.worst_point, points[0][0])


def test_audit_clean_below_bound(host_vector, h_bars):
    rep = invariance_audit(host_vector, h=0.9 * h_bars["host-vector"], trials=50, steps=50, seed=0)
    assert isinstance(rep, AuditReport)
    assert rep.exit_count == 0
    assert rep.exits == ()
    assert rep.passed
    assert rep.worst_margin >= -MEMBERSHIP_SLACK * 11.0
    assert rep.scheme == "nsfd"


def test_audit_is_deterministic(host_vector):
    a = invariance_audit(host_vector, h=0.6, trials=20, steps=20, seed=5)
    b = invariance_audit(host_vector, h=0.6, trials=20, steps=20, seed=5)
    assert a == b


def test_audit_seed_changes_draws(host_vector):
    a = invariance_audit(host_vector, h=0.6, trials=20, steps=20, seed=5)
    b = invariance_audit(host_vector, h=0.6, trials=20, steps=20, seed=6)
    assert a.worst_margin != b.worst_margin


def test_audit_counts_euler_exits_without_raising(host_vector):
    rep = invariance_audit(host_vector, h=5.0, trials=30, steps=30, seed=1, scheme="euler")
    assert rep.scheme == "euler"
    assert rep.exit_count > 0
    assert not rep.passed
    assert len(rep.exits) == min(rep.exit_count, MAX_STORED_EXITS)
    for trial, step, margin in rep.exits:
        assert 0 <= trial < 30
        assert 1 <= step <= 30
        assert margin < 0.0


def test_audit_euler_comparison_at_safe_step(host_vector, h_bars):
    # comparison runs report whatever happens; exits are data, not errors
    rep = invariance_audit(
        host_vector, h=0.9 * h_bars["host-vector"], trials=20, steps=20, seed=0, scheme="euler"
    )
    assert rep.exit_count >= 0
    assert isinstance(rep.exit_count, int)


def test_audit_reversible_map_exits_above_bound(logistic):
    # above the safe bound the solve sign flips near zero and positivity
    # is genuinely lost, so the audit must report exits rather than hide them
    rep = invariance_audit(logistic, h=2.5, trials=30, steps=30, seed=0)
    assert rep.exit_count > 0
    assert rep.worst_margin < 0.0
    assert rep.worst_trial is not None
    assert rep.worst_step is not None


def _gathered_audit(model, dom, h, trials, steps, seed, scheme):
    """Reference audit loop: gathers and scans the live rows on every step."""
    xs = sample_interior(dom, trials, seed)
    alive = np.ones(trials, dtype=bool)
    exits, exit_count = [], 0
    worst = (np.inf, -1, -1)
    for step in range(steps + 1):
        live = np.flatnonzero(alive)
        if live.size == 0:
            break
        if step:
            rows = xs[live]
            if scheme == "nsfd":
                xs[live] = step_forward_batch(model, rows, h)
            elif scheme == "euler":
                xs[live] = rows + h * _on_rows(model._f_kernel, rows)
            else:
                xs[live] = _on_rows(_explicit_step(model, "rk4"), rows, h, 1)
        rows = xs[live]
        margins = dom.margin(rows)
        finite = np.isfinite(rows).all(axis=1) & np.isfinite(margins)
        margins = np.where(finite, margins, -np.inf)
        j = int(np.argmin(margins))
        if margins[j] < worst[0]:
            worst = (float(margins[j]), int(live[j]), step)
        slack = MEMBERSHIP_SLACK * (1.0 + np.abs(np.where(np.isfinite(rows), rows, 0.0)).max(axis=1))
        for idx in np.flatnonzero(margins < -slack):
            exit_count += 1
            if len(exits) < MAX_STORED_EXITS:
                exits.append((int(live[idx]), step, float(margins[idx])))
            alive[live[idx]] = False
    return AuditReport(
        trials=trials, steps=steps, h=h, scheme=scheme, seed=seed, exit_count=exit_count,
        exits=tuple(exits), worst_margin=worst[0], worst_trial=worst[1], worst_step=worst[2],
    )


@pytest.mark.parametrize("scheme", AUDIT_SCHEMES)
def test_audit_matches_the_gathered_loop_while_trials_exit(host_vector, scheme):
    # Caps of 9 sit below the carrying capacities, so trials leave at
    # steps from 1 upward and the stack of live trials shrinks over the run.
    dom = Domain(
        nonnegative=(True,) * 5,
        constraints=(Constraint((1, 1, 0, 0, 0), 9.0), Constraint((0, 0, 1, 1, 1), 9.0)),
    )
    args = (0.5, 200, 200, 0, scheme)
    capped = dataclasses.replace(host_vector, domain=dom)
    rep = invariance_audit(capped, h=0.5, trials=200, steps=200, seed=0, scheme=scheme)
    assert rep == _gathered_audit(host_vector, dom, *args)
    steps = [step for _, step, _ in rep.exits]
    assert min(steps) == 1 and max(steps) > 1


def test_audit_matches_the_gathered_loop_on_overflow(logistic):
    # rk4's first step at this h overflows every trial to a non-finite
    # state, which the scan counts as an exit at margin -inf.  With 300
    # trials, more than MAX_STORED_EXITS of them exit on that one step.
    for trials in (50, 300):
        with np.errstate(over="ignore", invalid="ignore"):
            rep = invariance_audit(logistic, h=1e200, trials=trials, steps=4, seed=2, scheme="rk4")
            assert rep == _gathered_audit(logistic, logistic.domain, 1e200, trials, 4, 2, "rk4")
        assert rep.worst_margin == -np.inf
        assert rep.exit_count == trials
        assert len(rep.exits) == min(trials, MAX_STORED_EXITS)


def _full_scan_audit(dom, stacks):
    """The audit's bookkeeping over given stacks, with the full scan on every step.

    This is the scan as it was before its fast path.  stacks[0] is the
    start, and the live stack of step k is the first rows of stacks[k],
    as many as are live.  Returns (exits, exit_count, worst_margin,
    worst_trial, worst_step).
    """
    xs, ids = stacks[0], np.arange(len(stacks[0]))
    exits, exit_count = [], 0
    worst_margin, worst_trial, worst_step = np.inf, -1, -1
    for step, stack in enumerate(stacks):
        xs = stack[: len(xs)]
        margins = dom.margin(xs)
        size = np.abs(xs[:, 0])
        for col in xs.T[1:]:
            np.maximum(size, np.abs(col), out=size)
        if not (np.isfinite(margins).all() and np.isfinite(size).all()):
            finite = np.isfinite(xs).all(axis=1) & np.isfinite(margins)
            margins = np.where(finite, margins, -np.inf)
            size = np.abs(np.where(np.isfinite(xs), xs, 0.0)).max(axis=1)
        j = int(np.argmin(margins))
        if margins[j] < worst_margin:
            worst_margin, worst_trial, worst_step = float(margins[j]), int(ids[j]), step
        out = margins < -(MEMBERSHIP_SLACK * (1.0 + size))
        if out.any():
            rows = np.flatnonzero(out)[: MAX_STORED_EXITS - len(exits)]
            exits += [(trial, step, m) for trial, m in zip(ids[rows].tolist(), margins[rows].tolist())]
            exit_count += int(np.count_nonzero(out))
            xs, ids = xs[~out], ids[~out]
            if not ids.size:
                break
    return tuple(exits), exit_count, worst_margin, worst_trial, worst_step


def _check_scan(dom, stacks):
    """invariance_audit's report when its start and its steps are the first live rows of the stacks.

    The report must agree with :func:`_full_scan_audit` over the same stacks.
    """
    later = iter(stacks[1:])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariance, "sample_interior", lambda domain, count, seed: stacks[0])
        patch.setattr(invariance, "_explicit_step", lambda model, scheme: scheme)
        patch.setattr(invariance, "_on_rows", lambda kernel, xs, h, k: next(later)[: len(xs)])
        rep = invariance_audit(
            types.SimpleNamespace(domain=dom), h=1.0, trials=len(stacks[0]), steps=len(stacks) - 1, scheme="euler"
        )
    assert (rep.exits, rep.exit_count, rep.worst_margin, rep.worst_trial, rep.worst_step) == _full_scan_audit(
        dom, stacks
    )
    return rep


# Entry kinds of the scan cases: inside the box, within 2 MEMBERSHIP_SLACK
# of 0, far outside, NaN, +inf, -inf.
_SCAN_KINDS = 6


def _scan_case(normals, bounds, trials, steps, weights, draw_seed):
    """A compact domain and stacks of (trials, n) states whose entries mix the kinds by weight."""
    n = len(normals[0])
    dom = Domain(nonnegative=(True,) * n, constraints=tuple(Constraint(u, c) for u, c in zip(normals, bounds)))
    rng = np.random.default_rng(draw_seed)
    shape = (steps + 1, trials, n)
    kinds = rng.choice(_SCAN_KINDS, size=shape, p=np.array(weights) / sum(weights))
    values = [
        rng.random(shape) * dom.box_upper / n,
        rng.integers(-4, 5, size=shape) * (MEMBERSHIP_SLACK / 2),
        -1.0 - rng.random(shape),
        np.full(shape, np.nan),
        np.full(shape, np.inf),
        np.full(shape, -np.inf),
    ]
    return dom, np.choose(kinds, values)


@st.composite
def _scan_specs(draw):
    n = draw(st.integers(1, 4))
    # The first cap covers every coordinate, so the domain is compact.
    entry = st.sampled_from([0.5, 1.0, 2.0])
    normals = [draw(st.lists(entry, min_size=n, max_size=n))]
    normals += draw(st.lists(st.lists(st.sampled_from([0.0, 1.0, 0.3, -0.5]), min_size=n, max_size=n).filter(
        lambda u: any(u)), max_size=2))
    bounds = draw(st.lists(st.floats(0.5, 4.0), min_size=len(normals), max_size=len(normals)))
    weights = draw(st.lists(st.integers(0, 6), min_size=_SCAN_KINDS, max_size=_SCAN_KINDS).filter(lambda w: w[0]))
    return normals, bounds, draw(st.integers(1, 250)), draw(st.integers(0, 5)), weights, draw(st.integers(0, 2**32 - 1))


@pytest.mark.deep
@seed(37)
@given(_scan_specs())
def test_the_fast_scan_matches_the_full_scan(spec):
    _check_scan(*_scan_case(*spec))


@pytest.mark.deep
@pytest.mark.parametrize(
    "weights, covered",
    [
        # mostly inside, with margins within 2 MEMBERSHIP_SLACK of 0
        ((60, 40, 0, 0, 0, 0), lambda rep, stacks: rep.exit_count > 0 and rep.worst_margin > -1.0),
        # NaN and infinite entries
        ((80, 0, 0, 5, 5, 5), lambda rep, stacks: rep.worst_margin == -np.inf and np.isnan(stacks).any()),
        # more exits than are stored
        ((85, 5, 10, 0, 0, 0), lambda rep, stacks: rep.exit_count > MAX_STORED_EXITS),
    ],
)
def test_the_fast_scan_matches_the_full_scan_on_each_kind_of_row(weights, covered):
    normals = [(1.0, 1.0, 0.5), (0.0, 1.0, 1.0)]
    dom, stacks = _scan_case(normals, [2.0, 1.5], 250, 5, weights, 11)
    assert covered(_check_scan(dom, stacks), stacks)


def test_audit_rejects_unknown_scheme(host_vector):
    assert AUDIT_SCHEMES == ("nsfd", "euler", "rk4")
    with pytest.raises(SpecError):
        invariance_audit(host_vector, h=0.5, trials=5, steps=5, seed=0, scheme="leapfrog")


@pytest.mark.parametrize("scheme", AUDIT_SCHEMES)
@pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
def test_audit_refuses_a_step_size_that_is_not_positive_and_finite(host_vector, scheme, h):
    with pytest.raises(SpecError, match="h must be positive and finite"):
        invariance_audit(host_vector, h=h, trials=5, steps=5, seed=0, scheme=scheme)


def test_audit_as_dict_is_json_ready(host_vector):
    import json

    rep = invariance_audit(host_vector, h=0.5, trials=5, steps=5, seed=0)
    text = json.dumps(rep.as_dict())
    assert json.loads(text)["exit_count"] == 0


def test_tangent_report_pass_semantics(host_vector):
    rep = continuous_tangent(host_vector, count=64, seed=0)
    assert rep.passed == (len(rep.violations) == 0)
    assert rep.tolerance > 0.0
    assert rep.worst_point.shape == (5,)
