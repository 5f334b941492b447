"""Convex-body algebra: worked examples and randomized invariants."""

import importlib.util
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_stack_matches_solves,
    brute_pairwise_differences,
    brute_support,
    exact_extreme_points,
    exact_turn_sign,
    reference_extent,
    reference_minus_subset,
    reference_support,
    unit_directions,
)
from scert import _simplex
from scert import geometry as geo
from scert.certificates import ClassDiff, ClassifierAtPoint, ClassWise, Uniform, s_certificate
from scert.geometry import (
    STRICT_MARGIN,
    TOL,
    Combination,
    Ellipsoid,
    FinitePoints,
    HalfspaceRegion,
    LpBall,
    WholeSpace,
    hull_prune,
    lp_maximize,
    minkowski_sum,
    negate,
    polar_dual_ball,
    polar_hrep,
    region_exceeds,
    region_is_origin_only,
    region_minus_subset,
    region_subset,
    region_to_interval,
    scale,
    support,
    union_witness,
    weighted_sum,
)


def box_region(radius: float) -> HalfspaceRegion:
    return HalfspaceRegion(np.vstack([np.eye(2), -np.eye(2)]),
                           np.full(4, radius), 2)


class TestSupport:
    def test_finite_points_tie(self):
        assert support(FinitePoints([[1, 0], [0, 1]]), [1, 1]) == 1.0

    def test_l1_ball_dual_norm(self):
        # the dual of l1 is linf, so the support at e1 is the radius
        assert abs(support(LpBall(1, 1.5, [0, 0]), [1, 0]) - 1.5) < 1e-12

    def test_singleton_difference_combination(self):
        body = minkowski_sum(FinitePoints([[0.3]]), negate(FinitePoints([[0.1]])))
        assert abs(support(body, [1.0]) - 0.2) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            support(FinitePoints([[1, 0]]), [1, 0, 0])

    def test_non_finite_direction(self):
        with pytest.raises(ValueError):
            support(FinitePoints([[1, 0]]), [np.inf, 0])

    def test_ellipsoid_quadratic_form(self):
        sigma = np.array([[1.25, 0.25], [0.25, 1.25]])
        body = Ellipsoid(sigma, 2.0)
        d = np.array([0.3, -0.7])
        assert abs(body.support(d) - 2.0 * math.sqrt(d @ sigma @ d)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_shape_norm_is_the_frobenius_norm_at_any_scale(self, seed):
        # bit-equal to np.linalg.norm where its squares stay in range, and
        # scaled exactly where they overflow
        root = np.random.default_rng(seed).standard_normal((3, 3))
        sigma = root @ root.T + np.eye(3)
        assert Ellipsoid(sigma, 1.0).shape_norm == np.linalg.norm(sigma)
        assert Ellipsoid(2.0 ** 660 * sigma, 1.0).shape_norm == 2.0 ** 660 * np.linalg.norm(sigma)


class TestNegateScale:
    def test_negate_points(self):
        assert np.allclose(negate(FinitePoints([[1, 2]])).points, [[-1, -2]])

    def test_scale_ball(self):
        scaled = scale(2.0, LpBall(2, 1.0, [0, 0]))
        assert scaled.radius == 2.0

    def test_scale_zero_vanishes(self):
        body = scale(0.0, FinitePoints([[3, -1], [2, 5]]))
        for d in unit_directions(16):
            assert abs(support(body, d)) < 1e-12

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scale(-0.5, LpBall(2, 1.0, [0, 0]))

    def test_scale_zero_keeps_every_point(self):
        assert scale(0.0, FinitePoints([[3, -1], [2, 5], [0, 1]])).points.tolist() == [[0, 0]] * 3

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("alpha", [0.37, 1.0, 3.5, 1e-300])
    def test_a_positive_scale_is_the_scaled_prune(self, dim, alpha):
        body = FinitePoints(np.random.default_rng(dim).standard_normal((40, dim)))
        scaled = scale(alpha, body)
        assert hull_prune(scaled) is scaled
        assert scaled.points.tobytes() == (alpha * hull_prune(body).points).tobytes()
        dirs = unit_directions(64, dim=dim)
        assert np.allclose(scaled.support(dirs), alpha * body.support(dirs), rtol=1e-14, atol=0.0)
        if dim == 2:  # in _hull_2d order
            assert geo._hull_2d(scaled.points).tolist() == scaled.points.tolist()

    @pytest.mark.parametrize("dim, prunes", [(2, 0), (3, 1)])
    def test_a_weighted_sum_prunes_no_pruned_member_again(self, dim, prunes, monkeypatch):
        # the member clouds hold their prunes, as after their certificates: only
        # the 3D pairwise sum is pruned, and a 2D sum merges the scaled hulls
        rng = np.random.default_rng(dim)
        bodies = [FinitePoints(rng.standard_normal((12, dim))) for _ in range(2)]
        for body in bodies:
            hull_prune(body)
        runs = []
        prune = geo._prune
        monkeypatch.setattr(geo, "_prune", lambda body: runs.append(body) or prune(body))
        total = weighted_sum(bodies, [0.3, 0.7])
        assert len(runs) == prunes
        dirs = unit_directions(64, dim=dim)
        want = 0.3 * bodies[0].support(dirs) + 0.7 * bodies[1].support(dirs)
        assert np.allclose(total.support(dirs), want, rtol=1e-12, atol=0.0)

    def test_negation_identity_random(self, rng):
        for _ in range(50):
            pts = rng.standard_normal((6, 2))
            body = FinitePoints(pts)
            d = rng.standard_normal(2)
            assert support(negate(body), d) == support(body, -d)


    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bodies_built_inside_stay_read_only(self, rng, dim):
        # hulls and negations skip the finiteness check and the copy; sums keep
        # the check, since a sum of finite points can overflow
        body = FinitePoints(rng.standard_normal((12, dim)))
        for built in (hull_prune(body), negate(body), minkowski_sum(body, negate(body))):
            assert not built.points.flags.writeable
            assert np.all(np.isfinite(built.points))
        big = np.zeros((2, dim))
        big[:, 0] = 1e308
        big[1, -1] += 1.0
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            minkowski_sum(FinitePoints(big), FinitePoints(big))

class TestMinkowskiSum:
    def test_singleton_difference(self):
        out = minkowski_sum(FinitePoints([[2.0, 1.0]]), negate(FinitePoints([[0.5, 3.0]])))
        assert np.allclose(out.points, [[1.5, -2.0]])

    def test_l2_ball_radii_add(self):
        out = minkowski_sum(LpBall(2, 1.0, [0, 0]), LpBall(2, 2.0, [0, 0]))
        assert isinstance(out, LpBall) and out.radius == 3.0 and out.p == 2

    def test_lp_ball_centers_add(self):
        out = minkowski_sum(LpBall(1, 1.0, [1, 0]), LpBall(1, 0.5, [0, 2]))
        assert np.allclose(out.center, [1, 2]) and out.radius == 1.5

    def test_self_difference_support_matches_enumeration(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        body = minkowski_sum(FinitePoints(pts), negate(FinitePoints(pts)))
        diffs = brute_pairwise_differences(pts, pts)
        for d in unit_directions(64):
            assert abs(support(body, d) - brute_support(diffs, d)) < 1e-9

    def test_support_additivity_random_bodies(self, rng):
        dirs = unit_directions(64)
        for _ in range(30):
            a = FinitePoints(rng.standard_normal((5, 2)))
            b = LpBall(rng.choice([1.0, 2.0, np.inf]), rng.uniform(0.1, 2.0),
                       rng.standard_normal(2))
            out = minkowski_sum(a, b)
            for d in dirs:
                assert abs(support(out, d) - support(a, d) - support(b, d)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(FinitePoints([[1, 0]]), FinitePoints([[1.0]]))


class TestHullPrune:
    def test_collinear_interior_removed(self):
        out = hull_prune(FinitePoints([[0, 0], [1, 0], [0.5, 0]]))
        assert sorted(map(tuple, out.points)) == [(0.0, 0.0), (1.0, 0.0)]

    def test_singleton_fixed_point(self):
        out = hull_prune(FinitePoints([[0.0, 0.0]]))
        assert np.allclose(out.points, [[0, 0]])

    def test_random_cloud_support_preserved(self, rng):
        pts = rng.uniform(0, 1, size=(50, 2))
        out = hull_prune(FinitePoints(pts))
        for d in unit_directions(64):
            assert abs(brute_support(out.points, d) - brute_support(pts, d)) <= 1e-12

    def test_counterclockwise_order(self, rng):
        pts = rng.standard_normal((20, 2))
        hull = hull_prune(FinitePoints(pts)).points
        n = hull.shape[0]
        assert n >= 3
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0

    def test_tiny_triangle_keeps_every_vertex(self):
        # collinearity is judged relative to each triple: at 1e-7 an
        # absolute 1e-12 on the cross product dropped a vertex, and the
        # certificate then reached twice the true extent along -y
        triangle = 1e-7 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        assert hull_prune(FinitePoints(triangle)).points.shape == (3, 2)
        cert = s_certificate(ClassifierAtPoint([0.7, 0.3], Uniform(FinitePoints(triangle))), "u")
        assert cert.ray_extent(np.array([0.0, -1.0])) == pytest.approx(2.0e6, rel=1e-12)

    @pytest.mark.parametrize("k", range(-40, 41))
    def test_scaling_by_a_power_of_two_is_exact(self, k):
        rng = np.random.default_rng(21)
        cloud = np.vstack([rng.standard_normal((40, 2)),
                           # nearly collinear triples, where the tolerance bites
                           [[0.0, 0.0], [1.0, 1.0 + 1e-13], [2.0, 2.0]]])
        hull = hull_prune(FinitePoints(cloud)).points
        scaled = hull_prune(FinitePoints(2.0 ** k * cloud)).points
        assert np.array_equal(scaled, 2.0 ** k * hull)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_a_prune_is_its_own_prune(self, dim):
        body = FinitePoints(np.random.default_rng(dim).standard_normal((40, dim)))
        assert hull_prune(hull_prune(body)) is hull_prune(body)

    def test_one_dimensional_prune(self):
        out = hull_prune(FinitePoints([[0.3], [-1.0], [0.9], [0.0]]))
        assert sorted(map(tuple, out.points)) == [(-1.0,), (0.9,)]

    def test_sum_with_a_tiny_polygon_keeps_every_extreme_point(self):
        # collinearity judged against 1e-12 x the cloud's squared extent
        # dropped (-3, -2.0000003) from this sum, and the cw certificate then
        # reached a delta where the true support exceeds the gap by 190 TOL
        spatial = pytest.importorskip("scipy.spatial")
        big = np.array([[-3.0, -2.0], [3.0, -1.0], [2.0, 3.0], [-2.0, 2.0]])
        tiny = -np.array([[-3e-7, 3e-7], [0.0, -3e-7], [2e-7, 2e-7]])
        raw = brute_pairwise_differences(big, tiny)
        extreme = {tuple(p) for p in raw[spatial.ConvexHull(raw).vertices]}
        assert (-3.0, -2.0000003) in extreme
        summed = minkowski_sum(FinitePoints(big), negate(FinitePoints(tiny)))
        assert {tuple(p) for p in summed.points} == extreme
        assert {tuple(p) for p in hull_prune(FinitePoints(raw)).points} == extreme
        cert = s_certificate(ClassifierAtPoint(
            [0.0, 1.0], ClassWise((FinitePoints(big), FinitePoints(tiny)))), "cw")
        d = np.array([-1.0, -4.0]) / math.sqrt(17.0)
        assert brute_support(raw, cert.ray_extent(d) * d) <= 1.0 + geo.TOL


@st.composite
def clouds_2d(draw):
    """Gaussian clouds on both sides of the octagon filter's threshold,
    integer grids with collinear points and duplicates, and clusters of
    points 1e-7 apart; never all on one line."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "grid", "clusters"]))
    if kind == "gaussian":
        cloud = rng.standard_normal((draw(st.integers(3, 400)), 2))
    elif kind == "grid":
        cloud = rng.integers(-3, 4, size=(draw(st.integers(3, 120)), 2)).astype(float)
    else:
        centres = rng.standard_normal((draw(st.integers(1, 6)), 2))
        n = draw(st.integers(3, 200))
        cloud = centres[rng.integers(0, len(centres), n)] + 1e-7 * rng.standard_normal((n, 2))
    assume(np.linalg.matrix_rank(cloud - cloud[0]) == 2)
    return cloud


@st.composite
def hulls_2d(draw):
    """2D hulls of one, two or more points, in hull_prune order: small
    integer clouds give parallel edges and edges straight down into the
    lexicographic minimum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 5, 9, 30]))
    if draw(st.booleans()):
        cloud = rng.integers(-2, 3, size=(n, 2)).astype(float)
    else:
        cloud = rng.standard_normal((n, 2)) * 10.0 ** draw(st.integers(-7, 3))
    return hull_prune(FinitePoints(cloud)).points


@st.composite
def near_vertical_hulls(draw):
    """2D hulls with near-vertical edges: x one ulp or 1e-17 apart near 0, 1
    or -3, where atan2 rounds an edge to straight up or down and the sort by
    x disagrees with the order along an edge; sometimes one generic point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = draw(st.sampled_from([0.0, 1.0, -3.0]))
    step = draw(st.sampled_from([1e-17, float(np.spacing(max(abs(x0), 1.0)))]))
    n = draw(st.integers(1, 8))
    cloud = np.column_stack([x0 + step * rng.integers(0, 3, n), rng.integers(-5, 6, n)])
    if draw(st.booleans()):
        cloud = np.vstack([cloud, x0 + rng.standard_normal((1, 2))])
    return hull_prune(FinitePoints(cloud.astype(float))).points


def _support_deficit(merged: np.ndarray, pairwise: np.ndarray) -> float:
    """How far the support of `merged` falls below that of `pairwise` at
    most, over 256 angles and the four axis directions."""
    angles = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    dirs = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), np.eye(2), -np.eye(2)])
    return float(((pairwise @ dirs.T).max(axis=0) - (merged @ dirs.T).max(axis=0)).max())


class TestHull2D:
    """The 2D hull, the edge merge and the negated hull against their oracles
    (scipy is the oracle, for tests only)."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(clouds_2d())
    def test_equals_qhull_counterclockwise_from_the_lexicographic_minimum(self, cloud):
        spatial = pytest.importorskip("scipy.spatial")
        expected = cloud[spatial.ConvexHull(cloud).vertices]  # counterclockwise
        expected = np.roll(expected, -int(np.lexsort(expected.T[::-1])[0]), axis=0)
        assert np.array_equal(hull_prune(FinitePoints(cloud)).points, expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hulls_2d(), hulls_2d())
    def test_merge_equals_the_hull_of_the_pairwise_sum(self, a, b):
        # integer sums are exact, so the merge is the hull of the pairwise
        # sum bit for bit; otherwise a rounded pairwise sum can be extreme
        # only by rounding (a = 10 b keeps parallel edges apart as floats),
        # and the merge, which never forms it, keeps the support
        pairwise = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
        merged = geo._merge_2d(a, b).points
        if np.all(a == np.round(a)) and np.all(b == np.round(b)):
            assert np.array_equal(merged, geo._hull_2d(pairwise))
        assert {tuple(p) for p in merged} <= {tuple(p) for p in pairwise}
        assert _support_deficit(merged, pairwise) <= 4e-16 * np.abs(pairwise).max()

    @pytest.mark.parametrize("a, b", [
        ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]),  # one line: two points
        ([[0.0, 0.0], [1.0, 1.0]], [[0.0, 0.0], [1.0, -1.0]]),  # a square
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]),  # down into the min
        ([[0.5, 0.5]], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),  # a translation
        ([[0.5, 0.5]], [[1.5, -0.5]]),
        ([[1e20, 1e20]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),  # rounds to one point
        # the edge out of the minimum points right by 1e-17: atan2 rounds it
        # to straight down; and a tie in x after rounding moves the minimum
        ([[0.0, 5.0], [1e-17, 0.0], [2.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
        ([[0.0, 5.0], [1e-17, 0.0], [2.0, 3.0]], [[1.0, 0.0], [2.0, 1.0], [1.0, 1.0]]),
        ([[1.0, 0.0], [1.0 + 2.0**-52, 4.0]], [[0.0, 0.0], [1e-17, -3.0], [2.0, 0.0]]),
    ])
    def test_merge_of_small_hulls(self, a, b):
        a, b = np.array(a), np.array(b)
        pairwise = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
        assert np.array_equal(geo._merge_2d(a, b).points, geo._hull_2d(pairwise))

    def test_edge_out_of_the_minimum_that_rounds_to_straight_down(self):
        # filed as the last edge, it paired every later vertex of p with the
        # wrong one of q: the sum lost (3, 0) and (1, 5), support 2 along +x
        p = hull_prune(FinitePoints([[0.0, 5.0], [1e-17, 0.0], [2.0, 0.0]])).points
        summed = geo._merge_2d(p, np.array([[0.0, 0.0], [1.0, 0.0]])).points
        assert summed.tolist() == [[0.0, 5.0], [1e-17, 0.0], [3.0, 0.0], [1.0, 5.0]]

    def test_turn_back_on_a_near_vertical_line_keeps_the_extreme_point(self):
        # sorted by x, (1 + u, -1) comes after (1 + u, -3) yet lies between it
        # and (1, 0); a flat test that ignored the direction popped (1 + u, -3)
        # and the support along -y fell from 3 to 1
        u = 2.0**-52
        cloud = [[1.0, 0.0], [1.0 + u, -3.0], [1.0 + u, -1.0], [2.0, 0.0]]
        assert hull_prune(FinitePoints(cloud)).points.tolist() == [
            [1.0, 0.0], [1.0 + u, -3.0], [2.0, 0.0]]

    @pytest.mark.parametrize("n, seed", [(12, 4), (40, 0)])
    def test_a_power_of_two_scales_the_hull_exactly(self, n, seed):
        # the turn tests run at unit magnitude: squared turns underflowed at
        # 1e-90 and 1e-100 and overflowed at 1e150, and these 7-vertex hulls
        # kept 3 vertices there; for every 2^s that keeps the cloud normal,
        # the hull and the merge of two hulls scale exactly
        cloud = np.random.default_rng(seed).standard_normal((n, 2))
        hull = geo._hull_2d(cloud)
        assert len(hull) == 7
        for alpha in (1e-90, 1e-100, 1e150):
            assert len(geo._hull_2d(alpha * cloud)) == 7
        half = geo._hull_2d(cloud[: n // 2])
        merged = geo._merge_2d(hull, half).points
        exponents = np.frexp(cloud)[1]
        low, high = int(exponents.min()), int(exponents.max())
        for s in range(-1021 - low, 1024 - high):  # |2^s x| in [2^-1022, 2^1024)
            assert np.array_equal(geo._hull_2d(np.ldexp(cloud, s)), np.ldexp(hull, s))
            if s + high < 1023:  # the merge's sums double the magnitude at most
                assert np.array_equal(geo._merge_2d(np.ldexp(hull, s), np.ldexp(half, s)).points,
                                      np.ldexp(merged, s))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(near_vertical_hulls(), st.one_of(near_vertical_hulls(), hulls_2d()))
    def test_merge_of_near_vertical_hulls_keeps_the_support(self, a, b):
        # where edges differ by rounding, the merge can differ from the hull
        # of the pairwise sum; every output point is a pairwise sum and no
        # support falls by more than the rounding of the coordinates
        pairwise = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
        merged = geo._merge_2d(a, b).points
        assert {tuple(p) for p in merged} <= {tuple(p) for p in pairwise}
        assert _support_deficit(merged, pairwise) <= 1e-15 * np.abs(pairwise).max()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(clouds_2d(), st.sampled_from([1, 2]))
    def test_negated_hull_is_bit_equal_to_a_fresh_one(self, cloud, dim):
        body = FinitePoints(cloud[:, :dim])
        assert negate(body) is negate(body)
        assert np.array_equal(hull_prune(negate(body)).points,
                              hull_prune(FinitePoints(-body.points)).points)

    def test_octagon_filter_keeps_the_boundary_and_drops_the_interior(self):
        # the square's corners repeat among the eight argmaxes; a point on
        # an edge is one the turn test cannot call inside, so it stays
        square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]])
        inner = np.random.default_rng(3).uniform(-0.99, 0.99, size=(60, 2))
        kept = geo._octagon_filter(np.vstack([square, inner]))
        assert {tuple(p) for p in kept} == {tuple(p) for p in square}
        # at 2^+-600 the turn products over- or underflow and the filter
        # keeps every point; the chain alone then gives the scaled hull
        hull = geo._hull_2d(np.vstack([square, inner]))
        for s in (600, -600):
            assert np.array_equal(geo._hull_2d(np.ldexp(np.vstack([square, inner]), s)),
                                  np.ldexp(hull, s))
        one_point = np.tile([[0.5, -2.0]], (30, 1))  # no edge at all
        assert np.array_equal(hull_prune(FinitePoints(one_point)).points, [[0.5, -2.0]])

    def test_each_body_is_hulled_once(self, monkeypatch):
        # one lattice op of the benchmark: S in mode u, the two other classes
        # and G_top in cw, the two bodies G_(i, top) in cd (-S and -G_top take
        # the negated hull); no pairwise sum in any Minkowski step, and
        # nothing again on re-certifying
        runs = []
        hull_2d = geo._hull_2d
        monkeypatch.setattr(geo, "_hull_2d", lambda pts: runs.append(len(pts)) or hull_2d(pts))
        monkeypatch.setattr(geo, "_pairwise_sum", None)  # forming one would raise
        rng = np.random.default_rng(8)
        grads, logits = rng.standard_normal((30, 3, 2)), rng.uniform(0.0, 1.0, size=3)
        smoothness = {
            "u": Uniform(FinitePoints(grads.reshape(-1, 2))),
            "cw": ClassWise(tuple(FinitePoints(grads[:, i]) for i in range(3))),
            "cd": ClassDiff({(i, j): FinitePoints(grads[:, i] - grads[:, j])
                             for i in range(3) for j in range(3) if i != j}),
        }
        for mode, expected in (("u", 1), ("cw", 3), ("cd", 2)):
            clf = ClassifierAtPoint(logits, smoothness[mode])
            for again in (False, True):
                runs.clear()
                assert s_certificate(clf, mode).region is not None
                assert len(runs) == (0 if again else expected), (mode, again)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FinitePoints(np.zeros((0, 2)))


@st.composite
def near_flat_clouds(draw):
    """Dyadic 2D clouds on a line or lifted off it by m 2^-k, scaled by 2^e.
    Along an axis the lift goes down to 2^-1000; along a slanted line it
    stays within the 53-bit mantissa (k <= 46), so every point is exact
    before the scaling, which may round it to a subnormal or to zero.  The
    third kind is o + t d rounded, as near a line as floats get."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([3, 4, 5, 8, 13, 24, 30]))
    t = rng.integers(-8, 9, n)
    kind = draw(st.sampled_from(["axis", "slanted", "rounded"]))
    if kind == "axis":
        cloud = np.column_stack([t, np.ldexp(rng.integers(-1, 2, n), -draw(st.integers(0, 1000)))])
        cloud = cloud[:, ::-1] if draw(st.booleans()) else cloud
    elif kind == "rounded":
        o, d = rng.standard_normal((2, 2))
        cloud = o + rng.uniform(-3.0, 3.0, (n, 1)) * d
    else:
        direction = draw(st.sampled_from([(1, 1), (1, -2), (3, 1), (-4, 3), (2, 4)]))
        lift = np.ldexp(rng.integers(-1, 2, (n, 2)), -draw(st.integers(0, 46)))
        cloud = t[:, None] * np.array(direction) + lift
    return np.ldexp(cloud, draw(st.one_of(st.just(0), st.integers(-60, 60),
                                          st.integers(-1100, 1016))))


@st.composite
def turn_triples(draw):
    """Three 2D float points: any finite floats, or o, a and p = o + t (a - o)
    rounded and moved by a few ulps, where the float products round and
    nearly cancel, scaled by 2^e from the subnormals to differences that
    overflow."""
    if draw(st.booleans()):
        coords = st.floats(allow_nan=False, allow_infinity=False)
        return [[draw(coords), draw(coords)] for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    o, a = rng.standard_normal((2, 2))
    p = o + rng.uniform(-3.0, 3.0) * (a - o)
    for _ in range(draw(st.integers(0, 3))):
        p = np.nextafter(p, rng.choice([-np.inf, np.inf], 2))
    e = draw(st.one_of(st.integers(-60, 60), st.integers(-1100, 1021)))
    return np.ldexp(np.array([o, a, p]), e).tolist()


class TestExactTurns:
    """Every turn of the 2D chain is decided by its exact sign, so the hull
    keeps exactly the extreme points at any height and scale (the Fraction
    references in conftest are the oracle)."""

    @pytest.mark.parametrize("h", [1e-12, 1e-13])
    def test_a_near_flat_extreme_point_bounds_the_certificate(self, h):
        # turns with |sin| <= 1e-12 were once flat: (1, h) was dropped, the
        # certificate was unbounded along (0, 1), and a linear classifier
        # with gradients (0, 0) and (1, h), both in S, flipped inside it
        body = FinitePoints([[0.0, 0.0], [1.0, h], [2.0, 0.0]])
        assert [1.0, h] in hull_prune(body).points.tolist()
        cert = s_certificate(ClassifierAtPoint([0.6, 0.4], Uniform(body)), "u")
        extent = cert.ray_extent(np.array([0.0, 1.0]))
        assert math.isfinite(extent)

        def gap(t):  # class 0 minus class 1 at delta = (0, t)
            return 0.6 - (0.4 + h * t)

        assert gap(0.999 * extent) > 0.0 > gap(1.001 * extent)

    @pytest.mark.parametrize("cloud", [
        [[0.0, 0.0], [2.0**100, 0.0], [2.0**99, 2.0**-1000]],
        [[0.0, 0.0], [2.0**60, 0.0], [2.0**59, 2.0**-1000]],
    ])
    def test_a_lift_far_below_the_extent_is_kept(self, cloud):
        assert hull_prune(FinitePoints(cloud)).points.tolist() == cloud

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(near_flat_clouds())
    def test_keeps_exactly_the_extreme_points(self, cloud):
        kept = [tuple(p) for p in hull_prune(FinitePoints(cloud)).points]
        assert len(kept) == len(set(kept)) and set(kept) == exact_extreme_points(cloud)

    @staticmethod
    def _chain_sign(o, a, p) -> int:
        # the chain keeps a triple whole exactly when it turns left
        return (1 if len(geo._chain([o, a, p])) == 3
                else -1 if len(geo._chain([o, p, a])) == 3 else 0)

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(turn_triples())
    def test_the_chain_turns_by_the_exact_sign(self, triple):
        assert self._chain_sign(*triple) == exact_turn_sign(*triple)

    @pytest.mark.parametrize("triple", [
        [[-4.982189287369181e-151, 0.0], [-4.972318861514342e-166, 4.462486826668942e-173],
         [0.0, 4.4624868266689466e-173]],
        [[-4.720551404531077e-151, 0.0], [-1.7433319090974337e-166, 5.756448387615406e-173],
         [0.0, 5.7564483876154085e-173]],
    ])
    def test_products_rounded_to_subnormals_are_decided_in_integers(self, triple):
        # both products round to a few multiples of 2^-1074 on either side
        # of a midpoint, so their float difference has the wrong sign while
        # the error bound underflows to 0
        assert self._chain_sign(*triple) == exact_turn_sign(*triple)


class TestNegatedHull:
    """In 1D and 2D a body's negation takes the negated hull as its prune;
    it must be the prune of the negated points, bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([1, 2]), st.sampled_from([1, 2, 3, 4, 8, 21, 40]),
           st.sampled_from(["grid", "free"]),
           st.sampled_from([0, -30, 40, 65, -65, 600, -600]),
           st.data())
    def test_is_the_prune_of_the_negated_points(self, dim, n, kind, shift, data):
        # a small integer grid holds repeated and collinear points; the free
        # kind is dyadic, so no coordinate is -0.0
        coords = (st.integers(-3, 3) if kind == "grid"
                  else st.integers(-2 ** 20, 2 ** 20).map(lambda v: v / 1024.0))
        pts = np.ldexp(np.array(data.draw(st.lists(coords, min_size=n * dim,
                                                   max_size=n * dim))).reshape(n, dim), shift)
        body = FinitePoints(pts)
        negated = hull_prune(body.negate()).points
        expected = geo._prune(FinitePoints(-pts)).points
        assert negated.shape == expected.shape and negated.tobytes() == expected.tobytes()
        assert hull_prune(hull_prune(body.negate())) is hull_prune(body.negate())

    def test_3d_keeps_its_own_prune(self, monkeypatch):
        # the 3D prune is a screen, so -prune(S) need not be prune(-S)
        runs, prune_3d = [], geo._prune_3d
        monkeypatch.setattr(geo, "_prune_3d", lambda pts: runs.append(1) or prune_3d(pts))
        body = FinitePoints(np.random.default_rng(6).standard_normal((30, 3)))
        hull_prune(body)
        hull_prune(body.negate())
        assert len(runs) == 2


def _octahedron_cubed() -> np.ndarray:
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    twice = (octahedron[:, None] + octahedron[None, :]).reshape(-1, 3)
    return (twice[:, None] + octahedron[None, :]).reshape(-1, 3)


def _prune_3d_inputs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(31)
    sphere = unit_directions(300, dim=3, seed=32)
    s, t = rng.standard_normal((8, 3)), rng.standard_normal((6, 3))
    axis, tilt = rng.standard_normal(3), rng.standard_normal((2, 3))
    return {
        "gaussian-40": rng.standard_normal((40, 3)),
        "gaussian-3000": rng.standard_normal((3_000, 3)),
        "sphere": sphere,
        # every point extreme, most of them between the mesh's directions
        "dense-sphere": unit_directions(4_000, dim=3, seed=35),
        "sphere-and-shrunk-copy": np.vstack([sphere, 0.999 * sphere, (1 - 1e-9) * sphere]),
        "s-minus-s": brute_pairwise_differences(s, s),
        "sum-of-two-s-minus-s": brute_pairwise_differences(
            brute_pairwise_differences(s, s), brute_pairwise_differences(0.5 * t, 0.5 * t)),
        "octahedron-cubed": _octahedron_cubed(),
        "grid-3x3x3": np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3), axis=-1).reshape(-1, 3),
        "duplicates": np.repeat(rng.standard_normal((25, 3)), 3, axis=0),
        "one-point": rng.standard_normal((1, 3)),
        "two-points": rng.standard_normal((2, 3)),
        "three-points": rng.standard_normal((3, 3)),
        "four-points": rng.standard_normal((4, 3)),
        "tetrahedron-and-inside": np.vstack([np.eye(3), [[0, 0, 0], [0.1, 0.2, 0.3]]]),
        "coplanar": rng.standard_normal((40, 2)) @ tilt + axis,
        "collinear": rng.standard_normal((15, 1)) * axis + tilt[0],
    }


class TestHullPrune3D:
    """The 3D prune keeps every extreme point, drops only points inside the
    hull of what it keeps, and keeps the np.unique order (scipy is the
    oracle, for tests only)."""

    @pytest.fixture(scope="class")
    def spatial(self):
        return pytest.importorskip("scipy.spatial")

    @pytest.mark.parametrize("name", list(_prune_3d_inputs()))
    def test_sound_against_qhull(self, name, spatial):
        cloud = _prune_3d_inputs()[name]
        distinct = np.unique(cloud, axis=0)
        kept = hull_prune(FinitePoints(cloud)).points
        rank = {tuple(p): i for i, p in enumerate(distinct)}
        order = [rank[tuple(p)] for p in kept]
        assert order == sorted(set(order))  # distinct input points, in np.unique order
        dirs = unit_directions(512, dim=3, seed=33)
        scale = np.abs(cloud).max()
        assert np.all(np.abs(np.max(dirs @ kept.T, axis=1) - np.max(dirs @ cloud.T, axis=1))
                      <= 1e-12 * scale)
        if distinct.shape[0] < 4 or np.linalg.matrix_rank(distinct - distinct[0]) < 3:
            assert np.array_equal(kept, distinct)  # a flat set has no tetrahedron to drop into
            return
        vertices = {tuple(p) for p in cloud[spatial.ConvexHull(cloud).vertices]}
        assert vertices <= {tuple(p) for p in kept}
        dropped = np.delete(distinct, order, axis=0)
        assert np.all(spatial.Delaunay(kept).find_simplex(dropped) >= 0)

    def test_interior_points_are_dropped(self):
        cloud = _prune_3d_inputs()["sum-of-two-s-minus-s"]
        assert hull_prune(FinitePoints(cloud)).points.shape[0] < cloud.shape[0] / 10

    @pytest.mark.parametrize("k", range(-40, 41))
    def test_scaling_by_a_power_of_two_is_exact(self, k):
        inputs = _prune_3d_inputs()
        cloud = np.vstack([inputs["sum-of-two-s-minus-s"], inputs["sphere-and-shrunk-copy"]])
        kept = hull_prune(FinitePoints(cloud)).points
        assert np.array_equal(hull_prune(FinitePoints(2.0 ** k * cloud)).points, 2.0 ** k * kept)

    @pytest.mark.parametrize("mode, bodies", [("u", 3), ("cw", 5)])
    def test_s_certificate_prunes_each_body_once(self, monkeypatch, mode, bodies):
        # u: S, -S and S (+) -S; cw: the two other classes, -G_top and the
        # two sums; polar_hrep takes each sum as its Minkowski step left it
        inputs = []
        prune_3d = geo._prune_3d
        monkeypatch.setattr(geo, "_prune_3d",
                            lambda pts: inputs.append(pts.tobytes()) or prune_3d(pts))
        grads = np.random.default_rng(35).standard_normal((12, 3, 3))
        smoothness = (Uniform(FinitePoints(grads[:, 0])) if mode == "u"
                      else ClassWise(tuple(FinitePoints(grads[:, i]) for i in range(3))))
        clf = ClassifierAtPoint([0.6, 0.3, 0.1], smoothness)
        assert s_certificate(clf, mode).region is not None
        assert len(inputs) == len(set(inputs)) == bodies

    def test_memory_is_bounded(self):
        cloud = FinitePoints(np.random.default_rng(34).standard_normal((10_000, 3)))
        # one dense (directions x points) product alone would take 100 MB
        tracemalloc.start()
        try:
            kept = hull_prune(cloud).points
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert kept.shape[0] < 100


class TestDistinctRows:
    """The prune's deduplication in three or more dimensions gives the rows
    of np.unique(pts, axis=0) in its order, bit for bit; where rows differ
    only by the sign of a zero, it keeps one row of that group."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([3, 4]), st.integers(1, 40),
           st.sampled_from([[-1.5, -1.0, 0.0, 0.5, 2.0], [-1.0, -0.0, 0.0, 1.0]]), st.data())
    def test_matches_np_unique(self, dim, n, values, data):
        # rows drawn from a small pool repeat; the second pool mixes 0.0 and -0.0
        coords = st.one_of(st.sampled_from(values), st.floats(-4.0, 4.0))
        pool = np.array(data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                           min_size=1, max_size=6)))
        pts = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]
        distinct, expected = geo._distinct_rows(pts), np.unique(pts, axis=0)
        assert distinct.shape == expected.shape and np.array_equal(distinct, expected)
        if not np.any(np.signbit(pts) & (pts == 0.0)):
            assert distinct.tobytes() == expected.tobytes()
        rows = {row.tobytes() for row in pts}
        assert all(row.tobytes() in rows for row in distinct)


class TestPolarHrep:
    def test_single_generator(self):
        region = polar_hrep(FinitePoints([[2.0, 0.0]]), 1.0)
        assert region.n_halfspaces == 1
        assert np.allclose(region.normals, [[2, 0]]) and region.offsets[0] == 1.0

    def test_l1_ball_vertices_give_box(self):
        region = polar_hrep(FinitePoints([[3, 0], [0, 3], [-3, 0], [0, -3]]), 1.0)
        for d in unit_directions(128, seed=3):
            inside = np.linalg.norm(d * 0.33, ord=np.inf) <= 1 / 3
            assert region.contains(d * 0.33) == inside or \
                abs(np.linalg.norm(d * 0.33, ord=np.inf) - 1 / 3) < 1e-9
        assert region.contains([1 / 3, 1 / 3])
        assert not region.contains([1 / 3 + 1e-6, 0.0])

    def test_sector_halfplane(self):
        s3 = math.sqrt(3.0)
        region = polar_hrep(FinitePoints([[-s3 / 2, 1.5]]), s3)
        normal = region.normals[0] / region.offsets[0]
        assert np.allclose(normal, [-0.5, s3 / 2], atol=1e-12)

    def test_membership_agrees_with_support(self, rng):
        pts = rng.standard_normal((7, 2))
        body = FinitePoints(pts)
        region = polar_hrep(body, 1.3)
        for _ in range(100):
            x = rng.standard_normal(2)
            assert region.contains(x) == (support(body, x) <= 1.3 + 1e-9)

    def test_ball_body_rejected(self):
        with pytest.raises(ValueError):
            polar_hrep(LpBall(2, 1.0, [0, 0]), 1.0)


class TestPolarDualBall:
    def test_l1_to_linf(self):
        out = polar_dual_ball(LpBall(1, 1.5, [0, 0]), 0.5)
        assert isinstance(out, LpBall) and math.isinf(out.p)
        assert abs(out.radius - 1 / 3) < 1e-12

    def test_l2_self_dual_unit(self):
        out = polar_dual_ball(LpBall(2, 1.0, [0, 0]), 1.0)
        assert out.p == 2.0 and out.radius == 1.0

    def test_ellipsoid_inverts(self):
        sigma = np.array([[1.25, 0.25], [0.25, 1.25]])
        out = polar_dual_ball(Ellipsoid(sigma, 1.0), 1.0)
        assert np.allclose(out.sigma, np.linalg.inv(sigma))

    def test_zero_radius_whole_space(self):
        assert isinstance(polar_dual_ball(LpBall(2, 0.0, [0, 0]), 1.0), WholeSpace)
        assert isinstance(polar_dual_ball(LpBall(2, 0.0, [0, 0]), 0.0), WholeSpace)

    def test_shifted_ball_rejected(self):
        with pytest.raises(ValueError):
            polar_dual_ball(LpBall(2, 1.0, [1, 0]), 1.0)


class TestLpMaximize:
    def test_box(self):
        region = HalfspaceRegion([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, 2, 1, 1], 2)
        (value,), (point,) = lp_maximize([1, 0], region)
        assert abs(value - 2.0) <= 1e-9 and abs(point[0] - 2.0) <= 1e-9

    def test_open_direction(self):
        values, points = lp_maximize([1, 0], HalfspaceRegion([[-1, 0]], [1], 2))
        assert values.tolist() == [math.inf] and np.isnan(points).all()

    def test_vertex_of_small_box(self):
        region = polar_hrep(FinitePoints([[3, 0], [0, 3], [-3, 0], [0, -3]]), 1.0)
        (value,), _ = lp_maximize([1, 1], region)
        assert abs(value - 2 / 3) <= 1e-9

    @staticmethod
    def _region(rng, dim: int, kind: str) -> HalfspaceRegion:
        """A random region of the given kind: in 2D "bounded", "empty" and
        "unbounded" take the polygon path and "slab" the simplex; in 3D all
        take the simplex."""
        region = _random_region(rng, dim, 1.0)
        if kind == "empty":  # x_0 <= -1 and x_0 >= 1
            return region.intersect(HalfspaceRegion(
                np.vstack([np.eye(dim)[:1], -np.eye(dim)[:1]]), [-1.0, -1.0], dim))
        if kind == "unbounded":  # dim rows leave a cone open
            return HalfspaceRegion(region.normals[:dim], region.offsets[:dim], dim)
        if kind == "slab":  # parallel rows do not span the plane
            normal = region.normals[:1]
            return HalfspaceRegion(np.vstack([normal, -normal]), rng.uniform(0.1, 1.0, 2), dim)
        return region

    @staticmethod
    def _same(a, b) -> bool:
        """Bit-equal answers: the arrays of maxima and of points (NaN where
        a maximum is infinite)."""
        return a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    @staticmethod
    def _unwrap(singles) -> list:
        """The (value, point) of each answer to a stack of one."""
        return [(value, point) for (value,), (point,) in singles]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]),
           st.sampled_from(["bounded", "empty", "unbounded", "slab"]), st.integers(1, 6))
    def test_a_stack_is_its_objectives_one_by_one(self, seed, dim, kind, m):
        rng = np.random.default_rng(seed)
        region = self._region(rng, dim, kind)
        stack = rng.standard_normal((m, dim))
        singles = [lp_maximize(c, region) for c in stack]
        values, points = lp_maximize(stack, region)
        assert values.shape == (m,) and points.shape == (m, dim)
        assert_stack_matches_solves(stack, values, points, self._unwrap(singles), exact=dim == 2)
        # an empty region answers -inf for every objective, and only it does
        assert (kind == "empty") == bool((values == -math.inf).all()) == bool(
            (values == -math.inf).any())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]),
           st.sampled_from(["bounded", "empty", "unbounded", "slab"]), st.integers(1, 6))
    def test_limits_stop_the_stack_as_the_solver_does(self, seed, dim, kind, m):
        rng = np.random.default_rng(seed)
        region = self._region(rng, dim, kind)
        stack = rng.standard_normal((m, dim))
        limits = rng.uniform(-0.5, 2.0, m) * np.linalg.norm(stack, axis=1)
        singles = [lp_maximize(c, region) for c in stack]
        stop = next((i + 1 for i, ((value,), _) in enumerate(singles) if value > limits[i]), m)
        values, points = lp_maximize(stack, region, limits)
        assert self._same((values, points),
                          _simplex.maximize(stack, region.normals, region.offsets, limits))
        assert len(values) == stop
        assert_stack_matches_solves(stack, values, points, self._unwrap(singles[:stop]),
                                    exact=dim == 2)

    @pytest.mark.parametrize("objectives, match", [
        (np.ones(3), "dimension mismatch"),
        # six entries would reshape into three 2D objectives
        (np.ones((2, 3)), r"an \(m, 2\) stack"),
        ([1.0, np.nan], "finite"),
        ([[1.0, 0.0], [np.inf, 1.0]], "finite"),
    ], ids=["d + 1 objective", "m x (d + 1) stack", "nan", "inf in a stack"])
    def test_bad_objectives_rejected(self, objectives, match):
        with pytest.raises(ValueError, match=match):
            lp_maximize(objectives, box_region(1.0))

    def test_the_tracer_attributes_a_region_query_lp_to_lp_maximize(self):
        import scert.cli  # noqa: F401  (loads every module the tracer wraps)

        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        t = tracer.Tracer().install()
        try:
            geo.region_subset(box_region(1.0), box_region(1.0))
        finally:
            t.uninstall()
        lps = [i for i, s in enumerate(t.spans) if s.name == "geometry.lp_maximize"]
        assert len(lps) == 1
        assert tracer._has_ancestor(t.spans, lps[0], "geometry.region_query")
        assert tracer.layer_metrics(t.spans, 1)["geometry.region_query.lp_per_call"] == 1.0


class TestHalfspaceRegion:
    @pytest.mark.parametrize("normals, offsets, dim, expected", [
        (np.ones((3, 2)), np.ones(3), 2, np.ones((3, 2))),
        ([1.0, -2.0], [0.5], 2, [[1.0, -2.0]]),
        ([], [], 3, np.zeros((0, 3))),
    ], ids=["rows", "one row", "empty"])
    def test_accepted_shapes(self, normals, offsets, dim, expected):
        region = HalfspaceRegion(normals, offsets, dim)
        assert region.normals.shape == np.shape(expected)
        assert np.array_equal(region.normals, expected)
        assert region.n_halfspaces == len(offsets)

    @pytest.mark.parametrize("normals, offsets, dim", [
        (np.ones((3, 2)), np.ones(2), 3),
        (np.arange(4.0), np.ones(2), 2),
    ], ids=["rows of the wrong width", "flat rows"])
    def test_rows_of_the_wrong_shape_rejected(self, normals, offsets, dim):
        with pytest.raises(ValueError, match=f"rows of {dim} coordinates"):
            HalfspaceRegion(normals, offsets, dim)

    def test_interval_form_rejects_2d_and_empty_regions(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            region_to_interval(box_region(1.0))
        empty = HalfspaceRegion([[1.0], [-1.0]], [1.0, -2.0], 1)
        with pytest.raises(ValueError, match="region is empty"):
            region_to_interval(empty)


class TestContainment:
    def test_nested_boxes(self):
        assert region_subset(box_region(1 / 3), box_region(0.5))
        assert not region_subset(box_region(0.5), box_region(1 / 3))

    def test_halfplane_not_in_box(self):
        halfplane = HalfspaceRegion([[1.0, 0.0]], [1.0], 2)
        assert not region_subset(halfplane, box_region(1.0))

    def test_polar_of_subset_is_superset(self, rng):
        # the gradient cloud sits inside its bounding dual-norm ball, so the
        # cloud's polar contains the ball's polar
        pts = np.array([[1.0, 0.5], [0.6, -0.4], [-0.3, 0.4], [-0.5, -0.25], [0.2, 0.8]])
        cloud = minkowski_sum(FinitePoints(pts), negate(FinitePoints(pts)))
        ball_vertices = FinitePoints([[3, 0], [0, 3], [-3, 0], [0, -3]])
        assert region_subset(polar_hrep(ball_vertices, 1.0), polar_hrep(cloud, 1.0))

    def test_minus_subset_without_carves_is_subset(self, rng):
        for _ in range(20):
            a, b = _random_region(rng, 2, 1.0), _random_region(rng, 2, 1.0)
            assert region_minus_subset(a, [], b) == region_subset(a, b)
        assert region_minus_subset(box_region(0.5), [], box_region(1.0))
        assert not region_minus_subset(box_region(1.0), [], box_region(0.5))

    def test_minus_subset_of_itself(self):
        a = box_region(1.0)
        tiny = box_region(1e-6)
        assert region_minus_subset(a, [a], tiny)
        assert region_minus_subset(a, [a], a)

    def test_minus_subset_union_probe(self, rng):
        # polygonal two-member uniform-mode ensemble: the ensemble polar must
        # sit inside the union of the member polars; verified both by the
        # complement decomposition and by a dense membership grid
        angles1 = np.linspace(0, 2 * np.pi, 9)[:-1]
        pts1 = np.column_stack([2.0 * np.cos(angles1), 0.5 * np.sin(angles1)])
        pts2 = np.column_stack([0.5 * np.cos(angles1), 2.0 * np.sin(angles1)])
        gen1 = minkowski_sum(FinitePoints(pts1), negate(FinitePoints(pts1)))
        gen2 = minkowski_sum(FinitePoints(pts2), negate(FinitePoints(pts2)))
        mixed = minkowski_sum(scale(0.5, FinitePoints(pts1)), scale(0.5, FinitePoints(pts2)))
        gen_g = minkowski_sum(mixed, negate(mixed))
        q1, q2 = polar_hrep(gen1, 1.0), polar_hrep(gen2, 1.0)
        qg = polar_hrep(gen_g, 1.0)
        assert region_minus_subset(qg, [q1], q2)
        axis = np.linspace(-3.0, 3.0, 201)
        for x in axis[::10]:
            for y in axis[::10]:
                p = np.array([x, y])
                if qg.contains(p, tol=-1e-9):
                    assert q1.contains(p) or q2.contains(p)

    def test_minus_subset_with_several_carves_against_a_grid(self, rng):
        # a \ (c_1 u ... u c_k) inside b for k = 2 and 3 random pentagons,
        # decided exactly, against a 321 x 321 membership grid
        def pentagon(size=1.0):
            angles = 2.0 * np.pi * (np.arange(5) + rng.uniform(0.0, 0.5, 5)) / 5
            normals = np.column_stack([np.cos(angles), np.sin(angles)])
            center = rng.normal(0.0, 0.5, 2)
            return HalfspaceRegion(normals, size * rng.uniform(0.5, 1.5, 5) + normals @ center, 2)

        def inside(region, points, tol):
            return np.all(points @ region.normals.T <= region.offsets + tol, axis=1)

        axis = np.linspace(-4.0, 4.0, 321)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        outcomes = []
        for _ in range(40):
            a = pentagon(0.5)
            b, *carves = (pentagon() for _ in range(int(rng.integers(3, 5))))
            uncovered = inside(a, grid, -1e-7) & ~inside(b, grid, 1e-7)
            for carve in carves:
                uncovered &= ~inside(carve, grid, 1e-7)
            decided = region_minus_subset(a, carves, b)
            assert decided == (not uncovered.any())
            outcomes.append(decided)
        assert 5 <= sum(outcomes) <= 35, sum(outcomes)

    def test_empty_region_subset_of_anything(self):
        empty = HalfspaceRegion([[1.0], [-1.0]], [-2.0, 1.0], 1)
        assert region_subset(empty, HalfspaceRegion([[1.0]], [0.0], 1))


def _random_region(rng, dim: int, size: float) -> HalfspaceRegion:
    """dim + 2 to dim + 5 random rows around a random center, each at a
    distance between size / 2 and 3 size / 2 from it."""
    m = int(rng.integers(dim + 2, dim + 6))
    normals = rng.standard_normal((m, dim))
    reach = size * rng.uniform(0.5, 1.5, m) * np.linalg.norm(normals, axis=1)
    return HalfspaceRegion(normals, reach + normals @ rng.normal(0.0, 0.5, dim), dim)


def _box(dim: int, radius: float = 1.0) -> HalfspaceRegion:
    return HalfspaceRegion(np.vstack([np.eye(dim), -np.eye(dim)]), np.full(2 * dim, radius), dim)


class TestCarveScreen:
    """`region_minus_subset` screens each carve's pieces with one batched
    query; the unscreened piece loop of `reference_minus_subset` is the oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 3),
           st.sampled_from([0.3, 0.6]))
    def test_matches_the_unscreened_piece_loop(self, seed, dim, n_carves, size):
        rng = np.random.default_rng(seed)
        a = _random_region(rng, dim, size)
        b, *carves = (_random_region(rng, dim, 1.0) for _ in range(n_carves + 1))
        for slack in (TOL, STRICT_MARGIN):
            assert (region_minus_subset(a, carves, b, slack)
                    == reference_minus_subset(a, carves, b, slack))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_an_empty_a_is_one_query(self, dim, monkeypatch):
        # x_0 <= -1 and x_0 >= 1: every piece is empty, and the screen's one
        # batched query finds it at once
        empty = HalfspaceRegion(np.vstack([np.eye(dim)[:1], -np.eye(dim)[:1]]), [-1.0, -1.0], dim)
        calls = []
        maximize = _simplex.maximize
        monkeypatch.setattr(_simplex, "maximize", lambda *args: calls.append(1) or maximize(*args))
        carves = [_box(dim, 0.5), _box(dim, 0.25)]
        assert region_minus_subset(empty, carves, _box(dim, 0.1))
        assert len(calls) == 1
        monkeypatch.undo()
        assert reference_minus_subset(empty, carves, _box(dim, 0.1))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_normal_carve_rows(self, dim):
        # 0.delta <= 1 holds everywhere, so its piece is empty; 0.delta <= -1
        # holds nowhere, so its piece is all of a
        a, inner = _box(dim), _box(dim, 0.5)
        always = HalfspaceRegion(np.vstack([inner.normals, np.zeros(dim)]),
                                 np.append(inner.offsets, 1.0), dim)
        never = HalfspaceRegion(np.zeros((1, dim)), [-1.0], dim)
        for carves, b, expected in (([always], _box(dim), True),
                                    ([always], _box(dim, 0.9), False),
                                    ([never], _box(dim, 2.0), True),
                                    ([never], _box(dim, 0.5), False),
                                    ([never, always], _box(dim), True),
                                    ([never, always], _box(dim, 0.9), False)):
            assert region_minus_subset(a, carves, b) == expected
            assert reference_minus_subset(a, carves, b) == expected

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_tangent_piece_is_empty(self, dim):
        # the carve x_0 <= 1/2 with slack 1/2: the maximum of x_0 over the
        # unit box is 1 = offset + slack exactly, so the piece {x_0 >= 1}
        # only touches the box.  The screen counts it as empty; the
        # unscreened loop builds the face x_0 = 1 and tests it against b.
        a, slack = _box(dim), 0.5
        carve = HalfspaceRegion(np.eye(dim)[:1], [0.5], dim)
        holds_the_face = _box(dim, 0.75)
        misses_the_face = HalfspaceRegion(np.eye(dim)[:1], [0.0], dim)
        assert region_minus_subset(a, [carve], holds_the_face, slack)
        assert reference_minus_subset(a, [carve], holds_the_face, slack)
        assert region_minus_subset(a, [carve], misses_the_face, slack)
        assert not reference_minus_subset(a, [carve], misses_the_face, slack)
        # just past the tangent the piece is built, and both find it outside b
        nudged = HalfspaceRegion(np.eye(dim)[:1], [0.5 - 1e-3], dim)
        assert not region_minus_subset(a, [nudged], misses_the_face, slack)
        assert not reference_minus_subset(a, [nudged], misses_the_face, slack)


def _proven(objectives, region, limits) -> np.ndarray:
    """Which maxima of the objectives over the region the polar screen proves
    within their limits."""
    proven = np.ones(len(objectives), dtype=bool)
    proven[geo._unproven(np.asarray(objectives, dtype=float), region,
                         np.asarray(limits, dtype=float))] = False
    return proven


def _screened_region(rng, kind: str) -> HalfspaceRegion:
    """A 3D region with positive offsets: the polar set of a cloud, of two
    clouds (their intersection), or of a cloud in x_0 > 0, which holds the
    ray along -e_0."""
    def cloud():
        return rng.standard_normal((int(rng.integers(4, 10)), 3))

    if kind == "intersection":
        return polar_hrep(FinitePoints(cloud()), 1.0).intersect(
            polar_hrep(FinitePoints(cloud()), rng.uniform(0.5, 2.0)))
    pts = cloud()
    if kind == "unbounded":
        pts[:, 0] = np.abs(pts[:, 0]) + 0.1
    return polar_hrep(FinitePoints(pts), rng.uniform(0.5, 2.0))


def _certificate_regions_3d(seed: int, count: int) -> list[HalfspaceRegion]:
    """Certificate regions of seeded 3D classifiers (k = 3) with 4-point
    clouds, in the modes u, cw and cd in turn."""
    rng = np.random.default_rng(seed)
    regions = []
    for index in range(count):
        mode = ("u", "cw", "cd")[index % 3]
        grads = rng.standard_normal((4, 3, 3))
        smoothness = {
            "u": lambda: Uniform(FinitePoints(grads[:, 0])),
            "cw": lambda: ClassWise(tuple(FinitePoints(grads[:, i]) for i in range(3))),
            "cd": lambda: ClassDiff({(i, j): FinitePoints(grads[:, i] - grads[:, j])
                                     for i in range(3) for j in range(3) if i != j}),
        }[mode]()
        clf = ClassifierAtPoint(rng.dirichlet(np.ones(3)), smoothness)
        regions.append(s_certificate(clf, mode).region)
    return regions


class TestPolarScreen:
    """A 3D region with every offset positive is the polar set of K =
    conv({a_k / b_k} u {0}); an objective c with limit L > 0 is proven when
    c / L lies deep in a mesh tetrahedron of K, and then max c.x <= L over the
    region (scipy is the oracle)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["polar", "intersection", "unbounded"]))
    def test_every_proven_maximum_is_within_its_limit(self, seed, kind):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        region = _screened_region(rng, kind)
        q = region.normals / region.offsets[:, None]
        weights = rng.dirichlet(np.ones(len(q)), size=12) * rng.uniform(0.2, 1.2, (12, 1))
        limits = np.concatenate([rng.uniform(0.5, 2.0, 12), rng.uniform(0.1, 3.0, 6),
                                 region.offsets + TOL])
        objectives = np.vstack([weights @ q, rng.standard_normal((6, 3)), region.normals])
        objectives[:12] *= limits[:12, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proven = _proven(objectives, region, limits)
        for c, limit in zip(objectives[proven], limits[proven]):
            ref = linprog(-c, A_ub=region.normals, b_ub=region.offsets,
                          bounds=[(None, None)] * 3, method="highs")
            assert ref.status == 0 and -ref.fun <= limit
        # the same region, objectives and limits up to powers of two: each row
        # and its offset by 2^e, x by 2^-s, each objective by 2^u and its
        # limit by 2^(u - s)
        e, u = rng.integers(-40, 41, len(q)), rng.integers(-40, 41, len(objectives))
        s = int(rng.integers(-40, 41))
        scaled = HalfspaceRegion(np.ldexp(region.normals, (e + s)[:, None]),
                                 np.ldexp(region.offsets, e), 3)
        assert np.array_equal(
            _proven(np.ldexp(objectives, u[:, None]), scaled, np.ldexp(limits, u - s)), proven)

    def test_the_unit_cube_proves_the_inside_of_its_octahedron(self):
        # the cube |x|_inf <= 1 is the polar set of the octahedron |c|_1 <= 1,
        # and the maximum of c over it is |c|_1
        cube = _box(3)
        objectives = np.array([[0.3, 0.3, 0.3], [0.5, -0.2, 0.1], [-0.1, 0.2, -0.6],
                               [0.4, 0.4, 0.4], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        assert _proven(objectives, cube, np.ones(6)).tolist() == [True] * 3 + [False] * 3
        assert _proven(objectives, cube, np.full(6, 1.25)).tolist() == [True] * 4 + [False] * 2

    def test_proves_nothing_it_does_not_apply_to(self):
        rng = np.random.default_rng(36)
        inside = 0.1 * rng.standard_normal((8, 3))  # |c|_1 < 1 for each
        inside /= np.maximum(1.0, 2.0 * np.abs(inside).sum(axis=1, keepdims=True))
        cube, ones = _box(3), np.ones(8)
        assert _proven(inside, cube, ones).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a 1D or 2D region, an offset of 0 or below
            assert not _proven(inside[:, :1], _box(1), ones).any()
            assert not _proven(inside[:, :2], _box(2), ones).any()
            for offset in (0.0, -1.0):
                shifted = HalfspaceRegion(cube.normals, np.append(cube.offsets[:-1], offset), 3)
                assert not _proven(inside, shifted, ones).any()
            # a limit of 0 or below: max 0.x = 0 > -1
            for limit in (0.0, -1.0):
                assert not _proven(np.vstack([inside, np.zeros(3)]), cube,
                                   np.full(9, limit)).any()
            # a / b beyond the float range, c / L beyond it
            assert not _proven(inside, HalfspaceRegion(cube.normals * 1e10,
                                                       np.full(6, 1e-300), 3), ones).any()
            assert not _proven(inside * 1e300, cube, np.full(8, 1e-300)).any()

    def test_queries_answer_as_without_it(self, monkeypatch):
        regions = _certificate_regions_3d(37, 9)
        triples = list(zip(regions, regions[1:] + regions[:1], regions[2:] + regions[:2]))

        def answers():
            return ([region_subset(a, b) for a in regions for b in regions],
                    [region_minus_subset(a, [b], c, slack) for a, b, c in triples
                     for slack in (TOL, STRICT_MARGIN)])

        screened = answers()
        monkeypatch.setattr(geo, "_unproven", lambda objectives, region, limits: slice(None))
        assert answers() == screened
        assert 0 < sum(screened[0]) < len(screened[0])
        assert 0 < sum(screened[1]) < len(screened[1])

    def test_cost_ledger(self, monkeypatch):
        # the simplex runs and pivots, and the proven and refuted objectives,
        # of the containments of a fixed sample of certificate regions; with
        # neither screen they were 412 runs and 1,794 pivots, with the polar
        # screen alone 292 runs, 1,218 pivots and 470 proven objectives
        regions = _certificate_regions_3d(38, 12)
        counted = dict.fromkeys(("_run", "_pivot", "proven", "refuted"), 0)

        def counting(name, function):
            def wrapper(*args):
                counted[name] += 1
                return function(*args)
            return wrapper

        for name in ("_run", "_pivot"):
            monkeypatch.setattr(_simplex, name, counting(name, getattr(_simplex, name)))
        unproven = geo._unproven

        def count_proven(objectives, region, limits):
            rows = unproven(objectives, region, limits)
            counted["proven"] += len(objectives) - len(objectives[rows])
            return rows

        monkeypatch.setattr(geo, "_unproven", count_proven)
        refuted = geo._refuted

        def count_refuted(objectives, region, limits):
            rows = refuted(objectives, region, limits)
            counted["refuted"] += int(rows.sum())
            return rows

        monkeypatch.setattr(geo, "_refuted", count_refuted)
        for a in regions:
            for b in regions:
                region_subset(a, b)
        for a, b, c in zip(regions, regions[1:], regions[2:]):
            region_minus_subset(a, [b], c)
        assert counted == {"_run": 149, "_pivot": 547, "proven": 256, "refuted": 1185}


def _refuted(objectives, region, limits) -> np.ndarray:
    """Which maxima of the objectives over the region the boundary points
    refute, raising any warning as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return geo._refuted(np.asarray(objectives, dtype=float), region,
                            np.asarray(limits, dtype=float))


class TestBoundaryRefutation:
    """A star region's boundary point along u, u / h(u) with h the support of
    K, lies in it; an objective whose boundary point is past its limit is
    refuted, and then its maximum over the region is above that limit (scipy
    is the oracle)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["polar", "intersection", "unbounded"]))
    def test_every_refuted_maximum_is_above_its_limit(self, seed, kind):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        region = _screened_region(rng, kind)
        objectives = np.vstack([rng.standard_normal((12, 3)), region.normals])
        maxima = []
        for c in objectives:
            # no presolve: HiGHS's presolve reports some unbounded LPs as infeasible
            ref = linprog(-c, A_ub=region.normals, b_ub=region.offsets,
                          bounds=[(None, None)] * 3, method="highs", options={"presolve": False})
            assert ref.status in (0, 3)
            maxima.append(math.inf if ref.status == 3 else -ref.fun)
        maxima = np.array(maxima)
        # limits around each maximum, and the offsets + TOL of the region's own rows
        finite = np.where(np.isfinite(maxima), maxima, rng.uniform(0.5, 5.0, len(maxima)))
        limits = np.concatenate([np.abs(finite[:12]) * rng.uniform(0.5, 1.5, 12),
                                 region.offsets + TOL])
        refuted = _refuted(objectives, region, limits)
        assert (maxima[refuted] > limits[refuted]).all()
        # each boundary point along a refuted objective lies in the region
        units, _, h = geo._boundary(region, objectives[refuted])
        for v, h_v in zip(units, h):
            if h_v > 0.0:
                assert region.contains(np.ldexp(v / h_v, -region._polar_points[0]))
        # the same refutations up to powers of two: each row and its offset by
        # 2^e, x by 2^-s, each objective by 2^u and its limit by 2^(u - s)
        e, u = rng.integers(-40, 41, region.n_halfspaces), rng.integers(-40, 41, len(objectives))
        s = int(rng.integers(-40, 41))
        scaled = HalfspaceRegion(np.ldexp(region.normals, (e + s)[:, None]),
                                 np.ldexp(region.offsets, e), 3)
        assert np.array_equal(
            _refuted(np.ldexp(objectives, u[:, None]), scaled, np.ldexp(limits, u - s)), refuted)

    def test_the_unit_cube_refutes_by_its_boundary_points(self):
        # on the cube |x|_inf <= 1, h(c) = |c|_inf, and the boundary point
        # along c has c.x = |c|_2^2 / |c|_inf; the maximum of c is |c|_1
        cube = _box(3)
        objectives = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.5, 0.0], [0.5, 0.5, 0.0]])
        limits = np.array([0.99, 2.9, 1.4, 1.1])
        assert _refuted(objectives, cube, limits).tolist() == [True, True, False, False]
        # the maxima 1.5 > 1.4 and 1.0 < 1.1: the third is above its limit
        # but its boundary point does not show it, and the LP answers it
        assert region_exceeds(cube, HalfspaceRegion(objectives[2:3], [1.4 - TOL], 3), TOL)

    def test_a_direction_the_region_is_unbounded_along_is_refuted(self):
        # x_0 <= 1 alone: h(u) = 0 along (0, 1, 0), whose maximum is +inf above
        # any limit (c.c = 1 > L h(c) = 0 however large L is)
        half = HalfspaceRegion([[1.0, 0.0, 0.0]], [1.0], 3)
        assert _refuted([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], half,
                        [1e300, 1.5, 1.5]).tolist() == [True, False, True]

    def test_refutes_nothing_it_does_not_apply_to(self):
        far = np.array([[5.0, 0.0, 0.0], [0.0, -7.0, 3.0], [2.0, 2.0, 2.0]])
        cube, ones = _box(3), np.ones(3)
        assert _refuted(far, cube, ones).all()
        # a 1D or 2D region: one interval or polygon pass answers it
        assert not _refuted(far[:, :1], _box(1), ones).any()
        assert not _refuted(far[:, :2], _box(2), ones).any()
        # an offset of 0 or below
        for offset in (0.0, -1.0):
            shifted = HalfspaceRegion(cube.normals, np.append(cube.offsets[:-1], offset), 3)
            assert not _refuted(far, shifted, ones).any()
        # a zero objective, whatever its limit
        assert not _refuted(np.zeros((3, 3)), cube, [1.0, -1.0, 1e300]).any()
        # a / b = 1e310 beyond the float range: the polar points are formed at
        # unit size, and the cube |x|_inf <= 1e-310 refutes only limits below
        # its maxima, 1e-310 |c|_1
        tiny = HalfspaceRegion(cube.normals * 1e10, np.full(6, 1e-300), 3)
        assert not _refuted(far, tiny, ones).any()
        assert _refuted(far, tiny, np.full(3, 1e-312)).all()
        # q = +-1e-300 at offsets 1e300: c.q_k = 1e-400 underflows at raw
        # scale, but not at unit size; the maximum of (1e-100, 0, 0) is 1e200
        big, c = HalfspaceRegion(cube.normals, np.full(6, 1e300), 3), [[1e-100, 0.0, 0.0]]
        assert not _refuted(c, big, [1e250]).any() and _refuted(c, big, [1e199]).all()
        assert region_subset(big, HalfspaceRegion(c, [1e250], 3))
        assert not region_subset(big, HalfspaceRegion(c, [1e199], 3))
        # a row far below the largest, q = (0, +-1e-320, 0): h along e_1 is
        # subnormal at unit size, bits lost, so it refutes nothing (the
        # maximum of (0, 1e-100, 0) is 1e220, below 1e221)
        far_row = HalfspaceRegion(cube.normals * [1.0, 1e-20, 1.0],
                                  [1.0, 1e300, 1.0, 1.0, 1e300, 1.0], 3)
        assert not _refuted([[0.0, 1e-100, 0.0]], far_row, [1e221]).any()
        # c.c or L h(c) beyond the float range: no warning, and only
        # maxima above their limits refuted (the maximum over the cube is |c|_1)
        for scale, limit in ((1e300, 1e-300), (1e-300, 1e300), (1e200, 1e250), (1e-200, 1e-250)):
            refuted = _refuted(far * scale, cube, np.full(3, limit))
            assert (np.abs(far * scale).sum(axis=1)[refuted] > limit).all()

    def test_a_witness_is_as_deep_at_any_scale(self):
        # the cube |x|_inf <= 1e300 and a member row 1.5e-23 x_0 <= b: g's
        # boundary point along it is (1e300, 0, 0), whose support 1.5e-323
        # would be subnormal at raw scale and put the point past g, 1.35% out
        g = HalfspaceRegion(_box(3).normals, np.full(6, 1e300), 3)
        for reach, depth in ((1.005e300, -1.5e-23 * 0.005e300), (0.5e300, 1.5e-23 * 0.5e300)):
            b = HalfspaceRegion([[1.5e-23, 0.0, 0.0]], [1.5e-23 * reach], 3)
            x, found = union_witness(g, [b, b])
            assert (g.normals @ x <= g.offsets * (1.0 + 1e-12)).all()
            assert found == pytest.approx(depth, rel=1e-9)

    def test_a_limit_at_or_below_zero_is_refuted_by_every_boundary_point(self):
        # the boundary point along c != 0 has c.x = c.c / h(c) > 0
        objectives = np.array([[5.0, 0.0, 0.0], [0.0, -7.0, 3.0], [1e-100, 0.0, 0.0]])
        assert _refuted(objectives, _box(3), [0.0, -1.0, 0.0]).all()


class TestOriginOnly:
    def test_polar_of_a_spanning_cloud_at_radius_zero(self):
        # the points positively span the plane, so only delta = 0 has
        # p . delta <= 0 for all of them: the trivial certificate
        cloud = FinitePoints([[1.0, 0.0], [-0.6, 0.8], [-0.2, -0.9]])
        assert region_is_origin_only(polar_hrep(cloud, 0.0))

    def test_small_box_is_more_than_the_origin(self):
        assert not region_is_origin_only(box_region(1e-3))

    def test_halfplane_and_empty_region_are_not_the_origin(self):
        assert not region_is_origin_only(polar_hrep(FinitePoints([[1.0, 0.0]]), 0.0))
        empty = HalfspaceRegion([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                [-1.0, 0.0, 0.0, 0.0], 2)
        assert not region_is_origin_only(empty)


class TestPolarMonotonicity:
    """Polar sets shrink as the body grows and grow with the radius."""

    def _random_nested_sets(self, rng):
        base = rng.standard_normal((4, 2))
        extra = rng.standard_normal((3, 2))
        return base, np.vstack([base, extra])

    def test_difference_body_grows(self, rng):
        for _ in range(60):
            s1, s2 = self._random_nested_sets(rng)
            d1 = minkowski_sum(FinitePoints(s1), negate(FinitePoints(s1)))
            d2 = minkowski_sum(FinitePoints(s2), negate(FinitePoints(s2)))
            # containment of the bodies via their polars (both contain 0)
            assert region_subset(polar_hrep(d2, 1.0), polar_hrep(d1, 1.0))

    def test_polar_antitone_in_body(self, rng):
        for _ in range(60):
            s1, s2 = self._random_nested_sets(rng)
            r = rng.uniform(0.2, 2.0)
            assert region_subset(polar_hrep(FinitePoints(s2), r),
                                 polar_hrep(FinitePoints(s1), r))

    def test_polar_monotone_in_radius(self, rng):
        for _ in range(60):
            pts = FinitePoints(rng.standard_normal((5, 2)))
            r1 = rng.uniform(0.1, 1.0)
            r2 = r1 + rng.uniform(0.0, 1.0)
            assert region_subset(polar_hrep(pts, r1), polar_hrep(pts, r2))

    def test_pairwise_overapproximation(self, rng):
        for _ in range(60):
            s1, s3 = self._random_nested_sets(rng)
            s2, s4 = self._random_nested_sets(rng)
            r = rng.uniform(0.2, 2.0)
            big = minkowski_sum(FinitePoints(s3), negate(FinitePoints(s4)))
            small = minkowski_sum(FinitePoints(s1), negate(FinitePoints(s2)))
            assert region_subset(polar_hrep(big, r), polar_hrep(small, r))


class TestSymmetry:
    def test_difference_set_symmetric_membership(self, rng):
        base = unit_directions(32, seed=5)
        dirs = np.vstack([base, -base])  # sign-symmetric sample
        for _ in range(40):
            pts = rng.standard_normal((5, 2))
            body = minkowski_sum(FinitePoints(pts), negate(FinitePoints(pts)))
            x = rng.standard_normal(2) * 0.3
            inside = all(float(x @ d) <= support(body, d) + 1e-9 for d in dirs)
            inside_neg = all(float(-x @ d) <= support(body, d) + 1e-9 for d in dirs)
            if inside:
                assert inside_neg

    def test_symmetric_ball_doubles(self, rng):
        for p in (1.0, 2.0, np.inf):
            ball = LpBall(p, 0.7, [0, 0])
            doubled = minkowski_sum(ball, negate(ball))
            for d in unit_directions(32, seed=9):
                assert abs(support(doubled, d) - 2 * support(ball, d)) <= 1e-12


class TestCombinationExpansion:
    """Point sets are summed at once by minkowski_sum, through their hulls."""

    def test_2d_expansion_has_no_cap(self):
        # 101 extreme points on each side: 10,201 pairwise sums, over the cap,
        # but the 2D edge merge never forms them
        spatial = pytest.importorskip("scipy.spatial")
        angles = np.linspace(0, 2 * np.pi, 101, endpoint=False)
        circle = FinitePoints(np.column_stack([np.cos(angles), np.sin(angles)]))
        pts = minkowski_sum(circle, negate(circle)).points
        pairwise = brute_pairwise_differences(circle.points, circle.points)
        assert pts.shape == (202, 2)
        assert ({tuple(p) for p in pts}
                == {tuple(p) for p in pairwise[spatial.ConvexHull(pairwise).vertices]})

    def test_expansion_cap(self, rng):
        # in 4D only deduplication happens: 10,201 pairwise sums, just over the cap
        cloud = FinitePoints(rng.standard_normal((101, 4)))
        with pytest.raises(ValueError, match="10000-point cap"):
            minkowski_sum(cloud, negate(cloud))


_EIGHTHS = st.integers(-16, 16).map(lambda v: v / 8.0)


def _rows(draw, m: int, dim: int) -> np.ndarray:
    return np.array([[draw(_EIGHTHS) for _ in range(dim)] for _ in range(m)]).reshape(m, dim)


@st.composite
def bodies(draw, dim: int, depth: int = 0):
    """Any body variant in `dim` dimensions: one or many points, l_p balls
    with p in {1, 1.5, 2, 3, inf} off the origin, ellipsoids, and nested
    combinations with negated and zero-coefficient terms."""
    kinds = ["points", "lp", "ellipsoid"] + (["combination"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "points":
        return FinitePoints(_rows(draw, draw(st.sampled_from([1, 2, 9])), dim))
    if kind == "lp":
        p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
        return LpBall(p, draw(st.integers(0, 16)) / 8.0, _rows(draw, 1, dim)[0])
    if kind == "ellipsoid":
        root = _rows(draw, dim, dim)
        return Ellipsoid(root @ root.T + 0.25 * np.eye(dim), draw(st.integers(0, 16)) / 8.0)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff, body = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])), draw(bodies(dim, depth + 1))
        terms.append((coeff, body.negate() if draw(st.booleans()) else body))
    return Combination(tuple(terms))


@st.composite
def direction_stacks(draw, dim: int):
    """Stacks of 7, 1 or 0 directions, zero rows included."""
    dirs = _rows(draw, draw(st.sampled_from([7, 1, 0])), dim)
    if len(dirs) and draw(st.booleans()):
        dirs[draw(st.integers(0, len(dirs) - 1))] = 0.0
    return dirs


def _close(values, expected) -> bool:
    return all(v == e or abs(v - e) <= 1e-12 * max(1.0, abs(e))
               for v, e in zip(values, expected))


class TestDirectionStacks:
    """support, ray_extent and contains take one direction (d,) or a stack
    (m, d); a stack answers each row as the single-direction call does."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_support_stack_matches_rows(self, data):
        dim = data.draw(st.integers(1, 4))
        body = data.draw(bodies(dim))
        dirs = data.draw(direction_stacks(dim))
        for values in (body.support(dirs), support(body, dirs)):
            assert isinstance(values, np.ndarray) and values.shape == (len(dirs),)
            rows = [body.support(u) for u in dirs]
            assert all(isinstance(v, float) for v in rows)
            assert _close(values, rows)
            assert _close(values, [reference_support(body, u) for u in dirs])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_certificate_stack_matches_rows(self, data):
        dim = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(2, 3))
        logits = [data.draw(st.integers(0, 8)) / 8.0 for _ in range(k)]
        per_class = [data.draw(bodies(dim, depth=1)) for _ in range(k)]
        smoothness = data.draw(st.sampled_from([
            Uniform(per_class[0]),
            ClassWise(tuple(per_class)),
            ClassDiff({(i, j): per_class[i] for i in range(k) for j in range(k) if i != j}),
        ]))
        cert = s_certificate(ClassifierAtPoint(logits, smoothness), smoothness.mode)
        dirs = data.draw(direction_stacks(dim))
        extents = cert.ray_extent(dirs)
        assert extents.shape == (len(dirs),)
        assert _close(extents, [cert.ray_extent(u) for u in dirs])
        assert _close(extents, [reference_extent(cert, u) for u in dirs])
        assert np.all(extents[~dirs.any(axis=1)] == math.inf)
        inside = cert.contains(dirs)
        assert inside.dtype == bool and inside.shape == (len(dirs),)
        assert list(inside) == [cert.contains(u) for u in dirs]

    @pytest.mark.parametrize("bad", [
        np.array([[1.0, np.nan]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.zeros((3, 3)), np.zeros((2, 1)), np.zeros((2, 2, 2)), np.zeros(0),
    ])
    def test_bad_stacks_rejected(self, bad):
        cert = s_certificate(ClassifierAtPoint([0.6, 0.4], Uniform(LpBall(2, 1.0, [0.1, 0.0]))), "u")
        body = Combination(((1.0, FinitePoints([[1.0, 0.0]])),
                            (0.5, Ellipsoid(np.eye(2), 1.0))))
        for call in (body.support, body.terms[0][1].support, body.terms[1][1].support,
                     LpBall(2, 1.0, [0.0, 0.0]).support, cert.ray_extent, cert.contains):
            with pytest.raises(ValueError):
                call(bad)

    def test_point_cloud_stack_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        cloud = FinitePoints(rng.standard_normal((5_000, 2)))
        dirs = unit_directions(10_000)
        dense = dirs.shape[0] * cloud.points.shape[0] * 8
        tracemalloc.start()
        try:
            values = cloud.support(dirs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense / 50
        assert _close(values[:50], [brute_support(cloud.points, u) for u in dirs[:50]])


class TestSupportPoint:
    """Each variant's support_point(u) is a point of the body whose value
    along u is the body's support (the attained maximum)."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_attains_the_support_inside_the_body(self, data):
        dim = data.draw(st.integers(1, 4))
        body = data.draw(bodies(dim))
        probes = data.draw(direction_stacks(dim))
        for u in data.draw(direction_stacks(dim)):
            x = body.support_point(u)
            assert x.shape == (dim,) and np.all(np.isfinite(x))
            expected = reference_support(body, u)
            scale = 1.0 + np.linalg.norm(u) * np.linalg.norm(x) + abs(expected)
            assert abs(float(u @ x) - expected) <= 1e-9 * scale
            for v in np.vstack([probes, unit_directions(16, dim=dim, seed=3)]):
                bound = support(body, v)
                scale = 1.0 + np.linalg.norm(v) * np.linalg.norm(x) + abs(bound)
                assert float(v @ x) <= bound + 1e-9 * scale

    @pytest.mark.parametrize("variant", [FinitePoints, LpBall, Ellipsoid, Combination])
    def test_each_variant_defines_its_own_protocol(self, variant):
        # perfbench/tracer.py wraps `support` through each class's own dict
        for name in ("support", "support_point", "negate", "scale", "degenerate"):
            assert name in vars(variant), f"{variant.__name__}.{name}"


class TestCombinationHoldsABall:
    """minkowski_sum sums two point sets at once, so a combination always
    holds a term that is not a point set, and polar_hrep rejects it whole."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_every_fold_of_leaves_keeps_a_term_that_is_not_a_point_set(self, data):
        dim = data.draw(st.integers(1, 3))
        pool = [data.draw(bodies(dim, depth=2)) for _ in range(3)]  # leaves only
        for _ in range(data.draw(st.integers(1, 6))):
            op = data.draw(st.sampled_from(["sum", "negate", "scale", "weighted_sum"]))
            a, b = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
            factor = data.draw(st.sampled_from([0.0, 0.5, 2.5]))
            pool.append(minkowski_sum(a, b) if op == "sum"
                        else negate(a) if op == "negate"
                        else scale(factor, a) if op == "scale"
                        else weighted_sum([a, b], [factor, 1.0]))
        for body in pool:
            if isinstance(body, Combination):
                assert any(not isinstance(term, FinitePoints) for _, term in body.terms)
                with pytest.raises(ValueError, match="does not reduce to a finite point set"):
                    polar_hrep(body, 1.0)

    def test_polar_hrep_rejects_a_combination_before_pruning(self, monkeypatch):
        runs = []
        prune = geo._prune
        monkeypatch.setattr(geo, "_prune", lambda body: runs.append(body) or prune(body))
        cloud = FinitePoints([[1.0, 0.0], [0.0, 1.0], [0.25, 0.25]])
        body = minkowski_sum(cloud, LpBall(2, 0.5, [0.0, 0.0]))
        assert isinstance(body, Combination) and body.terms[0][1] is cloud
        with pytest.raises(ValueError, match="does not reduce to a finite point set"):
            polar_hrep(body, 1.0)
        assert runs == []


_SQUARE = HalfspaceRegion(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), 2)
_SEGMENT = HalfspaceRegion([[1.0], [-1.0]], [1.0, 1.0], 1)


class TestMalformedInputRaises:
    """Every check on malformed input reaches the caller with its message."""

    @pytest.mark.parametrize("make, message", [
        (lambda: LpBall(0.5, 1.0, [0.0, 0.0]), r"p must lie in \[1, inf\]"),
        (lambda: geo.dual_exponent(0.5), r"p must lie in \[1, inf\]"),
        (lambda: Ellipsoid(np.ones((2, 3)), 1.0), "sigma must be square"),
        (lambda: Ellipsoid(np.diag([1.0, -1.0]), 1.0), "sigma must be positive definite"),
        (lambda: Ellipsoid(np.eye(2), -1.0), "radius must be a finite nonnegative real"),
        (lambda: Ellipsoid(np.eye(2), math.inf), "radius must be a finite nonnegative real"),
        (lambda: polar_dual_ball(FinitePoints([[1.0, 0.0]]), 1.0),
         "polar_dual_ball applies to ball variants only"),
        (lambda: polar_dual_ball(LpBall(2, 1.0, [0.0, 0.0]), -1.0),
         "polar radius must be a nonnegative real"),
        (lambda: polar_hrep(FinitePoints([[1.0, 0.0]]), -1.0),
         "polar radius must be a nonnegative real"),
        (lambda: Combination(()), "a combination needs at least one term"),
        (lambda: Combination(((-1.0, LpBall(2, 1.0, [0.0, 0.0])),)),
         "combination coefficients must be nonnegative reals"),
        (lambda: Combination(((1.0, LpBall(2, 1.0, [0.0, 0.0])),
                              (1.0, LpBall(2, 1.0, [0.0, 0.0, 0.0])))),
         "all combination terms must share one dimension"),
        (lambda: HalfspaceRegion(np.eye(2), [1.0], 2),
         "each halfspace needs one normal and one offset"),
        (lambda: HalfspaceRegion(np.eye(2), [1.0, math.nan], 2), "halfspace data must be finite"),
        (lambda: HalfspaceRegion([[math.inf, 0.0]], [1.0], 2), "halfspace data must be finite"),
        (lambda: _SQUARE.intersect(_SEGMENT), "dimension mismatch in region intersection"),
        (lambda: region_subset(_SQUARE, _SEGMENT), "dimension mismatch in containment test"),
        (lambda: region_minus_subset(_SQUARE, [_SQUARE], _SEGMENT),
         "dimension mismatch in containment test"),
    ])
    def test_the_message(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_the_polar_of_a_zero_ellipsoid_is_the_whole_space(self):
        assert polar_dual_ball(Ellipsoid(np.eye(2), 0.0), 1.0) == WholeSpace(2)
