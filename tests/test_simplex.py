"""The LP paths against a vertex-enumeration oracle, scipy and edge cases,
the batched 2D path against the simplex, the rules of the array answers, and
one objective as a stack of one."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_stack_matches_solves, vertex_enum_max
from scert import _simplex
from scert._simplex import OPTIMAL, UNBOUNDED, _solve_stack, maximize
from scert.geometry import HalfspaceRegion, lp_maximize, region_minus_subset

INFEASIBLE = "infeasible"


def status(value) -> str:
    """The outcome an answer stands for: +inf unbounded, -inf an empty region."""
    return {math.inf: UNBOUNDED, -math.inf: INFEASIBLE}.get(value, OPTIMAL)


def solve_one(objective, A, b):
    """The public call's maximum and point for one objective, a stack of one."""
    (value,), (point,) = maximize(objective[None, :], A, b)
    return value, point


def simplex_alone(objective, A, b):
    """The simplex's maximum and point for one objective, whatever the region."""
    (value,), (point,) = _solve_stack(objective[None, :], A, b, np.full(1, math.inf))
    return value, point


# every oracle test runs on the public call and on the simplex itself, which
# the public call bypasses for 1D regions and 2D regions whose rows span the plane
both_paths = pytest.mark.parametrize("solve", [solve_one, simplex_alone],
                                     ids=["maximize", "simplex"])


class TestBasics:
    def test_box_maximum(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([2.0, 2.0, 1.0, 1.0])
        value, point = solve_one(np.array([1.0, 0.0]), A, b)
        assert abs(value - 2.0) < 1e-9 and abs(point[0] - 2.0) < 1e-9

    def test_unbounded_direction(self):
        value, point = solve_one(np.array([1.0, 0.0]), np.array([[-1.0, 0.0]]), np.array([1.0]))
        assert value == math.inf and np.isnan(point).all()

    def test_infeasible(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([-2.0, 1.0])  # x <= -2 and x >= -1
        value, point = solve_one(np.array([1.0, 0.0]), A, b)
        assert value == -math.inf and np.isnan(point).all()

    def test_negative_rhs_feasible(self):
        # x >= 1 (as -x <= -1), x <= 3
        A = np.array([[-1.0], [1.0]])
        b = np.array([-1.0, 3.0])
        value, _ = solve_one(np.array([-1.0]), A, b)
        assert abs(value - (-1.0)) < 1e-9

    def test_zero_objective(self):
        value, _ = solve_one(np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))
        assert abs(value) < 1e-12

    def test_no_constraints(self):
        assert maximize(np.zeros((1, 3)), np.zeros((0, 3)), np.zeros(0))[0].tolist() == [0.0]
        assert maximize(np.array([[0.0, 1.0]]), np.zeros((0, 2)),
                        np.zeros(0))[0].tolist() == [math.inf]

    def test_degenerate_duplicate_rows(self):
        A = np.array([[1.0, 0.0]] * 5 + [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0] * 5 + [0.0, 1.0, 1.0])
        value, _ = solve_one(np.array([1.0, 1.0]), A, b)
        assert abs(value - 2.0) < 1e-9


class TestAgainstVertexEnumeration:
    @both_paths
    def test_random_bounded_regions(self, solve):
        rng = np.random.default_rng(7)
        box = np.vstack([np.eye(2), -np.eye(2)])
        for _ in range(300):
            m = rng.integers(3, 9)
            normals = np.vstack([rng.standard_normal((m, 2)), box])
            offsets = np.concatenate([rng.uniform(0.2, 2.0, size=m),
                                      np.full(4, 5.0)])
            objective = rng.standard_normal(2)
            value, point = solve(objective, normals, offsets)
            assert math.isfinite(value)
            expected = vertex_enum_max(objective, normals, offsets)
            assert abs(value - expected) <= 1e-9
            assert np.all(normals @ point <= offsets + 1e-9)


class TestAgainstScipy:
    """Cross-check against an external solver when one is installed,
    exercising the phase-1 path with negative right-hand sides."""

    @both_paths
    def test_random_general_problems(self, solve):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(17)
        statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
        for _ in range(400):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(1, 4))
            normals = rng.standard_normal((m, n))
            offsets = rng.uniform(-1.0, 2.0, size=m)
            objective = rng.standard_normal(n)
            value, _ = solve(objective, normals, offsets)
            # HiGHS's presolve calls some of these unbounded problems infeasible
            ref = linprog(-objective, A_ub=normals, b_ub=offsets,
                          bounds=[(None, None)] * n, method="highs", options={"presolve": False})
            if ref.status == 2:
                assert value == -math.inf
            elif ref.status == 3:
                assert value == math.inf
            else:
                assert abs(value - (-ref.fun)) <= 1e-7
            statuses[status(value)] += 1
        # the sample actually exercises all three outcomes
        assert min(statuses.values()) > 0


_EIGHTHS = st.integers(-24, 24).map(lambda v: v / 8.0)


@st.composite
def planar_regions(draw):
    """A 2D region {x : A x <= b} whose rows include zero rows, exact and
    near-parallel copies of earlier rows, and negative offsets (empty or
    unbounded regions), plus objectives that include its own normals."""
    rows = [np.array([draw(_EIGHTHS), draw(_EIGHTHS)])]
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["free", "zero", "parallel", "near_parallel"]))
        earlier = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "free":
            rows.append(np.array([draw(_EIGHTHS), draw(_EIGHTHS)]))
        elif kind == "zero":
            rows.append(np.zeros(2))
        elif kind == "parallel":
            rows.append(draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 3.0])) * earlier)
        else:
            # at tilts of 1e-4 and below the simplex drifts: in the cases
            # found, rational arithmetic agreed with the 2D path
            tilt = draw(st.sampled_from([1e-3, 1e-2]))
            rows.append(earlier + tilt * np.array([draw(_EIGHTHS), draw(_EIGHTHS)]))
    A = np.array(rows)
    b = np.array([draw(st.integers(-8, 16)) / 8.0 for _ in rows])
    free = [np.array([draw(_EIGHTHS), draw(_EIGHTHS)]) for _ in range(draw(st.integers(0, 4)))]
    own = [A[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    objectives = np.array(free + own + [np.array([1.0, 0.0])])
    return A, b, objectives


class TestBatchedPlanarPath:
    """The batched call answers 2D regions from their vertices and rays; the
    simplex is the reference it must agree with."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(planar_regions())
    def test_agrees_with_the_simplex(self, region):
        A, b, objectives = region
        values, points = maximize(objectives, A, b)
        assert values.shape == (len(objectives),) and points.shape == objectives.shape
        for objective, value, point in zip(objectives, values, points):
            ref, _ = simplex_alone(objective, A, b)
            assert status(value) == status(ref)
            if math.isfinite(ref):
                assert abs(value - ref) <= 1e-7 * max(1.0, abs(ref))
                assert abs(objective @ point - value) <= 1e-9 * max(1.0, abs(value))

    @pytest.mark.parametrize("A, b, objective, expected", [
        # rows 2 and 3 are nearly antiparallel: the region runs out to a
        # vertex near (6672, 2778)
        ([[-0.24750427681674061, 0.33428495232057304],
          [-0.3688541137884139, -0.6189217737634494],
          [-0.44827557633104403, 1.0768429378405813],
          [0.5313060166583986, -1.2759913328237893]],
         [0.48172066271198205, 0.987138005746899, 0.9422774831232736, -0.265355672548193],
         [1.0979603410618832, 0.25439962051475684], 8032.23),
        # two halfplanes 1.5e-6 rad apart meet only near (5.2e6, 4.2e6); a
        # vertex tolerance scaled by |b| alone, not |a|.|v|, finds the
        # region empty
        ([[-1.217753558838764, 1.5284057628668868],
          [-1.2177516800856085, 1.528403274115387]],
         [0.17098408458455872, -0.3740697504288001],
         [-1.217753558838764, 1.5284057628668868], 0.17098408),
    ])
    def test_far_vertex_of_a_thin_sliver(self, A, b, objective, expected):
        A, b, objective = np.array(A), np.array(b), np.array(objective)
        ref, _ = simplex_alone(objective, A, b)
        value, _ = solve_one(objective, A, b)
        assert ref == pytest.approx(expected, rel=1e-6)
        assert abs(value - ref) <= 1e-7 * max(1.0, abs(ref))

    @pytest.mark.parametrize("A, b", [
        (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)),          # 2D path
        (np.array([[1.0, 0.0], [-1.0, 0.0]] * 2), np.ones(4)),      # rank 1: simplex
        (np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),          # 3D: simplex
    ])
    def test_batch_stops_at_the_first_result_over_its_limit(self, A, b):
        # every normal of A has maximum 1 over the region
        limits = np.full(len(A), 2.0)
        assert maximize(A, A, b, limits)[0] == pytest.approx(np.ones(len(A)))
        limits[1] = 0.5
        values, points = maximize(A, A, b, limits)
        assert len(values) == len(points) == 2 and values[-1] > 0.5

    def test_each_vertex_is_listed_once(self):
        # the unit square: four boundary lines, each left at one corner
        A = np.vstack([np.eye(2), -np.eye(2)])
        vertices, rays = _simplex._polygon(A, np.array([1.0, 1.0, 0.0, 0.0]))
        assert sorted(vertices.tolist()) == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert rays.shape == (0, 2)

    def test_empty_region_stops_at_once(self):
        # the region is found empty once, and every objective answers -inf
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        b = np.array([-1.0, 0.0, 1.0])  # x <= -1 and x >= 0
        values, points = maximize(np.eye(2), A, b)
        assert values.tolist() == [-math.inf] * 2 and np.isnan(points).all()


# x >= -1 and |y| <= 1 (and |z| <= 1): the objectives e_0, -e_0 and e_1 have
# the maxima inf, 1 and 1; another row x <= -2 makes the region empty
ARRAY_PATHS = {
    "polygon": (np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(3)),
    "simplex": (np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                          [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), np.ones(5)),
}


class TestArrayAnswers:
    """The rules of the arrays `maximize` returns, on both paths: +inf (an
    unbounded maximum) exceeds every finite limit but not +inf, -inf (an empty
    region) exceeds no limit, and the answers stop after the first that
    exceeds its limit, with no later objective solved."""

    @pytest.fixture(params=list(ARRAY_PATHS))
    def case(self, request, monkeypatch):
        A, b = ARRAY_PATHS[request.param]
        solved, phase2 = [], _simplex._phase2
        monkeypatch.setattr(_simplex, "_phase2", lambda *args: solved.append(1) or phase2(*args))
        objectives = np.eye(A.shape[1])[[0, 0, 1]] * np.array([[1.0], [-1.0], [1.0]])
        return objectives, A, b, solved, request.param == "simplex"

    def test_unbounded_exceeds_every_finite_limit_but_not_inf(self, case):
        objectives, A, b, solved, simplex = case
        for limit in (-1e308, 0.0, 1e308):
            values, points = maximize(objectives, A, b, [limit, 5.0, 5.0])
            assert values.tolist() == [math.inf] and np.isnan(points).all()
        values, points = maximize(objectives, A, b, [math.inf, 5.0, 5.0])
        assert values.tolist() == [math.inf, 1.0, 1.0]
        assert (objectives[1:] * points[1:]).sum(axis=1).tolist() == [1.0, 1.0]
        assert len(solved) == (6 if simplex else 0)

    def test_an_empty_region_exceeds_no_limit(self, case):
        objectives, A, b, solved, _ = case
        A, b = np.vstack([A, np.eye(A.shape[1])[:1]]), np.append(b, -2.0)
        values, points = maximize(objectives, A, b, [-math.inf, -1e308, 0.0])
        assert values.tolist() == [-math.inf] * 3 and np.isnan(points).all()
        assert solved == []

    def test_the_answers_stop_after_the_first_over_its_limit(self, case):
        # the third maximum is above its limit too, but it is never reached
        objectives, A, b, solved, simplex = case
        values, points = maximize(objectives, A, b, [math.inf, 0.5, 0.0])
        assert values.tolist() == [math.inf, 1.0] and points.shape == (2, A.shape[1])
        assert len(solved) == (2 if simplex else 0)


def pairwise(objectives, A, b):
    """The maxima and points of the 2D path that meets every pair of boundary
    lines; none when the rows do not span the plane."""
    polygon = _simplex._polygon(A, b)
    return ([], []) if polygon is None else _simplex._polygon_results(objectives, *polygon)


def _assert_agree(objectives, A, b):
    """maximize agrees with the simplex and with the pairwise path, in status
    and in value; a value is c.x, so it is compared in the units of |c| |x|,
    which a far vertex makes large."""
    values, _ = maximize(objectives, A, b)
    for objective, value, line, point in zip(objectives, values, *pairwise(objectives, A, b)):
        assert status(value) == status(line)
        if math.isfinite(value):
            scale = max(1.0, np.linalg.norm(objective) * np.linalg.norm(point))
            assert abs(value - line) <= 1e-9 * scale
    for objective, value in zip(objectives, values):
        ref, point = simplex_alone(objective, A, b)
        assert status(value) == status(ref)
        if math.isfinite(ref):
            scale = max(1.0, np.linalg.norm(objective) * np.linalg.norm(point))
            assert abs(value - ref) <= 1e-7 * scale


@st.composite
def star_regions(draw):
    """A 2D region whose offsets are all positive, with its rows scaled so
    that 0 lies on, just inside or just outside the edge of the hull of the
    points a_k / b_k between p and q; the other points lie on the inner side
    of that edge, and zero and repeated rows ride along.  The objectives
    include the edge's outward normal, its direction and the rows."""
    p = np.array([draw(_EIGHTHS), draw(_EIGHTHS)])
    if not p.any():
        p = np.array([1.0, 0.0])
    normal = np.array([p[1], -p[0]])  # right of the line from p through 0
    tilt = draw(st.sampled_from([0.0, 1e-6, -1e-6, 1e-3, -1e-3, 0.1]))
    q = -draw(st.sampled_from([0.25, 1.0, 3.0])) * p - tilt * normal
    points = [p, q]
    for _ in range(draw(st.integers(0, 6))):
        point = np.array([draw(_EIGHTHS), draw(_EIGHTHS)])
        kind = draw(st.sampled_from(["free", "zero", "repeat"]))
        if kind == "zero":
            point = np.zeros(2)
        elif kind == "repeat":
            point = points[draw(st.integers(0, len(points) - 1))]
        elif point @ normal > 0.0:
            point = -point  # onto the inner side of the edge
        points.append(point)
    b = np.array([draw(st.integers(1, 16)) / 8.0 for _ in points])
    A = np.array(points) * b[:, None]
    free = [np.array([draw(_EIGHTHS), draw(_EIGHTHS)]) for _ in range(draw(st.integers(0, 3)))]
    objectives = np.array(free + [normal, p, -p, A[-1], np.array([1.0, 0.0])])
    return A, b, objectives


class TestStarShapedRegions:
    """A region whose offsets are all positive is answered from the ordered
    hull of its points a_k / b_k and 0; the simplex and the path that meets
    every pair of boundary lines are the references."""

    def test_origin_on_a_hull_edge(self):
        # the hull edge from (-1, 0) to (1, 0) passes through 0, so the
        # pairwise path answers
        A, b = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.ones(3)
        assert _simplex._star_polygon(A, b) is None
        values, _ = maximize(np.array([[0.0, -1.0], [0.0, 1.0], [1.0, 1.0]]), A, b)
        assert values.tolist() == [math.inf, 1.0, 2.0]
        _assert_agree(np.array([[0.0, -1.0], [1.0, 0.0], [1.0, -1e-3]]), A, b)

    def test_origin_a_hull_vertex(self):
        A, b = np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 2.0])
        vertices, rays = _simplex._star_polygon(A, b)
        assert vertices.tolist() == [[1.0, 1.0]]
        assert sorted(rays.tolist()) == [[-1.0, -0.0], [0.0, -1.0]]
        objectives = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -1e-3]])
        assert list(map(status, maximize(objectives, A, b)[0])) == [OPTIMAL] + [UNBOUNDED] * 3
        _assert_agree(objectives, A, b)

    def test_far_vertex_of_a_thin_sliver(self):
        # 0 lies 1e-6 inside the hull edge from (1e-6, -1) to (0, 1): the
        # region runs out to the vertex (2e6, 1)
        A, b = np.array([[0.0, 1.0], [1e-6, -1.0], [-1.0, 0.0]]), np.ones(3)
        vertices, _ = _simplex._star_polygon(A, b)
        assert np.abs(vertices - [2e6, 1.0]).max(axis=1).min() <= 1e-9
        assert solve_one(np.array([1.0, 0.0]), A, b)[0] == pytest.approx(2e6, rel=1e-12)
        _assert_agree(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, -1.0]]), A, b)

    def test_repeated_and_zero_rows(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 1.0],
                      [-1.0, -1.0], [0.0, 0.0]])
        b = np.array([1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0])
        assert _simplex._star_polygon(A, b)[0].shape == (3, 2)
        _assert_agree(np.vstack([A, [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]]), A, b)

    @pytest.mark.parametrize("row", [[1e9, 0.0], [0.0, -1e12]])
    def test_a_point_beyond_the_float_range_meets_the_lines_pairwise(self, row):
        # a / b overflows, so the pairwise path answers; the box around it
        # keeps the region bounded
        A = np.vstack([[row], np.eye(2), -np.eye(2)])
        b = np.array([1e-300, 1.0, 1.0, 1.0, 1.0])
        assert _simplex._star_polygon(A, b) is None
        _assert_agree(np.vstack([np.eye(2), -np.eye(2)]), A, b)

    def test_points_far_from_unit_size(self):
        # every a / b is finite, and its hull is walked at unit size
        A = np.vstack([np.eye(2), -np.eye(2)])
        for offset in (1e-300, 1e300):
            vertices, rays = _simplex._star_polygon(A, np.full(4, offset))
            corners = [[s * offset, t * offset] for s in (-1, 1) for t in (-1, 1)]
            assert np.array(sorted(vertices.tolist())) == pytest.approx(np.array(corners),
                                                                        rel=1e-15)
            assert rays.shape == (0, 2)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(star_regions())
    def test_agrees_with_the_simplex_and_the_pairwise_path(self, region):
        A, b, objectives = region
        _assert_agree(objectives, A, b)

    def test_only_a_carve_piece_meets_its_lines_pairwise(self, monkeypatch):
        offsets, pairwise_path = [], _simplex._polygon
        monkeypatch.setattr(_simplex, "_polygon",
                            lambda A, b: offsets.append(b) or pairwise_path(A, b))
        box = np.vstack([np.eye(2), -np.eye(2)])
        a, b = HalfspaceRegion(box, np.ones(4), 2), HalfspaceRegion(box, np.full(4, 2.0), 2)
        maximize(box, box, np.ones(4))
        assert offsets == []
        # each piece of a less the carve has one flipped row, with a negative offset
        assert region_minus_subset(a, [HalfspaceRegion(box, np.full(4, 0.5), 2)], b)
        assert len(offsets) == 4 and all((o <= 0.0).any() for o in offsets)


def _random_3d_regions(seed: int, count: int):
    """3D regions with negative offsets, so phase 1 runs: bounded, empty and
    unbounded ones, each with a stack of objectives."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 12))
        yield (rng.standard_normal((int(rng.integers(1, 6)), 3)),
               rng.standard_normal((m, 3)), rng.uniform(-1.0, 2.0, size=m))


def _random_1d_regions(seed: int, count: int):
    """1D regions with zero rows and negative offsets, so some are empty and
    some unbounded, each with a stack of objectives, some of them 0."""
    rng = np.random.default_rng(seed)

    def some_zeros(shape):
        return np.where(rng.random(shape) < 0.15, 0.0, rng.standard_normal(shape))

    for _ in range(count):
        m = int(rng.integers(0, 6))
        objectives, A = some_zeros((int(rng.integers(1, 6)), 1)), some_zeros((m, 1))
        yield objectives, A, rng.uniform(-1.0, 2.0, size=m)


class TestIntervalPath:
    """A region of the line is the interval between its two ends, each one
    ratio b_k / a_k; no 1D region reaches the simplex unless a ratio
    overflows inward (the region holds no float)."""

    OBJECTIVES = np.array([[1.0], [-1.0], [0.0]])

    def test_random_regions_against_scipy(self, monkeypatch):
        linprog = pytest.importorskip("scipy.optimize").linprog
        monkeypatch.setattr(_simplex, "_solve_stack", None)  # never called
        statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
        for objectives, A, b in _random_1d_regions(42, 400):
            values, points = maximize(objectives, A, b)
            for c, value, point in zip(objectives, values, points):
                ref = linprog(-c, A_ub=A if len(A) else None, b_ub=b if len(A) else None,
                              bounds=[(None, None)], method="highs", options={"presolve": False})
                if ref.status == 2:
                    assert value == -math.inf and np.isnan(point).all()
                elif ref.status == 3:
                    assert value == math.inf and np.isnan(point).all()
                else:
                    assert abs(value - (-ref.fun)) <= 1e-7 and value == c[0] * point[0]
                statuses[status(value)] += 1
        assert min(statuses.values()) > 0

    def test_a_stack_equals_its_objectives_one_at_a_time(self):
        for objectives, A, b in _random_1d_regions(43, 300):
            values, points = maximize(objectives, A, b)
            solves = [solve_one(c, A, b) for c in objectives]
            assert_stack_matches_solves(objectives, values, points, solves, exact=True)
            # a power of two on the rows moves no bit of the ends
            scaled, _ = maximize(objectives, np.ldexp(A, 300), b)
            assert np.ldexp(scaled, 300).tobytes() == values.tobytes()

    @pytest.mark.parametrize("A, b, values, points", [
        ([], [], [math.inf, math.inf, 0.0], [math.nan, math.nan, 0.0]),  # no rows
        ([0.0, 1.0], [-1.0, 2.0], [-math.inf] * 3, [math.nan] * 3),  # 0 x <= -1
        ([1.0, -1.0], [1.0, -2.0], [-math.inf] * 3, [math.nan] * 3),  # x <= 1 and x >= 2
        ([1.0, -1.0], [1.0, -1.0], [1.0, -1.0, 0.0], [1.0] * 3),  # x = 1
        ([2.0, -4.0], [1.0, 2.0], [0.5, 0.5, 0.0], [0.5, -0.5, 0.0]),  # 0 inside
        # -0.2 x <= 1e308 bounds x only below -5e308, past the float range
        ([-0.2, 1.0], [1e308, 3.0], [3.0, math.inf, 0.0], [3.0, math.nan, 0.0]),
        ([1e-10, -1.0], [1e308, -3.0], [math.inf, -3.0, 0.0], [math.nan, 3.0, 3.0]),
    ])
    def test_edges(self, A, b, values, points):
        A, b = np.reshape(A, (-1, 1)), np.array(b)
        got_values, got_points = maximize(self.OBJECTIVES, A, b)
        assert got_values.tolist() == values
        assert np.array_equal(got_points[:, 0], points, equal_nan=True)

    def test_an_inward_overflow_goes_to_the_simplex(self):
        # 1e-10 x <= -1e308 holds only x <= -1e318, past the float range: its
        # end reads neither as an empty region nor as the whole line
        A, b = np.array([[1e-10]]), np.array([-1e308])
        assert _simplex._interval(self.OBJECTIVES, A, b) is None
        values, points = maximize(self.OBJECTIVES, A, b)
        ref_values, ref_points = _solve_stack(self.OBJECTIVES, A, b, np.full(3, math.inf))
        assert values.tobytes() == ref_values.tobytes()
        assert points.tobytes() == ref_points.tobytes()


class TestStackedSimplex:
    """A stack of objectives in d >= 3 runs phase 1 once and starts each
    objective it has not answered from its tableau; an optimal basis also
    answers every later objective it passes.  Each answer must match the
    simplex's for that objective alone (`assert_stack_matches_solves`)."""

    def test_stack_equals_one_solve_per_objective(self):
        statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
        for objectives, A, b in _random_3d_regions(16, 300):
            values, points = maximize(objectives, A, b)
            assert len(values) == len(points) == len(objectives)
            solves = [simplex_alone(c, A, b) for c in objectives]
            assert_stack_matches_solves(objectives, values, points, solves)
            for value in values:
                statuses[status(value)] += 1
        assert min(statuses.values()) > 0

    def test_phase1_runs_once_per_batch(self, monkeypatch):
        runs = []
        phase1 = _simplex._phase1
        monkeypatch.setattr(_simplex, "_phase1", lambda A, b: runs.append(1) or phase1(A, b))
        for objectives, A, b in _random_3d_regions(17, 50):
            runs.clear()
            maximize(objectives, A, b)
            assert len(runs) == 1
            runs.clear()
            maximize(objectives[:1], A, b)
            assert len(runs) == 1

    @staticmethod
    def _counted(monkeypatch, name: str) -> list:
        """Calls of `_simplex.<name>` from now on, one entry each."""
        calls, function = [], getattr(_simplex, name)
        monkeypatch.setattr(_simplex, name, lambda *args: calls.append(1) or function(*args))
        return calls

    def test_one_vertex_answers_every_objective_in_its_normal_cone(self, monkeypatch):
        # the vertex (1, 1, 1) of the box is tight on the rows e_1, e_2 and e_3,
        # so its basis is optimal for every positive mix of the three
        A, b = np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)
        objectives = np.random.default_rng(22).uniform(0.1, 2.0, size=(8, 3))
        runs = self._counted(monkeypatch, "_run")
        values, points = maximize(objectives, A, b)
        assert len(runs) == 1
        assert points.tolist() == [[1.0, 1.0, 1.0]] * 8
        assert values.tolist() == [float(c @ np.ones(3)) for c in objectives]

    def test_stacks_agree_with_scipy(self, monkeypatch):
        linprog = pytest.importorskip("scipy.optimize").linprog
        solves = self._counted(monkeypatch, "_phase2")
        rng = np.random.default_rng(23)
        statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
        feasible_answers = 0
        for _, A, b in _random_3d_regions(23, 150):
            objectives = rng.standard_normal((int(rng.integers(2, 9)), 3))
            values, _ = maximize(objectives, A, b)
            for c, value in zip(objectives, values):
                # HiGHS's presolve calls some of these unbounded problems infeasible
                ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(None, None)] * 3, method="highs",
                              options={"presolve": False})
                if ref.status == 2:
                    assert value == -math.inf
                elif ref.status == 3:
                    assert value == math.inf
                else:
                    assert abs(value - (-ref.fun)) <= 1e-7
                statuses[status(value)] += 1
            feasible_answers += int(values[0] > -math.inf) * len(values)
        assert min(statuses.values()) > 0
        assert len(solves) < feasible_answers  # some answers reused a basis

    def test_cost_ledger(self, monkeypatch):
        # the simplex runs (phase 1 and phase 2) and pivots of a fixed sample;
        # a change that moves them changes what every 3D query costs
        runs = self._counted(monkeypatch, "_run")
        pivots = self._counted(monkeypatch, "_pivot")
        for objectives, A, b in _random_3d_regions(16, 300):
            maximize(objectives, A, b)
        assert (len(runs), len(pivots)) == (835, 2022)


def _bland_run(tableau, basis, cost, allowed):
    """`_simplex._run` as Bland's rule reads, one index at a time: the lowest
    allowed column whose reduced cost is above FEASIBILITY_TOL enters, and of
    the rows whose ratio is within RATIO_TIE_TOL of the least the one with
    the lowest basis index leaves."""
    m = tableau.shape[0] - 1
    tableau[-1, :-1] = cost - cost[basis] @ tableau[:-1, :-1]
    tableau[-1, -1] = 0.0
    while True:
        eligible = [j for j in range(allowed.size)
                    if allowed[j] and tableau[-1, j] > _simplex.FEASIBILITY_TOL]
        if not eligible:
            return OPTIMAL
        col = eligible[0]
        ratios = {r: tableau[r, -1] / tableau[r, col] for r in range(m)
                  if tableau[r, col] > _simplex.PIVOT_TOL}
        if not ratios:
            return UNBOUNDED
        best = min(ratios.values())
        ties = [r for r, ratio in ratios.items() if ratio <= best + _simplex.RATIO_TIE_TOL]
        _simplex._pivot(tableau, basis, min(ties, key=lambda r: basis[r]), col)


def _degenerate_3d_regions(seed: int, count: int):
    """3D regions whose rows repeat up to a positive scale, so that ratios tie."""
    for objectives, A, b in _random_3d_regions(seed, count):
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, size=(A.shape[0], 1))
        yield objectives, np.vstack([A, scale * A]), np.concatenate([b, scale[:, 0] * b])


def test_every_run_pivots_by_blands_rule(monkeypatch):
    # each phase-1 and phase-2 run must reach the same status, basis and
    # tableau bytes as the rule run index by index from a copy of its start
    runs = []
    run = _simplex._run

    def checked(tableau, basis, cost, allowed):
        want_tableau, want_basis = tableau.copy(), basis.copy()
        want = _bland_run(want_tableau, want_basis, cost, allowed)
        status = run(tableau, basis, cost, allowed)
        runs.append(status)
        assert status == want
        assert basis.tolist() == want_basis.tolist()
        assert tableau.tobytes() == want_tableau.tobytes()
        return status

    monkeypatch.setattr(_simplex, "_run", checked)
    for objectives, A, b in [*_random_3d_regions(18, 60), *_degenerate_3d_regions(19, 60)]:
        maximize(objectives, A, b)
    for margin_rows in np.random.default_rng(20).uniform(-1.0, 1.0, size=(20, 4, 5)):
        maximize(*_weight_lp(np.column_stack([margin_rows, np.ones(4)])))
    assert {OPTIMAL, UNBOUNDED} <= set(runs)


def _weight_lp(margin_rows):
    """The class LP of `optimize_weights` over five members and five classes:
    x = (w, t), w >= 0, sum(w) = 1 and one row per other class."""
    on_simplex = np.vstack([-np.eye(5), np.ones(5), -np.ones(5)])
    A = np.vstack([np.column_stack([on_simplex, np.zeros(7)]), margin_rows])
    b = np.concatenate([np.zeros(5), [1.0, -1.0], np.zeros(4)])
    return np.eye(6)[5:], A, b


@pytest.mark.xfail(strict=True, reason="the dense simplex misreports a near-degenerate "
                   "weight LP (too high, or unbounded)")
@pytest.mark.parametrize("margin_rows", [
    # reported optimal at 1.4999999
    [[-0.0, 0.5, 0.5, -0.5, -0.9999998000000401, 1.0],
     [0.2678741658722593, -0.0, -0.0, -0.5, -0.9999998000000401, 1.0],
     [0.2440419447092469, 0.5, -0.0, -0.5, -0.9999998000000401, 1.0],
     [0.4880838894184938, -0.0, 0.5, -0.0, -0.99999960000008, 1.0]],
    # reported unbounded
    [[-0.0, -0.5, 0.5, -0.5, -0.9999998000000401, 1.0],
     [0.2678741658722593, -0.5, -0.0, -0.5, -0.9999998000000401, 1.0],
     [0.2440419447092469, -0.0, -0.0, -0.5, -0.9999998000000401, 1.0],
     [0.4880838894184938, -0.5, 0.5, -0.0, -0.99999960000008, 1.0]],
], ids=["too_high", "unbounded"])
def test_near_degenerate_weight_lp(margin_rows):
    # the class-4 LPs of the two inputs that tests/test_ensemble.py pins in
    # TestOptimizeWeights::test_near_degenerate_saddles_make_no_lp, where a
    # pure saddle point spares them; scipy's optimum of both is
    # 0.99999960000008, at w = e_5
    objective, A, b = _weight_lp(np.array(margin_rows))
    (value,), _ = maximize(objective, A, b)
    assert abs(value - 0.99999960000008) <= 1e-9

def _near_degenerate_unbounded_region():
    # the last row is the first tilted by about 1e-5; the region is unbounded
    # along (0.75, -0.125), which the exact 2D path finds from its rays
    A = np.array([[0.125, 0.75], [-0.25, -1.5], [-0.75, -4.5], [0.1250125, 0.7500875]])
    b = np.array([0.125, 0.0, 0.0, 0.0])
    objective = np.array([1.0, 0.0])
    ray = np.array([0.75, -0.125])
    assert np.all(A @ ray <= 0.0) and objective @ ray > 0.0
    return objective, A, b


def test_one_objective_over_a_near_degenerate_region_is_unbounded():
    objective, A, b = _near_degenerate_unbounded_region()
    assert maximize(objective[None, :], A, b)[0].tolist() == [math.inf]
    assert lp_maximize(objective, HalfspaceRegion(A, b, 2))[0].tolist() == [math.inf]


@pytest.mark.xfail(strict=True, reason="the dense simplex reports a finite optimum on a "
                   "near-degenerate region that is unbounded")
def test_near_degenerate_unbounded_region():
    objective, A, b = _near_degenerate_unbounded_region()
    assert simplex_alone(objective, A, b)[0] == math.inf


class TestOnePath:
    """One objective is a stack of one: lp_maximize of one objective gives
    the bits of its row in the answer to the whole stack."""

    @staticmethod
    def _assert_one_path(objectives, A, b):
        values, points = maximize(objectives, A, b)
        region = HalfspaceRegion(A, b, A.shape[1])
        solves = [(value, point) for (value,), (point,) in
                  (lp_maximize(objective, region) for objective in objectives)]
        assert_stack_matches_solves(objectives, values, points, solves, exact=A.shape[1] == 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(planar_regions())
    def test_planar_regions(self, region):
        A, b, objectives = region
        self._assert_one_path(objectives, A, b)

    def test_3d_regions(self):
        for objectives, A, b in _random_3d_regions(18, 100):
            self._assert_one_path(objectives, A, b)


class TestPairwiseScale:
    """The pairwise 2D path scales each row and its offset to unit size by a
    power of two first, so a halfspace has one answer at every scale."""

    BOX = (np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
           np.array([2.0, 2.0, -1.0, -1.0]))  # [1, 2]^2, declined by the star path
    OBJECTIVES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("rows, offsets", [(2.0 ** 600, 1.0), (2.0 ** -600, 1.0),
                                               (1e155, 1e155), (1e-165, 1e-165),
                                               (1e-160, 1e-160)])
    def test_the_box_is_not_empty_at_extreme_scales(self, rows, offsets):
        A, b = self.BOX
        values, _ = maximize(self.OBJECTIVES, rows * A, offsets * b)
        # scaling the rows alone by s scales the region by 1 / s
        assert np.allclose(values * rows / offsets, [2.0, 2.0, -1.0], rtol=1e-15, atol=0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(planar_regions(), st.integers(-1000, 1000))
    def test_a_power_of_two_keeps_every_bit(self, region, e):
        A, b, objectives = region
        rows = np.any(A != 0.0, axis=1)  # a zero row has no unit size
        A, b = A[rows], b[rows]
        # the pairwise path answers: an offset is not positive, the rows span the plane
        assume(not (b > 0.0).all() and _simplex._polygon(A, b) is not None)
        entries = np.concatenate([A.ravel(), b])
        exponents = np.frexp(entries[entries != 0.0])[1]
        assume(exponents.min() + e >= -1021 and exponents.max() + e <= 1024)  # stays normal
        values, points = maximize(objectives, A, b)
        scaled_values, scaled_points = maximize(objectives, np.ldexp(A, e), np.ldexp(b, e))
        assert scaled_values.tobytes() == values.tobytes()
        assert scaled_points.tobytes() == points.tobytes()

    def test_an_offset_past_the_float_range_goes_to_the_simplex(self):
        # rows of 1e-310 take the offsets to about 2^1030 at unit size: the
        # vertices are past the float range, so every maximum reads +inf
        A, b = self.BOX
        assert _simplex._polygon(1e-310 * A, np.abs(b)) is None
        values, _ = maximize(self.OBJECTIVES, 1e-310 * A, np.abs(b))
        assert values.tolist() == [math.inf] * 3

    def test_unit_size_of_an_array_and_of_each_row(self):
        a = np.array([[3.0, -0.5], [0.0, 0.0], [1e-310, -1e-311]])
        whole, e = _simplex.unit_size(a)
        assert e == 2 and np.array_equal(whole, a / 4.0)
        rows, e = _simplex.unit_size(a, rows=True)
        assert np.array_equal(np.ldexp(rows, e[:, None]), a) and e[1] == 0
        assert np.all(np.abs(rows[[0, 2]]).max(axis=1) >= 0.5)
        assert np.all(np.abs(rows).max(axis=1) < 1.0)
