"""The LP paths against a vertex-enumeration oracle, scipy and edge cases,
the batched 2D path against the simplex, and one objective as a stack of one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import vertex_enum_max
from scert import _simplex
from scert._simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, _solve_stack, maximize
from scert.geometry import HalfspaceRegion, lp_maximize


def simplex_alone(objective, A, b):
    """The simplex's result for one objective, whatever the region."""
    return next(_solve_stack(objective[None, :], A, b))


# every oracle test runs on the public call and on the simplex itself, which
# the public call bypasses for 2D regions whose rows span the plane
both_paths = pytest.mark.parametrize("solve", [maximize, simplex_alone],
                                     ids=["maximize", "simplex"])


class TestBasics:
    def test_box_maximum(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([2.0, 2.0, 1.0, 1.0])
        res = maximize(np.array([1.0, 0.0]), A, b)
        assert res.status == OPTIMAL
        assert abs(res.value - 2.0) < 1e-9

    def test_unbounded_direction(self):
        res = maximize(np.array([1.0, 0.0]), np.array([[-1.0, 0.0]]), np.array([1.0]))
        assert res.status == UNBOUNDED

    def test_infeasible(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([-2.0, 1.0])  # x <= -2 and x >= -1
        res = maximize(np.array([1.0, 0.0]), A, b)
        assert res.status == INFEASIBLE

    def test_negative_rhs_feasible(self):
        # x >= 1 (as -x <= -1), x <= 3
        A = np.array([[-1.0], [1.0]])
        b = np.array([-1.0, 3.0])
        res = maximize(np.array([-1.0]), A, b)
        assert res.status == OPTIMAL
        assert abs(res.value - (-1.0)) < 1e-9

    def test_zero_objective(self):
        res = maximize(np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))
        assert res.status == OPTIMAL
        assert abs(res.value) < 1e-12

    def test_no_constraints(self):
        assert maximize(np.zeros(3), np.zeros((0, 3)), np.zeros(0)).status == OPTIMAL
        assert maximize(np.array([0.0, 1.0]), np.zeros((0, 2)), np.zeros(0)).status == UNBOUNDED

    def test_degenerate_duplicate_rows(self):
        A = np.array([[1.0, 0.0]] * 5 + [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0] * 5 + [0.0, 1.0, 1.0])
        res = maximize(np.array([1.0, 1.0]), A, b)
        assert res.status == OPTIMAL
        assert abs(res.value - 2.0) < 1e-9


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
            res = solve(objective, normals, offsets)
            assert res.status == OPTIMAL
            expected = vertex_enum_max(objective, normals, offsets)
            assert abs(res.value - expected) <= 1e-9
            assert np.all(normals @ res.point <= offsets + 1e-9)


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
            res = solve(objective, normals, offsets)
            ref = linprog(-objective, A_ub=normals, b_ub=offsets,
                          bounds=[(None, None)] * n, method="highs")
            if ref.status == 2:
                assert res.status == INFEASIBLE
            elif ref.status == 3:
                assert res.status == UNBOUNDED
            else:
                assert res.status == OPTIMAL
                assert abs(res.value - (-ref.fun)) <= 1e-7
            statuses[res.status] += 1
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
        batch = maximize(objectives, A, b)
        assert len(batch) == len(objectives) or [r.status for r in batch] == [INFEASIBLE]
        for objective, res in zip(objectives, batch):
            ref = simplex_alone(objective, A, b)
            assert res.status == ref.status
            if ref.status == OPTIMAL:
                assert abs(res.value - ref.value) <= 1e-7 * max(1.0, abs(ref.value))
                assert abs(objective @ res.point - res.value) <= 1e-9 * max(1.0, abs(res.value))

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
        ref = simplex_alone(objective, A, b)
        (res,) = maximize(objective[None, :], A, b)
        assert ref.status == res.status == OPTIMAL
        assert ref.value == pytest.approx(expected, rel=1e-6)
        assert abs(res.value - ref.value) <= 1e-7 * max(1.0, abs(ref.value))

    @pytest.mark.parametrize("A, b", [
        (np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)),          # 2D path
        (np.array([[1.0, 0.0], [-1.0, 0.0]] * 2), np.ones(4)),      # rank 1: simplex
        (np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),          # 3D: simplex
    ])
    def test_batch_stops_at_the_first_result_over_its_limit(self, A, b):
        # every normal of A has maximum 1 over the region
        limits = np.full(len(A), 2.0)
        assert [r.value for r in maximize(A, A, b, limits)] == pytest.approx(np.ones(len(A)))
        limits[1] = 0.5
        results = maximize(A, A, b, limits)
        assert len(results) == 2 and results[-1].exceeds(0.5)

    def test_each_vertex_is_listed_once(self):
        # the unit square: four boundary lines, each left at one corner
        A = np.vstack([np.eye(2), -np.eye(2)])
        vertices, rays = _simplex._polygon(A, np.array([1.0, 1.0, 0.0, 0.0]))
        assert sorted(vertices.tolist()) == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert rays.shape == (0, 2)

    def test_empty_region_stops_at_once(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        b = np.array([-1.0, 0.0, 1.0])  # x <= -1 and x >= 0
        assert [r.status for r in maximize(np.eye(2), A, b)] == [INFEASIBLE]


def _random_3d_regions(seed: int, count: int):
    """3D regions with negative offsets, so phase 1 runs: bounded, empty and
    unbounded ones, each with a stack of objectives."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 12))
        yield (rng.standard_normal((int(rng.integers(1, 6)), 3)),
               rng.standard_normal((m, 3)), rng.uniform(-1.0, 2.0, size=m))


class TestStackedSimplex:
    """A stack of objectives in d != 2 runs phase 1 once and starts every
    objective from its tableau; each result must be the simplex's for that
    objective alone, bit for bit."""

    def test_stack_equals_one_solve_per_objective(self):
        statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
        for objectives, A, b in _random_3d_regions(16, 300):
            batch = maximize(objectives, A, b)
            singles = [simplex_alone(c, A, b) for c in objectives]
            if singles[0].status == INFEASIBLE:
                singles = singles[:1]
            assert len(batch) == len(singles)
            for res, ref in zip(batch, singles):
                assert (res.status, res.value) == (ref.status, ref.value)
                assert (res.point is None) == (ref.point is None)
                if ref.point is not None:
                    assert res.point.tobytes() == ref.point.tobytes()
                statuses[res.status] += 1
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
            maximize(objectives[0], A, b)
            assert len(runs) == 1


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
    return np.eye(6)[5], A, b


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
    res = maximize(objective, A, b)
    assert res.status == OPTIMAL
    assert abs(res.value - 0.99999960000008) <= 1e-9

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
    assert maximize(objective[None, :], A, b)[0].status == UNBOUNDED
    assert maximize(objective, A, b).status == UNBOUNDED
    assert lp_maximize(objective, HalfspaceRegion(A, b, 2)).status == UNBOUNDED


@pytest.mark.xfail(strict=True, reason="the dense simplex reports a finite optimum on a "
                   "near-degenerate region that is unbounded")
def test_near_degenerate_unbounded_region():
    objective, A, b = _near_degenerate_unbounded_region()
    assert simplex_alone(objective, A, b).status == UNBOUNDED


class TestOnePath:
    """One objective is a stack of one: the same method, the same bits."""

    @staticmethod
    def _assert_one_path(objective, A, b):
        alone, (first,) = maximize(objective, A, b), maximize(objective[None, :], A, b)
        assert (alone.status, alone.value) == (first.status, first.value)
        assert (alone.point is None) == (first.point is None)
        if first.point is not None:
            assert alone.point.tobytes() == first.point.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(planar_regions())
    def test_planar_regions(self, region):
        A, b, objectives = region
        for objective in objectives:
            self._assert_one_path(objective, A, b)

    def test_3d_regions(self):
        for objectives, A, b in _random_3d_regions(18, 100):
            for objective in objectives:
                self._assert_one_path(objective, A, b)
