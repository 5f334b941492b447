"""Ensemble composition, regimes, bounds, and weight optimization."""

import functools
import json
import math
import pathlib
import re
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_normal,
    best_gap_by_vertices,
    exact_top,
    first_switch_alpha,
    reference_extent,
    reference_optimize_weights,
    scaled_body,
    unit_directions,
)
from scert import _simplex
from scert import geometry as geo
from scert.certificates import (
    Certificate,
    ClassDiff,
    ClassifierAtPoint,
    ClassWise,
    Composed,
    SmoothnessMismatch,
    Uniform,
    gaps,
    lipschitz_certificate,
    runner_up_gap,
    s_certificate,
)
from scert.cli import describe_certificate, load_fixture
from scert.ensemble import (
    GAP_TOL,
    EnsembleSpec,
    PreconditionError,
    WeightLPError,
    _cert_regime_balls,
    _shared_ball_radii,
    classify_regimes,
    common_shape_radii,
    damning_alpha,
    ensemble_classifier,
    ensemble_logits,
    gap_bound_witness,
    gap_gain_bound,
    gap_regime,
    improvement_conditions,
    optimize_weights,
    radius_improvement_bound,
)
from scert.geometry import (
    STRICT_MARGIN,
    TOL,
    Combination,
    Ellipsoid,
    FinitePoints,
    HalfspaceRegion,
    LpBall,
    minkowski_sum,
    one_ball_shape,
    polar_hrep,
    region_minus_subset,
    region_subset,
    support,
    union_witness,
    weighted_sum,
)
from scert.simulate import evaluate_draws, summarize

L2 = LpBall(2, 1.0, [0.0, 0.0])


def ball_member(logits, eps=1.0):
    return ClassifierAtPoint(logits, Uniform(LpBall(2, eps, [0.0, 0.0])))


class TestEnsembleSpec:
    def test_weights_normalized(self):
        spec = EnsembleSpec((ClassifierAtPoint([1.0, 0.0]), ClassifierAtPoint([0.0, 1.0])),
                            np.array([2.0, 2.0]))
        assert np.allclose(spec.weights, [0.5, 0.5])
        assert abs(spec.weights.sum() - 1.0) < 1e-12

    def test_weight_scale_invariance(self, rng):
        members = (ball_member([0.7, 0.2, 0.1]), ball_member([0.5, 0.3, 0.2]))
        small = EnsembleSpec(members, np.array([0.3, 0.7]))
        large = EnsembleSpec(members, np.array([1.5, 3.5]))
        cert_small = s_certificate(ensemble_classifier(small), "u")
        cert_large = s_certificate(ensemble_classifier(large), "u")
        for d in rng.standard_normal((100, 2)):
            assert cert_small.contains(d) == cert_large.contains(d)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec((ClassifierAtPoint([1.0, 0.0]), ClassifierAtPoint([0.0, 1.0])),
                         np.array([1.0, -0.5]))

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec((ball_member([1.0, 0.0]), ClassifierAtPoint([0.0, 1.0])))

    @pytest.mark.parametrize("members, weights, message", [
        ((ClassifierAtPoint([1.0, 0.0]),), None, "at least two members"),
        ((ClassifierAtPoint([1.0, 0.0]), ClassifierAtPoint([1.0, 0.0, 0.0])), None,
         "same class count"),
        ((ball_member([1.0, 0.0]),
          ClassifierAtPoint([0.0, 1.0], Uniform(LpBall(2, 1.0, [0.0, 0.0, 0.0])))), None,
         "one input dimension"),
        ((ClassifierAtPoint([1.0, 0.0]), ClassifierAtPoint([0.0, 1.0])), np.zeros(2),
         "must not all be zero"),
        ((ball_member([1.0, 0.0]), ClassifierAtPoint([0.0, 1.0], ClassWise((L2, L2)))), None,
         "one smoothness mode"),
    ], ids=["one member", "class counts", "input dimensions", "zero weights", "modes"])
    def test_malformed_ensembles_rejected(self, members, weights, message):
        with pytest.raises(ValueError, match=message):
            EnsembleSpec(members, weights)


class TestEnsembleLogits:
    def test_symmetric_crossing(self):
        spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.4]), ClassifierAtPoint([0.4, 0.6])),
                            np.array([0.5, 0.5]))
        logits = ensemble_logits(spec)
        assert np.allclose(logits, [0.5, 0.5])
        assert gaps(logits)[2][1] == 0.0

    def test_degenerate_weight(self):
        spec = EnsembleSpec((ClassifierAtPoint([0.9, 0.1]), ClassifierAtPoint([0.2, 0.8])),
                            np.array([1.0, 0.0]))
        assert np.allclose(ensemble_logits(spec), [0.9, 0.1])

    def test_same_top_gaps_are_weighted_sums(self, rng):
        for _ in range(200):
            k, n = 4, 3
            logits = rng.uniform(0, 1, size=(n, k))
            logits[:, 0] += 1.0  # shared top class
            weights = rng.dirichlet(np.ones(n))
            spec = EnsembleSpec(tuple(ClassifierAtPoint(row) for row in logits), weights)
            mixed = ensemble_logits(spec)
            _, _, r_g = gaps(mixed)
            member_gaps = np.stack([gaps(row)[2] for row in logits])
            assert np.max(np.abs(r_g - weights @ member_gaps)) <= 1e-12

    def test_same_top_gap_identity_at_scale(self, rng):
        # every per-class gap of a shared-top ensemble is the weighted sum of
        # the member gaps, across 10^5 random ensembles
        batch, n, k = 100_000, 3, 4
        logits = rng.uniform(0.0, 1.0, size=(batch, n, k))
        logits[:, :, 0] += 1.0
        weights = rng.standard_exponential((batch, n))
        weights /= weights.sum(axis=1, keepdims=True)
        mixed = np.einsum("bn,bnk->bk", weights, logits)
        ensemble_gap_by_class = mixed[:, [0]] - mixed
        member_gap_by_class = logits[:, :, [0]] - logits
        combined = np.einsum("bn,bnk->bk", weights, member_gap_by_class)
        assert np.max(np.abs(ensemble_gap_by_class - combined)) <= 1e-12


class TestEnsembleClassifier:
    def test_gap_only_members_compose_no_smoothness(self):
        spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.4]), ClassifierAtPoint([0.2, 0.8])),
                            np.array([0.5, 0.5]))
        composed = ensemble_classifier(spec)
        assert composed.smoothness is None
        assert np.allclose(composed.logits, [0.4, 0.6])

    @staticmethod
    def _bodies(composed: ClassifierAtPoint, top: int) -> list:
        r = np.zeros(composed.n_classes)
        return [g for g, _ in composed.smoothness.constraints(top, r)]

    def test_identical_uniform_bodies_fixed_point(self):
        # the ensemble's difference body is each member's S (+) -S
        body = FinitePoints([[0.4, 0.1], [-0.2, 0.5], [0.1, -0.3]])
        members = (ClassifierAtPoint([0.8, 0.2], Uniform(body)),
                   ClassifierAtPoint([0.6, 0.4], Uniform(body)))
        composed = ensemble_classifier(EnsembleSpec(members, np.array([0.5, 0.5])))
        (diff,) = self._bodies(composed, composed.top)
        for d in unit_directions(32, seed=4):
            assert abs(support(diff, d) - support(body, d) - support(body, -d)) <= 1e-9

    def test_singleton_average(self):
        # single-point class-wise bodies: each difference body is the weighted
        # average of the members' differences g_1 - g_top, one point
        members = (ClassifierAtPoint([1.0, 0.0], ClassWise((FinitePoints([[2.0, 0.0]]),
                                                            FinitePoints([[0.0, 1.0]])))),
                   ClassifierAtPoint([0.5, 0.0], ClassWise((FinitePoints([[0.0, 4.0]]),
                                                            FinitePoints([[1.0, 0.0]])))))
        composed = ensemble_classifier(EnsembleSpec(members, np.array([0.5, 0.5])))
        (diff,) = self._bodies(composed, 0)
        assert np.allclose(diff.points, [[-0.5, -1.5]])

    def test_class_wise_composition(self):
        members = (
            ClassifierAtPoint([1.0, 0.0], ClassWise((FinitePoints([[1.0]]),
                                                     FinitePoints([[3.0]])))),
            ClassifierAtPoint([0.5, 0.0], ClassWise((FinitePoints([[2.0]]),
                                                     FinitePoints([[5.0]])))),
        )
        composed = ensemble_classifier(EnsembleSpec(members, np.array([0.5, 0.5])))
        # G_1 (+) -G_0 is 2 and 3, G_0 (+) -G_1 is -2 and -3
        assert np.allclose(self._bodies(composed, 0)[0].points, [[2.5]])
        assert np.allclose(self._bodies(composed, 1)[0].points, [[-2.5]])


class TestClassifyRegimes:
    def test_shared_shape_same_top_two_is_sandwich(self, rng):
        for _ in range(100):
            logits = np.sort(rng.uniform(0, 1, size=(2, 3)), axis=1)[:, ::-1]
            members = tuple(ball_member(row) for row in logits)
            spec = EnsembleSpec(members, rng.dirichlet(np.ones(2)))
            report = classify_regimes(spec)
            assert report.cert_regime == "inconclusive"

    def test_crossing_weights_collapse(self):
        spec = EnsembleSpec((ball_member([0.6, 0.4, 0.0]), ball_member([0.4, 0.6, 0.0])),
                            np.array([0.5, 0.5]))
        report = classify_regimes(spec)
        assert report.gap_regime == "loss"
        assert report.cert_regime == "reduction"
        assert report.gap_ensemble == 0.0
        assert report.evidence["trivial_ensemble_certificate"]

    def test_gain_instances_detected(self):
        near_tie = EnsembleSpec((ball_member([0.49, 0.03, 0.48]),
                                 ball_member([0.03, 0.49, 0.48])), np.array([0.5, 0.5]))
        report = classify_regimes(near_tie)
        assert report.gap_regime == "gain" and report.cert_regime == "improvement"
        diverse = EnsembleSpec((ball_member([0.5, 0.3, 0.2]),
                                ball_member([0.5, 0.2, 0.3])), np.array([0.5, 0.5]))
        report = classify_regimes(diverse)
        assert report.gap_regime == "gain" and report.cert_regime == "improvement"

    def test_region_mode_sandwich(self, rng):
        # polygonal uniform-mode members with same top two: exact LP regime
        for _ in range(20):
            pts1 = rng.standard_normal((4, 2))
            pts2 = rng.standard_normal((4, 2))
            logits = np.sort(rng.uniform(0, 1, size=(2, 2)), axis=1)[:, ::-1]
            members = (ClassifierAtPoint(logits[0], Uniform(FinitePoints(pts1))),
                       ClassifierAtPoint(logits[1], Uniform(FinitePoints(pts2))))
            spec = EnsembleSpec(members, rng.dirichlet(np.ones(2)))
            report = classify_regimes(spec)
            assert report.cert_regime == "inconclusive"
            assert report.evidence["method"] == "lp"

    def test_gap_only_members(self):
        spec = EnsembleSpec((ClassifierAtPoint([0.8, 0.2]), ClassifierAtPoint([0.6, 0.4])))
        report = classify_regimes(spec)
        assert report.cert_regime == "indeterminate"
        assert report.gap_regime == "inconclusive"

    def test_three_member_fold(self):
        spec = EnsembleSpec((ball_member([0.7, 0.2, 0.1]), ball_member([0.6, 0.3, 0.1]),
                             ball_member([0.5, 0.4, 0.1])))
        report = classify_regimes(spec)
        # identical shapes: the any-N radii fast path applies
        assert report.evidence["method"] == "radii"
        assert report.cert_regime == "inconclusive"

    def test_nested_members_flags(self):
        # one shared body, so each certificate is the same polygon scaled by
        # its gap: members at 0.1, 0.2, 0.4 and the ensemble at 0.3 hold the
        # two smaller members and sit inside the largest, the last one
        body = Uniform(FinitePoints([[0.9, 0.2], [-0.4, 0.6], [-0.3, -0.7], [0.5, -0.5]]))
        spec = EnsembleSpec(tuple(ClassifierAtPoint(row, body) for row in
                                  ([0.55, 0.45], [0.6, 0.4], [0.7, 0.3])),
                            np.array([0.2, 0.2, 0.6]))
        report = classify_regimes(spec)
        assert report.cert_regime == "inconclusive"
        assert report.evidence == {
            "method": "lp", "contains_intersection": True, "within_union": True,
            "contains_union": False, "within_intersection": False,
            "trivial_ensemble_certificate": False,
        }

    def test_same_top_never_reduction(self, rng):
        for _ in range(50):
            logits = rng.uniform(0, 1, size=(2, 3))
            logits[:, 0] += 1.0
            members = tuple(ball_member(row) for row in logits)
            spec = EnsembleSpec(members, rng.dirichlet(np.ones(2)))
            report = classify_regimes(spec)
            assert report.cert_regime != "reduction"
            assert report.gap_regime != "loss"


def _l2_cert(radius: float) -> Certificate:
    if radius == np.inf:
        return Certificate("u", "s", 2, (), unbounded=True)
    return Certificate("u", "s", 2, (), ball=LpBall(2, radius, [0.0, 0.0]))


_LO, _HI = 1.0, 2.0
_UP, _DOWN = np.inf, -np.inf


class TestRadiiVerdictBoundaries:
    """The radii path's verdict on either side of each of its four edges,
    which are relative to the member radii (1 and 2 here), and with
    unbounded certificates."""

    @pytest.mark.parametrize("r_g, expected", [
        (np.nextafter(_HI * (1 + STRICT_MARGIN), _UP), "improvement"),
        (_HI * (1 + STRICT_MARGIN), "indeterminate"),
        (np.nextafter(_HI * (1 + GAP_TOL), _UP), "indeterminate"),
        (_HI * (1 + GAP_TOL), "inconclusive"),
        (1.5, "inconclusive"),
        (_LO * (1 - GAP_TOL), "inconclusive"),
        (np.nextafter(_LO * (1 - GAP_TOL), _DOWN), "indeterminate"),
        (_LO * (1 - STRICT_MARGIN), "indeterminate"),
        (np.nextafter(_LO * (1 - STRICT_MARGIN), _DOWN), "reduction"),
        (np.inf, "improvement"),
    ])
    def test_two_finite_members(self, r_g, expected):
        regime, evidence = _cert_regime_balls(_l2_cert(r_g), [_l2_cert(_LO), _l2_cert(_HI)])
        assert regime == expected
        assert evidence == {"method": "radii", "radius_ensemble": r_g,
                            "radius_members": (_LO, _HI)}

    @pytest.mark.parametrize("r_g, expected", [
        (np.inf, "inconclusive"),
        (5.0, "inconclusive"),
        (_LO * (1 - GAP_TOL), "inconclusive"),
        (np.nextafter(_LO * (1 - GAP_TOL), _DOWN), "indeterminate"),
        (np.nextafter(_LO * (1 - STRICT_MARGIN), _DOWN), "reduction"),
    ])
    def test_one_unbounded_member(self, r_g, expected):
        regime, _ = _cert_regime_balls(_l2_cert(r_g), [_l2_cert(_LO), _l2_cert(np.inf)])
        assert regime == expected

    @pytest.mark.parametrize("r_g, expected", [(np.inf, "inconclusive"), (3.0, "reduction")])
    def test_unbounded_members(self, r_g, expected):
        regime, _ = _cert_regime_balls(_l2_cert(r_g), [_l2_cert(np.inf), _l2_cert(np.inf)])
        assert regime == expected


_OCTAGON = np.column_stack([np.cos(np.pi * np.arange(8) / 4), np.sin(np.pi * np.arange(8) / 4)])


class TestExtentsScale:
    """Scaling every gradient set by s scales every extent by 1 / s, so no
    verdict moves: the radii and the sampled paths compare extents relative
    to their size, and the LP path, on octagons in place of the l2 balls, is
    the control."""

    CASES = {  # (member, class) -> body of size s, and the verdict and path at every s
        "radii": (lambda s, m, i: LpBall(2, s, [0.0, 0.0]), "improvement"),
        "sampled": (lambda s, m, i: Ellipsoid(np.diag([1.0, 4.0][::1 - 2 * m]), s),
                    "indeterminate"),
        "lp": (lambda s, m, i: FinitePoints(s * _OCTAGON), "improvement"),
    }

    @staticmethod
    def _report(make_body, s):
        members = tuple(ClassifierAtPoint(logits, ClassWise(tuple(
            make_body(s, m, i) for i in range(3))))
            for m, logits in enumerate(([0.6, 0.3, 0.1], [0.6, 0.1, 0.3])))
        return classify_regimes(EnsembleSpec(members))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(CASES)), st.floats(-300.0, 300.0))
    @example("radii", 6.0)
    @example("radii", 300.0)
    @example("radii", -16.0)
    @example("sampled", 300.0)
    @example("sampled", -300.0)
    @example("lp", -300.0)
    @example("lp", 300.0)
    def test_one_verdict_for_every_scale(self, path, exponent):
        make_body, verdict = self.CASES[path]
        report = self._report(make_body, 10.0 ** exponent)
        assert (report.cert_regime, report.evidence["method"]) == (verdict, path)
        if path != "radii":  # the flags too; the radii evidence holds the scaled radii
            assert report.evidence == self._report(make_body, 1.0).evidence


class TestGapGainBound:
    def test_binary_no_gain(self):
        for r in (0.0, 0.3, 0.9):
            assert abs(gap_gain_bound(r, 2) - r) < 1e-15

    def test_saturated(self):
        for k in (3, 5, 11):
            assert gap_gain_bound(1.0, k) == 1.0

    def test_plugged_value(self):
        assert abs(gap_gain_bound(0.2, 4) - 0.4666666666666667) < 1e-12

    def test_monotone(self):
        grid = np.linspace(0, 1, 21)
        for k in (2, 3, 7):
            values = [gap_gain_bound(float(r), k) for r in grid]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        for r in grid:
            by_k = [gap_gain_bound(float(r), k) for k in range(2, 10)]
            assert all(b >= a - 1e-15 for a, b in zip(by_k, by_k[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gap_gain_bound(1.5, 4)


class TestGapBoundWitness:
    def test_attains_bound(self):
        for r_best, k in ((0.2, 4), (0.0, 3), (1.0, 5), (0.5, 10)):
            spec = gap_bound_witness(r_best, k)
            _, c_b, r = gaps(ensemble_logits(spec))
            assert abs(float(r[c_b]) - gap_gain_bound(r_best, k)) <= 1e-12

    def test_members_normalized_with_gap(self):
        spec = gap_bound_witness(0.3, 4)
        for member in spec.members:
            assert abs(member.logits.sum() - 1.0) < 1e-12
            assert abs(member.gap - 0.3) < 1e-12

    def test_binary_degenerate(self):
        spec = gap_bound_witness(0.4, 2)
        _, c_b, r = gaps(ensemble_logits(spec))
        assert abs(float(r[c_b]) - 0.4) < 1e-12

    @pytest.mark.parametrize("r_best, k, message", [
        (1.5, 4, r"must lie in \[0, 1\]"), (-0.1, 3, r"must lie in \[0, 1\]"),
        (0.5, 1, "at least two classes")])
    def test_rejects_what_the_bound_rejects(self, r_best, k, message):
        for function in (gap_gain_bound, gap_bound_witness):
            with pytest.raises(ValueError, match=message):
                function(r_best, k)


class TestDamningAlpha:
    def test_symmetric_crossing(self):
        alpha = damning_alpha(ClassifierAtPoint([0.6, 0.4]), ClassifierAtPoint([0.4, 0.6]))
        assert abs(alpha - 0.5) < 1e-12

    def test_closed_form(self):
        f_1 = ClassifierAtPoint([0.7, 0.3])
        f_2 = ClassifierAtPoint([0.45, 0.55])
        alpha = damning_alpha(f_1, f_2)
        assert abs(alpha - 0.2) < 1e-12
        mixed = alpha * f_1.logits + (1 - alpha) * f_2.logits
        assert abs(mixed[0] - mixed[1]) < 1e-12

    def test_tied_members_return_none(self):
        assert damning_alpha(ClassifierAtPoint([0.5, 0.5]),
                             ClassifierAtPoint([0.5, 0.5])) is None

    def test_same_top_rejected(self):
        with pytest.raises(ValueError):
            damning_alpha(ClassifierAtPoint([0.7, 0.3]), ClassifierAtPoint([0.6, 0.4]))

    def test_third_class_interference_bisection(self):
        # at the closed-form crossing of classes 0 and 1, class 2 is on top,
        # so the crossing must be found on a sub-interval
        f_1 = ClassifierAtPoint([0.52, 0.08, 0.40])
        f_2 = ClassifierAtPoint([0.08, 0.52, 0.40])
        alpha = damning_alpha(f_1, f_2)
        mixed = alpha * f_1.logits + (1 - alpha) * f_2.logits
        _, c_b, r = gaps(mixed)
        assert abs(float(r[c_b])) <= 1e-9

    def test_random_pairs_gap_collapses(self, rng):
        for _ in range(100):
            logits = rng.dirichlet(np.ones(4), size=2)
            order = np.argsort(-logits, axis=1)
            # force different tops by swapping the top into distinct slots
            for row, target in zip(logits, (0, 1)):
                top = int(np.argmax(row))
                row[top], row[target] = row[target], row[top]
            if np.argmax(logits[0]) == np.argmax(logits[1]):
                continue
            f_1, f_2 = (ClassifierAtPoint(row) for row in logits)
            alpha = damning_alpha(f_1, f_2)
            assert alpha is not None
            mixed = alpha * logits[0] + (1 - alpha) * logits[1]
            _, c_b, r = gaps(mixed)
            assert abs(float(r[c_b])) <= 1e-9


class TestDamningAlphaIsTheFirstSwitch:
    """damning_alpha against an exact oracle that enumerates every pairwise
    crossing of the class lines and tests the top class after each one."""

    @staticmethod
    def _check(a, b, exact_value=False):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        alpha = damning_alpha(ClassifierAtPoint(a), ClassifierAtPoint(b))
        switch = first_switch_alpha(a, b)
        assert alpha == float(switch) if exact_value else abs(alpha - float(switch)) <= 1e-13
        top = exact_top(a, b, Fraction(0))
        # f_2's top holds just below alpha* (it holds on all of [0, alpha*]) ...
        assert exact_top(a, b, switch * (1 - Fraction(1, 10**9))) == top
        # ... and is gone just after it
        assert exact_top(a, b, switch + Fraction(1, 10**9)) != top

    @pytest.mark.parametrize("k", range(2, 9))
    def test_random_pairs(self, k):
        rng = np.random.default_rng(100 + k)
        checked = 0
        while checked < 40:
            a, b = rng.dirichlet(np.ones(k), size=2)
            if np.argmax(a) != np.argmax(b):
                self._check(a, b)
                checked += 1

    @pytest.mark.parametrize("k", range(2, 9))
    def test_integer_count_logits_are_exact(self, k):
        # integer logits make every crossing a quotient of two exact
        # integers, so the closed form is the correctly rounded switch
        rng = np.random.default_rng(200 + k)
        checked = 0
        while checked < 40:
            a, b = rng.integers(0, 7, size=(2, k)).astype(float)
            if ClassifierAtPoint(a).top != ClassifierAtPoint(b).top:
                self._check(a, b, exact_value=True)
                checked += 1

    def test_third_class_overtakes_first(self):
        self._check([0.52, 0.08, 0.40], [0.08, 0.52, 0.40])
        self._check([0.6, 0.0, 0.3, 0.1], [0.0, 0.5, 0.1, 0.4])

    def test_ties(self):
        # f_2 ties its top with a class that rises: the top changes at once
        assert damning_alpha(ClassifierAtPoint([0.0, 0.2, 0.8]),
                             ClassifierAtPoint([0.4, 0.4, 0.2])) == 0.0
        self._check([0.0, 0.2, 0.8], [0.4, 0.4, 0.2])
        # a tie that is broken toward the lower index at alpha*
        self._check([0.3, 0.3, 0.4], [0.1, 0.6, 0.3])
        self._check([0.5, 0.25, 0.25], [0.25, 0.5, 0.25], exact_value=True)

    def test_near_tie_and_same_top(self):
        # the top-two rise 2e-13 is below ZERO_GAP_TOL: no zero-gap weight
        assert damning_alpha(ClassifierAtPoint([0.5, 0.5 - 1e-13]),
                             ClassifierAtPoint([0.5 - 1e-13, 0.5])) is None
        assert damning_alpha(ClassifierAtPoint([0.5, 0.5, 0.0]),
                             ClassifierAtPoint([0.5, 0.5, 0.0])) is None
        with pytest.raises(ValueError, match="share the top prediction"):
            damning_alpha(ClassifierAtPoint([0.7, 0.3, 0.0]),
                          ClassifierAtPoint([0.6, 0.0, 0.4]))


def _boundary_members(kind: str, step: int) -> np.ndarray:
    """Two members' logits whose equal-weight ensemble gap lies `step` ulps
    (-1, 0 or 1) from the gap-regime threshold: r_best + GAP_TOL for
    "gain", r_worst - GAP_TOL for "loss".

    Gain: [2y, 0, z] and [0, 2y, z] share the gap z - 2y and mix to z - y.
    Loss: [z, 0, 2y] and [0, z, 2y] share the gap z - 2y and mix to 2y - z/2.
    Member gaps are tried until every gap comes out exactly in floats.
    """
    for member_gap in np.arange(4, 64) / 64.0:
        threshold = member_gap + GAP_TOL if kind == "gain" else member_gap - GAP_TOL
        target = np.nextafter(threshold, step * math.inf) if step else threshold
        if kind == "gain":
            y, z = target - member_gap, 2.0 * target - member_gap
            logits = np.array([[2.0 * y, 0.0, z], [0.0, 2.0 * y, z]])
        else:
            z, y = 2.0 * (target + member_gap), (2.0 * target + member_gap) / 2.0
            logits = np.array([[z, 0.0, 2.0 * y], [0.0, z, 2.0 * y]])
        mixed = ensemble_logits(EnsembleSpec(tuple(ClassifierAtPoint(r) for r in logits)))
        if (np.all(runner_up_gap(logits) == member_gap)
                and runner_up_gap(mixed) == runner_up_gap(logits.mean(axis=0)) == target):
            return logits
    raise AssertionError("no exact construction found")


class TestGapRegimeBoundary:
    """One rule, one ulp either side of each threshold, through every caller."""

    @pytest.mark.parametrize("kind, step, expected", [
        ("gain", 1, "gain"), ("gain", 0, "inconclusive"), ("gain", -1, "inconclusive"),
        ("loss", -1, "loss"), ("loss", 0, "inconclusive"), ("loss", 1, "inconclusive")])
    def test_every_caller_applies_the_rule(self, kind, step, expected):
        logits = _boundary_members(kind, step)
        report = classify_regimes(EnsembleSpec(tuple(ClassifierAtPoint(r) for r in logits)))
        (record,) = evaluate_draws(logits[None])
        summary = summarize([record])
        assert gap_regime(report.gap_ensemble, report.gap_best, report.gap_worst) == expected
        assert report.gap_regime == record.gap_regime == expected
        assert (summary.fraction_gain, summary.fraction_inconclusive,
                summary.fraction_loss) == tuple(
            float(expected == r) for r in ("gain", "inconclusive", "loss"))

    def test_thresholds_are_strict(self):
        for r in (0.0, 0.25, 0.7):
            assert gap_regime(r + GAP_TOL, r, r) == "inconclusive"
            assert gap_regime(np.nextafter(r + GAP_TOL, 1.0), r, r) == "gain"
            assert gap_regime(r - GAP_TOL, r, r) == "inconclusive"
            assert gap_regime(np.nextafter(r - GAP_TOL, -1.0), r, r) == "loss"


@st.composite
def shared_ball_pairs(draw):
    """Two members with top class 0 in one mode whose bodies are balls of one
    shape: l1, l2 or l_inf balls, or ellipsoids (c Sigma, eps / sqrt(c)) of
    one Sigma, each the same set as (Sigma, eps)."""
    mode = draw(st.sampled_from(["u", "cw", "cd"]))
    shape = draw(st.sampled_from(["l1", "l2", "linf", "ellipsoid"]))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.standard_normal((2, 2))
    sigma = root @ root.T + 0.1 * np.eye(2)

    def ball():
        eps = float(rng.uniform(0.05, 5.0))
        if shape == "ellipsoid":
            c = float(rng.choice([1.0, 4.0, rng.uniform(0.01, 100.0)]))
            return Ellipsoid(c * sigma, eps / math.sqrt(c))
        return LpBall({"l1": 1.0, "l2": 2.0, "linf": math.inf}[shape], eps, [0.0, 0.0])

    def smoothness():
        if mode == "u":
            return Uniform(ball())
        if mode == "cw":
            return ClassWise(tuple(ball() for _ in range(k)))
        return ClassDiff({(i, j): ball() for i in range(k) for j in range(k) if i != j})

    members = []
    for _ in range(2):
        logits = rng.uniform(0.0, 1.0, k)
        logits[0] = logits.max() + rng.uniform(0.01, 1.0)
        members.append(ClassifierAtPoint(logits, smoothness()))
    return mode, shape, EnsembleSpec(tuple(members))


def _summed_pair_radii(spec: EnsembleSpec) -> list[dict[int, float]]:
    """Each member's radius for the pair (i, top) as the sum over the pair's
    gradient bodies, (S, S), (G_i, G_top) or (G_(i,top),), of
    eps_b sqrt(|Sigma_b| / |Sigma_ref|), the smallest matrix norm among the
    members' bodies the reference."""
    top = spec.members[0].top
    ref_norm = min(float(np.linalg.norm(b.sigma)) if isinstance(b, Ellipsoid) else 1.0
                   for m in spec.members for b in m.smoothness.bodies)

    def rad(body):
        if isinstance(body, Ellipsoid):
            return float(body.radius) * math.sqrt(float(np.linalg.norm(body.sigma)) / ref_norm)
        return float(body.radius)

    def pair(s, i):
        if s.mode == "u":
            return (s.body, s.body)
        if s.mode == "cw":
            return (s.bodies[i], s.bodies[top])
        return (s.pairs[(i, top)],)

    return [{i: sum(rad(b) for b in pair(m.smoothness, i))
             for i in range(spec.n_classes) if i != top} for m in spec.members]


class TestSmoothnessDispatch:
    """The constraints of each smoothness variant, and the one composition rule."""

    A = FinitePoints([[0.4, 0.1], [-0.2, 0.5]])
    B = FinitePoints([[0.1, -0.3], [0.3, 0.3], [-0.1, 0.0]])
    C = LpBall(2, 0.5, [0.0, 0.0])

    def test_constraints(self):
        r = np.array([0.0, 0.3, 0.5])
        uniform = Uniform(self.A)
        assert uniform.constraints(2, r[::-1]) == [(uniform.difference, 0.3)]
        cw = ClassWise((self.A, self.B, self.C)).constraints(0, r)
        assert [gap for _, gap in cw] == [0.3, 0.5]
        dirs = unit_directions(24, seed=8)
        for (body, _), g_i in zip(cw, (self.B, self.C), strict=True):
            expected = minkowski_sum(g_i, self.A.negate())
            assert np.array_equal(body.support(dirs), expected.support(dirs))
        pairs = ClassDiff({(0, 2): self.A, (1, 2): self.B, (2, 0): self.C})
        assert pairs.constraints(2, np.array([0.2, 0.1, 0.0])) == [(self.A, 0.2), (self.B, 0.1)]
        with pytest.raises(SmoothnessMismatch, match=r"missing class-difference body "
                                                      r"for pair \(1, 0\)"):
            pairs.constraints(0, r)

    def _assert_same_support(self, composed, parts, weights):
        for u in unit_directions(24, seed=8):
            expected = sum(w * support(p, u) for w, p in zip(weights, parts))
            assert support(composed, u) == pytest.approx(expected, abs=1e-12)

    def test_compose_is_the_weighted_minkowski_sum(self):
        # every mode: the ensemble's difference body is the weighted sum of
        # the members' difference bodies, with the gaps the ensemble's own
        w, r = np.array([0.25, 0.75]), np.array([0.0, 0.3])
        u = Composed((Uniform(self.A), Uniform(self.B)), w).constraints(0, r)
        assert [gap for _, gap in u] == [0.3]
        self._assert_same_support(u[0][0], (minkowski_sum(self.A, self.A.negate()),
                                            minkowski_sum(self.B, self.B.negate())), w)
        cw = Composed((ClassWise((self.A, self.C)), ClassWise((self.B, self.A))), w)
        ((body, gap),) = cw.constraints(0, r)
        assert gap == 0.3
        self._assert_same_support(body, (minkowski_sum(self.C, self.A.negate()),
                                         minkowski_sum(self.A, self.B.negate())), w)
        ((body, gap),) = cw.constraints(1, r[::-1])
        assert gap == 0.3
        self._assert_same_support(body, (minkowski_sum(self.A, self.C.negate()),
                                         minkowski_sum(self.B, self.A.negate())), w)

    def test_class_diff_composes_the_shared_pairs(self):
        w = np.array([0.5, 0.5])
        composed = Composed((ClassDiff({(0, 1): self.A, (1, 0): self.B}),
                             ClassDiff({(0, 1): self.B})), w)
        ((body, gap),) = composed.constraints(1, np.array([0.2, 0.0]))
        assert gap == 0.2
        self._assert_same_support(body, (self.A, self.B), w)
        with pytest.raises(SmoothnessMismatch, match=r"pair \(1, 0\)"):
            composed.constraints(0, np.array([0.0, 0.2]))

    def test_class_diff_members_sharing_no_pair(self):
        # the ensemble's top is 1, so it needs the pair (0, 1), which the
        # second member lacks: composing succeeds, certifying does not
        members = (ClassifierAtPoint([0.6, 0.4], ClassDiff({(0, 1): self.A})),
                   ClassifierAtPoint([0.3, 0.7], ClassDiff({(1, 0): self.B})))
        spec = EnsembleSpec(members)
        composed = ensemble_classifier(spec)
        with pytest.raises(SmoothnessMismatch,
                           match=r"missing class-difference body for pair \(0, 1\)"):
            s_certificate(composed, "cd")
        # the regimes certify the members first, and member 0 lacks its own (1, 0)
        assert classify_regimes(spec).evidence == {
            "error": "missing class-difference body for pair (1, 0)"}

    SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])

    @pytest.mark.parametrize("bodies", [
        (LpBall(2, 0.5, [0.0, 0.0]), LpBall(2, 0.3, [0.0, 0.0]), LpBall(2, 0.7, [0.0, 0.0])),
        (Ellipsoid(SIGMA, 0.5), Ellipsoid(4.0 * SIGMA, 0.25), Ellipsoid(0.5 * SIGMA, 0.3)),
    ], ids=["lp", "ellipsoid"])
    def test_pair_radii_are_the_per_variant_sums(self, bodies):
        # the per-variant sums, written out in the order they are added
        logits = [0.5, 0.3, 0.2]
        cases = [
            (Uniform(bodies[1]), lambda rad: {i: 2.0 * rad(bodies[1]) for i in (1, 2)}),
            (ClassWise(bodies), lambda rad: {i: rad(bodies[i]) + rad(bodies[0]) for i in (1, 2)}),
            (ClassDiff({(1, 0): bodies[1], (2, 0): bodies[2], (0, 1): bodies[0]}),
             lambda rad: {1: rad(bodies[1]), 2: rad(bodies[2])}),
        ]
        for smoothness, expected in cases:
            member = ClassifierAtPoint(logits, smoothness)
            ref_norm = min(float(np.linalg.norm(b.sigma)) if isinstance(b, Ellipsoid) else 1.0
                           for b in member.smoothness.bodies)

            def rad(body):
                if isinstance(body, Ellipsoid):
                    return float(body.radius) * math.sqrt(
                        float(np.linalg.norm(body.sigma)) / ref_norm)
                return float(body.radius)

            top, radii = _shared_ball_radii(EnsembleSpec((member, member)), "")
            assert top == 0
            assert radii[0] == radii[1] == expected(rad)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(shared_ball_pairs())
    def test_pair_radii_are_the_summed_body_radii(self, case):
        # the radii read off the difference balls equal the sums over the
        # pairs' bodies, bit for bit but where a class-wise ellipsoid pair adds
        # eps_top on eps_i's matrix before the normalisation
        mode, shape, spec = case
        top, radii = _shared_ball_radii(spec, "")
        expected = _summed_pair_radii(spec)
        assert top == 0
        if mode == "cw" and shape == "ellipsoid":
            for got, want in zip(radii, expected, strict=True):
                assert got.keys() == want.keys()
                assert all(abs(got[i] - want[i]) <= 1e-15 * want[i] for i in want)
        else:
            assert radii == expected



def _cd_ensemble(make_body) -> EnsembleSpec:
    """Two k = 3 members with top class 0 and a body for every ordered pair,
    ``make_body(member, i, j)``."""
    members = tuple(ClassifierAtPoint(logits, ClassDiff({
        (i, j): make_body(m, i, j) for i in range(3) for j in range(3) if i != j}))
        for m, logits in enumerate(([0.5, 0.2, 0.3], [0.6, 0.3, 0.1])))
    return EnsembleSpec(members, np.array([0.3, 0.7]))


def _cloud_pairs(dim: int) -> EnsembleSpec:
    grads = np.random.default_rng(dim).standard_normal((2, 6, 3, dim))
    return _cd_ensemble(lambda m, i, j: FinitePoints(grads[m, :, i] - grads[m, :, j]))


class TestClassDiffComposition:
    """A certificate of the ensemble sums only the class-difference pairs
    (i, top) it reads, exactly as `weighted_sum` forms them."""

    @pytest.mark.parametrize("dim, prunes", [(2, 4), (3, 6)])
    def test_only_the_read_pairs_are_summed(self, dim, prunes, monkeypatch):
        # the certificate reads the pairs (1, 0) and (2, 0).  Each of their sums
        # prunes its two scaled member bodies, and in 3D their pairwise sum as
        # well; the 4 unread pairs are never hulled or pruned, and composing
        # or reading the dimension sums nothing
        spec = _cloud_pairs(dim)
        runs = []
        prune = geo._prune
        monkeypatch.setattr(geo, "_prune", lambda body: runs.append(body) or prune(body))
        composed = ensemble_classifier(spec)
        assert composed.dim == composed.smoothness.dim == dim
        assert runs == []
        assert s_certificate(composed, "cd").region is not None
        assert len(runs) == prunes

    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_read_pair_is_the_weighted_sum(self, dim):
        spec = _cloud_pairs(dim)
        composed = ensemble_classifier(spec)
        constraints = composed.smoothness.constraints(0, composed.gap_vector)
        for key, (body, gap) in zip(((1, 0), (2, 0)), constraints):
            eager = weighted_sum([m.smoothness.pairs[key] for m in spec.members], spec.weights)
            assert type(body) is type(eager) and gap == composed.gap_vector[key[0]]
            got, want = polar_hrep(body, 0.3), polar_hrep(eager, 0.3)
            assert got.normals.tobytes() == want.normals.tobytes()
            assert got.offsets.tobytes() == want.offsets.tobytes()

    def test_same_shape_ball_pairs_stay_on_the_radii_path(self):
        spec = _cd_ensemble(lambda m, i, j: LpBall(2, (0.4 + 0.3 * m) * (1 + i + j), [0.0, 0.0]))
        composed = ensemble_classifier(spec)
        body, _ = composed.smoothness.constraints(0, composed.gap_vector)[0]
        assert isinstance(body, LpBall)
        assert classify_regimes(spec).evidence["method"] == "radii"

    def test_a_nested_ensemble_reads_pairs_of_another_top(self):
        # the outer top class (2) is not the inner ensemble's (0), so the outer
        # certificate reads inner pairs (i, 2) that no inner certificate reads
        inner = ensemble_classifier(_cloud_pairs(2))
        grads = np.random.default_rng(5).standard_normal((6, 3, 2))
        other = ClassifierAtPoint([0.1, 0.2, 0.7], ClassDiff({
            (i, j): FinitePoints(grads[:, i] - grads[:, j])
            for i in range(3) for j in range(3) if i != j}))
        spec = EnsembleSpec((inner, other), np.array([0.3, 0.7]))
        assert (inner.top, ensemble_classifier(spec).top) == (0, 2)
        evidence = classify_regimes(spec).evidence
        assert "error" not in evidence and evidence["method"] == "lp"


class TestBallShape:
    """(Sigma, eps) and (4 Sigma, eps/2) are one ball shape for every caller."""

    SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])
    # S and 10 S normalize to matrices 1.1e-16 apart, on either side of a
    # tenth-decimal rounding boundary
    S1 = np.array([[1.4851794381732037, 0.19312303916865298],
                   [0.19312303916865298, 1.02904008280099]])
    S2 = np.array([[1.3797417069828286, 0.1520940219406201],
                   [0.1520940219406201, 1.1568355142745779]])

    def _bodies(self):
        return Ellipsoid(self.SIGMA, 0.5), Ellipsoid(4.0 * self.SIGMA, 0.25)

    def test_shape_ignores_matrix_scale(self):
        small, large = self._bodies()
        assert one_ball_shape([small, large])
        assert not one_ball_shape([small, Ellipsoid(np.eye(2), 0.5)])
        assert not one_ball_shape([small, Ellipsoid(self.SIGMA + 1e-9 * np.eye(2), 0.5)])
        assert not one_ball_shape([FinitePoints([[1.0, 0.0]])])
        assert not one_ball_shape([small, FinitePoints([[1.0, 0.0]])])

    def test_shape_ignores_the_center_but_a_ball_off_the_origin_is_not_one(self):
        centered, shifted = LpBall(2, 1.0, [0.0, 0.0]), LpBall(2, 1.0, [1e-300, 0.0])
        assert centered.same_shape(shifted) and not shifted.centered_ball
        assert one_ball_shape([centered, LpBall(2, 3.0, [-0.0, 0.0])])
        assert not one_ball_shape([centered, shifted])
        assert not one_ball_shape([centered, LpBall(1, 1.0, [0.0, 0.0])])

    def test_class_wise_lipschitz_accepts_the_pair(self):
        small, large = self._bodies()
        lipschitz_certificate(ClassifierAtPoint([0.6, 0.4], ClassWise((small, large))), "cw")
        with pytest.raises(SmoothnessMismatch):
            lipschitz_certificate(ClassifierAtPoint(
                [0.6, 0.4], ClassWise((small, Ellipsoid(np.eye(2), 0.5)))), "cw")

    def test_dual_balls_compared_by_the_regime_share_the_shape(self):
        duals = [s_certificate(ClassifierAtPoint([0.6, 0.4], Uniform(body)), "u").ball
                 for body in self._bodies()]
        assert one_ball_shape(duals)

    def test_class_wise_certificate_of_one_shape_is_a_ball(self):
        logits = [0.6, 0.3, 0.1]
        mixed = ClassifierAtPoint(logits, ClassWise((
            Ellipsoid(self.S1, 0.5), Ellipsoid(10.0 * self.S1, 0.2 / math.sqrt(10.0)),
            Ellipsoid(self.S1, 0.3))))
        plain = ClassifierAtPoint(logits, ClassWise((
            Ellipsoid(self.S1, 0.5), Ellipsoid(self.S1, 0.2), Ellipsoid(self.S1, 0.3))))
        cert, reference = s_certificate(mixed, "cw"), s_certificate(plain, "cw")
        assert cert.kind == reference.kind == "ball"
        assert reference.radius == pytest.approx(0.428571428571, abs=1e-12)
        for u in unit_directions(16):
            assert cert.ball.support(u) == pytest.approx(reference.ball.support(u), rel=1e-12)
        assert lipschitz_certificate(mixed, "cw").kind == "ball"

    def test_printed_ball_names_one_set(self):
        # the merge keeps one member's matrix, so the radius alone differs
        # (1.35526185 against 0.428571429); the ball {x : x' M^-1 x <= r^2}
        # fixes r^2 M.  Nine printed digits round each number by up to 5e-9
        # relative, which bounds how close the printed products can come.
        logits = [0.6, 0.3, 0.1]
        printed = []
        for second in (Ellipsoid(10.0 * self.S1, 0.2 / math.sqrt(10.0)), Ellipsoid(self.S1, 0.2)):
            clf = ClassifierAtPoint(logits, ClassWise((
                Ellipsoid(self.S1, 0.5), second, Ellipsoid(self.S1, 0.3))))
            line = describe_certificate(s_certificate(clf, "cw"))[-1]
            radius, matrix = re.fullmatch(r"  ellipsoid ball, radius (\S+), matrix (.+)", line).groups()
            printed.append(float(radius) ** 2 * np.array(json.loads(matrix)))
        np.testing.assert_allclose(printed[0], printed[1], rtol=3e-8)

    def test_regime_of_one_shape_takes_the_radii(self):
        first = ClassifierAtPoint([0.6, 0.3, 0.1], Uniform(Ellipsoid(self.S2, 0.5)))
        report = classify_regimes(EnsembleSpec((first, ClassifierAtPoint(
            [0.6, 0.1, 0.3], Uniform(Ellipsoid(10.0 * self.S2, 0.5 / math.sqrt(10.0)))))))
        plain = classify_regimes(EnsembleSpec((first, ClassifierAtPoint(
            [0.6, 0.1, 0.3], Uniform(Ellipsoid(self.S2, 0.5))))))
        assert report.evidence["method"] == plain.evidence["method"] == "radii"
        assert report.cert_regime == plain.cert_regime
        assert report.evidence["radius_members"] == pytest.approx(
            (0.3221045891052563, 0.3221045891052563), rel=1e-12)
        assert report.evidence["radius_members"] == pytest.approx(
            plain.evidence["radius_members"], rel=1e-12)

    def test_minkowski_sum_merges_the_pair(self):
        small, large = self._bodies()
        merged = minkowski_sum(small, large)
        assert isinstance(merged, Ellipsoid)
        assert merged.radius == pytest.approx(1.0, abs=1e-12)
        for u in unit_directions(16):
            assert merged.support(u) == pytest.approx(
                small.support(u) + large.support(u), abs=1e-12)
        # a matrix that is not proportional is not merged into either shape
        tilted = Ellipsoid(self.SIGMA + 1e-9 * np.eye(2), 0.5)
        assert isinstance(minkowski_sum(small, tilted), Combination)

    def test_minkowski_sum_merges_only_one_exponent(self):
        ball = LpBall(2, 0.5, [0.0, 0.0])
        merged = minkowski_sum(ball, LpBall(2.0, 0.25, [1.0, 0.0]))
        assert isinstance(merged, LpBall)
        assert (merged.p, merged.radius, list(merged.center)) == (2, 0.75, [1.0, 0.0])
        assert isinstance(minkowski_sum(ball, LpBall(2 + 1e-13, 0.25, [0.0, 0.0])), Combination)

    def test_regime_of_the_pair_is_decided_on_the_radii(self):
        small, large = self._bodies()
        logits = ([0.5, 0.3, 0.2], [0.5, 0.2, 0.3])
        mixed = classify_regimes(EnsembleSpec((ClassifierAtPoint(logits[0], Uniform(small)),
                                               ClassifierAtPoint(logits[1], Uniform(large)))))
        same = classify_regimes(EnsembleSpec((ClassifierAtPoint(logits[0], Uniform(small)),
                                              ClassifierAtPoint(logits[1], Uniform(small)))))
        assert mixed.evidence["method"] == same.evidence["method"] == "radii"
        assert mixed.cert_regime == same.cert_regime == "improvement"
        assert mixed.evidence["radius_ensemble"] == pytest.approx(
            same.evidence["radius_ensemble"], rel=1e-12)
        assert mixed.evidence["radius_members"] == pytest.approx(
            same.evidence["radius_members"], rel=1e-12)

    def test_radius_improvement_bound_sees_one_shape(self):
        small, large = self._bodies()
        spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.4], Uniform(small)),
                             ClassifierAtPoint([0.7, 0.3], Uniform(large))))
        radius_improvement_bound(spec)
        with pytest.raises(PreconditionError):
            radius_improvement_bound(EnsembleSpec((
                ClassifierAtPoint([0.6, 0.4], Uniform(small)),
                ClassifierAtPoint([0.7, 0.3], Uniform(Ellipsoid(np.eye(2), 0.5))))))

    def test_pair_radii_see_one_set(self):
        # (Sigma, 0.5) and (4 Sigma, 0.25) are one set: the bound, the radii
        # across mixing weights and the conditions must not tell them apart
        small, large = self._bodies()
        alphas = np.linspace(0.0, 1.0, 11)
        results = []
        for second in (small, large):
            spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.3, 0.1], Uniform(small)),
                                 ClassifierAtPoint([0.6, 0.1, 0.3], Uniform(second))))
            statement, proof = radius_improvement_bound(spec)
            results.append((statement.value, proof.value, common_shape_radii(spec, alphas),
                            improvement_conditions(spec)))
        (s_1, p_1, radii_1, ok_1), (s_2, p_2, radii_2, ok_2) = results
        assert s_1 == pytest.approx(s_2, rel=1e-12)
        assert p_1 == pytest.approx(p_2, rel=1e-12)
        assert np.allclose(radii_1, radii_2, rtol=1e-12, atol=0.0)
        assert ok_1 is ok_2 is True


class TestRadiusImprovementBound:
    def _shared_shape_spec(self, eps_1, eps_2, gaps_1, gaps_2):
        k = len(gaps_1) + 1
        logits_1 = np.concatenate([[1.0], 1.0 - np.asarray(gaps_1)])
        logits_2 = np.concatenate([[1.0], 1.0 - np.asarray(gaps_2)])
        members = []
        for logits, eps in ((logits_1, eps_1), (logits_2, eps_2)):
            pairs = {(i, 0): LpBall(2, float(eps[i - 1]), [0.0, 0.0])
                     for i in range(1, k)}
            members.append(ClassifierAtPoint(logits, ClassDiff(pairs)))
        return EnsembleSpec(tuple(members), np.array([0.5, 0.5]))

    def test_equal_radii_saturated_gaps_no_improvement(self):
        spec = self._shared_shape_spec([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
        statement, proof = radius_improvement_bound(spec)
        assert abs(proof.value) < 1e-12
        assert abs(statement.value) < 1e-12

    def test_single_pair_reduction(self):
        spec = self._shared_shape_spec([2.0], [2.0], [0.4], [0.7])
        statement, proof = radius_improvement_bound(spec)
        # delta = 0 and equal radii M: both variants give (1 - min gap)/M
        assert abs(statement.value - (1 - 0.4) / 2.0) < 1e-12
        assert abs(proof.value - (1 - 0.4) / 2.0) < 1e-12

    def test_grid_never_exceeds_proof_bound(self, rng):
        alphas = np.linspace(0.0, 1.0, 1001)
        for _ in range(100):
            eps = rng.uniform(0.5, 2.0, size=(2, 3))
            gap_rows = np.sort(rng.uniform(0.0, 0.5, size=(2, 3)), axis=1)
            spec = self._shared_shape_spec(eps[0], eps[1], gap_rows[0], gap_rows[1])
            _, proof = radius_improvement_bound(spec)
            radii = common_shape_radii(spec, alphas)
            improvement = radii.max() - max(radii[0], radii[-1])
            assert improvement <= proof.value + 1e-9

    def test_different_tops_rejected(self):
        members = (ball_member([0.8, 0.2]), ball_member([0.2, 0.8]))
        with pytest.raises(PreconditionError):
            radius_improvement_bound(EnsembleSpec(members))

    def test_common_shape_radii_check_the_preconditions(self):
        # at alpha = 0 the ensemble is member 2 alone: certificate radius 0.15
        # and not the 0.0 that a sweep across different tops would report
        ball = LpBall(2, 1.0, [0.0, 0.0])
        tops_differ = EnsembleSpec((ClassifierAtPoint([0.6, 0.3, 0.1], Uniform(ball)),
                                    ClassifierAtPoint([0.1, 0.3, 0.6], Uniform(ball))))
        with pytest.raises(PreconditionError, match="members must share the top prediction"):
            common_shape_radii(tops_differ, np.array([0.0, 0.5, 1.0]))
        cloud = FinitePoints([[1.0, 0.0], [0.0, 1.0]])
        clouds = EnsembleSpec((ClassifierAtPoint([0.6, 0.3, 0.1], Uniform(cloud)),
                               ClassifierAtPoint([0.6, 0.1, 0.3], Uniform(cloud))))
        with pytest.raises(PreconditionError, match="must be origin-centered balls"):
            common_shape_radii(clouds, np.array([0.5]))
        with pytest.raises(PreconditionError, match="common-shape radii are for two members"):
            common_shape_radii(EnsembleSpec(tops_differ.members[:1] * 3), np.array([0.5]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("query", [
        radius_improvement_bound,
        improvement_conditions,
        lambda spec: common_shape_radii(spec, np.array([0.0, 0.5, 1.0])),
    ], ids=["bound", "conditions", "radii"])
    def test_zero_radii_rejected(self, query):
        # zero-radius balls: the conditions divided 0 by 0 and the radii
        # divided by zero, where the bound raised
        ball = LpBall(2, 0.0, [0.0, 0.0])
        spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.3, 0.1], Uniform(ball)),
                             ClassifierAtPoint([0.6, 0.1, 0.3], Uniform(ball))))
        with pytest.raises(PreconditionError, match="per-pair smoothness radii must be positive"):
            query(spec)


class TestImprovementConditions:
    def _instance(self, swap=False, third=0.02):
        # same top, mirrored runner-ups, tiny third confidences
        f_1 = [0.6, 0.3, third]
        f_2 = [0.6, third, 0.3]
        if swap:
            f_1, f_2 = f_2, f_1
        ball = LpBall(2, 1.0, [0.0, 0.0])
        return EnsembleSpec((ClassifierAtPoint(f_1, Uniform(ball)),
                             ClassifierAtPoint(f_2, Uniform(ball))))

    def test_mirrored_instance_satisfies(self):
        spec = self._instance()
        assert improvement_conditions(spec)
        radii = common_shape_radii(spec, np.linspace(0, 1, 1001))
        assert radii.max() > max(radii[0], radii[-1]) + 1e-6

    def test_one_sided_violation_is_false(self):
        ball = LpBall(2, 1.0, [0.0, 0.0])
        # member 1 dominates both per-class gap ratios: no interior gain
        spec = EnsembleSpec((ClassifierAtPoint([0.9, 0.3, 0.02], Uniform(ball)),
                             ClassifierAtPoint([0.4, 0.02, 0.3], Uniform(ball))))
        assert improvement_conditions(spec) is False
        radii = common_shape_radii(spec, np.linspace(0, 1, 1001))
        assert radii.max() <= max(radii[0], radii[-1]) + 1e-6

    def test_same_runner_up_precondition(self):
        ball = LpBall(2, 1.0, [0.0, 0.0])
        spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.3, 0.02], Uniform(ball)),
                             ClassifierAtPoint([0.5, 0.4, 0.02], Uniform(ball))))
        with pytest.raises(PreconditionError):
            improvement_conditions(spec)

    def test_loud_third_class_precondition(self):
        ball = LpBall(2, 1.0, [0.0, 0.0])
        # class 3 scores above the smallest runner-up confidence
        spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.3, 0.02, 0.25], Uniform(ball)),
                             ClassifierAtPoint([0.6, 0.02, 0.3, 0.25], Uniform(ball))))
        with pytest.raises(PreconditionError):
            improvement_conditions(spec)


@st.composite
def simplex_logits(draw):
    """Logits of 2 to 6 members over 2 to 5 classes, each on the probability
    simplex; members may repeat an earlier member or tie every class, and
    small integer counts make ties between classes common."""
    n, k = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["counts", "floats", "copy", "tied"]))
        if kind == "copy" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "tied":
            rows.append(np.full(k, 1.0 / k))
        else:
            values = st.integers(0, 6) if kind == "counts" else st.floats(0.0, 1.0)
            row = np.array(draw(st.lists(values, min_size=k, max_size=k)), dtype=float)
            rows.append(row / row.sum() if row.sum() > 0.0 else np.full(k, 1.0 / k))
    return np.array(rows)


class TestRunnerUpGap:
    def test_rows_match_gaps(self, rng):
        logits = rng.uniform(size=(20, 5))
        logits[0, 1] = logits[0, 3] = logits[0].max()  # a tied top
        expected = [gaps(row)[2][gaps(row)[1]] for row in logits]
        assert np.array_equal(runner_up_gap(logits), expected)
        assert runner_up_gap(logits[3]) == expected[3]


class TestOptimizeWeights:
    def test_identical_members_constant(self):
        _, value = optimize_weights([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1]])
        assert abs(value - 0.5) < 1e-12

    def test_recovers_witness_value(self):
        spec = gap_bound_witness(0.2, 4)
        _, value = optimize_weights([m.logits for m in spec.members])
        assert abs(value - gap_gain_bound(0.2, 4)) <= 1e-12

    def test_opposed_tops_boundary_vertex(self):
        weights, value = optimize_weights([[0.8, 0.2], [0.3, 0.7]])
        assert np.allclose(weights, [1.0, 0.0])
        assert abs(value - 0.6) < 1e-12

    def test_three_members(self):
        weights, value = optimize_weights([[0.5, 0.3, 0.2], [0.5, 0.2, 0.3], [0.4, 0.3, 0.3]])
        assert value >= 0.25 - 1e-9  # at least the best pair mixture

    @pytest.mark.parametrize("logits", [
        [0.7, 0.2, 0.1],                 # one row, not a matrix
        [[0.7, 0.2, 0.1], [0.5, 0.5]],   # ragged
        [[0.7], [0.3]],                  # one class
        np.zeros((0, 3)),                # no member
        [[0.7, np.nan], [0.5, 0.5]],
        [[0.7, np.inf], [0.5, 0.5]],
    ])
    def test_rejects_anything_but_a_finite_logit_matrix(self, logits):
        with pytest.raises(ValueError):
            optimize_weights(logits)

    def test_one_member_keeps_its_own_gap(self, monkeypatch):
        monkeypatch.setattr(_simplex, "maximize", None)
        weights, value = optimize_weights([[0.2, 0.5, 0.3]])
        assert weights.tolist() == [1.0]
        assert value == runner_up_gap([0.2, 0.5, 0.3])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(simplex_logits())
    # the input on which solving every class died with TypeError
    @example(np.array([[0.0, 1 / 3, 2 / 9, 4 / 9, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.5, 0.5],
                       [0.0, 0.0, 0.0, 9.999999e-08, 0.9999999]]))
    def test_matches_the_vertex_oracle(self, logits):
        weights, value = optimize_weights(logits)
        assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
        assert abs(value - runner_up_gap(weights @ logits)) <= 1e-12
        assert abs(value - best_gap_by_vertices(logits)) <= 1e-9
        r_best = float(runner_up_gap(logits).max())
        assert value <= gap_gain_bound(r_best, logits.shape[1]) + 1e-12

    @staticmethod
    def _test_logits(rng, kind, n, k):
        if kind == "dirichlet":
            return rng.dirichlet(np.ones(k), size=n)
        if kind == "counts":
            counts = rng.integers(0, 5, size=(n, k)).astype(float)
            counts[counts.sum(axis=1) == 0.0] = 1.0
            return counts / counts.sum(axis=1, keepdims=True)
        logits = rng.dirichlet(np.ones(k), size=n)
        if kind == "duplicated":
            logits[-1] = logits[0]
        else:  # tied: the first member ties its top two classes
            top = np.argsort(logits[0])[-2:]
            logits[0, top] = logits[0, top].mean()
        return logits

    @staticmethod
    def _brackets(logits):
        """Each class's pure bracket [max_i min_c, min_c max_i] of the
        margins L[i, a] - L[i, c] over c != a, one class at a time."""
        k = len(logits[0])
        brackets = []
        for a in range(k):
            others = [c for c in range(k) if c != a]
            brackets.append((max(min(row[a] - row[c] for c in others) for row in logits),
                             min(max(row[a] - row[c] for row in logits) for c in others)))
        return brackets

    def test_skipping_classes_changes_no_bit(self, monkeypatch):
        # only classes whose ceiling min_c max_i (L[i, a] - L[i, c]) reaches
        # the best member's gap and whose bracket is open are solved, and the
        # answer is the one deciding every class gives
        rng = np.random.default_rng(16)
        cases = [(kind, n, k) for kind in ("dirichlet", "counts", "duplicated", "tied")
                 for n in range(2, 6) for k in range(2, 7)]
        solved = []
        maximize = _simplex.maximize
        monkeypatch.setattr(_simplex, "maximize",
                            lambda *args: solved.append(1) or maximize(*args))
        total = lp_total = 0
        for kind, n, k in cases * 4:
            logits = self._test_logits(rng, kind, n, k)
            solved.clear()
            weights, value = optimize_weights(logits)
            lp_count = len(solved)
            expected_weights, expected = reference_optimize_weights(logits)
            assert weights.tobytes() == expected_weights.tobytes()
            assert value == expected
            r_best = float(runner_up_gap(logits).max())
            assert lp_count == sum(ceiling >= r_best - 1e-9 and ceiling > floor
                                   for floor, ceiling in self._brackets(logits))
            total, lp_total = total + k, lp_total + lp_count
        assert lp_total < 0.5 * total

    def test_a_saddle_game_makes_no_lp(self, monkeypatch):
        # every class that can win has a closed bracket: the answer is the
        # first member attaining the best such value, and its own gap exactly
        monkeypatch.setattr(_simplex, "maximize", None)
        rng = np.random.default_rng(25)
        seen = 0
        for kind, n, k in [(kind, n, k) for kind in ("dirichlet", "counts", "duplicated", "tied")
                           for n in range(2, 6) for k in range(2, 7)] * 2:
            logits = self._test_logits(rng, kind, n, k)
            r_best = float(runner_up_gap(logits).max())
            if any(ceiling > floor for floor, ceiling in self._brackets(logits)
                   if ceiling >= r_best - 1e-9):
                continue
            weights, value = optimize_weights(logits)
            best = int(np.argmax(runner_up_gap(logits)))
            assert weights.tobytes() == np.eye(n)[best].tobytes()
            assert value == runner_up_gap(logits[best]) == r_best
            seen += 1
        assert seen > 100

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["dirichlet", "counts", "duplicated", "tied"]),
           st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_a_closed_bracket_is_the_game_value(self, kind, n, k, seed):
        # a closed bracket's lower end is the class LP's optimum (scipy), and
        # the answer is the best class optimum
        from scipy.optimize import linprog

        logits = self._test_logits(np.random.default_rng(seed), kind, n, k)
        values = []
        for a, (floor, ceiling) in enumerate(self._brackets(logits)):
            margins = logits[:, [a]] - np.delete(logits, a, axis=1)
            res = linprog(np.eye(n + 1)[n] * -1.0,
                          A_ub=np.column_stack([-margins.T, np.ones(k - 1)]), b_ub=np.zeros(k - 1),
                          A_eq=np.append(np.ones(n), 0.0)[None], b_eq=[1.0],
                          bounds=[(0.0, None)] * n + [(None, None)], method="highs")
            assert res.status == 0
            values.append(-res.fun)
            if ceiling <= floor:
                assert abs(floor - values[-1]) <= 1e-12
        _, value = optimize_weights(logits)
        assert abs(value - max(values)) <= 1e-9

    @pytest.mark.parametrize("second", [
        [0.5, 0.0, 0.5, 0.0, 0.0],  # the class-4 LP reported 1.4999999
        [0.0, 0.0, 0.5, 0.0, 0.5],  # the class-4 LP reported unbounded
    ])
    def test_near_degenerate_saddles_make_no_lp(self, second, monkeypatch):
        # the class-4 bracket is closed at the last member's gap
        # 0.99999960000008, the class-4 LP's optimum (scipy) that the simplex
        # misses (tests/test_simplex.py); every other class has a lower
        # ceiling, so no LP runs and the answer is that member alone
        monkeypatch.setattr(_simplex, "maximize", None)
        logits = [[0.0, 0.2678741658722593, 0.2440419447092469, 0.4880838894184938, 0.0],
                  second,
                  [0.5, 0.0, 0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.0, 0.5, 0.5],
                  [0.0, 0.0, 0.0, 1.9999996000000803e-07, 0.9999998000000401]]
        weights, value = optimize_weights(logits)
        assert np.array_equal(weights, [0.0, 0.0, 0.0, 0.0, 1.0])
        assert value == runner_up_gap(logits[4]) == 0.99999960000008

    def test_weights_renormalized_onto_the_optimum_are_kept(self):
        # draw (4, 810) of criterion 6 (seed 7): its class-3 LP reported
        # 0.7365343 at weights summing to 0.99988, below the best member's gap
        # 0.73657506; its bracket is closed, so the answer is that member alone
        logits = np.array([
            [0.07315221465458084, 0.14171762371460034, 0.7235589147447342, 0.06157124688608458],
            [0.08616956819768419, 0.07270432958599563, 0.1309216184373643, 0.7102044837789558],
            [0.03686515283110442, 0.03215123338010883, 0.09720427624385862, 0.8337793375449281],
            [0.026152140236205285, 0.5173253782232933, 0.17193342910946496, 0.28458905243103655]])
        assert self._brackets(logits)[3][1] <= self._brackets(logits)[3][0]
        weights, value = optimize_weights(logits)
        assert np.array_equal(weights, [0.0, 0.0, 1.0, 0.0])
        assert value == runner_up_gap(logits[2]) == best_gap_by_vertices(logits)

    # the best member's gap is 0.25; every class's bracket is open (0.25 to
    # 0.75 for class 0, 0 to 0.5 for classes 1 and 2), and the optimum is 0.5
    # at the first two members' midpoint
    OPEN = [[0.75, 0.5, 0.0], [0.75, 0.0, 0.5], [0.0, 0.5, 0.5]]

    def _stubbed(self, monkeypatch, value, point):
        """optimize_weights(OPEN) with every class LP answering `value` at `point`."""
        assert all(floor < ceiling for floor, ceiling in self._brackets(self.OPEN))
        answer = np.array([value]), np.array([point], dtype=float)
        monkeypatch.setattr(_simplex, "maximize", lambda *args: answer)
        return optimize_weights(self.OPEN)

    def test_stubbed_weights_are_renormalized(self, monkeypatch):
        # an optimum at weights summing to 0.99988 is put back onto the
        # simplex, and the gap is recomputed there
        weights, value = self._stubbed(monkeypatch, 0.49994, [0.49994, 0.49994, 0.0, 0.49994])
        assert np.array_equal(weights, [0.5, 0.5, 0.0])
        assert value == 0.5 == best_gap_by_vertices(self.OPEN)

    @pytest.mark.parametrize("value, point, answer", [
        (math.inf, [math.nan] * 4, "unbounded"),
        (-math.inf, [math.nan] * 4, "infeasible"),
        (0.76, [0.5, 0.5, 0.0, 0.76], "the value 0.76"),
    ], ids=["unbounded", "infeasible", "above_the_bracket"])
    def test_a_wrong_class_lp_raises(self, monkeypatch, value, point, answer):
        with pytest.raises(WeightLPError, match=rf"class 0 returned {answer}; .* \[0.25, 0.75\]$"):
            self._stubbed(monkeypatch, value, point)

    def test_an_answer_below_the_best_member_raises(self, monkeypatch):
        # an optimum at the third member, whose gap is 0, must not reach the
        # caller
        with pytest.raises(WeightLPError, match="class 0 .* below 0.25"):
            self._stubbed(monkeypatch, 0.5, [0.0, 0.0, 1.0, 0.5])


class TestRegimeCrossValidation:
    """The LP regime decision against a dense membership-grid oracle, and
    the ball fast path against the region path on equivalent bodies."""

    def _grid_consistent(self, spec, regime):
        """False iff a 161 x 161 grid over the certificates' window holds a
        point that contradicts `regime` for the union and the intersection
        of all member certificates (mode u, 2D)."""
        q_g = s_certificate(ensemble_classifier(spec), "u")
        members = [s_certificate(m, "u") for m in spec.members]
        reach = max(float(np.max(q.ray_extent(unit_directions(256)))) for q in members + [q_g])
        axis = np.linspace(-1.25 * reach, 1.25 * reach, 161)
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        inside = np.stack([q.contains(grid, tol=-1e-7) for q in members])
        outside = ~np.stack([q.contains(grid, tol=1e-7) for q in members])
        in_g, out_g = q_g.contains(grid, tol=-1e-7), ~q_g.contains(grid, tol=1e-7)
        contradiction = {
            "improvement": inside.any(axis=0) & out_g,
            "reduction": in_g & outside.any(axis=0),
            "inconclusive": (inside.all(axis=0) & out_g) | (in_g & outside.all(axis=0)),
        }[regime]
        return not contradiction.any()

    def test_lp_regimes_match_membership_grid(self, rng):
        shared = FinitePoints([[0.9, 0.2], [-0.4, 0.6], [-0.3, -0.7], [0.5, -0.5]])
        structured = [
            # diverse runner-ups over one body: strict improvement
            EnsembleSpec((ClassifierAtPoint([0.5, 0.3, 0.2], Uniform(shared)),
                          ClassifierAtPoint([0.5, 0.2, 0.3], Uniform(shared)))),
            # crossing tops: reduction
            EnsembleSpec((ClassifierAtPoint([0.6, 0.4], Uniform(shared)),
                          ClassifierAtPoint([0.4, 0.6], Uniform(shared))),
                         np.array([0.5, 0.5])),
            # identical members: sandwiched
            EnsembleSpec((ClassifierAtPoint([0.7, 0.3], Uniform(shared)),
                          ClassifierAtPoint([0.7, 0.3], Uniform(shared)))),
        ]
        specs = structured
        for _ in range(12):
            members = tuple(
                ClassifierAtPoint(rng.uniform(0.0, 1.0, size=3),
                                  Uniform(FinitePoints(rng.standard_normal((4, 2)))))
                for _ in range(2))
            specs.append(EnsembleSpec(members, rng.dirichlet(np.ones(2))))
        seen = set()
        for spec in specs:
            report = classify_regimes(spec)
            seen.add(report.cert_regime)
            if report.cert_regime != "indeterminate":
                assert self._grid_consistent(spec, report.cert_regime), \
                    f"grid oracle contradicts {report.cert_regime}"
        assert {"improvement", "reduction", "inconclusive"} <= seen

    @pytest.mark.parametrize("n_members", [3, 4])
    def test_more_members_match_membership_grid(self, n_members):
        # the regime against the union and intersection of all members; the
        # pairwise fold that decided these before was contradicted by the
        # grid on some of the random draws
        shared = FinitePoints([[0.9, 0.2], [-0.4, 0.6], [-0.3, -0.7], [0.5, -0.5]])
        diverse = [[0.5, 0.3, 0.2, 0.0, 0.0], [0.5, 0.0, 0.3, 0.2, 0.0],
                   [0.5, 0.0, 0.0, 0.3, 0.2], [0.5, 0.2, 0.0, 0.0, 0.3]]
        crossing = [[0.6, 0.4], [0.4, 0.6], [0.45, 0.55], [0.55, 0.45]]
        specs = [EnsembleSpec(tuple(ClassifierAtPoint(row, Uniform(shared))
                                    for row in rows[:n_members]))
                 for rows in (diverse, crossing)]
        rng = np.random.default_rng(n_members)
        for _ in range(12):
            members = tuple(
                ClassifierAtPoint(rng.dirichlet(np.ones(3)),
                                  Uniform(FinitePoints(rng.standard_normal((6, 2)))))
                for _ in range(n_members))
            specs.append(EnsembleSpec(members, rng.dirichlet(np.ones(n_members))))
        seen = set()
        for spec in specs:
            report = classify_regimes(spec)
            assert report.evidence["method"] == "lp"
            seen.add(report.cert_regime)
            if report.cert_regime != "indeterminate":
                assert self._grid_consistent(spec, report.cert_regime), \
                    f"grid oracle contradicts {report.cert_regime}"
        assert {"improvement", "reduction", "inconclusive"} <= seen

    def test_three_members_pinned(self):
        # equal weights; folding the members pairwise called this
        # "inconclusive", which the grid contradicts
        logits = [[0.726, 0.076, 0.198], [0.073, 0.6, 0.327], [0.207, 0.055, 0.738]]
        points = [[[-2.92, -0.35], [1.25, 0.03], [0.51, 1.02], [-0.88, 2.65]],
                  [[-0.11, 0.11], [-0.51, 0.33], [-2.13, -0.65], [1.69, 0.21]],
                  [[0.15, 0.58], [-1.66, 0.59], [-0.67, 0.79], [-0.02, -1.0]]]
        spec = EnsembleSpec(tuple(ClassifierAtPoint(row, Uniform(FinitePoints(pts)))
                                  for row, pts in zip(logits, points)))
        report = classify_regimes(spec)
        assert report.cert_regime == "reduction"
        assert report.evidence == {
            "method": "lp", "contains_intersection": False, "within_union": True,
            "contains_union": False, "within_intersection": True, "strict_deficit": True,
            "trivial_ensemble_certificate": False,
        }
        assert self._grid_consistent(spec, "reduction")
        assert not self._grid_consistent(spec, "inconclusive")

    def test_zero_weight_members_are_decided(self):
        # weights (0, 0, 1) once ended in evidence["error"] ("weights must
        # not all be zero"); the same members at n = 2 were decided by LP
        rng = np.random.default_rng(3)
        members = tuple(ClassifierAtPoint(rng.dirichlet(np.ones(3)),
                                          Uniform(FinitePoints(rng.standard_normal((5, 2)))))
                        for _ in range(3))
        spec = EnsembleSpec(members, np.array([0.0, 0.0, 1.0]))
        report = classify_regimes(spec)
        pair = classify_regimes(EnsembleSpec(members[1:], np.array([0.0, 1.0])))
        assert "error" not in report.evidence
        assert report.evidence["method"] == pair.evidence["method"] == "lp"
        assert report.cert_regime == "inconclusive"
        assert self._grid_consistent(spec, report.cert_regime)

    def test_ball_and_region_paths_agree(self, rng):
        # an linf ball equals the hull of its four corners, so the same
        # instance can be classified by radii or by LP regions
        for _ in range(25):
            logits = rng.uniform(0.0, 1.0, size=(2, 3)).round(2)
            radii = rng.uniform(0.3, 1.5, size=2).round(2)
            corners = [r * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
                       for r in radii]
            as_balls = EnsembleSpec(tuple(
                ClassifierAtPoint(row, Uniform(LpBall(np.inf, r, [0.0, 0.0])))
                for row, r in zip(logits, radii)))
            as_polygons = EnsembleSpec(tuple(
                ClassifierAtPoint(row, Uniform(FinitePoints(pts)))
                for row, pts in zip(logits, corners)))
            ball_report = classify_regimes(as_balls)
            region_report = classify_regimes(as_polygons)
            assert ball_report.evidence["method"] == "radii"
            assert region_report.evidence["method"] == "lp"
            assert ball_report.cert_regime == region_report.cert_regime
            assert ball_report.gap_regime == region_report.gap_regime


def _sampled_reference(q_g, *member_certs):
    """The sampled regime decision, one direction at a time."""
    dirs = unit_directions(10_000, dim=q_g.dim, seed=0)
    e_g = np.array([reference_extent(q_g, u) for u in dirs])
    extents = [[reference_extent(q, u) for q in member_certs] for u in dirs]
    hi, lo = np.max(extents, axis=1), np.min(extents, axis=1)
    flags = {"within_union": bool(np.all(e_g <= hi + 1e-9)),
             "contains_union": bool(np.all(e_g >= hi - 1e-9)),
             "contains_intersection": bool(np.all(e_g >= lo - 1e-9)),
             "within_intersection": bool(np.all(e_g <= lo + 1e-9))}
    if flags["contains_union"] and np.any(e_g > hi + 1e-6):
        return "improvement", flags
    if flags["within_intersection"] and np.any(e_g < lo - 1e-6):
        return "reduction", flags
    if flags["contains_intersection"] and flags["within_union"]:
        return "inconclusive", flags
    return "indeterminate", flags


class TestSampledRegime:
    """Certificates that are neither shared-shape balls nor all regions are
    compared along 10,000 seeded directions."""

    def test_fig6_evidence_is_pinned(self):
        report = classify_regimes(load_fixture("fig6.json").to_ensemble())
        assert (report.gap_regime, report.cert_regime) == ("inconclusive", "inconclusive")
        assert report.evidence == {
            "method": "sampled", "n_directions": 10_000,
            "within_union": True, "contains_union": False,
            "contains_intersection": True, "within_intersection": False,
            "trivial_ensemble_certificate": False,
        }

    @pytest.mark.parametrize("logits, regime", [
        (([0.62, 0.25, 0.12], [0.74, 0.02, 0.24]), "improvement"),
        (([0.6, 0.4, 0.0], [0.4, 0.6, 0.0]), "reduction"),  # trivial ensemble certificate
        (([0.7, 0.2, 0.1], [0.7, 0.2, 0.1]), "inconclusive"),
        (([0.5, 0.3, 0.2], [0.5, 0.2, 0.3]), "indeterminate"),
    ])
    def test_region_against_ball_matches_the_reference_loop(self, logits, regime):
        cloud = FinitePoints([[0.9, 0.2], [-0.4, 0.6], [-0.3, -0.7], [0.5, -0.5]])
        spec = EnsembleSpec((ClassifierAtPoint(logits[0], Uniform(cloud)),
                             ClassifierAtPoint(logits[1], Uniform(L2))))
        certs = [s_certificate(ensemble_classifier(spec), "u")]
        certs += [s_certificate(m, "u") for m in spec.members]
        assert certs[1].region is not None and certs[2].ball is not None
        report = classify_regimes(spec)
        assert report.evidence["method"] == "sampled"
        assert report.cert_regime == regime
        reference, flags = _sampled_reference(*certs)
        assert reference == regime
        assert {key: report.evidence[key] for key in flags} == flags


    @pytest.mark.parametrize("logits, regime", [
        (([0.5, 0.3, 0.2, 0.0], [0.5, 0.0, 0.3, 0.2], [0.5, 0.2, 0.0, 0.3]), "improvement"),
        (([0.6, 0.4, 0.0], [0.4, 0.6, 0.0], [0.55, 0.45, 0.0]), "reduction"),
        (([0.5, 0.3, 0.2], [0.5, 0.2, 0.3], [0.6, 0.3, 0.1]), "inconclusive"),
        (([0.5, 0.3, 0.2], [0.5, 0.2, 0.3], [0.5, 0.3, 0.2]), "indeterminate"),
    ])
    def test_three_member_mix_matches_the_reference_loop(self, logits, regime):
        # a region, an l2 ball and an l1 ball (from an linf gradient ball)
        cloud = FinitePoints([[0.9, 0.2], [-0.4, 0.6], [-0.3, -0.7], [0.5, -0.5]])
        bodies = (cloud, L2, LpBall(np.inf, 0.6, [0.0, 0.0]))
        spec = EnsembleSpec(tuple(ClassifierAtPoint(row, Uniform(body))
                                  for row, body in zip(logits, bodies)))
        certs = [s_certificate(ensemble_classifier(spec), "u")]
        certs += [s_certificate(m, "u") for m in spec.members]
        assert certs[1].region is not None and certs[2].ball is not None
        report = classify_regimes(spec)
        assert report.evidence["method"] == "sampled"
        assert report.cert_regime == regime
        reference, flags = _sampled_reference(*certs)
        assert reference == regime
        assert {key: report.evidence[key] for key in flags} == flags


class TestSameTopExclusions:
    def test_gap_never_below_worst(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 5))
            logits = rng.uniform(0, 1, size=(n, 4))
            logits[:, 2] += 1.0
            weights = rng.dirichlet(np.ones(n))
            spec = EnsembleSpec(tuple(ClassifierAtPoint(row) for row in logits), weights)
            _, c_b, r = gaps(ensemble_logits(spec))
            worst = min(m.gap for m in spec.members)
            assert float(r[c_b]) >= worst - 1e-12

    def test_intersection_inside_ensemble_cert(self, rng):
        for _ in range(30):
            k = 3
            logits = rng.uniform(0, 1, size=(2, k))
            logits[:, 0] += 1.0
            members = []
            for row in logits:
                pairs = {(i, 0): FinitePoints(rng.standard_normal((3, 2)))
                         for i in range(1, k)}
                members.append(ClassifierAtPoint(row, ClassDiff(pairs)))
            spec = EnsembleSpec(tuple(members), rng.dirichlet(np.ones(2)))
            q_1 = s_certificate(spec.members[0], "cd").region
            q_2 = s_certificate(spec.members[1], "cd").region
            q_g = s_certificate(ensemble_classifier(spec), "cd").region
            assert region_subset(q_1.intersect(q_2), q_g)


_FLAGS = ("contains_union", "within_union", "contains_intersection", "within_intersection")
# the eight op kinds of one perfbench `regimes` cycle: (dimension, mode, points)
_REGIME_KINDS = ((2, "u", 8), (2, "cw", 8), (2, "cd", 8), (3, "u", 4),
                 (2, "u", 8), (2, "cw", 8), (2, "cd", 8), (3, "cd", 6))


def _point_cloud_member(logits, grads, mode: str) -> ClassifierAtPoint:
    if mode == "u":
        return ClassifierAtPoint(logits, Uniform(FinitePoints(grads)))
    k = grads.shape[1]
    if mode == "cw":
        return ClassifierAtPoint(logits, ClassWise(tuple(
            FinitePoints(grads[:, i, :]) for i in range(k))))
    return ClassifierAtPoint(logits, ClassDiff({
        (i, j): FinitePoints(grads[:, i, :] - grads[:, j, :])
        for i in range(k) for j in range(k) if i != j}))


def _regime_ops(seed: int, n_ops: int):
    """The inputs of the perfbench `regimes` op list of a seed, as ensembles."""
    rng = np.random.default_rng([seed, 4])
    for index in range(n_ops):
        dim, mode, points = _REGIME_KINDS[index % len(_REGIME_KINDS)]
        members = []
        for _ in range(2):
            logits = rng.dirichlet(np.ones(3))
            grads = rng.standard_normal((points, dim) if mode == "u" else (points, 3, dim))
            members.append(_point_cloud_member(logits, grads, mode))
        yield EnsembleSpec(tuple(members), rng.dirichlet(np.ones(2)))


def _timed_regime(spec: EnsembleSpec):
    start = time.perf_counter()
    report = classify_regimes(spec)
    elapsed = time.perf_counter() - start
    assert report.evidence["method"] == "lp"
    return report.cert_regime, tuple(report.evidence[key] for key in _FLAGS), elapsed


class TestPointCloudRegimes:
    """Point-cloud ensembles on the LP path: verdicts pinned from before the
    3D extreme-point prune, and 3D cases that took seconds to minutes there."""

    SNAPSHOT = pathlib.Path(__file__).parent / "data" / "regimes_verdicts.json"

    def test_perfbench_verdicts_replay(self):
        recorded = json.loads(self.SNAPSHOT.read_text())["ops"]
        for seed in (1, 2, 3):
            rows = [r for r in recorded if r["seed"] == seed]
            for row, spec in zip(rows, _regime_ops(seed, len(rows)), strict=True):
                regime, flags, _ = _timed_regime(spec)
                assert (regime, list(flags)) == (row["cert_regime"], row["flags"]), row

    def test_two_3d_members_with_eight_points(self):
        # 3,721 distinct points in S + (-S) of the ensemble, 92 of them extreme
        rng = np.random.default_rng(1)
        members = tuple(ClassifierAtPoint(rng.dirichlet(np.ones(3)),
                                          Uniform(FinitePoints(rng.standard_normal((8, 3)))))
                        for _ in range(2))
        regime, flags, elapsed = _timed_regime(EnsembleSpec(members))
        assert (regime, flags) == ("reduction", (False, True, False, True))
        assert elapsed < 1.0

    @pytest.mark.parametrize("draw, flags", [
        (0, (False, True, False, False)),
        (1, (False, False, True, False)),
        (2, (False, True, False, False)),
    ])
    def test_three_3d_members_with_four_points(self, draw, flags):
        rng = np.random.default_rng(5)
        for _ in range(draw + 1):
            members = tuple(ClassifierAtPoint(rng.dirichlet(np.ones(3)),
                                              Uniform(FinitePoints(rng.standard_normal((4, 3)))))
                            for _ in range(3))
            weights = rng.dirichlet(np.ones(3))
        regime, got, elapsed = _timed_regime(EnsembleSpec(members, weights))
        assert (regime, got) == ("indeterminate", flags)
        assert elapsed < 1.0


def _full_queries(spec: EnsembleSpec) -> tuple[str, dict]:
    """The LP regime and evidence from every containment query run in full:
    the carve even when a member region holds g, and the union against g even
    when the intersection is not inside g."""
    mode = spec.members[0].smoothness.mode
    g = s_certificate(ensemble_classifier(spec), mode).region
    regions = [s_certificate(m, mode).region for m in spec.members]
    inter = functools.reduce(HalfspaceRegion.intersect, regions)
    carves, last = regions[:-1], regions[-1]
    flags = {"contains_intersection": region_subset(inter, g),
             "within_union": region_minus_subset(g, carves, last),
             "contains_union": all(region_subset(r, g) for r in regions),
             "within_intersection": region_subset(g, inter)}
    strict_excess = not region_minus_subset(g, carves, last, STRICT_MARGIN)
    strict_deficit = not region_subset(inter, g, STRICT_MARGIN)
    if flags["contains_union"] and strict_excess:
        return "improvement", {"method": "lp", **flags, "strict_excess": True}
    if flags["within_intersection"] and strict_deficit:
        return "reduction", {"method": "lp", **flags, "strict_deficit": True}
    if flags["contains_intersection"] and flags["within_union"]:
        return "inconclusive", {"method": "lp", **flags}
    return "indeterminate", {"method": "lp", **flags}


@st.composite
def point_cloud_ensembles(draw, dims=(2, 3)):
    """2 to 4 members in 2D or 3D, in mode u, cw or cd, from a drawn seed; a
    3D member holds 3-point clouds, and a 3D cw ensemble at most 3 members (a
    fourth takes a second or more).  2D members may share their gradients and
    differ only in their logits, which is where improvements are found (in 3D
    the full carve of such members takes seconds)."""
    dim, mode = draw(st.sampled_from(dims)), draw(st.sampled_from(["u", "cw", "cd"]))
    n = draw(st.integers(2, 3 if (dim, mode) == (3, "cw") else 4))
    points = draw(st.integers(3, 6)) if dim == 2 else 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (points, dim) if mode == "u" else (points, 3, dim)
    shared = rng.standard_normal(shape) if dim == 2 and draw(st.booleans()) else None
    members = tuple(_point_cloud_member(
        rng.dirichlet(np.ones(3)), rng.standard_normal(shape) if shared is None else shared, mode)
        for _ in range(n))
    return EnsembleSpec(members, rng.dirichlet(np.ones(n)))


def _scaled_spec(spec: EnsembleSpec, k: int) -> EnsembleSpec:
    """The ensemble with every gradient set scaled by 2^k."""
    def scaled(smoothness):
        if isinstance(smoothness, Uniform):
            return Uniform(scaled_body(smoothness.body, k))
        if isinstance(smoothness, ClassWise):
            return ClassWise(tuple(scaled_body(body, k) for body in smoothness.bodies))
        return ClassDiff({pair: scaled_body(body, k) for pair, body in smoothness.pairs.items()})
    return EnsembleSpec(tuple(ClassifierAtPoint(m.logits, scaled(m.smoothness))
                              for m in spec.members), spec.weights)


def _1d_ensemble(mode: str, seed: int) -> EnsembleSpec:
    """Two 1D members of 3 classes with 4 gradient sites each, drawn from a seed."""
    rng = np.random.default_rng(seed)
    shape = (4, 1) if mode == "u" else (4, 3, 1)
    return EnsembleSpec(tuple(_point_cloud_member(rng.dirichlet(np.ones(3)),
                                                  rng.standard_normal(shape), mode)
                              for _ in range(2)), rng.dirichlet(np.ones(2)))


class TestVerdictsScale:
    """Scaling every gradient set by 2^k scales every certificate by 2^-k, so
    no verdict moves.  The exact 1D and 2D paths hold that at every exact
    scale; the dense simplex of 3D regions does not yet, as its tolerances
    are absolute (ROADMAP items 2 and 3)."""

    # each moved at 2^39 and 2^64 while the dense simplex answered 1D regions,
    # as entries of 1 / row fell below its absolute pivot tolerance
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["u", "cw", "cd"]), st.integers(0, 2**32 - 1),
           st.integers(-1000, 1000))
    @example("u", 2, 39)
    @example("u", 2, 64)
    @example("cw", 2, 39)
    @example("cw", 2, 64)
    @example("cd", 2, 39)
    @example("cd", 2, 64)
    def test_a_1d_verdict_and_its_evidence_at_every_scale(self, mode, seed, k):
        spec = _1d_ensemble(mode, seed)
        assume(all(all_normal(np.ldexp(body.points, k))
                   for m in spec.members for body in m.smoothness.bodies))
        report, scaled = classify_regimes(spec), classify_regimes(_scaled_spec(spec, k))
        assert (scaled.cert_regime, scaled.evidence) == (report.cert_regime, report.evidence)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(point_cloud_ensembles(dims=(2,)), st.integers(-1000, 1000))
    def test_a_2d_verdict_and_its_evidence_at_every_scale(self, spec, k):
        assume(all(all_normal(np.ldexp(body.points, k))
                   for m in spec.members for body in m.smoothness.bodies))
        report, scaled = classify_regimes(spec), classify_regimes(_scaled_spec(spec, k))
        assert (scaled.cert_regime, scaled.evidence) == (report.cert_regime, report.evidence)

    @pytest.mark.parametrize("op, k", [
        (0, 64), (0, -64), (0, 600), (0, -600),  # 2d-u, inconclusive
        pytest.param(7, 64, marks=pytest.mark.xfail(  # 3d-cd, inconclusive
            strict=True, reason="indeterminate: the dense simplex's tolerances are "
            "absolute (ROADMAP items 2 and 3)")),
        pytest.param(59, -64, marks=pytest.mark.xfail(  # 3d-u, indeterminate
            strict=True, reason="reduction: the dense simplex's tolerances are "
            "absolute (ROADMAP items 2 and 3)")),
    ])
    def test_a_regimes_op_of_seed_1(self, op, k):
        *_, spec = _regime_ops(1, op + 1)
        report, scaled = classify_regimes(spec), classify_regimes(_scaled_spec(spec, k))
        assert (scaled.cert_regime, scaled.evidence) == (report.cert_regime, report.evidence)


class TestRegimeQueries:
    """The LP path queries a flag only where no other flag decides it, and
    reports what every query run in full reports."""

    # g inside the second member region and not the first (an `inconclusive`)
    HELD_BY_ONE = EnsembleSpec((
        ClassifierAtPoint([0.57, 0.39, 0.05], Uniform(FinitePoints(
            [[-0.5, 1.4], [0.4, -0.5], [-1.9, -1.3], [1.1, -0.1]]))),
        ClassifierAtPoint([0.11, 0.78, 0.11], Uniform(FinitePoints(
            [[-0.3, 1.6], [-1.3, -0.6], [-0.5, 0.6], [-0.7, -0.6]])))))
    # the intersection is not inside g (an `indeterminate`)
    MISSES_INTERSECTION = EnsembleSpec((
        ClassifierAtPoint([0.33, 0.17, 0.5], Uniform(FinitePoints(
            [[-1.0, -0.6], [-1.0, 0.4], [0.8, -0.5], [-0.2, -0.6]]))),
        ClassifierAtPoint([0.67, 0.14, 0.19], Uniform(FinitePoints(
            [[0.5, 0.1], [1.6, -1.1], [0.4, 0.4], [-0.4, 0.6]])))))

    # members of one body with diverse runner-ups: improvements, which random
    # draws rarely give
    IMPROVEMENTS = [EnsembleSpec(tuple(
        ClassifierAtPoint(row, Uniform(FinitePoints(
            [[0.9, 0.2], [-0.4, 0.6], [-0.3, -0.7], [0.5, -0.5]]))) for row in rows))
        for rows in ([[0.5, 0.3, 0.2], [0.5, 0.2, 0.3]],
                     [[0.5, 0.3, 0.2, 0.0], [0.5, 0.0, 0.3, 0.2], [0.5, 0.2, 0.0, 0.3]])]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point_cloud_ensembles())
    @example(spec=IMPROVEMENTS[0])
    @example(spec=IMPROVEMENTS[1])
    def test_flags_equal_every_query_run_in_full(self, spec):
        report = classify_regimes(spec)
        assert report.evidence.pop("trivial_ensemble_certificate") in (True, False)
        assert (report.cert_regime, report.evidence) == _full_queries(spec)

    def test_no_carve_when_one_member_region_holds_g(self, monkeypatch):
        spec = self.HELD_BY_ONE
        g = s_certificate(ensemble_classifier(spec), "u").region
        r_1, r_2 = (s_certificate(m, "u").region for m in spec.members)
        assert region_subset(g, r_2) and not region_subset(g, r_1)
        carves = []
        monkeypatch.setattr("scert.ensemble.region_minus_subset",
                            lambda *args: carves.append(args) or region_minus_subset(*args))
        report = classify_regimes(spec)
        assert carves == []
        assert report.cert_regime == "inconclusive"
        assert report.evidence["within_union"] and not report.evidence["within_intersection"]

    def test_no_union_query_when_the_intersection_is_not_inside_g(self, monkeypatch):
        spec = self.MISSES_INTERSECTION
        g = s_certificate(ensemble_classifier(spec), "u").region
        queries = []
        monkeypatch.setattr("scert.ensemble.region_subset",
                            lambda a, b: queries.append((a, b)) or region_subset(a, b))
        report = classify_regimes(spec)
        assert not report.evidence["contains_intersection"]
        assert not report.evidence["contains_union"]
        # only g against each member region: no member region against g
        assert len(queries) == 2
        assert all(a.normals.tobytes() == g.normals.tobytes() for a, _ in queries)


class TestBoundaryRefutations:
    """Boundary points of star regions refute containments before any LP: the
    regime and its evidence are those of the queries with no refutation, and a
    union witness lies in g and outside every member region by its depth."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point_cloud_ensembles())
    def test_verdict_and_evidence_as_with_no_boundary_points(self, spec):
        report = classify_regimes(spec)

        def none_refuted(objectives, region, limits):
            return np.zeros(len(objectives), dtype=bool)

        with (mock.patch.object(geo, "_refuted", none_refuted),
              mock.patch("scert.ensemble.union_witness", lambda g, regions: None)):
            plain = classify_regimes(spec)
        assert (report.cert_regime, report.evidence) == (plain.cert_regime, plain.evidence)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point_cloud_ensembles())
    def test_a_union_witness_lies_in_g_and_outside_every_member(self, spec):
        mode = spec.members[0].smoothness.mode
        g = s_certificate(ensemble_classifier(spec), mode).region
        regions = [s_certificate(m, mode).region for m in spec.members]
        witness = union_witness(g, regions)
        if witness is None:
            return
        x, depth = witness
        assert g.contains(x)
        assert depth == pytest.approx(
            min(float((r.normals @ x - r.offsets).max()) for r in regions), rel=1e-12, abs=1e-15)
        for slack in (TOL, STRICT_MARGIN):
            if depth > slack:
                assert all((r.normals @ x > r.offsets + slack).any() for r in regions)
                assert not region_minus_subset(g, regions[:-1], regions[-1], slack)

    def test_a_witness_settles_within_union_with_no_carve(self, monkeypatch):
        rng = np.random.default_rng(6)
        members = tuple(ClassifierAtPoint(rng.dirichlet(np.ones(3)), Uniform(FinitePoints(
            rng.standard_normal((4, 3))))) for _ in range(2))
        spec = EnsembleSpec(members, rng.dirichlet(np.ones(2)))
        carves = []
        monkeypatch.setattr("scert.ensemble.region_minus_subset",
                            lambda *args: carves.append(args) or region_minus_subset(*args))
        report = classify_regimes(spec)
        assert carves == []
        assert report.cert_regime == "indeterminate" and not report.evidence["within_union"]
        # with no witness the carve runs, once, and finds the same
        monkeypatch.setattr("scert.ensemble.union_witness", lambda g, regions: None)
        assert classify_regimes(spec) == report
        assert len(carves) == 1


@st.composite
def raw_cloud_ensembles(draw):
    """2 to 4 point-cloud members in d = 1 to 3, in mode u, cw or cd, with the
    raw gradient arrays they were built from; a 3D member holds 3-point clouds."""
    dim, mode = draw(st.integers(1, 3)), draw(st.sampled_from(["u", "cw", "cd"]))
    n = draw(st.integers(2, 4))
    points = draw(st.integers(2, 5)) if dim < 3 else 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (points, dim) if mode == "u" else (points, 3, dim)
    grads = [rng.standard_normal(shape) for _ in range(n)]
    members = tuple(_point_cloud_member(rng.dirichlet(np.ones(3)), g, mode) for g in grads)
    return mode, grads, EnsembleSpec(members, rng.dirichlet(np.ones(n)))


class TestOneCompositionRule:
    """An ensemble's certificate bodies are the weighted sums of its members'
    difference bodies in every mode, each with the ensemble's own gap."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(raw_cloud_ensembles())
    def test_supports_are_the_raw_weighted_sums(self, case):
        # each constraint's support is sum_m w_m (max_p p.u + max_q -q.u) over
        # the raw member points, with (P, Q) = (S, S), (G_i, G_top), or
        # (G_i - G_top, {0}) in cd, where the difference is the pair's own body
        mode, grads, spec = case
        composed = ensemble_classifier(spec)
        top, r = composed.top, composed.gap_vector
        others = [i for i in range(spec.n_classes) if i != top]
        if mode == "u":
            terms, gaps_wanted = [[(g, g) for g in grads]], [composed.gap]
        else:
            origin = np.zeros((1, composed.dim))
            terms = [[(g[:, i], g[:, top]) if mode == "cw" else (g[:, i] - g[:, top], origin)
                      for g in grads] for i in others]
            gaps_wanted = [float(r[i]) for i in others]
        constraints = composed.smoothness.constraints(top, r)
        assert [gap for _, gap in constraints] == gaps_wanted
        for (body, _), column in zip(constraints, terms, strict=True):
            for u in unit_directions(16, composed.dim, seed=33):
                parts = [w * np.array([np.max(p @ u), np.max(-q @ u)])
                         for w, (p, q) in zip(spec.weights, column)]
                want, scale = float(np.sum(parts)), float(np.sum(np.abs(parts)))
                assert abs(body.support(u) - want) <= 1e-12 * scale

    def test_four_3d_members_of_eight_points_decide(self):
        # the composed S of these members has 101 points, so S (+) -S would
        # pass the 10,000-point cap; the pruned sums of the members' own
        # S_m (+) -S_m stay under it
        rng = np.random.default_rng([2, 3, 4])
        members = []
        for _ in range(4):
            cloud = FinitePoints(rng.standard_normal((8, 3)))
            members.append(ClassifierAtPoint(rng.dirichlet(np.ones(3)), Uniform(cloud)))
        report = classify_regimes(EnsembleSpec(tuple(members), rng.dirichlet(np.ones(4))))
        assert "error" not in report.evidence
        assert report.evidence["method"] == "lp"
        assert report.cert_regime == "inconclusive"

    def test_a_member_and_its_ensemble_share_one_difference_body(self, monkeypatch):
        rng = np.random.default_rng(7)
        members = tuple(ClassifierAtPoint(rng.dirichlet(np.ones(3)), Uniform(FinitePoints(
            rng.standard_normal((5, 2))))) for _ in range(3))
        for m in members:
            ((body, _),) = s_certificate(m, "u").constraints
            assert body is m.smoothness.difference
        sums = []
        plus = geo.minkowski_sum
        monkeypatch.setattr(geo, "minkowski_sum", lambda a, b: sums.append((a, b)) or plus(a, b))
        assert s_certificate(ensemble_classifier(EnsembleSpec(members)), "u").region is not None
        assert len(sums) == 2  # the weighted sum's two steps: no S (+) -S is formed again

    def test_class_wise_members_and_their_ensemble_share_each_difference_body(self, monkeypatch):
        rng = np.random.default_rng(7)
        members = tuple(ClassifierAtPoint(logits, ClassWise(tuple(
            FinitePoints(rng.standard_normal((5, 2))) for _ in range(3))))
            for logits in ([0.6, 0.3, 0.1], [0.5, 0.2, 0.3], [0.7, 0.1, 0.2]))
        for m in members:
            bodies = [body for body, _ in s_certificate(m, "cw").constraints]
            assert all(body is m.smoothness.difference(i, 0) for body, i in zip(bodies, (1, 2)))
        sums = []
        plus = geo.minkowski_sum
        monkeypatch.setattr(geo, "minkowski_sum", lambda a, b: sums.append((a, b)) or plus(a, b))
        ensemble = ensemble_classifier(EnsembleSpec(members))
        assert ensemble.top == 0 and s_certificate(ensemble, "cw").region is not None
        assert len(sums) == 4  # two steps for each of the two weighted sums, no G_i (+) -G_0 again

    def test_an_ensemble_member_has_the_bounds_of_its_flat_ball(self):
        # the inner ensemble's difference ball has radius 0.5 * 2 + 0.5 * 4 = 3,
        # the difference ball of a flat member with gradient ball radius 1.5
        inner = ensemble_classifier(EnsembleSpec((ball_member([0.6, 0.3, 0.1]),
                                                  ball_member([0.5, 0.1, 0.4], 2.0))))
        assert lipschitz_certificate(inner, "u").radius == pytest.approx(0.1, rel=1e-12)
        flat = ball_member(inner.logits, 1.5)
        other = ball_member([0.7, 0.25, 0.05], 3.0)
        nested, plain = EnsembleSpec((inner, other)), EnsembleSpec((flat, other))
        assert classify_regimes(nested).evidence["method"] == "radii"
        assert radius_improvement_bound(nested) == radius_improvement_bound(plain)
        alphas = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(common_shape_radii(nested, alphas),
                              common_shape_radii(plain, alphas))
        assert improvement_conditions(nested) is improvement_conditions(plain) is True


class TestMemberOrder:
    """The shared-ball radii are on the smallest matrix norm among the
    bodies, so the bounds do not depend on which member comes first."""

    SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])
    ALPHAS = np.arange(65) / 64.0  # dyadic, so 1 - alpha is exact

    def _members(self):
        return (ClassifierAtPoint([0.6, 0.3, 0.1], Uniform(Ellipsoid(self.SIGMA, 0.5))),
                ClassifierAtPoint([0.6, 0.1, 0.3], Uniform(Ellipsoid(4.0 * self.SIGMA, 0.3))))

    def test_two_ellipsoids_of_one_shape(self):
        # (4 Sigma, 0.3) is (Sigma, 0.6): the pair radii are 1.0 and 1.2 on Sigma
        a, b = self._members()
        for spec in (EnsembleSpec((a, b)), EnsembleSpec((b, a))):
            statement, proof = radius_improvement_bound(spec)
            assert statement.value == pytest.approx(0.7, rel=1e-12)
            assert proof.value == pytest.approx(7.0 / 12.0, rel=1e-12)
            assert common_shape_radii(spec, np.array([0.5]))[0] == pytest.approx(4.0 / 11.0,
                                                                                   rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shared_ball_pairs())
    def test_swapping_the_members(self, case):
        _, _, spec = case
        swapped = EnsembleSpec(spec.members[::-1])
        bounds = zip(radius_improvement_bound(spec), radius_improvement_bound(swapped))
        assert all(report.value == other.value for report, other in bounds)
        assert np.array_equal(common_shape_radii(spec, self.ALPHAS),
                              common_shape_radii(swapped, 1.0 - self.ALPHAS))


@pytest.mark.parametrize("bound", [radius_improvement_bound, improvement_conditions,
                                   lambda spec: common_shape_radii(spec, np.array([0.5]))])
def test_the_shared_ball_bounds_need_smoothness(bound):
    spec = EnsembleSpec((ClassifierAtPoint([0.6, 0.4]), ClassifierAtPoint([0.7, 0.3])))
    with pytest.raises(PreconditionError, match="members carry no smoothness data"):
        bound(spec)
