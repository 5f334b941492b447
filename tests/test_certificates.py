"""Certificates at a point: worked examples, the lattice, and the witness."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import consistent_instance, unit_directions
from scert import geometry as geo
from scert.certificates import (
    ClassDiff,
    ClassifierAtPoint,
    ClassWise,
    SmoothnessMismatch,
    Uniform,
    adversarial_witness,
    gaps,
    lipschitz_certificate,
    lipschitz_constant_from_gradients,
    s_certificate,
    smoothing_sigma_to_lipschitz,
)
from scert.geometry import (
    Ellipsoid,
    FinitePoints,
    LpBall,
    region_subset,
    region_to_interval,
    support,
)

S3 = math.sqrt(3.0)
FIG1_CLOUD = np.array([[1.0, 0.5], [0.6, -0.4], [-0.3, 0.4], [-0.5, -0.25], [0.2, 0.8]])


class TestGaps:
    def test_binary(self):
        c_a, c_b, r = gaps([0.7, 0.3])
        assert (c_a, c_b) == (0, 1)
        assert abs(r[1] - 0.4) < 1e-15

    def test_tie_breaks_low(self):
        c_a, c_b, r = gaps([0.5, 0.5])
        assert (c_a, c_b) == (0, 1) and r[1] == 0.0

    def test_piecewise_linear_example(self):
        c_a, c_b, r = gaps([0.9, 0.7])
        assert c_a == 0 and abs(r[1] - 0.2) < 1e-15

    def test_runner_up_is_min_gap(self):
        c_a, c_b, r = gaps([0.1, 0.5, 0.4, 0.2])
        others = [r[i] for i in range(4) if i != c_a]
        assert r[c_b] == min(others)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gaps([0.3, np.nan])


class TestLipschitzConstants:
    def test_fig1_cloud_l1(self):
        assert lipschitz_constant_from_gradients(FIG1_CLOUD, 1) == 1.5

    def test_sector_gradients_l2(self):
        pts = np.array([[0, 1], [S3 / 2, -0.5], [-S3 / 2, -0.5]])
        assert abs(lipschitz_constant_from_gradients(pts, 2) - 1.0) < 1e-12

    def test_singleton_linf(self):
        assert lipschitz_constant_from_gradients(np.array([[0.0, 1.0]]), np.inf) == 1.0


class TestLipschitzCertificate:
    def test_fig1_linf_radius(self):
        constant = lipschitz_constant_from_gradients(FIG1_CLOUD, 1)
        clf = ClassifierAtPoint([1.0, 0.0], Uniform(LpBall(1, constant, [0, 0])))
        cert = lipschitz_certificate(clf, "u")
        assert cert.ball is not None and math.isinf(cert.ball.p)
        assert abs(cert.radius - 1 / 3) < 1e-12

    def test_sector_uniform_l2(self):
        clf = ClassifierAtPoint([0.0, S3, -S3], Uniform(LpBall(2, 1.0, [0, 0])))
        cert = lipschitz_certificate(clf, "u")
        assert abs(cert.radius - S3 / 2) < 1e-12

    def test_sector_class_wise_linf(self):
        constants = [1.0, (S3 + 1) / 2, (S3 + 1) / 2]
        clf = ClassifierAtPoint(
            [0.0, S3, -S3],
            ClassWise(tuple(LpBall(1, c, [0, 0]) for c in constants)))
        cert = lipschitz_certificate(clf, "cw")
        assert abs(cert.radius - 2 * S3 / (3 + S3)) < 1e-12

    def test_zero_constant_whole_space(self):
        clf = ClassifierAtPoint([1.0, 0.0], Uniform(LpBall(2, 0.0, [0, 0])))
        cert = lipschitz_certificate(clf, "u")
        assert cert.unbounded and cert.contains([1e9, -1e9])

    def test_points_smoothness_rejected(self):
        clf = ClassifierAtPoint([1.0, 0.0], Uniform(FinitePoints(FIG1_CLOUD)))
        with pytest.raises(SmoothnessMismatch):
            lipschitz_certificate(clf, "u")


def _same_body(a, b) -> bool:
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


class TestLipschitzIsTheBallSCertificate:
    """A Lipschitz certificate is the S-certificate of its dual-norm ball,
    exactly: for an origin-centered ball B, B (+) -B is the ball 2B."""

    @staticmethod
    def _balls(rng, kind, k: int) -> list:
        if kind != "ellipsoid" and kind != "scaled ellipsoid":
            return [LpBall(kind, rng.uniform(0.1, 2.0), np.zeros(2)) for _ in range(k)]
        root = rng.standard_normal((2, 2))
        sigma = root @ root.T + 0.25 * np.eye(2)
        factors = rng.uniform(0.2, 5.0, k) if kind == "scaled ellipsoid" else np.ones(k)
        return [Ellipsoid(f * sigma, rng.uniform(0.1, 2.0)) for f in factors]

    @pytest.mark.parametrize("mode", ["u", "cw"])
    @pytest.mark.parametrize("kind", [1.0, 2.0, 3.0, math.inf, "ellipsoid", "scaled ellipsoid"])
    def test_equal_to_the_s_certificate(self, rng, kind, mode):
        for draw in range(20):
            k = int(rng.integers(2, 5))
            balls = self._balls(rng, kind, k)
            logits = rng.dirichlet(np.ones(k))
            if draw % 5 == 0:  # a zero runner-up gap: the trivial certificate
                logits[np.argsort(logits)[-2]] = logits.max()
            smoothness = Uniform(balls[0]) if mode == "u" else ClassWise(tuple(balls))
            clf = ClassifierAtPoint(logits, smoothness)
            lip, s = lipschitz_certificate(clf, mode), s_certificate(clf, mode)
            assert (lip.family, s.family, lip.mode) == ("lipschitz", "s", mode)
            assert type(lip.ball) is type(s.ball)
            if isinstance(s.ball, LpBall):
                assert lip.ball.p == s.ball.p
            else:
                assert np.array_equal(lip.ball.sigma, s.ball.sigma)
            assert lip.radius == s.radius
            assert lip.trivial == s.trivial and lip.trivial == (draw % 5 == 0)
            assert len(lip.constraints) == len(s.constraints)
            for (g_lip, r_lip), (g_s, r_s) in zip(lip.constraints, s.constraints):
                assert r_lip == r_s and _same_body(g_lip, g_s)

    @pytest.mark.parametrize("smoothness, mode, message", [
        (Uniform(LpBall(2, 1.0, [0.5, 0.0])), "u", "need origin-centered balls"),
        (ClassWise((LpBall(2, 1.0, [0, 0]), LpBall(1, 1.0, [0, 0]))), "cw", "share one shape"),
        (ClassWise((LpBall(2, 1.0, [0, 0]), LpBall(2, 1.0, [0, 0]))), "u",
         "needs a single shared gradient ball"),
        (Uniform(FinitePoints(FIG1_CLOUD)), "u", "need origin-centered balls"),
    ])
    def test_smoothness_mismatch(self, smoothness, mode, message):
        with pytest.raises(SmoothnessMismatch, match=message):
            lipschitz_certificate(ClassifierAtPoint([1.0, 0.0], smoothness), mode)


class TestSCertificate:
    def test_piecewise_linear_class_wise(self):
        clf = ClassifierAtPoint(
            [0.9, 0.7],
            ClassWise((FinitePoints([[0.1], [1.1]]), FinitePoints([[0.3], [1.3]]))))
        cert = s_certificate(clf, "cw")
        lo, hi = region_to_interval(cert.region)
        assert abs(lo + 0.25) < 1e-9 and abs(hi - 1 / 6) < 1e-9

    def test_piecewise_linear_class_diff(self):
        clf = ClassifierAtPoint(
            [0.9, 0.7], ClassDiff({(1, 0): FinitePoints([[0.2]])}))
        cert = s_certificate(clf, "cd")
        lo, hi = region_to_interval(cert.region)
        assert lo is None and abs(hi - 1.0) < 1e-9

    def test_binary_line_uniform_and_class_wise(self):
        uniform = ClassifierAtPoint([-2.0, 2.0], Uniform(FinitePoints([[-1.0], [1.0]])))
        lo, hi = region_to_interval(s_certificate(uniform, "u").region)
        assert abs(lo + 2) < 1e-9 and abs(hi - 2) < 1e-9
        class_wise = ClassifierAtPoint(
            [-2.0, 2.0], ClassWise((FinitePoints([[1.0]]), FinitePoints([[-1.0]]))))
        lo, hi = region_to_interval(s_certificate(class_wise, "cw").region)
        assert lo is None and abs(hi - 2) < 1e-9

    def test_missing_class_diff_pair(self):
        clf = ClassifierAtPoint([0.9, 0.7], ClassDiff({(0, 1): FinitePoints([[0.2]])}))
        with pytest.raises(SmoothnessMismatch):
            s_certificate(clf, "cd")

    def test_mode_requires_matching_smoothness(self):
        clf = ClassifierAtPoint([0.9, 0.7], Uniform(FinitePoints([[1.0]])))
        with pytest.raises(SmoothnessMismatch):
            s_certificate(clf, "cw")

    def test_ball_smoothness_gives_dual_ball(self):
        clf = ClassifierAtPoint([1.0, 0.0], Uniform(LpBall(1, 1.5, [0, 0])))
        cert = s_certificate(clf, "u")
        assert cert.ball is not None and math.isinf(cert.ball.p)
        assert abs(cert.radius - 1 / 3) < 1e-12

    def test_zero_gap_trivial_with_cone(self):
        body = FinitePoints([[1.0, 0.0], [-0.6, 0.8], [-0.2, -0.9]])
        clf = ClassifierAtPoint([0.5, 0.5], Uniform(body))
        cert = s_certificate(clf, "u")
        assert cert.trivial
        assert cert.contains([0.0, 0.0])
        gen = cert.constraints[0][0]
        for d in unit_directions(16, seed=2):
            if support(gen, d) > 1e-9:
                assert not cert.contains(d * 1e-3)

    def test_zero_gap_nontrivial_cone_kept(self):
        # generators spanning only a halfplane leave a nontrivial cone
        clf = ClassifierAtPoint([0.5, 0.5], Uniform(FinitePoints([[1.0, 0.0]])))
        cert = s_certificate(clf, "u")
        assert not cert.trivial
        assert cert.contains([0.0, 5.0]) and cert.contains([0.0, -5.0])


class TestScalingInvariance:
    def test_certificates_scale_invariant(self, rng):
        for _ in range(30):
            inst = consistent_instance(rng, k=3, sites=8)
            alpha = float(rng.uniform(0.2, 5.0))
            base = inst["class_wise"]
            scaled = ClassifierAtPoint(
                alpha * base.logits,
                ClassWise(tuple(geo.scale(alpha, b) for b in base.smoothness.bodies)))
            cert = s_certificate(base, "cw")
            cert_scaled = s_certificate(scaled, "cw")
            for d in rng.standard_normal((40, 2)):
                assert cert.contains(d) == cert_scaled.contains(d)
            # halfspace representations match after per-halfspace rescaling
            a = sorted((tuple(np.round(n / max(o, 1e-30), 9)), 1.0)
                       for n, o in zip(cert.region.normals, cert.region.offsets))
            b = sorted((tuple(np.round(n / max(o, 1e-30), 9)), 1.0)
                       for n, o in zip(cert_scaled.region.normals,
                                       cert_scaled.region.offsets))
            assert len(a) == len(b)
            for (na, _), (nb, _) in zip(a, b):
                assert np.allclose(na, nb, atol=1e-6)


class TestLattice:
    def test_nesting_on_consistent_instances(self, rng):
        for _ in range(60):
            inst = consistent_instance(rng, k=3, sites=10)
            q_u = s_certificate(inst["uniform"], "u").region
            q_cw = s_certificate(inst["class_wise"], "cw").region
            q_cd = s_certificate(inst["class_diff"], "cd").region
            assert region_subset(q_u, q_cw)
            assert region_subset(q_cw, q_cd)

    def test_lipschitz_subsumed_by_polar(self, rng):
        for _ in range(20):
            inst = consistent_instance(rng, k=3, sites=10)
            cloud = inst["uniform"].smoothness.body
            q_u = s_certificate(inst["uniform"], "u")
            for p in (1.0, 2.0, np.inf):
                q = geo.dual_exponent(p)
                constant = lipschitz_constant_from_gradients(cloud, q)
                # the gradient bound lives in the dual norm q; its polar is
                # the p-ball certificate
                lip = lipschitz_certificate(
                    ClassifierAtPoint(inst["logits"],
                                      Uniform(LpBall(q, constant, [0, 0]))), "u")
                ball = lip.ball
                for normal, offset in zip(q_u.region.normals, q_u.region.offsets):
                    assert ball.support(normal) <= offset + 1e-9


class TestSmoothingConstant:
    def test_unit_sigma(self):
        assert abs(smoothing_sigma_to_lipschitz(1.0) - 0.7978845608028654) < 1e-12

    def test_quarter_sigma(self):
        assert abs(smoothing_sigma_to_lipschitz(0.25) - 3.1915382432114616) < 1e-12

    def test_monotone_decay(self):
        assert smoothing_sigma_to_lipschitz(1000.0) < 1e-3
        sigmas = np.linspace(0.1, 5.0, 50)
        values = [smoothing_sigma_to_lipschitz(s) for s in sigmas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            smoothing_sigma_to_lipschitz(0.0)


class TestAdversarialWitness:
    def test_one_dimensional_flip(self):
        witness = adversarial_witness(FinitePoints([[-1.0], [1.0]]), 4.0, [0.0], [2.1])
        at_x = witness.logits_at([0.0])
        assert at_x[0] - at_x[1] == 4.0
        at_target = witness.logits_at([2.1])
        assert at_target[1] > at_target[0]

    def test_l2_ball_flip(self):
        direction = np.array([0.6, 0.8])
        witness = adversarial_witness(LpBall(2, 1.0, [0, 0]), 1.0,
                                      [0.0, 0.0], 0.51 * direction)
        at_target = witness.logits_at(0.51 * direction)
        assert at_target[1] > at_target[0]

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            adversarial_witness(FinitePoints([[-1.0], [1.0]]), 4.0, [0.0], [2.0])

    def test_gradients_come_from_the_body(self, rng):
        for _ in range(50):
            pts = rng.standard_normal((6, 2))
            body = FinitePoints(pts)
            u = rng.standard_normal(2)
            spread = support(body, u) + support(body, -u)
            if spread < 1e-6:
                continue
            r = 0.5 * spread
            delta = u * 1.01
            witness = adversarial_witness(body, r, np.zeros(2), delta)
            assert any(np.allclose(witness.grad_top, p) for p in pts)
            assert any(np.allclose(witness.grad_runner, p) for p in pts)
            flipped = witness.logits_at(delta)
            assert flipped[1] > flipped[0]
