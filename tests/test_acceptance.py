"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
all); a FAIL line is followed by the failing assertion.  Budgets are wall
clock on the stated workload sizes.
"""

import math
import time

import numpy as np

from conftest import consistent_instance
from scert import geometry as geo
from scert.certificates import (
    ClassDiff,
    ClassifierAtPoint,
    Uniform,
    adversarial_witness,
    gaps,
    lipschitz_constant_from_gradients,
    s_certificate,
)
from scert.cli import load_expected, run_fixture_check
from scert.ensemble import (
    EnsembleSpec,
    damning_alpha,
    ensemble_classifier,
    ensemble_logits,
    gap_bound_witness,
    gap_gain_bound,
    improvement_conditions,
    radius_improvement_bound,
)
from scert.geometry import (
    FinitePoints,
    HalfspaceRegion,
    LpBall,
    hull_prune,
    minkowski_sum,
    negate,
    polar_hrep,
    region_subset,
    support,
)
from scert.simulate import ExperimentConfig, run_experiment, summarize


def _report(number: int, description: str, passed: bool, elapsed: float,
            budget: float) -> None:
    status = "PASS" if (passed and elapsed < budget) else "FAIL"
    print(f"\ncriterion {number:2d} [{status}] {elapsed:6.2f}s/{budget:.0f}s  {description}")
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)")


GOLDEN_CHECKS = [
    "example 3.11 class-wise interval",
    "example 3.11 class-diff interval",
    "binary line uniform interval",
    "binary line class-wise interval",
    "three-sector uniform l1 radius",
    "three-sector uniform l2 radius",
    "three-sector uniform linf radius",
    "three-sector class-wise l1 radius",
    "three-sector class-wise linf radius",
    "three-sector class-wise halfplanes",
    "fig1 linf lipschitz radius",
    "fig1 polar cert strictly wider",
    "same-shape ensemble radii",
]


def test_criterion_01_golden_fixtures():
    start = time.perf_counter()
    checks = {c["name"]: c for c in load_expected()}
    failures = []
    for name in GOLDEN_CHECKS:
        ok, detail = run_fixture_check(checks[name])
        if not ok:
            failures.append(f"{name}: {detail}")
    elapsed = time.perf_counter() - start
    _report(1, f"golden fixtures exact at 1e-9 ({len(GOLDEN_CHECKS)} values)"
               + (f"; failures: {failures}" if failures else ""),
            not failures, elapsed, 1.0)


def test_criterion_02_gap_gain_bound():
    start = time.perf_counter()
    witness_ok = True
    for r_best in (0.0, 0.2, 0.5, 0.9):
        for k in (3, 4, 10):
            spec = gap_bound_witness(r_best, k)
            _, c_b, r = gaps(ensemble_logits(spec))
            witness_ok &= abs(float(r[c_b]) - gap_gain_bound(r_best, k)) <= 1e-12

    rng = np.random.default_rng(2024)
    k = 4
    violations = 0
    total = 0
    for n in (2, 3, 4):
        batch = 34_000
        logits = rng.standard_exponential((batch, n, k))
        logits /= logits.sum(axis=2, keepdims=True)
        weights = rng.standard_exponential((batch, n))
        weights /= weights.sum(axis=1, keepdims=True)
        mixed = np.einsum("bn,bnk->bk", weights, logits)
        part = np.partition(mixed, k - 2, axis=1)
        gap_mix = part[:, -1] - part[:, -2]
        mem = np.partition(logits, k - 2, axis=2)
        member_gaps = mem[:, :, -1] - mem[:, :, -2]
        best = member_gaps.max(axis=1)
        headroom = (1.0 - best) / 2.0
        bound = best + headroom - headroom / (k - 1)
        violations += int(np.count_nonzero(gap_mix > bound + 1e-12))
        total += batch
    # the vectorized bound matches the scalar implementation
    sample = rng.uniform(0, 1, size=20)
    formula_ok = all(
        abs(gap_gain_bound(float(r), k) - (r + (1 - r) / 2 - (1 - r) / (2 * (k - 1))))
        <= 1e-15 for r in sample)
    elapsed = time.perf_counter() - start
    _report(2, f"witness attains the gap bound; {total} random ensembles, "
               f"{violations} violations",
            witness_ok and formula_ok and violations == 0 and total >= 100_000,
            elapsed, 10.0)


def test_criterion_03_zero_robustness():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ball = Uniform(LpBall(2, 1.0, [0.0, 0.0]))
    bad_gap = 0
    bad_cert = 0
    for _ in range(1000):
        logits = rng.standard_exponential((2, 4))
        logits /= logits.sum(axis=1, keepdims=True)
        for row, target in zip(logits, (0, 1)):
            top = int(np.argmax(row))
            row[[target, top]] = row[[top, target]]
        f_1 = ClassifierAtPoint(logits[0], ball)
        f_2 = ClassifierAtPoint(logits[1], ball)
        alpha = damning_alpha(f_1, f_2)
        spec = EnsembleSpec((f_1, f_2), np.array([alpha, 1.0 - alpha]))
        _, c_b, r = gaps(ensemble_logits(spec))
        if abs(float(r[c_b])) > 1e-9:
            bad_gap += 1
            continue
        cert = s_certificate(ensemble_classifier(spec), "u")
        if not cert.trivial:
            bad_cert += 1
    elapsed = time.perf_counter() - start
    _report(3, f"1000 damning mixtures: {bad_gap} gap failures, "
               f"{bad_cert} non-trivial certificates",
            bad_gap == 0 and bad_cert == 0, elapsed, 1.0)


def test_criterion_04_same_top_exclusions():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    k = 4
    gap_violations = 0
    total = 0
    for n in (2, 3, 4):
        batch = 34_000
        logits = rng.standard_exponential((batch, n, k))
        logits /= logits.sum(axis=2, keepdims=True)
        tops = np.argmax(logits, axis=2)
        top_vals = np.take_along_axis(logits, tops[:, :, None], axis=2)[:, :, 0]
        col0 = logits[:, :, 0].copy()
        logits[:, :, 0] = top_vals
        np.put_along_axis(logits, tops[:, :, None], col0[:, :, None], axis=2)
        weights = rng.standard_exponential((batch, n))
        weights /= weights.sum(axis=1, keepdims=True)
        mixed = np.einsum("bn,bnk->bk", weights, logits)
        part = np.partition(mixed, k - 2, axis=1)
        gap_mix = part[:, -1] - part[:, -2]
        mem = np.partition(logits, k - 2, axis=2)
        member_gaps = mem[:, :, -1] - mem[:, :, -2]
        worst = member_gaps.min(axis=1)
        gap_violations += int(np.count_nonzero(gap_mix < worst - 1e-12))
        total += batch

    containment_failures = 0
    for _ in range(1000):
        logits = rng.uniform(0, 1, size=(2, 3))
        logits[:, 0] += 1.0
        members = []
        for row in logits:
            pairs = {(i, 0): FinitePoints(rng.standard_normal((3, 2)))
                     for i in (1, 2)}
            members.append(ClassifierAtPoint(row, ClassDiff(pairs)))
        spec = EnsembleSpec(tuple(members), rng.dirichlet(np.ones(2)))
        q_1 = s_certificate(spec.members[0], "cd").region
        q_2 = s_certificate(spec.members[1], "cd").region
        q_g = s_certificate(ensemble_classifier(spec), "cd").region
        if not region_subset(q_1.intersect(q_2), q_g):
            containment_failures += 1
    elapsed = time.perf_counter() - start
    _report(4, f"{total} same-top ensembles: {gap_violations} gap-loss violations; "
               f"1000 class-diff instances: {containment_failures} containment failures",
            gap_violations == 0 and containment_failures == 0 and total >= 100_000,
            elapsed, 30.0)


def test_criterion_05_shared_body_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    k = 4
    violations = 0
    total = 0
    for n in (2, 3, 4):
        batch = 34_000
        logits = rng.standard_exponential((batch, n, k))
        logits /= logits.sum(axis=2, keepdims=True)
        logits = -np.sort(-logits, axis=2)  # shared top (0) and runner-up (1)
        eps = rng.uniform(0.25, 2.0, size=batch)
        weights = rng.standard_exponential((batch, n))
        weights /= weights.sum(axis=1, keepdims=True)
        member_gaps = logits[:, :, 0] - logits[:, :, 1]
        radius_members = member_gaps / (2.0 * eps[:, None])
        mixed = np.einsum("bn,bnk->bk", weights, logits)
        radius_mix = (mixed[:, 0] - mixed[:, 1]) / (2.0 * eps)
        low = radius_members.min(axis=1)
        high = radius_members.max(axis=1)
        violations += int(np.count_nonzero(
            (radius_mix < low - 1e-12) | (radius_mix > high + 1e-12)))
        total += batch
    elapsed = time.perf_counter() - start
    _report(5, f"{total} shared-body ensembles sandwiched within 1e-12, "
               f"{violations} violations",
            violations == 0 and total >= 100_000, elapsed, 5.0)


def test_criterion_06_monte_carlo_statistics():
    start = time.perf_counter()
    config = ExperimentConfig(k=4, member_counts=(2, 3, 4), draws=1000, seed=7)
    records = run_experiment(config)
    summary = summarize(records)
    in_window = 0.382 <= summary.fraction_loss <= 0.482
    no_impossible = summary.bound_violations == 0
    optimized_positive = summary.fraction_optimized_above_best > 0.0
    elapsed = time.perf_counter() - start
    _report(6, f"loss fraction {summary.fraction_loss:.4f} in [0.382, 0.482]; "
               f"impossible-region points {summary.bound_violations}; "
               f"optimized-gain fraction {summary.fraction_optimized_above_best:.4f}",
            in_window and no_impossible and optimized_positive, elapsed, 60.0)


def test_criterion_07_geometry_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    cases = 1000
    failures = {"monotone_i": 0, "monotone_ii": 0, "monotone_iii": 0,
                "monotone_iv": 0, "hull": 0, "negation": 0, "additivity": 0,
                "doubling": 0, "ball_sum": 0}

    for _ in range(cases):
        base = rng.standard_normal((4, 2))
        extra = rng.standard_normal((2, 2))
        s_small, s_big = base, np.vstack([base, extra])
        r = float(rng.uniform(0.2, 2.0))
        r_larger = r + float(rng.uniform(0.0, 1.0))
        d_small = minkowski_sum(FinitePoints(s_small), negate(FinitePoints(s_small)))
        d_big = minkowski_sum(FinitePoints(s_big), negate(FinitePoints(s_big)))
        if not region_subset(polar_hrep(d_big, 1.0), polar_hrep(d_small, 1.0)):
            failures["monotone_i"] += 1
        if not region_subset(polar_hrep(FinitePoints(s_big), r),
                             polar_hrep(FinitePoints(s_small), r)):
            failures["monotone_ii"] += 1
        if not region_subset(polar_hrep(FinitePoints(s_small), r),
                             polar_hrep(FinitePoints(s_small), r_larger)):
            failures["monotone_iii"] += 1
        t_small, t_big = base[:3], np.vstack([base[:3], extra])
        big_pair = minkowski_sum(FinitePoints(s_big), negate(FinitePoints(t_big)))
        small_pair = minkowski_sum(FinitePoints(s_small), negate(FinitePoints(t_small)))
        if not region_subset(polar_hrep(big_pair, r), polar_hrep(small_pair, r)):
            failures["monotone_iv"] += 1

    dirs = rng.standard_normal((64, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for _ in range(cases):
        pts = rng.uniform(-1, 1, size=(rng.integers(3, 30), 2))
        pruned = hull_prune(FinitePoints(pts)).points
        if np.max(np.abs(np.max(pts @ dirs.T, axis=0)
                         - np.max(pruned @ dirs.T, axis=0))) > 1e-12:
            failures["hull"] += 1
        d = rng.standard_normal(2)
        body = FinitePoints(pts)
        if support(negate(body), d) != support(body, -d):
            failures["negation"] += 1
        other = LpBall(float(rng.choice([1.0, 2.0, np.inf])),
                       float(rng.uniform(0.1, 2.0)), rng.standard_normal(2))
        summed = minkowski_sum(body, other)
        if abs(support(summed, d) - support(body, d) - support(other, d)) > 1e-9:
            failures["additivity"] += 1
        p = float(rng.choice([1.0, 2.0, np.inf]))
        sym = LpBall(p, float(rng.uniform(0.1, 2.0)), [0.0, 0.0])
        doubled = minkowski_sum(sym, negate(sym))
        if abs(support(doubled, d) - 2.0 * support(sym, d)) > 1e-9:
            failures["doubling"] += 1
        ball_a = LpBall(p, float(rng.uniform(0.1, 2.0)), rng.standard_normal(2))
        ball_b = LpBall(p, float(rng.uniform(0.1, 2.0)), rng.standard_normal(2))
        merged = minkowski_sum(ball_a, ball_b)
        closed_form = (isinstance(merged, LpBall)
                       and abs(merged.radius - ball_a.radius - ball_b.radius) <= 1e-12
                       and np.allclose(merged.center, ball_a.center + ball_b.center)
                       and abs(support(merged, d) - support(ball_a, d)
                               - support(ball_b, d)) <= 1e-9)
        if not closed_form:
            failures["ball_sum"] += 1

    elapsed = time.perf_counter() - start
    total_failures = sum(failures.values())
    _report(7, f"geometry properties on {cases} cases each: {failures}",
            total_failures == 0, elapsed, 10.0)


def test_criterion_08_subsumption_and_lattice():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    lattice_failures = 0
    subsumption_failures = 0
    for _ in range(1000):
        inst = consistent_instance(rng, k=3, sites=30)
        q_u = s_certificate(inst["uniform"], "u").region
        q_cw = s_certificate(inst["class_wise"], "cw").region
        q_cd = s_certificate(inst["class_diff"], "cd").region
        if not (region_subset(q_u, q_cw) and region_subset(q_cw, q_cd)):
            lattice_failures += 1
        cloud = inst["uniform"].smoothness.body
        _, c_b, r = gaps(inst["logits"])
        gap = float(r[c_b])
        for p in (1.0, 2.0, np.inf):
            q = geo.dual_exponent(p)
            constant = lipschitz_constant_from_gradients(cloud, q)
            radius = gap / (2.0 * constant)
            if p == 1.0:
                ball_region = HalfspaceRegion(
                    np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]),
                    np.full(4, radius), 2)
                ok = region_subset(ball_region, q_u)
            elif math.isinf(p):
                ball_region = HalfspaceRegion(
                    np.vstack([np.eye(2), -np.eye(2)]), np.full(4, radius), 2)
                ok = region_subset(ball_region, q_u)
            else:
                ok = all(radius * np.linalg.norm(normal) <= offset + 1e-9
                         for normal, offset in zip(q_u.normals, q_u.offsets))
            if not ok:
                subsumption_failures += 1
    elapsed = time.perf_counter() - start
    _report(8, f"1000 consistent instances: {lattice_failures} lattice failures, "
               f"{subsumption_failures} subsumption failures",
            lattice_failures == 0 and subsumption_failures == 0, elapsed, 30.0)


def test_criterion_09_tightness_witness():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(1000):
        pts = rng.standard_normal((5, 2))
        body = FinitePoints(pts)
        r = float(rng.uniform(0.1, 2.0))
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        spread = support(body, u) + support(body, -u)
        if spread <= 1e-9:
            failures += 1
            continue
        delta = (1.01 * r / spread) * u
        witness = adversarial_witness(body, r, np.zeros(2), delta)
        at_x = witness.logits_at(np.zeros(2))
        flipped = witness.logits_at(delta)
        in_body = (any(np.allclose(witness.grad_top, p, atol=1e-12) for p in pts)
                   and any(np.allclose(witness.grad_runner, p, atol=1e-12) for p in pts))
        if not (abs(at_x[0] - at_x[1] - r) <= 1e-12 and flipped[1] > flipped[0]
                and in_body):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(9, f"1000 boundary-crossing witnesses, {failures} failures",
            failures == 0, elapsed, 5.0)


def test_criterion_10_radius_improvement_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    alphas = np.linspace(0.0, 1.0, 1001)
    proof_violations = 0
    statement_violations = 0
    for _ in range(1000):
        k = 4
        logits = rng.standard_exponential((2, k))
        logits /= logits.sum(axis=1, keepdims=True)
        for row in logits:
            top = int(np.argmax(row))
            row[[0, top]] = row[[top, 0]]
        eps = rng.uniform(0.5, 2.0, size=(2, k - 1))
        members = []
        for row, eps_row in zip(logits, eps):
            pairs = {(i, 0): LpBall(2, float(eps_row[i - 1]), [0.0, 0.0])
                     for i in range(1, k)}
            members.append(ClassifierAtPoint(row, ClassDiff(pairs)))
        spec = EnsembleSpec(tuple(members), np.array([0.5, 0.5]))
        statement, proof = radius_improvement_bound(spec)
        member_gaps = np.stack([row[0] - row[1:] for row in logits])
        grid_gaps = alphas[:, None] * member_gaps[0] + (1 - alphas)[:, None] * member_gaps[1]
        grid_eps = alphas[:, None] * eps[0] + (1 - alphas)[:, None] * eps[1]
        radius_curve = np.min(grid_gaps / grid_eps, axis=1)
        improvement = radius_curve.max() - max(radius_curve[0], radius_curve[-1])
        if improvement > proof.value + 1e-9:
            proof_violations += 1
        if improvement > statement.value + 1e-9:
            statement_violations += 1
    elapsed = time.perf_counter() - start
    if statement_violations:
        print(f"\n[logged, not failed] statement-variant violations: "
              f"{statement_violations}/1000")
    _report(10, f"1000 shared-shape instances: grid never beats the proof bound "
                f"({proof_violations} violations; statement variant logged: "
                f"{statement_violations})",
            proof_violations == 0, elapsed, 60.0)


def test_criterion_11_improvement_conditions():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    alphas = np.linspace(0.0, 1.0, 1001)
    ball = LpBall(2, 1.0, [0.0, 0.0])

    def radius_curve(spec):
        g = np.stack([m.gap_vector[1:] for m in spec.members])
        grid = alphas[:, None] * g[0] + (1 - alphas)[:, None] * g[1]
        return np.min(grid, axis=1)

    missed_gains = 0
    for _ in range(200):
        top = rng.uniform(0.55, 0.8)
        runner_1 = rng.uniform(0.25, 0.4)
        runner_2 = rng.uniform(0.25, 0.4)
        third = rng.uniform(0.001, 0.01)
        spec = EnsembleSpec((
            ClassifierAtPoint([top, runner_1, third], Uniform(ball)),
            ClassifierAtPoint([top, third, runner_2], Uniform(ball))))
        if not improvement_conditions(spec):
            missed_gains += 1
            continue
        curve = radius_curve(spec)
        if curve.max() - max(curve[0], curve[-1]) < 1e-6:
            missed_gains += 1

    spurious_gains = 0
    for _ in range(200):
        gap_strong = np.sort(rng.uniform(0.3, 0.7, size=2))
        shrink = rng.uniform(0.3, 0.8)
        gap_weak_1 = gap_strong[0] * shrink          # class 1 gap of member 2
        gap_weak_2 = gap_weak_1 * rng.uniform(0.3, 0.9)  # class 2 gap, smaller
        top = 0.9
        f_1 = [top, top - gap_strong[0], top - gap_strong[1]]
        f_2 = [top, top - gap_weak_1, top - gap_weak_2]
        spec = EnsembleSpec((ClassifierAtPoint(f_1, Uniform(ball)),
                             ClassifierAtPoint(f_2, Uniform(ball))))
        if improvement_conditions(spec):
            spurious_gains += 1
            continue
        curve = radius_curve(spec)
        if curve.max() - max(curve[0], curve[-1]) >= 1e-6:
            spurious_gains += 1
    elapsed = time.perf_counter() - start
    _report(11, f"improvement conditions: {missed_gains} satisfied instances without "
                f"gain, {spurious_gains} violating instances with gain",
            missed_gains == 0 and spurious_gains == 0, elapsed, 30.0)
