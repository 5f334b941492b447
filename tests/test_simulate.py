"""Monte Carlo harness: sampler statistics, determinism, record invariants."""

import dataclasses

import numpy as np
import pytest

from scert.simulate import (
    ExperimentConfig,
    draw_members,
    evaluate_draws,
    run_experiment,
    summarize,
)


class TestDrawClassifier:
    def test_simplex_membership(self):
        draws = draw_members(200, 4, np.random.default_rng(0))
        assert draws.shape == (200, 4)
        assert np.all(np.abs(draws.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(draws >= 0)

    def test_coordinates_unbiased(self):
        draws = draw_members(100_000, 4, np.random.default_rng(1))
        assert np.max(np.abs(draws.mean(axis=0) - 0.25)) < 0.005

    def test_exchangeable(self):
        draws = draw_members(100_000, 4, np.random.default_rng(2))
        frac = np.mean(draws[:, 0] > draws[:, 1])
        assert abs(frac - 0.5) < 0.01


class TestRunExperiment:
    def test_deterministic(self):
        config = ExperimentConfig(k=4, member_counts=(2,), draws=20, seed=11)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second

    def test_order_independent_streams(self):
        # the same (seed, n, index) key gives the same draw regardless of
        # which member counts are run alongside
        wide = run_experiment(ExperimentConfig(k=4, member_counts=(2, 3), draws=5, seed=3))
        narrow = run_experiment(ExperimentConfig(k=4, member_counts=(3,), draws=5, seed=3))
        wide_n3 = [r for r in wide if r.n_members == 3]
        assert wide_n3 == narrow

    def test_no_bound_violations(self):
        records = run_experiment(ExperimentConfig(k=4, member_counts=(2, 3), draws=50,
                                                  seed=5))
        assert all(rec.slack >= -1e-12 for rec in records)

    def test_same_top_never_loss(self):
        records = run_experiment(ExperimentConfig(k=3, member_counts=(2,), draws=300,
                                                  seed=6))
        assert not any(rec.same_top and rec.gap_regime == "loss" for rec in records)

    def test_optimized_policy_regime(self):
        config = ExperimentConfig(k=4, member_counts=(2,), draws=10, seed=9,
                                  weight_policy="optimized")
        for rec in run_experiment(config):
            expected = ("gain" if rec.gap_optimized > rec.gap_best + 1e-9 else
                        "loss" if rec.gap_optimized < rec.gap_worst - 1e-9 else
                        "inconclusive")
            assert rec.gap_regime == expected

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=1)
        with pytest.raises(ValueError):
            ExperimentConfig(draws=0)
        with pytest.raises(ValueError):
            ExperimentConfig(weight_policy="best")
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError, match="at least two members"):
            ExperimentConfig(member_counts=(2, 1))
        with pytest.raises(ValueError, match="member counts must be distinct"):
            ExperimentConfig(member_counts=(2, 3, 2))


class TestEvaluateDraws:
    @pytest.mark.parametrize("policy", ["uniform", "optimized"])
    def test_record_independent_of_batch_size(self, policy):
        # a draw's record is the same, bit for bit, alone or inside a batch
        for seed in range(4):
            rng = np.random.default_rng(seed)
            logits = np.stack([draw_members(3, 4, rng) for _ in range(25)])
            for index, record in enumerate(evaluate_draws(logits, policy)):
                assert record.draw_index == index
                (alone,) = evaluate_draws(logits[index:index + 1], policy)
                assert repr(dataclasses.replace(record, draw_index=0)) == repr(alone)


class TestSummarize:
    def test_identical_members_all_inconclusive(self):
        logits = np.array([[0.6, 0.3, 0.1]] * 3)
        records = evaluate_draws(np.stack([logits] * 5))
        summary = summarize(records)
        assert summary.fraction_inconclusive == 1.0
        assert summary.fraction_loss == 0.0 and summary.fraction_gain == 0.0

    def test_fractions_add_up(self):
        records = run_experiment(ExperimentConfig(k=4, member_counts=(2,), draws=200,
                                                  seed=12))
        summary = summarize(records)
        total = summary.fraction_gain + summary.fraction_inconclusive + summary.fraction_loss
        assert abs(total - 1.0) < 1e-12
        assert summary.bound_violations == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_optimizer_never_below_best_member(self):
        records = run_experiment(ExperimentConfig(k=4, member_counts=(2, 3), draws=50,
                                                  seed=13))
        # the unit-weight corners are feasible weights, so the optimized gap
        # is at least the best member gap
        assert all(rec.gap_optimized >= rec.gap_best - 1e-9 for rec in records)
