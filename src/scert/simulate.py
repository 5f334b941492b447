"""Seeded Monte Carlo harness for random-simplex ensemble statistics.

Each draw samples N members uniformly from the probability simplex and
records the gap regime of their uniform or gap-optimal ensemble beside the
closed-form gap bound.  A draw's random stream comes from (seed, N, draw
index) and its record not from the batch it is evaluated in, so draws are
order-independent; one array pass evaluates each member count's draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import ZERO_GAP_TOL, runner_up_gap
from .ensemble import GAP_TOL, gap_gain_bound, gap_regime, optimize_weights


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 4
    member_counts: tuple[int, ...] = (2, 3, 4)
    draws: int = 1000
    seed: int = 0
    weight_policy: str = "uniform"  # weights behind the recorded gap regime

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("at least two classes are required")
        if self.draws < 1:
            raise ValueError("at least one draw is required")
        if self.seed < 0:
            raise ValueError("the seed must be nonnegative")
        if self.weight_policy not in ("uniform", "optimized"):
            raise ValueError("weight policy must be 'uniform' or 'optimized'")
        object.__setattr__(self, "member_counts", tuple(self.member_counts))
        if any(n < 2 for n in self.member_counts):
            raise ValueError("ensembles need at least two members")
        if len(set(self.member_counts)) != len(self.member_counts):
            raise ValueError("member counts must be distinct")


@dataclass(frozen=True)
class DrawRecord:
    n_members: int
    draw_index: int
    member_logits: tuple[tuple[float, ...], ...]
    gap_best: float
    gap_worst: float
    gap_uniform: float
    gap_optimized: float
    gap_regime: str
    same_top: bool
    bound: float
    slack: float


def draw_members(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform draws from the probability simplex, one per row (normalized
    unit-rate exponential variates)."""
    e = rng.standard_exponential((n, k))
    return e / e.sum(axis=1, keepdims=True)


def evaluate_draws(logits: np.ndarray, weight_policy: str = "uniform") -> list[DrawRecord]:
    """The records of a stack of draws of member logits (draws, n, k), each
    record's draw index its position in the stack."""
    logits = np.asarray(logits, dtype=float)
    _, n, k = logits.shape
    member_gaps = runner_up_gap(logits)
    gap_best, gap_worst = member_gaps.max(axis=1), member_gaps.min(axis=1)
    gap_uniform = runner_up_gap(logits.mean(axis=1))
    gap_optimized = np.array([optimize_weights(m)[1] for m in logits])
    governing = gap_uniform if weight_policy == "uniform" else gap_optimized
    tops = logits.argmax(axis=2)
    same_top = np.all(tops == tops[:, :1], axis=1)
    bound = np.array([gap_gain_bound(b, k) for b in gap_best.tolist()])
    slack = bound - np.maximum(gap_uniform, gap_optimized)
    regimes = map(gap_regime, governing.tolist(), gap_best.tolist(), gap_worst.tolist())
    fields = zip(gap_best.tolist(), gap_worst.tolist(), gap_uniform.tolist(),  # DrawRecord order
                 gap_optimized.tolist(), regimes, same_top.tolist(), bound.tolist(),
                 slack.tolist())
    return [DrawRecord(n, index, tuple(map(tuple, rows)), *values)
            for index, (rows, values) in enumerate(zip(logits.tolist(), fields))]


def run_experiment(config: ExperimentConfig) -> list[DrawRecord]:
    """All draws for every member count, deterministic for a fixed seed."""
    return [record for n in config.member_counts for record in evaluate_draws(
        np.stack([draw_members(n, config.k, np.random.default_rng((config.seed, n, index)))
                  for index in range(config.draws)]), config.weight_policy)]


@dataclass(frozen=True)
class SimulationSummary:
    n_records: int
    fraction_gain: float
    fraction_inconclusive: float
    fraction_loss: float
    zero_gap_draws: int
    fraction_optimized_above_best: float
    mean_gap_best: float
    mean_gap_worst: float
    mean_gap_uniform: float
    bound_violations: int


def summarize(records: list[DrawRecord]) -> SimulationSummary:
    """Gap-regime fractions under uniform weights, the optimized-weights
    improvement fraction, and population means.  Regimes follow
    :func:`scert.ensemble.gap_regime` (a loss is a gap below the worst member
    by more than GAP_TOL); ``zero_gap_draws`` separately counts the draws whose
    uniform-weight gap is itself ~0."""
    if not records:
        raise ValueError("no records to summarize")
    n = len(records)
    regimes = [gap_regime(rec.gap_uniform, rec.gap_best, rec.gap_worst) for rec in records]
    optimized = [gap_regime(rec.gap_optimized, rec.gap_best, rec.gap_worst) for rec in records]
    return SimulationSummary(
        n_records=n,
        fraction_gain=regimes.count("gain") / n,
        fraction_inconclusive=regimes.count("inconclusive") / n,
        fraction_loss=regimes.count("loss") / n,
        zero_gap_draws=sum(rec.gap_uniform <= GAP_TOL for rec in records),
        fraction_optimized_above_best=optimized.count("gain") / n,
        mean_gap_best=float(np.mean([rec.gap_best for rec in records])),
        mean_gap_worst=float(np.mean([rec.gap_worst for rec in records])),
        mean_gap_uniform=float(np.mean([rec.gap_uniform for rec in records])),
        bound_violations=sum(rec.slack < -ZERO_GAP_TOL for rec in records),
    )
