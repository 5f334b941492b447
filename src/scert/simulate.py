"""Seeded Monte Carlo harness for random-simplex ensemble statistics.

Each draw samples N member classifiers uniformly from the probability
simplex, forms their uniform-weight and gap-optimal ensembles, and records
the gap regime together with the closed-form gap bound.  Per-draw random
streams are derived from (seed, N, draw index), so draws are
order-independent and can be distributed across workers; merging records in
draw-index order reproduces the serial run bit-exactly.
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
        if self.weight_policy not in ("uniform", "optimized"):
            raise ValueError("weight policy must be 'uniform' or 'optimized'")
        object.__setattr__(self, "member_counts", tuple(self.member_counts))
        if any(n < 2 for n in self.member_counts):
            raise ValueError("ensembles need at least two members")


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


def draw_classifier(k: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw from the probability simplex (normalized unit-rate
    exponential variates)."""
    e = rng.standard_exponential(k)
    return e / e.sum()


def evaluate_draw(member_logits: np.ndarray, index: int,
                  weight_policy: str = "uniform") -> DrawRecord:
    """Build the record for one draw from its member logits (n, k)."""
    member_logits = np.asarray(member_logits, dtype=float)
    n, k = member_logits.shape
    member_gaps = runner_up_gap(member_logits)
    tops = member_logits.argmax(axis=1)
    gap_best = float(member_gaps.max())
    gap_worst = float(member_gaps.min())
    gap_uniform = runner_up_gap(member_logits.mean(axis=0))
    _, gap_optimized = optimize_weights(member_logits)
    governing = gap_uniform if weight_policy == "uniform" else gap_optimized
    bound = gap_gain_bound(gap_best, k)
    slack = bound - max(gap_uniform, gap_optimized)
    return DrawRecord(
        n_members=n,
        draw_index=index,
        member_logits=tuple(tuple(float(v) for v in row) for row in member_logits),
        gap_best=gap_best,
        gap_worst=gap_worst,
        gap_uniform=float(gap_uniform),
        gap_optimized=float(gap_optimized),
        gap_regime=gap_regime(governing, gap_best, gap_worst),
        same_top=bool(np.all(tops == tops[0])),
        bound=float(bound),
        slack=float(slack),
    )


def run_experiment(config: ExperimentConfig) -> list[DrawRecord]:
    """All draws for every member count, deterministic for a fixed seed."""
    records = []
    for n in config.member_counts:
        for index in range(config.draws):
            rng = np.random.default_rng((config.seed, n, index))
            members = np.stack([draw_classifier(config.k, rng) for _ in range(n)])
            records.append(evaluate_draw(members, index, config.weight_policy))
    return records


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
