"""Robustness certificates from gradient-set continuity data.

The package computes certified perturbation sets for classifiers whose
per-class (or per-class-difference) gradients live in known bounded sets,
composes such certificates for weighted ensembles, classifies the ensemble
certification regimes, and reproduces the associated closed-form bounds and
Monte Carlo regime statistics.
"""

from .geometry import (
    Combination,
    ConvexBody,
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
    region_minus_subset,
    region_subset,
    scale,
    support,
)
from .certificates import (
    Certificate,
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
from .ensemble import (
    BoundReport,
    EnsembleSpec,
    PreconditionError,
    RegimeReport,
    WeightLPError,
    classify_regimes,
    damning_alpha,
    ensemble_classifier,
    ensemble_logits,
    gap_bound_witness,
    gap_gain_bound,
    improvement_conditions,
    optimize_weights,
    radius_improvement_bound,
)
from .simulate import (
    DrawRecord,
    ExperimentConfig,
    SimulationSummary,
    draw_members,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
