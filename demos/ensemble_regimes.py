"""How ensembling moves certificates: gain, sandwich, collapse, and bounds.

Run:  python demos/ensemble_regimes.py
"""

import numpy as np

from scert import (
    ClassifierAtPoint,
    EnsembleSpec,
    LpBall,
    Uniform,
    classify_regimes,
    damning_alpha,
    gap_bound_witness,
    gap_gain_bound,
    optimize_weights,
)

BALL = Uniform(LpBall(2, 1.0, [0.0, 0.0]))


def member(logits):
    return ClassifierAtPoint(logits, BALL)


def show(title, spec):
    report = classify_regimes(spec)
    print(f"{title:<34} gap regime: {report.gap_regime:<13}"
          f" certificate regime: {report.cert_regime:<13}"
          f" (ensemble gap {report.gap_ensemble:.3f},"
          f" members best/worst {report.gap_best:.3f}/{report.gap_worst:.3f})")


print("== the three certification regimes ==")
show("diverse runner-ups (gain)",
     EnsembleSpec((member([0.50, 0.30, 0.20]), member([0.50, 0.20, 0.30]))))
show("near-tied opposing tops (gain)",
     EnsembleSpec((member([0.49, 0.03, 0.48]), member([0.03, 0.49, 0.48]))))
show("agreeing top two (sandwich)",
     EnsembleSpec((member([0.60, 0.25, 0.15]), member([0.50, 0.35, 0.15]))))
show("opposing tops at the crossing",
     EnsembleSpec((member([0.60, 0.40, 0.00]), member([0.40, 0.60, 0.00]))))

print("\n== zero-robustness weights ==")
f_1, f_2 = member([0.7, 0.3]), member([0.45, 0.55])
alpha = damning_alpha(f_1, f_2)
mixed = alpha * f_1.logits + (1 - alpha) * f_2.logits
print(f"members disagree on top; weight {alpha:.3f} on the first puts the "
      f"mixture exactly on the tie: {np.round(mixed, 6)}")

print("\n== how much gap an ensemble can ever gain ==")
for r_best in (0.0, 0.2, 0.5, 0.9):
    bound = gap_gain_bound(r_best, 4)
    witness = gap_bound_witness(r_best, 4)
    _, achieved = optimize_weights([m.logits for m in witness.members])
    print(f"best member gap {r_best:.1f}: bound {bound:.4f}, "
          f"witness ensemble reaches {achieved:.4f}")
print("the stronger the members, the less ensembling can add.")
