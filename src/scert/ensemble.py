"""Weighted ensembles: composition, regime classification, closed-form bounds.

An ensemble is a convex combination of member classifiers evaluated at one
input.  Its logits are the weighted logits.  Its smoothness composes by one
rule in every mode: each body its certificate constrains is the weighted
Minkowski sum of the members' bodies for the same class, the difference
bodies S (+) -S, G_i (+) -G_top or G_(i,top) (:class:`Composed`).

Two regime taxonomies are computed:

* gap regimes — the ensemble runner-up gap against the best and worst member
  gaps ("gain" / "inconclusive" / "loss");
* certificate regimes — the ensemble certificate against the union and
  intersection of the member certificates ("improvement" = proper superset
  of the union, "inconclusive" = sandwiched, "reduction" = proper subset of
  the intersection, "indeterminate" otherwise).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _simplex
from .certificates import (
    ZERO_GAP_TOL,
    Certificate,
    ClassifierAtPoint,
    Composed,
    runner_up_gap,
    s_certificate,
)
from .geometry import (
    STRICT_MARGIN,
    TOL,
    HalfspaceRegion,
    one_ball_shape,
    region_maxima,
    region_minus_subset,
    region_subset,
    seeded_unit_directions,
    union_witness,
)

GAP_TOL = 1e-9  # absolute margin on gaps (logit units); relative factor on extents


def gap_regime(r_g: float, r_best: float, r_worst: float) -> str:
    """"gain" when the ensemble gap r_g beats the best member gap by more than
    GAP_TOL, "loss" when it falls that far below the worst, else "inconclusive"."""
    if r_g > r_best + GAP_TOL:
        return "gain"
    if r_g < r_worst - GAP_TOL:
        return "loss"
    return "inconclusive"


class PreconditionError(ValueError):
    """An operation's stated preconditions do not hold for this input."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Member classifiers with nonnegative weights (normalized to sum 1)."""

    members: tuple[ClassifierAtPoint, ...]
    weights: np.ndarray | None = None

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 2:
            raise ValueError("an ensemble needs at least two members")
        k = members[0].n_classes
        if any(m.n_classes != k for m in members):
            raise ValueError("all members must have the same class count")
        modes = {getattr(m.smoothness, "mode", None) for m in members}
        if len(modes) != 1:
            raise ValueError("all members must share one smoothness mode")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("all members must share one input dimension")
        if self.weights is None:
            w = np.full(len(members), 1.0 / len(members))
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(members),):
            raise ValueError("one weight per member is required")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative reals")
        total = w.sum()
        if total <= 0.0:
            raise ValueError("weights must not all be zero")
        w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weights", w)

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return self.members[0].n_classes

    @property
    def same_top(self) -> bool:
        tops = {m.top for m in self.members}
        return len(tops) == 1

    @property
    def same_runner_up(self) -> bool:
        seconds = {m.runner_up for m in self.members}
        return len(seconds) == 1


def ensemble_logits(spec: EnsembleSpec) -> np.ndarray:
    """Weighted member logits."""
    stacked = np.stack([m.logits for m in spec.members])
    return spec.weights @ stacked


def ensemble_classifier(spec: EnsembleSpec) -> ClassifierAtPoint:
    """The ensemble as a classifier: weighted logits, and certificate bodies
    that are the weighted sums of the members' difference bodies."""
    logits = ensemble_logits(spec)
    if spec.members[0].smoothness is None:
        return ClassifierAtPoint(logits, None)
    return ClassifierAtPoint(logits, Composed(tuple(m.smoothness for m in spec.members),
                                              spec.weights))


@dataclass(frozen=True)
class RegimeReport:
    gap_regime: str   # "gain" | "inconclusive" | "loss"
    cert_regime: str  # "improvement" | "inconclusive" | "reduction" | "indeterminate"
    gap_ensemble: float
    gap_best: float
    gap_worst: float
    same_top: bool
    same_runner_up: bool
    evidence: dict = field(default_factory=dict)


def _ball_radius(cert: Certificate) -> float:
    return math.inf if cert.unbounded else cert.ball.shape_radius


def _verdict(flags: dict, strict_excess: bool, strict_deficit: bool) -> str:
    """The paper's regime rule on the containment flags of the ensemble
    certificate against the union and the intersection of the members, and on
    whether it strictly exceeds the union or falls short of the intersection."""
    if flags["contains_union"] and strict_excess:
        return "improvement"
    if flags["within_intersection"] and strict_deficit:
        return "reduction"
    if flags["contains_intersection"] and flags["within_union"]:
        return "inconclusive"
    return "indeterminate"


def _extent_regime(e_g, hi, lo) -> tuple[str, dict]:
    """The regime and containment flags of the ensemble extent e_g against the
    largest (hi) and smallest (lo) member extents: radii, or arrays of ray
    extents.  They are compared relative to their size, so that no verdict
    moves when every gradient set is scaled."""
    flags = {"within_union": bool(np.all(e_g <= hi * (1 + GAP_TOL))),
             "contains_union": bool(np.all(e_g >= hi * (1 - GAP_TOL))),
             "contains_intersection": bool(np.all(e_g >= lo * (1 - GAP_TOL))),
             "within_intersection": bool(np.all(e_g <= lo * (1 + GAP_TOL)))}
    regime = _verdict(flags, bool(np.any(e_g > hi * (1 + STRICT_MARGIN))),
                      bool(np.any(e_g < lo * (1 - STRICT_MARGIN))))
    return regime, flags


def _cert_regime_balls(q_g: Certificate, member_certs: list[Certificate]) -> tuple[str, dict]:
    radii = tuple(_ball_radius(q) for q in member_certs)
    r_g = _ball_radius(q_g)
    regime, _ = _extent_regime(r_g, max(radii), min(radii))
    return regime, {"method": "radii", "radius_ensemble": r_g, "radius_members": radii}


def _cert_regime_regions(q_g: Certificate, member_certs: list[Certificate]) -> tuple[str, dict]:
    """The regime from the LP containment flags, none queried that another
    decides at the same slack: g inside a member region is within the union
    and nowhere strictly past it, so the carve runs only when none holds g
    and no union witness settles it, and g contains the union only if it
    contains the intersection."""
    g = q_g.region
    regions = [q.region for q in member_certs]
    inter = functools.reduce(HalfspaceRegion.intersect, regions)
    carves, last = regions[:-1], regions[-1]
    # the queries run in this order: g's maxima over inter in one batch (a
    # boundary point past offset + STRICT_MARGIN settles both reads, and the
    # polar screen proves rows within offset + TOL, the stricter read), g in
    # each r, the union witness and then the carve at each slack it does not
    # settle, each r in g
    tops = region_maxima(g.normals, inter, g.offsets + TOL, g.offsets + STRICT_MARGIN)
    contains_intersection = not (tops > g.offsets + TOL).any()
    deficit = bool((tops > g.offsets + STRICT_MARGIN).any())
    inside = [region_subset(g, r) for r in regions]
    held = any(inside)
    witness = None if held else union_witness(g, regions)
    depth = -math.inf if witness is None else witness[1]
    evidence = {
        "method": "lp",
        "contains_intersection": contains_intersection,
        "within_union": held or (depth <= TOL and region_minus_subset(g, carves, last)),
        "contains_union": contains_intersection and all(region_subset(r, g) for r in regions),
        "within_intersection": all(inside),
    }
    regime = _verdict(evidence, evidence["contains_union"] and not held and (
        depth > STRICT_MARGIN or not region_minus_subset(g, carves, last, STRICT_MARGIN)),
        deficit)
    strict = {"improvement": "strict_excess", "reduction": "strict_deficit"}.get(regime)
    if strict:
        evidence[strict] = True
    return regime, evidence


SAMPLED_DIRECTIONS = 10_000


def _cert_regime_sampled(q_g: Certificate, member_certs: list[Certificate]) -> tuple[str, dict]:
    dirs = seeded_unit_directions(SAMPLED_DIRECTIONS, q_g.dim)
    e_g = q_g.ray_extent(dirs)
    extents = np.stack([q.ray_extent(dirs) for q in member_certs])
    regime, flags = _extent_regime(e_g, extents.max(axis=0), extents.min(axis=0))
    return regime, {"method": "sampled", "n_directions": SAMPLED_DIRECTIONS, **flags}


def classify_regimes(spec: EnsembleSpec) -> RegimeReport:
    """Gap regime from the prediction gaps, certificate regime from geometry.

    The certificate regime compares the ensemble certificate with the union
    and the intersection of all member certificates, for any member count.
    The evidence names the method that decided it: ``"radii"`` when every
    certificate is a ball of one shape (or the whole space), ``"lp"`` when
    every certificate is a halfspace region (containments decided exactly,
    none queried that another implies: the ensemble region is carved by each
    member region in turn only when none holds it, and the union is tested
    inside it only when the intersection is), and ``"sampled"`` otherwise, a
    falsification along seeded directions.  Members without smoothness data
    get the gap regime only; a failure to build a certificate is reported as
    ``evidence["error"]`` with the regime ``"indeterminate"``.
    """
    member_gaps = np.array([m.gap for m in spec.members])
    r_best = float(member_gaps.max())
    r_worst = float(member_gaps.min())
    r_g = float(runner_up_gap(ensemble_logits(spec)))

    evidence: dict = {}
    cert_regime = "indeterminate"
    if spec.members[0].smoothness is None:
        evidence["note"] = "no smoothness data; gap regime only"
    else:
        mode = spec.members[0].smoothness.mode
        try:
            member_certs = [s_certificate(m, mode) for m in spec.members]
            q_g = s_certificate(ensemble_classifier(spec), mode)
            certs = member_certs + [q_g]
            if all(c.ball is not None or c.unbounded for c in certs) and one_ball_shape(
                    [c.ball for c in certs if c.ball is not None]):
                cert_regime, evidence = _cert_regime_balls(q_g, member_certs)
            elif all(c.region is not None for c in certs):
                cert_regime, evidence = _cert_regime_regions(q_g, member_certs)
            else:
                cert_regime, evidence = _cert_regime_sampled(q_g, member_certs)
            evidence["trivial_ensemble_certificate"] = q_g.trivial
        except ValueError as exc:
            evidence["error"] = str(exc)

    return RegimeReport(
        gap_regime=gap_regime(r_g, r_best, r_worst),
        cert_regime=cert_regime,
        gap_ensemble=r_g,
        gap_best=r_best,
        gap_worst=r_worst,
        same_top=spec.same_top,
        same_runner_up=spec.same_runner_up,
        evidence=evidence,
    )


def gap_gain_bound(r_best: float, k: int) -> float:
    """Upper bound on the ensemble runner-up gap given the best member gap.

    Valid for normalized members (per-member logits summing to one);
    monotone nondecreasing in both arguments.
    """
    if not (0.0 <= r_best <= 1.0):
        raise ValueError("the best member gap must lie in [0, 1]")
    if k < 2:
        raise ValueError("at least two classes are required")
    headroom = (1.0 - r_best) / 2.0
    return r_best + headroom - headroom / (k - 1)


def gap_bound_witness(r_best: float, k: int) -> EnsembleSpec:
    """An ensemble attaining gap_gain_bound(r_best, k) exactly.

    For k >= 3: k-1 members, member j putting (1-r)/2 on class j, the rest
    (after the shared top class k-1) zero; uniform weights.  For k == 2 the
    construction degenerates (binary ensembles cannot gain gap): two
    identical members whose gap is r_best.
    """
    gap_gain_bound(r_best, k)  # raises ValueError on the arguments the bound rejects
    top_value = r_best + (1.0 - r_best) / 2.0
    side_value = (1.0 - r_best) / 2.0
    if k == 2:
        logits = np.array([side_value, top_value])
        member = ClassifierAtPoint(logits)
        return EnsembleSpec((member, member))
    members = []
    for j in range(k - 1):
        logits = np.zeros(k)
        logits[k - 1] = top_value
        logits[j] = side_value
        members.append(ClassifierAtPoint(logits))
    return EnsembleSpec(tuple(members))


def damning_alpha(f_1: ClassifierAtPoint, f_2: ClassifierAtPoint) -> float | None:
    """Mixing weight for member one that zeroes the ensemble gap.

    Requires different top predictions.  Returns the weight alpha* at which
    the top class of alpha f_1 + (1 - alpha) f_2 first changes, in closed form:
    with a, b the logits of f_1, f_2 and t the top class of f_2, class c gains
    on t at the rate rise_c = (a_c - a_t) - (b_c - b_t), so alpha* is the least
    (b_t - b_c) / rise_c over the classes with rise_c > 0.  Returns None when
    the rise of f_1's top class is at most ZERO_GAP_TOL (the top-two
    confidences tie for every weight, so the gap is zero for all alpha).
    """
    top_1, t = f_1.top, f_2.top
    if top_1 == t:
        # Exactly tied members (zero-denominator mirrors) already have a zero
        # gap for every weight; deterministic tie-breaking parks their argmax
        # on the same index, so they surface here rather than below.
        if (f_1.gap <= ZERO_GAP_TOL and f_2.gap <= ZERO_GAP_TOL
                and f_1.runner_up == f_2.runner_up):
            return None
        raise ValueError("members share the top prediction; no zero-gap mixture exists")
    a, b = f_1.logits, f_2.logits
    rise = (a - a[t]) - (b - b[t])
    if rise[top_1] <= ZERO_GAP_TOL:
        return None
    up = rise > 0.0
    return float(np.min((b[t] - b[up]) / rise[up]))


@dataclass(frozen=True)
class BoundReport:
    value: float
    variant: str
    inputs: dict


def _shared_ball_radii(spec: EnsembleSpec,
                       two_members: str) -> tuple[int, list[dict[int, float]]]:
    """The top class and each member's radii of the difference balls its
    ``constraints`` list for the pairs (i, top), one ball for every pair when
    it lists one (uniform mode, or two classes).  The shared-ball
    preconditions are checked first, on the members' bodies, so no sum is
    formed unless they hold: two members (else PreconditionError(two_members))
    with one top class whose bodies are origin-centered balls of one shape.
    A member may be an ensemble, as weighted sums of such balls are such
    balls.  Every per-pair radius must be positive.

    An ellipsoid (Sigma, eps) is the same set as (c Sigma, eps / sqrt(c)), so
    every radius is put on the smallest matrix norm among the bodies (which
    no member order moves) as eps sqrt(|Sigma| / |Sigma_ref|): eps for l_p.
    """
    if spec.n_members != 2:
        raise PreconditionError(two_members)
    if not spec.same_top:
        raise PreconditionError("members must share the top prediction")
    # members share one smoothness mode: if the first has none, none has
    if spec.members[0].smoothness is None:
        raise PreconditionError("members carry no smoothness data")
    bodies = [b for m in spec.members for b in m.smoothness.bodies]
    if not all(b.centered_ball for b in bodies):
        raise PreconditionError("smoothness bodies must be origin-centered balls")
    if not one_ball_shape(bodies):
        raise PreconditionError("smoothness bodies must share one ball shape")
    top, ref_norm = spec.members[0].top, min(b.shape_norm for b in bodies)
    others = [i for i in range(spec.n_classes) if i != top]
    radii = [[float(g.radius) * math.sqrt(g.shape_norm / ref_norm)
              for g, _ in m.smoothness.constraints(top, m.gap_vector)] for m in spec.members]
    eps = [dict(zip(others, r * len(others) if len(r) == 1 else r)) for r in radii]
    if any(v <= 0.0 for table in eps for v in table.values()):
        raise PreconditionError("per-pair smoothness radii must be positive")
    return top, eps


def radius_improvement_bound(spec: EnsembleSpec) -> tuple[BoundReport, BoundReport]:
    """Closed-form cap on the certified-radius gain of a two-member ensemble.

    Needs two members with the same top prediction whose difference
    smoothness is a shared symmetric ball shape with per-pair radii
    eps[j][i].  With M_j = min_i eps[j][i] and
    delta = max_j max_i (eps[j][i] - M_j), the bound is

        1/M - min(gap_1, gap_2) / (M + delta)

    evaluated at M = min(M_1, M_2) ("statement" variant) and
    M = max(M_1, M_2) ("proof" variant); both are reported because the
    source of the formula disagrees between the two.
    """
    _, eps = _shared_ball_radii(spec, "the radius improvement bound is for two members")
    m_values = [min(table.values()) for table in eps]
    delta = max(v - m_k for table, m_k in zip(eps, m_values) for v in table.values())
    min_gap = min(m.gap for m in spec.members)
    inputs = {"m1": m_values[0], "m2": m_values[1], "delta": delta, "min_gap": min_gap}

    def bound_at(m: float) -> float:
        return 1.0 / m - min_gap / (m + delta)

    statement = BoundReport(bound_at(min(m_values)), "statement", inputs)
    proof = BoundReport(bound_at(max(m_values)), "proof", inputs)
    return statement, proof


def common_shape_radii(spec: EnsembleSpec, alphas: np.ndarray) -> np.ndarray:
    """Certified radii of the two-member ensemble across mixing weights.

    For each alpha the certificate radius is
    min_i (alpha gap1_i + (1-alpha) gap2_i) / (alpha eps1_i + (1-alpha) eps2_i).
    Needs two members in the shared-ball-shape setting of
    :func:`radius_improvement_bound` (PreconditionError otherwise).
    """
    _, eps = _shared_ball_radii(spec, "the common-shape radii are for two members")
    classes = sorted(eps[0])
    g1 = spec.members[0].gap_vector
    g2 = spec.members[1].gap_vector
    a = np.asarray(alphas, dtype=float)[:, None]
    gaps_grid = a * g1[classes][None, :] + (1 - a) * g2[classes][None, :]
    eps_grid = a * np.array([eps[0][i] for i in classes])[None, :] \
        + (1 - a) * np.array([eps[1][i] for i in classes])[None, :]
    return np.min(gaps_grid / eps_grid, axis=1)


def improvement_conditions(spec: EnsembleSpec) -> bool:
    """Sufficient conditions for a strict certified-radius gain.

    Preconditions (violations raise :class:`PreconditionError`, distinct from
    a False result): two members in the shared-ball-shape setting of
    :func:`radius_improvement_bound`, same top prediction, different
    runner-up predictions, and every remaining class scored below both
    members' runner-up confidences by both members.

    Returns True iff both cross conditions hold strictly: each member keeps
    a margin over the other member's runner-up class after rescaling by the
    smoothness ratio for that class.
    """
    top, (eps_1, eps_2) = _shared_ball_radii(
        spec, "the improvement conditions are for two members")
    f_1, f_2 = spec.members
    if f_1.runner_up == f_2.runner_up:
        raise PreconditionError("members must have different runner-up predictions")
    cb_1, cb_2 = f_1.runner_up, f_2.runner_up
    runner_floor = min(f_1.logits[cb_1], f_1.logits[cb_2],
                       f_2.logits[cb_1], f_2.logits[cb_2])
    for c in range(spec.n_classes):
        if c in (top, cb_1, cb_2):
            continue
        if max(f_1.logits[c], f_2.logits[c]) >= runner_floor:
            raise PreconditionError(
                "classes outside the top-two sets must have low confidences")
    lhs_1 = float(f_1.logits[top])
    rhs_1 = float(f_1.logits[cb_2]) + f_2.gap_vector[cb_2] * eps_1[cb_2] / eps_2[cb_2]
    lhs_2 = float(f_2.logits[top])
    rhs_2 = float(f_2.logits[cb_1]) + f_1.gap_vector[cb_1] * eps_2[cb_1] / eps_1[cb_1]
    return bool(lhs_1 > rhs_1 + GAP_TOL and lhs_2 > rhs_2 + GAP_TOL)


class WeightLPError(RuntimeError):
    """A class LP of :func:`optimize_weights` returned no optimum, more than
    its optimum can be, or weights whose gap is below the best member's."""


def _weight_lp_error(a: int, value: float, lower, upper, detail: str = "") -> WeightLPError:
    answer = {math.inf: "unbounded", -math.inf: "infeasible"}.get(value, f"the value {value}")
    return WeightLPError(f"the LP of class {a} returned {answer}; "
                         f"its optimum lies in [{float(lower)!r}, {float(upper)!r}]{detail}")


def optimize_weights(logits) -> tuple[np.ndarray, float]:
    """Weights maximizing the ensemble runner-up gap, exactly.

    `logits` is the finite (n, k) matrix L of one member's logits per row, n
    >= 1 and k >= 2, else ValueError.  For weights w the gap of w @ L is
    max_a min_{c != a} (L[:, a] - L[:, c]).w: the inner minimum is the gap
    when a is the top class and at most 0 otherwise.  So the best gap is the
    best of one linear program per class a:  maximize t  subject to
    t <= (L[:, a] - L[:, c]).w  for every c != a,  w >= 0  and  sum(w) = 1.

    Each program is a matrix game (Dantzig 1951), and its value lies in a
    bracket from pure strategies: at least max_i min_c (L[i, a] - L[i, c]),
    its value at the vertex w = e_i, and at most min_c max_i (L[i, a] -
    L[i, c]), since one fixed c bounds the inner minimum.  The best member's
    gap is the largest lower end, so a class whose upper end is below it
    cannot win.  A class whose bracket is closed has a pure saddle point:
    min and max only compare entries, so both ends are one entry, and its
    value and weights are exact without an LP.  Only the other classes are
    solved.  A solved program that is not optimal or whose value is above
    its upper end, or an answer whose gap is below the best member's, by
    more than `FEASIBILITY_TOL`, raises :class:`WeightLPError`.

    Returns the weights of the best program, clipped and renormalized onto
    the simplex, and the gap recomputed at them.  Ties go to the lowest
    class; a saddle class goes to the first member attaining its value, and
    any other class to the optimum Bland's rule reaches.
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2 or not logits.size or logits.shape[1] < 2 or not np.isfinite(logits).all():
        raise ValueError("logits must be a finite (n, k) matrix with n >= 1 and k >= 2")
    n, k = logits.shape
    # diffs[i, a, c] = L[i, a] - L[i, c]; c = a is left out of every bound
    diffs = logits[:, :, None] - logits[:, None, :]
    own = np.eye(k, dtype=bool)
    pure = np.where(own, np.inf, diffs).min(axis=2)  # pure[i, a]: the value at w = e_i
    lower = pure.max(axis=0)
    upper = np.where(own, np.inf, diffs.max(axis=0)).min(axis=1)
    floor, tol = float(lower.max()), _simplex.FEASIBILITY_TOL  # the best member's gap
    best = -math.inf
    for a in np.flatnonzero(upper >= floor - tol).tolist():
        if upper[a] <= lower[a]:  # a pure saddle point: the optimum is x = (e_j, lower[a])
            value, point = float(lower[a]), np.append(np.eye(n)[pure[:, a].argmax()], lower[a])
        else:
            # over x = (w, t): w >= 0, sum(w) = 1 as two rows, and t below each margin
            rows = np.zeros((n + k + 1, n + 1))
            rows[:n, :n] = -np.eye(n)
            rows[n, :n], rows[n + 1, :n] = 1.0, -1.0
            rows[n + 2:, :n] = -(logits[:, [a]] - np.delete(logits, a, axis=1)).T
            rows[n + 2:, n] = 1.0
            offsets = np.zeros(n + k + 1)
            offsets[n], offsets[n + 1] = 1.0, -1.0
            (value,), (point,) = _simplex.maximize(np.eye(n + 1)[n:], rows, offsets)
            if not -math.inf < value <= upper[a] + tol:
                raise _weight_lp_error(a, value, lower[a], upper[a])
        if value > best:
            best, best_point, top = value, point, a
    weights = np.clip(best_point[:n], 0.0, None)
    weights /= weights.sum()
    gap = float(runner_up_gap(weights @ logits))
    if gap < floor - tol:
        raise _weight_lp_error(top, best, lower[top], upper[top],
                               f", and its weights give the gap {gap!r}, below {floor!r}")
    return weights, gap
