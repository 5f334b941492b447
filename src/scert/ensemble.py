"""Weighted ensembles: composition, regime classification, closed-form bounds.

An ensemble is a convex combination of member classifiers evaluated at one
input.  Its logits are the weighted logits; its smoothness composes as the
weighted Minkowski combination of the member gradient sets (per class in
class-wise mode, per ordered pair in class-difference mode).

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

from . import _simplex, geometry
from .certificates import (
    Certificate,
    ClassDiff,
    ClassifierAtPoint,
    ClassWise,
    SmoothnessMismatch,
    Uniform,
    gaps,
    runner_up_gap,
    s_certificate,
)
from .geometry import (
    STRICT_MARGIN,
    ConvexBody,
    Ellipsoid,
    HalfspaceRegion,
    LpBall,
    ball_shape_key,
    ball_shape_radius,
    region_exceeds,
    region_minus_subset,
    region_subset,
)

GAP_TOL = 1e-9


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
        modes = {type(m.smoothness) for m in members}
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
    def different_top(self) -> bool:
        return not self.same_top

    @property
    def same_runner_up(self) -> bool:
        seconds = {m.runner_up for m in self.members}
        return len(seconds) == 1


def ensemble_logits(spec: EnsembleSpec) -> np.ndarray:
    """Weighted member logits."""
    stacked = np.stack([m.logits for m in spec.members])
    return spec.weights @ stacked


def _compose_bodies(bodies: list[ConvexBody], weights: np.ndarray) -> ConvexBody:
    composed = geometry.scale(float(weights[0]), bodies[0])
    for w, body in zip(weights[1:], bodies[1:]):
        composed = geometry.minkowski_sum(composed, geometry.scale(float(w), body))
    return composed


def ensemble_classifier(spec: EnsembleSpec) -> ClassifierAtPoint:
    """The ensemble as a classifier: weighted logits, weighted Minkowski smoothness."""
    logits = ensemble_logits(spec)
    first = spec.members[0].smoothness
    if first is None:
        return ClassifierAtPoint(logits, None)
    if isinstance(first, Uniform):
        body = _compose_bodies([m.smoothness.body for m in spec.members], spec.weights)
        return ClassifierAtPoint(logits, Uniform(body))
    if isinstance(first, ClassWise):
        bodies = tuple(
            _compose_bodies([m.smoothness.bodies[i] for m in spec.members], spec.weights)
            for i in range(spec.n_classes)
        )
        return ClassifierAtPoint(logits, ClassWise(bodies))
    keys = set(first.pairs)
    for m in spec.members[1:]:
        keys &= set(m.smoothness.pairs)
    pairs = {
        key: _compose_bodies([m.smoothness.pairs[key] for m in spec.members], spec.weights)
        for key in keys
    }
    if not pairs:
        raise SmoothnessMismatch("members share no class-difference pairs")
    return ClassifierAtPoint(logits, ClassDiff(pairs))


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
    return math.inf if cert.unbounded else ball_shape_radius(cert.ball)


def _cert_regime_balls(q_g: Certificate, member_certs: list[Certificate]) -> tuple[str, dict]:
    radii = tuple(_ball_radius(q) for q in member_certs)
    r_g = _ball_radius(q_g)
    lo, hi = min(radii), max(radii)
    evidence = {"method": "radii", "radius_ensemble": r_g,
                "radius_members": radii}
    if r_g > hi + STRICT_MARGIN:
        return "improvement", evidence
    if r_g < lo - STRICT_MARGIN:
        return "reduction", evidence
    if lo - GAP_TOL <= r_g <= hi + GAP_TOL:
        return "inconclusive", evidence
    return "indeterminate", evidence


def _cert_regime_regions(q_g: Certificate, member_certs: list[Certificate]) -> tuple[str, dict]:
    g = q_g.region
    regions = [q.region for q in member_certs]
    inter = functools.reduce(HalfspaceRegion.intersect, regions)
    carves, last = regions[:-1], regions[-1]
    contains_inter = region_subset(inter, g)
    within_union = region_minus_subset(g, carves, last)
    contains_union = all(region_subset(r, g) for r in regions)
    within_inter = region_subset(g, inter)
    evidence = {
        "method": "lp",
        "contains_intersection": contains_inter,
        "within_union": within_union,
        "contains_union": contains_union,
        "within_intersection": within_inter,
    }
    if contains_union and not region_minus_subset(g, carves, last, STRICT_MARGIN):
        evidence["strict_excess"] = True
        return "improvement", evidence
    if within_inter and region_exceeds(inter, g, STRICT_MARGIN):
        evidence["strict_deficit"] = True
        return "reduction", evidence
    if contains_inter and within_union:
        return "inconclusive", evidence
    return "indeterminate", evidence


SAMPLED_DIRECTIONS = 10_000


def _cert_regime_sampled(q_g: Certificate, member_certs: list[Certificate]) -> tuple[str, dict]:
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((SAMPLED_DIRECTIONS, q_g.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    e_g = q_g.ray_extent(dirs)
    extents = np.stack([q.ray_extent(dirs) for q in member_certs])
    hi, lo = extents.max(axis=0), extents.min(axis=0)
    evidence = {"method": "sampled", "n_directions": SAMPLED_DIRECTIONS}
    with np.errstate(invalid="ignore"):
        within_union = bool(np.all(e_g <= hi + GAP_TOL))
        contains_union = bool(np.all(e_g >= hi - GAP_TOL))
        contains_inter = bool(np.all(e_g >= lo - GAP_TOL))
        within_inter = bool(np.all(e_g <= lo + GAP_TOL))
        strict_excess = bool(np.any(e_g > hi + STRICT_MARGIN))
        strict_deficit = bool(np.any(e_g < lo - STRICT_MARGIN))
    evidence.update(within_union=within_union, contains_union=contains_union,
                    contains_intersection=contains_inter, within_intersection=within_inter)
    if contains_union and strict_excess:
        return "improvement", evidence
    if within_inter and strict_deficit:
        return "reduction", evidence
    if contains_inter and within_union:
        return "inconclusive", evidence
    return "indeterminate", evidence


def classify_regimes(spec: EnsembleSpec) -> RegimeReport:
    """Gap regime from the prediction gaps, certificate regime from geometry.

    The certificate regime compares the ensemble certificate with the union
    and the intersection of all member certificates, for any member count.
    The evidence names the method that decided it: ``"radii"`` when every
    certificate is a ball of one shape (or the whole space), ``"lp"`` when
    every certificate is a halfspace region (containments decided exactly;
    the union is handled by carving the ensemble region by each member
    region in turn), and ``"sampled"`` otherwise, a falsification along
    seeded directions.  Members without smoothness data get the gap regime
    only; a failure to build a certificate is reported as
    ``evidence["error"]`` with the regime ``"indeterminate"``.
    """
    member_gaps = np.array([m.gap for m in spec.members])
    r_best = float(member_gaps.max())
    r_worst = float(member_gaps.min())
    r_g = float(runner_up_gap(ensemble_logits(spec)))

    if r_g > r_best + GAP_TOL:
        gap_regime = "gain"
    elif r_g < r_worst - GAP_TOL:
        gap_regime = "loss"
    else:
        gap_regime = "inconclusive"

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
            if all(c.ball is not None or c.unbounded for c in certs) and len(
                    {ball_shape_key(c.ball) for c in certs if c.ball is not None}) <= 1:
                cert_regime, evidence = _cert_regime_balls(q_g, member_certs)
            elif all(c.region is not None for c in certs):
                cert_regime, evidence = _cert_regime_regions(q_g, member_certs)
            else:
                cert_regime, evidence = _cert_regime_sampled(q_g, member_certs)
            evidence["trivial_ensemble_certificate"] = q_g.trivial
        except (SmoothnessMismatch, ValueError) as exc:
            evidence["error"] = str(exc)
            cert_regime = "indeterminate"

    return RegimeReport(
        gap_regime=gap_regime,
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
    if not (0.0 <= r_best <= 1.0):
        raise ValueError("the best member gap must lie in [0, 1]")
    if k < 2:
        raise ValueError("at least two classes are required")
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

    Requires the two members to have different top predictions.  Returns the
    crossing weight alpha* (ensemble = alpha* f_1 + (1 - alpha*) f_2); when a
    third class overtakes at the closed-form crossing, the switch point is
    located by bisection on the piecewise-linear argmax.  Returns None when
    the top-two confidences tie for every weight (the gap is zero for all
    alpha).
    """
    top_1, top_2 = f_1.top, f_2.top
    if top_1 == top_2:
        # Exactly tied members (zero-denominator mirrors) already have a zero
        # gap for every weight; deterministic tie-breaking parks their argmax
        # on the same index, so they surface here rather than below.
        if (f_1.gap <= 1e-12 and f_2.gap <= 1e-12
                and f_1.runner_up == f_2.runner_up):
            return None
        raise ValueError("members share the top prediction; no zero-gap mixture exists")
    d_1 = float(f_1.logits[top_1] - f_1.logits[top_2])
    d_2 = float(f_2.logits[top_2] - f_2.logits[top_1])
    if d_1 + d_2 <= 1e-12:
        return None
    alpha = d_2 / (d_1 + d_2)
    mixed = alpha * f_1.logits + (1.0 - alpha) * f_2.logits
    others = [mixed[c] for c in range(mixed.size) if c not in (top_1, top_2)]
    if not others or max(others) <= mixed[top_1] + 1e-12:
        return alpha

    def top_of(a: float) -> int:
        return int(gaps(a * f_1.logits + (1.0 - a) * f_2.logits)[0])

    lo, hi = 0.0, 1.0
    top_lo = top_of(lo)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if top_of(mid) == top_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class BoundReport:
    value: float
    variant: str
    inputs: dict


def _reference_norm(spec: EnsembleSpec) -> float:
    """Norm of the first member's first ellipsoid matrix (1 for l_p balls):
    per-pair radii are expressed in that body's norm.  Members share one
    smoothness mode, so a first member without smoothness data means none
    has any."""
    if spec.members[0].smoothness is None:
        raise PreconditionError("members carry no smoothness data")
    ref = spec.members[0].smoothness.bodies[0]
    return float(np.linalg.norm(ref.sigma)) if isinstance(ref, Ellipsoid) else 1.0


def _pair_radii(member: ClassifierAtPoint, top: int, ref_norm: float) -> dict[int, float]:
    """Ball radii of the difference-smoothness bodies for pairs (i, top);
    the member has smoothness data (:func:`_reference_norm` checks that).

    An ellipsoid (Sigma, eps) is the same set as (c Sigma, eps / sqrt(c)), so
    its radius is rescaled to the reference matrix norm as
    eps * sqrt(|Sigma| / ref_norm); l_p ball radii are taken as they are.
    """
    def radius(body: ConvexBody) -> float:
        if isinstance(body, Ellipsoid):
            return float(body.radius) * math.sqrt(float(np.linalg.norm(body.sigma)) / ref_norm)
        return float(body.radius)

    s = member.smoothness
    k = member.n_classes
    radii: dict[int, float] = {}
    if isinstance(s, Uniform):
        for i in range(k):
            if i != top:
                radii[i] = 2.0 * radius(s.body)
    elif isinstance(s, ClassWise):
        for i in range(k):
            if i != top:
                radii[i] = radius(s.bodies[i]) + radius(s.bodies[top])
    else:
        for i in range(k):
            if i != top:
                if (i, top) not in s.pairs:
                    raise SmoothnessMismatch(
                        f"missing class-difference body for pair ({i}, {top})")
                radii[i] = radius(s.pairs[(i, top)])
    return radii


def _common_shape_norm(spec: EnsembleSpec) -> float:
    """The :func:`_reference_norm` of a spec whose smoothness bodies are
    origin-centered balls of one shape; PreconditionError otherwise."""
    ref_norm = _reference_norm(spec)
    keys = set()
    for m in spec.members:
        for b in m.smoothness.bodies:
            if not isinstance(b, (LpBall, Ellipsoid)):
                raise PreconditionError("smoothness bodies must be symmetric balls")
            if isinstance(b, LpBall) and np.any(np.abs(b.center) > 1e-12):
                raise PreconditionError("smoothness balls must be origin-centered")
            keys.add(ball_shape_key(b))
    if len(keys) != 1:
        raise PreconditionError("smoothness bodies must share one ball shape")
    return ref_norm


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
    if spec.n_members != 2:
        raise PreconditionError("the radius improvement bound is for two members")
    if not spec.same_top:
        raise PreconditionError("members must share the top prediction")
    ref_norm = _common_shape_norm(spec)
    top = spec.members[0].top
    eps = [_pair_radii(m, top, ref_norm) for m in spec.members]
    if any(v <= 0.0 for table in eps for v in table.values()):
        raise PreconditionError("per-pair smoothness radii must be positive")
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
    Assumes the preconditions of :func:`radius_improvement_bound`.
    """
    top = spec.members[0].top
    ref_norm = _reference_norm(spec)
    eps = [_pair_radii(m, top, ref_norm) for m in spec.members]
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
    if spec.n_members != 2:
        raise PreconditionError("the improvement conditions are for two members")
    if not spec.same_top:
        raise PreconditionError("members must share the top prediction")
    f_1, f_2 = spec.members
    if f_1.runner_up == f_2.runner_up:
        raise PreconditionError("members must have different runner-up predictions")
    ref_norm = _common_shape_norm(spec)
    top = f_1.top
    cb_1, cb_2 = f_1.runner_up, f_2.runner_up
    runner_floor = min(f_1.logits[cb_1], f_1.logits[cb_2],
                       f_2.logits[cb_1], f_2.logits[cb_2])
    for c in range(spec.n_classes):
        if c in (top, cb_1, cb_2):
            continue
        if max(f_1.logits[c], f_2.logits[c]) >= runner_floor:
            raise PreconditionError(
                "classes outside the top-two sets must have low confidences")
    eps_1 = _pair_radii(f_1, top, ref_norm)
    eps_2 = _pair_radii(f_2, top, ref_norm)
    lhs_1 = float(f_1.logits[top])
    rhs_1 = float(f_1.logits[cb_2]) + f_2.gap_vector[cb_2] * eps_1[cb_2] / eps_2[cb_2]
    lhs_2 = float(f_2.logits[top])
    rhs_2 = float(f_2.logits[cb_1]) + f_1.gap_vector[cb_1] * eps_2[cb_1] / eps_1[cb_1]
    return bool(lhs_1 > rhs_1 + GAP_TOL and lhs_2 > rhs_2 + GAP_TOL)


def optimize_weights(spec: EnsembleSpec) -> tuple[np.ndarray, float]:
    """Weights maximizing the ensemble runner-up gap, exactly.

    For weights w the gap of w @ L (L holds one member's logits per row) is
    max_a min_{c != a} (L[:, a] - L[:, c]).w: the inner minimum is the gap
    when a is the top class and at most 0 otherwise.  So the best gap is the
    best of one linear program per class a:  maximize t  subject to
    t <= (L[:, a] - L[:, c]).w  for every c != a,  w >= 0  and  sum(w) = 1.
    Returns the weights of the best program, clipped and renormalized onto
    the simplex, and the gap recomputed at them.  Ties go to the lowest
    class, and within its program to the optimum Bland's rule reaches.
    """
    logits = np.stack([m.logits for m in spec.members])
    n, k = logits.shape
    objective = np.zeros(n + 1)
    objective[-1] = 1.0
    # w >= 0 and sum(w) = 1 as three blocks of rows over x = (w, t)
    on_simplex = np.zeros((n + 2, n + 1))
    on_simplex[:n, :n] = -np.eye(n)
    on_simplex[n, :n] = 1.0
    on_simplex[n + 1, :n] = -1.0
    offsets = np.concatenate([np.zeros(n), [1.0, -1.0], np.zeros(k - 1)])
    best = None
    for a in range(k):
        margins = logits[:, [a]] - np.delete(logits, a, axis=1)
        rows = np.column_stack([-margins.T, np.ones(k - 1)])
        res = _simplex.maximize(objective, np.vstack([on_simplex, rows]), offsets)
        if best is None or res.value > best.value:
            best = res
    weights = np.clip(best.point[:n], 0.0, None)
    weights /= weights.sum()
    return weights, float(runner_up_gap(weights @ logits))
