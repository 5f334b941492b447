"""Convex-body algebra for gradient sets and perturbation regions.

Bodies are represented canonically through their support function
``rho(S, u) = sup_{c in S} c.u``; explicit halfspace representations are
derived only for bodies reducible to finite point sets.  All values are
immutable after construction and every operation is a pure function, so
bodies and regions can be shared freely across workers.

Supported body variants:

* :class:`FinitePoints` — a nonempty point cloud (its convex hull).
* :class:`LpBall` — an l_p ball with 1 <= p <= inf, radius >= 0, a center.
* :class:`Ellipsoid` — an origin-centered ellipsoidal ball whose support is
  ``radius * sqrt(u' Sigma u)`` for a symmetric positive-definite Sigma.
* :class:`Combination` — a formal nonnegative-weighted Minkowski combination
  of bodies, with optional per-term negation.  Expansion to explicit points
  happens lazily, capped at :data:`MAX_EXPANSION` points and hull-pruned
  after every pairwise step in 2D.

Each variant dispatches on itself: it implements ``support(u)`` (a float
for one direction (d,), an (m,) array for a stack (m, d)),
``support_point(u)`` (a point attaining the support), ``negate()``,
``scale(alpha)``, ``degenerate`` (the support is identically <= 0, the set
{0}) and ``shape_key`` (the hashable shape of an origin-centered ball, None
for every other body).  The balls add
``shape_radius`` (the radius on that normalized shape) and ``polar(r)``.
The free functions below delegate to these; only :func:`minkowski_sum`
and :func:`to_finite_points` dispatch on variants, as they look at two
bodies or a whole combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _simplex
from ._simplex import SimplexResult

TOL = 1e-9            # exact-geometry comparisons
STRICT_MARGIN = 1e-6  # strictness margins for proper-inclusion tests
MAX_EXPANSION = 10_000
SUPPORT_BLOCK = 1 << 18  # largest (directions x points) block FinitePoints.support forms


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert a coordinate sequence to a float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("a vector must be a one-dimensional sequence of length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_directions(x, dim: int) -> tuple[np.ndarray, bool]:
    """Validate one direction (d,) or a stack of directions (m, d).

    Returns the directions as an (m, d) stack, a single direction being a
    stack of one, and whether the input was a single direction.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 1:
        return as_vector(v, dim)[None, :], True
    if v.ndim != 2 or v.shape[1] != dim:
        raise ValueError(f"directions must be a vector of length {dim} "
                         f"or an (m, {dim}) stack")
    if not np.all(np.isfinite(v)):
        raise ValueError("direction coordinates must be finite")
    return v, False


def one_or_many(values: np.ndarray, single: bool):
    """A scalar for a single direction, else the (m,) array of values."""
    return values[0].item() if single else values


def freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of the array."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def dual_exponent(p: float) -> float:
    """Holder conjugate q of p, with the p = 1 and p = inf endpoints explicit."""
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    if p <= 1.0:
        raise ValueError("p must lie in [1, inf]")
    return p / (p - 1.0)


class ConvexBody:
    """Base class of the body variants; the module docstring lists their protocol."""

    dim: int
    shape_key = None

    def support(self, direction):
        raise NotImplementedError

    def polar(self, r: float):
        raise ValueError("polar_dual_ball applies to ball variants only")


@dataclass(frozen=True)
class FinitePoints(ConvexBody):
    points: np.ndarray  # (n, d)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("a finite point set must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", freeze(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def support(self, direction):
        dirs, single = as_directions(direction, self.dim)
        values = np.empty(dirs.shape[0])
        # blocks of directions keep the (block, points) product bounded
        block = max(1, SUPPORT_BLOCK // self.points.shape[0])
        for start in range(0, dirs.shape[0], block):
            part = dirs[start:start + block]
            values[start:start + block] = np.max(part @ self.points.T, axis=1)
        return one_or_many(values, single)

    def support_point(self, direction: np.ndarray) -> np.ndarray:
        return self.points[int(np.argmax(self.points @ direction))].copy()

    def negate(self) -> "FinitePoints":
        return FinitePoints(-self.points)

    def scale(self, alpha: float) -> "FinitePoints":
        return FinitePoints(alpha * self.points)

    @property
    def degenerate(self) -> bool:
        return bool(np.all(np.abs(self.points) <= 1e-15))


@dataclass(frozen=True)
class LpBall(ConvexBody):
    p: float
    radius: float
    center: np.ndarray

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError("p must lie in [1, inf]")
        if not (self.radius >= 0.0) or not np.isfinite(self.radius):
            raise ValueError("radius must be a finite nonnegative real")
        object.__setattr__(self, "center", freeze(as_vector(self.center)))

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def dual_p(self) -> float:
        return dual_exponent(self.p)

    def support(self, direction):
        dirs, single = as_directions(direction, self.dim)
        values = dirs @ self.center + self.radius * np.linalg.norm(dirs, ord=self.dual_p, axis=1)
        return one_or_many(values, single)

    def support_point(self, direction: np.ndarray) -> np.ndarray:
        d = direction
        if np.all(np.abs(d) <= 1e-15):
            return self.center.copy()
        if self.p == 1.0:  # one vertex; the formula below would split ties
            g = np.zeros_like(d)
            k = int(np.argmax(np.abs(d)))
            g[k] = math.copysign(1.0, d[k])
        else:  # g_i = sign(d_i) (|d_i| / |d|_q)^(q-1), the Holder equality case
            q = self.dual_p
            g = np.sign(d) * (np.abs(d) / np.linalg.norm(d, ord=q)) ** (q - 1.0)
        return self.center + self.radius * g

    def negate(self) -> "LpBall":
        return LpBall(self.p, self.radius, -self.center)

    def scale(self, alpha: float) -> "LpBall":
        return LpBall(self.p, alpha * self.radius, alpha * self.center)

    @property
    def shape_key(self):
        """("lp", p) for an origin-centered ball, None for a shifted one."""
        return ("lp", float(self.p)) if np.all(np.abs(self.center) <= 1e-12) else None

    @property
    def shape_radius(self) -> float:
        return float(self.radius)

    @property
    def degenerate(self) -> bool:
        return self.shape_key is not None and self.radius <= 1e-15

    def polar(self, r: float):
        if self.shape_key is None:
            raise ValueError("polar_dual_ball needs an origin-centered ball")
        if self.radius == 0.0:
            return WholeSpace(self.dim)
        return LpBall(self.dual_p, r / self.radius, np.zeros(self.dim))


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    sigma: np.ndarray  # (d, d) symmetric positive definite
    radius: float

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if s.shape[0] != s.shape[1]:
            raise ValueError("sigma must be square")
        if not np.allclose(s, s.T, atol=1e-9):
            raise ValueError("sigma must be symmetric")
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            raise ValueError("sigma must be positive definite") from None
        if not (self.radius >= 0.0) or not np.isfinite(self.radius):
            raise ValueError("radius must be a finite nonnegative real")
        object.__setattr__(self, "sigma", freeze(s))

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def support(self, direction):
        dirs, single = as_directions(direction, self.dim)
        quad = np.sum((dirs @ self.sigma) * dirs, axis=1)
        return one_or_many(self.radius * np.sqrt(np.maximum(quad, 0.0)), single)

    def support_point(self, direction: np.ndarray) -> np.ndarray:
        quad = float(direction @ self.sigma @ direction)
        if quad <= 1e-30:
            return np.zeros(self.dim)
        return self.radius * (self.sigma @ direction) / math.sqrt(quad)

    def negate(self) -> "Ellipsoid":
        return self

    def scale(self, alpha: float) -> "Ellipsoid":
        return Ellipsoid(self.sigma, alpha * self.radius)

    @property
    def shape_key(self):
        """The matrix normalized, so that (Sigma, eps) and (4*Sigma, eps/2)
        have one shape, and rounded to 10 decimals, so that a shape that went
        through a matrix inverse (a dual ball) still matches."""
        norm = float(np.linalg.norm(self.sigma))
        return ("ellipsoid", tuple(np.round(self.sigma / norm, 10).ravel()))

    @property
    def shape_radius(self) -> float:
        return float(self.radius * math.sqrt(float(np.linalg.norm(self.sigma))))

    @property
    def degenerate(self) -> bool:
        return self.radius <= 1e-15

    def polar(self, r: float):
        if self.radius == 0.0:
            return WholeSpace(self.dim)
        inv = np.linalg.inv(self.sigma)
        return Ellipsoid((inv + inv.T) / 2.0, r / self.radius)


@dataclass(frozen=True)
class Combination(ConvexBody):
    """Formal weighted Minkowski combination: sum_k coeff_k * (+-body_k)."""

    terms: tuple[tuple[float, ConvexBody, bool], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a combination needs at least one term")
        norm_terms = []
        dims = set()
        for coeff, body, negated in self.terms:
            if coeff < 0.0 or not np.isfinite(coeff):
                raise ValueError("combination coefficients must be nonnegative reals")
            dims.add(body.dim)
            norm_terms.append((float(coeff), body, bool(negated)))
        if len(dims) != 1:
            raise ValueError("all combination terms must share one dimension")
        object.__setattr__(self, "terms", tuple(norm_terms))

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def support(self, direction):
        dirs, single = as_directions(direction, self.dim)
        total = np.zeros(dirs.shape[0])
        for coeff, body, negated in self.terms:
            total += coeff * body.support(-dirs if negated else dirs)
        return one_or_many(total, single)

    def support_point(self, direction: np.ndarray) -> np.ndarray:
        total = np.zeros(self.dim)
        for coeff, body, negated in self.terms:
            sign = -1.0 if negated else 1.0
            total += sign * coeff * body.support_point(sign * direction)
        return total

    def negate(self) -> "Combination":
        return Combination(tuple((c, b, not neg) for c, b, neg in self.terms))

    def scale(self, alpha: float) -> "Combination":
        return Combination(tuple((alpha * c, b, neg) for c, b, neg in self.terms))

    @property
    def degenerate(self) -> bool:
        return all(c <= 1e-15 or b.degenerate for c, b, _ in self.terms)


@dataclass(frozen=True)
class WholeSpace:
    """Explicit marker for an unconstrained (whole-space) region."""

    dim: int


def support(body: ConvexBody, direction):
    """Largest first-order change achievable in the given direction: a float
    for one direction (d,), an (m,) array for a stack (m, d)."""
    return body.support(direction)


def negate(body: ConvexBody) -> ConvexBody:
    """Body whose support satisfies support(-S, u) = support(S, -u)."""
    return body.negate()


def scale(alpha: float, body: ConvexBody) -> ConvexBody:
    """Positive-homogeneous scaling: support(alpha*S, u) = alpha*support(S, u)."""
    if alpha < 0.0 or not np.isfinite(alpha):
        raise ValueError("scale factor must be a nonnegative real")
    return body.scale(alpha)


def _pairwise_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] * b.shape[0] > MAX_EXPANSION:
        raise ValueError(
            f"point expansion exceeds the {MAX_EXPANSION}-point cap; "
            "keep bodies hull-pruned or stay with the formal combination"
        )
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Minkowski sum; support functions add.  Closed forms where available."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    if isinstance(a, FinitePoints) and isinstance(b, FinitePoints):
        # prune the operands first: the sum of hulls is the hull of the sum,
        # and it keeps the pairwise product small
        lhs = hull_prune(a).points
        rhs = hull_prune(b).points
        return hull_prune(FinitePoints(_pairwise_sum(lhs, rhs)))
    if isinstance(a, LpBall) and isinstance(b, LpBall):
        same_p = (math.isinf(a.p) and math.isinf(b.p)) or abs(a.p - b.p) < 1e-12
        if same_p:
            return LpBall(a.p, a.radius + b.radius, a.center + b.center)
    if isinstance(a, Ellipsoid) and isinstance(b, Ellipsoid):
        norm_a = float(np.linalg.norm(a.sigma))
        norm_b = float(np.linalg.norm(b.sigma))
        if np.allclose(a.sigma / norm_a, b.sigma / norm_b, rtol=0.0, atol=1e-12):
            # (Sigma, r1) + (c Sigma, r2) = (Sigma, r1 + r2 sqrt(c))
            return Ellipsoid(a.sigma, a.radius + b.radius * math.sqrt(norm_b / norm_a))
    terms = []
    for body in (a, b):
        if isinstance(body, Combination):
            terms.extend(body.terms)
        else:
            terms.append((1.0, body, False))
    return Combination(tuple(terms))


def ball_shape_key(body: ConvexBody):
    """Hashable shape of an origin-centered ball (not of its size); None otherwise."""
    return body.shape_key


def ball_shape_radius(body: ConvexBody) -> float:
    """Radius on the normalized shape, so that balls with one key compare by it."""
    return body.shape_radius


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Monotone chain; extreme points in counterclockwise order."""
    pts = sorted(map(tuple, points))
    pts = [pts[i] for i in range(len(pts)) if i == 0 or pts[i] != pts[i - 1]]
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float)

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 1e-12:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if not hull:  # fully collinear input collapses the chains
        hull = [pts[0], pts[-1]]
    return np.asarray(hull, dtype=float)


def hull_prune(body: FinitePoints) -> FinitePoints:
    """Drop points that do not affect the support function.

    Exact in one and two dimensions (extreme points only; 2D output is in
    counterclockwise order); deduplication-only fallback in higher dimension.
    """
    pts = body.points
    if pts.shape[0] == 1:
        return body
    if body.dim == 1:
        return FinitePoints(np.array([[pts[:, 0].min()], [pts[:, 0].max()]]))
    if body.dim == 2:
        return FinitePoints(_hull_2d(pts))
    return FinitePoints(np.unique(pts, axis=0))


def to_finite_points(body: ConvexBody) -> np.ndarray:
    """Explicit generator points of a body, if it reduces to finitely many.

    Combinations of finite point sets are expanded to pairwise sums, pruning
    after every step; ball variants raise (use :func:`polar_dual_ball`).
    """
    if isinstance(body, FinitePoints):
        return hull_prune(body).points
    if isinstance(body, Combination):
        acc: np.ndarray | None = None
        for coeff, sub, negated in body.terms:
            pts = to_finite_points(sub) * coeff
            if negated:
                pts = -pts
            acc = pts if acc is None else _pairwise_sum(acc, pts)
            acc = hull_prune(FinitePoints(acc)).points
        return acc
    raise ValueError(f"{type(body).__name__} does not reduce to a finite point set")


@dataclass(frozen=True)
class HalfspaceRegion:
    """Intersection of halfspaces {delta : normals[k].delta <= offsets[k]}."""

    normals: np.ndarray  # (m, d)
    offsets: np.ndarray  # (m,)
    dim: int

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float).reshape(-1, self.dim)
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("each halfspace needs one normal and one offset")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
            raise ValueError("halfspace data must be finite")
        object.__setattr__(self, "normals", freeze(normals))
        object.__setattr__(self, "offsets", freeze(offsets))

    @property
    def n_halfspaces(self) -> int:
        return self.normals.shape[0]

    def contains(self, point, tol: float = TOL) -> bool:
        x = as_vector(point, self.dim)
        return bool(np.all(self.normals @ x <= self.offsets + tol))

    def intersect(self, other: "HalfspaceRegion") -> "HalfspaceRegion":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in region intersection")
        return HalfspaceRegion(
            np.vstack([self.normals, other.normals]),
            np.concatenate([self.offsets, other.offsets]),
            self.dim,
        )

    def with_halfspace(self, normal, offset: float) -> "HalfspaceRegion":
        n = as_vector(normal, self.dim)
        return HalfspaceRegion(
            np.vstack([self.normals, n[None, :]]),
            np.concatenate([self.offsets, [float(offset)]]),
            self.dim,
        )


def polar_hrep(body: ConvexBody, r: float) -> HalfspaceRegion:
    """Halfspace representation of {delta : support(S, delta) <= r}.

    One halfspace per generator point; the body must reduce to a finite
    point set.
    """
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("polar radius must be a nonnegative real")
    pts = to_finite_points(body)
    keep = np.linalg.norm(pts, axis=1) > 1e-15
    pts = pts[keep] if keep.any() else pts[:0]
    return HalfspaceRegion(pts, np.full(pts.shape[0], float(r)), body.dim)


def polar_dual_ball(body: ConvexBody, r: float) -> ConvexBody | WholeSpace:
    """Polar set of an origin-centered ball: the dual-shape ball of radius r/eps."""
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("polar radius must be a nonnegative real")
    return body.polar(r)


def lp_maximize(objective, region: HalfspaceRegion) -> SimplexResult:
    """Exact maximum of objective.delta over the region (or unboundedness).

    Two-phase dense simplex with Bland's anti-cycling rule; an infeasible
    region is reported distinctly (it cannot arise from polar constructions).
    """
    return _simplex.maximize(as_vector(objective, region.dim), region.normals, region.offsets)


def region_support(region: HalfspaceRegion, directions, limits=None) -> list[SimplexResult]:
    """Maximum of each direction over the region, from one batched LP call.

    Results come in the order of `directions`.  The list stops after the
    first result that is infeasible or exceeds its entry of `limits`, so a
    containment query stops at the first direction that decides it.
    """
    return _simplex.maximize(np.reshape(directions, (-1, region.dim)),
                             region.normals, region.offsets, limits)


def region_subset(a: HalfspaceRegion, b: HalfspaceRegion, slack: float = TOL) -> bool:
    """True iff a is contained in b, decided exactly by maximizing every
    normal of b over a.

    An empty `a` is a subset of anything; an unbounded maximum over `a`
    falsifies containment.  A zero row of b with a negative offset makes b
    empty, so that only an empty `a` is contained.
    """
    return not region_exceeds(a, b, slack)


def region_exceeds(a: HalfspaceRegion, b: HalfspaceRegion,
                   margin: float = STRICT_MARGIN) -> bool:
    """True iff some point of a violates a halfspace of b by more than margin."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in containment test")
    limits = b.offsets + margin
    return any(res.exceeds(limit)
               for res, limit in zip(region_support(a, b.normals, limits), limits))


def region_minus_subset(a: HalfspaceRegion, carves, b: HalfspaceRegion,
                        slack: float = TOL) -> bool:
    """True iff a \\ (c_1 u ... u c_k) is contained in b (up to the slack
    tolerance), for the sequence of regions `carves`.

    The complement of the first carve is decomposed along its own
    halfspaces: for every halfspace (v, c), the convex piece of a with
    {v.delta >= c + slack} must lie in b once the remaining carves are taken
    out of it in turn.  Each piece is first tested against b with one
    containment query, which also finds an empty piece at its first LP; a
    piece inside b needs no further carving, and any other piece fails at
    the last carve or is carved by the next one.  The slack keeps the
    closed pieces off each carve's own boundary, so a \\ a correctly comes
    out empty.
    """
    if not carves:
        return region_subset(a, b, slack)
    carve, rest = carves[0], carves[1:]
    if not (a.dim == carve.dim == b.dim):
        raise ValueError("dimension mismatch in containment test")
    for normal, offset in zip(carve.normals, carve.offsets):
        piece = a.with_halfspace(-normal, -(float(offset) + slack))
        if region_subset(piece, b, slack):
            continue
        if not rest or not region_minus_subset(piece, rest, b, slack):
            return False
    return True


def _axis_directions(dim: int) -> np.ndarray:
    """The directions e_0, -e_0, e_1, -e_1, ... as rows."""
    return np.repeat(np.eye(dim), 2, axis=0) * np.tile([1.0, -1.0], dim)[:, None]


def region_is_origin_only(region: HalfspaceRegion, tol: float = TOL) -> bool:
    """True iff the region is pinched to the single point {0}."""
    results = region_support(region, _axis_directions(region.dim),
                             np.full(2 * region.dim, tol))
    return results[0].status != _simplex.INFEASIBLE and not any(
        res.exceeds(tol) for res in results)


def region_is_unbounded(region: HalfspaceRegion) -> bool:
    """True iff the region is unbounded along some coordinate axis, i.e.
    unbounded at all (an empty region is bounded)."""
    return any(res.status == _simplex.UNBOUNDED
               for res in region_support(region, _axis_directions(region.dim)))


def region_to_interval(region: HalfspaceRegion) -> tuple[float | None, float | None]:
    """Endpoints of a one-dimensional region; None marks an unbounded side."""
    if region.dim != 1:
        raise ValueError("interval form is defined for one-dimensional regions")
    results = region_support(region, _axis_directions(1))
    if results[0].status == _simplex.INFEASIBLE:
        raise ValueError("region is empty")
    hi_res, lo_res = results
    hi = None if hi_res.status == _simplex.UNBOUNDED else float(hi_res.value)
    lo = None if lo_res.status == _simplex.UNBOUNDED else float(-lo_res.value)
    return lo, hi
