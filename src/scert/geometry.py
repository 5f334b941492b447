"""Convex-body algebra for gradient sets and perturbation regions.

Bodies are represented canonically through their support function
``rho(S, u) = sup_{c in S} c.u``; explicit halfspace representations are
derived only for finite point sets, from checked data that is not checked
again, and every LP over such a region is one :func:`lp_maximize` call,
whose answers are arrays, so a region query is one comparison.  All values
are immutable after construction and every operation is a pure function, so
bodies and regions can be shared freely across workers.

Supported body variants:

* :class:`FinitePoints` — a nonempty point cloud (its convex hull).
* :class:`LpBall` — an l_p ball with 1 <= p <= inf, radius >= 0, a center.
* :class:`Ellipsoid` — an origin-centered ellipsoidal ball whose support is
  ``radius * sqrt(u' Sigma u)`` for a symmetric positive-definite Sigma.
* :class:`Combination` — a formal nonnegative-weighted Minkowski combination
  of bodies, made where no closed form applies.  It is a support oracle and
  is never expanded: :func:`minkowski_sum` sums point sets at once, so every
  combination holds a term that is not a point set.

Finite point sets are summed through their hulls.  A 2D hull is exact: each
turn of its chain takes the float sign where that clears Shewchuk's error
bound, else the sign in integers.  In 2D a step merges the edge sequences of
the two hulls by angle, forming no pairwise sum; in other dimensions it prunes
the pairwise sum, capped at :data:`MAX_EXPANSION` points, which only d >= 3
can reach (a 1D hull has two points); its error reaches the caller.
:func:`hull_prune` memoises on the body, every prune, 2D merge or scale
by alpha > 0 (alpha times the prune) is its own prune, and a body keeps its
negation, whose prune in 1D and 2D is the negated prune, so no prune result
is pruned again and each 2D point set is hulled once, its negation included.

Each variant dispatches on itself: it implements ``support(u)`` (a float
for one direction (d,), an (m,) array for a stack (m, d)),
``support_point(u)`` (a point attaining the support), ``negate()``,
``scale(alpha)``, ``degenerate`` (the set is exactly {0}) and
``centered_ball`` (an ellipsoid, or an l_p ball centered exactly at 0);
the balls add ``same_shape(other)`` (one shape up to size and center),
``shape_norm`` (the matrix norm, 1 for an l_p ball), ``shape_radius`` (the
radius on the normalized shape) and ``polar(r)``.  The free functions below
delegate to these, and :func:`weighted_sum` folds them into a weighted
combination; only :func:`minkowski_sum` dispatches on variants, as it looks
at two bodies.

A region whose offsets are all positive (a star region) is the polar set of
K, the hull of {a_k / b_k} and 0, and its boundary point along u is u / h(u),
h the support of K (:func:`_boundary`, at unit size by powers of two).
Where the simplex answers (d >= 3), the region queries settle two kinds of
objective before any LP, in the one order of :func:`region_maxima`: one
whose boundary point along itself is past its limit is refuted
(:func:`_refuted`), and in 3D one that lies deep inside a tetrahedron of 0
and a sphere-mesh triangle of K, built once per region from the mesh the 3D
prune also uses, is proven within it (:func:`_unproven`).  Every other
objective goes to the LP.  :func:`union_witness` takes the same boundary
points in every dimension, as points of a region outside a union.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _simplex

TOL = 1e-9            # exact-geometry comparisons
STRICT_MARGIN = 1e-6  # strict inclusion: absolute LP slack; relative factor on extents
# 3D prune and polar screen: least barycentric weight of each of a tetrahedron's
# three points, least weight of its apex, least |det| / extent^3
PRUNE_MARGIN = 1e-6
SHAPE_TOL = 1e-12     # normalized ellipsoid matrices this close are one shape
SYMMETRY_TOL = 1e-9   # largest asymmetry accepted in an ellipsoid matrix
MAX_EXPANSION = 10_000   # largest pairwise sum formed; 2D sums merge edges instead
OCTAGON_MIN_POINTS = 20  # 2D clouds larger than this meet the octagon filter before the chain
# Shewchuk's ccwerrboundA (eps 2^-53): a float turn l - r beyond this (|l| + |r|) has the true sign
ORIENT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
SUPPORT_BLOCK = 1 << 18  # largest (directions x points) block FinitePoints.support forms
PRUNE_BLOCK = 1 << 15    # largest (points x tetrahedra) block the 3D prune forms


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


def seeded_unit_directions(n: int, dim: int) -> np.ndarray:
    """n unit directions as rows: the normalized rows of a seed-0 normal draw."""
    dirs = np.random.default_rng(0).standard_normal((n, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


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
    centered_ball = False

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

    @classmethod
    def _checked(cls, points: np.ndarray) -> "FinitePoints":
        """A body of a fresh (n, d) float array of points already known to be
        finite (a subset or the negation of a body's points): made read-only
        in place, with no check and no copy."""
        points.flags.writeable = False
        body = object.__new__(cls)
        object.__setattr__(body, "points", points)
        return body

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
        return self.points[int(np.argmax(self.points @ _simplex.unit_size(direction)[0]))].copy()

    def negate(self) -> "FinitePoints":
        return self._negated

    @functools.cached_property
    def _negated(self) -> "FinitePoints":
        """-S, one body per S.  In 1D and 2D, where the hull is exact, its
        hull is the negated hull of S, so that S and -S are hulled once."""
        body = FinitePoints._checked(-self.points)
        if self.dim <= 2:
            body.__dict__["_negation_of"] = self
        return body

    def scale(self, alpha: float) -> "FinitePoints":
        if alpha == 0.0:
            return FinitePoints(alpha * self.points)
        return _own_hull(FinitePoints(alpha * hull_prune(self).points))

    @functools.cached_property
    def _hull(self) -> "FinitePoints":
        """The memo of :func:`hull_prune`.  A negation that keeps its source
        takes the source's hull negated, from the negation of its
        lexicographic maximum: bit for bit its own 1D or 2D hull, as sorting
        and the chain's turn tests are symmetric under negation."""
        source = self.__dict__.get("_negation_of")
        if source is None:
            return _prune(self)
        hull = source._hull.points
        start = int(np.lexsort(hull.T[::-1])[-1])
        return _own_hull(FinitePoints._checked(-np.concatenate((hull[start:], hull[:start]))))

    @property
    def degenerate(self) -> bool:
        return not self.points.any()


@dataclass(frozen=True)
class LpBall(ConvexBody):
    p: float
    radius: float
    center: np.ndarray
    shape_norm = 1.0

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
        d, _ = _simplex.unit_size(direction)  # the point does not depend on the length of d
        if not d.any():
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
    def centered_ball(self) -> bool:
        return not self.center.any()

    def same_shape(self, other: ConvexBody) -> bool:
        return isinstance(other, LpBall) and other.p == self.p

    @property
    def shape_radius(self) -> float:
        return float(self.radius)

    @property
    def degenerate(self) -> bool:
        return self.centered_ball and self.radius == 0.0

    def polar(self, r: float):
        if not self.centered_ball:
            raise ValueError("polar_dual_ball needs an origin-centered ball")
        if self.radius == 0.0:
            return WholeSpace(self.dim)
        return LpBall(self.dual_p, r / self.radius, np.zeros(self.dim))


@dataclass(frozen=True)
class Ellipsoid(ConvexBody):
    sigma: np.ndarray  # (d, d) symmetric positive definite
    radius: float
    centered_ball = True

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if s.shape[0] != s.shape[1]:
            raise ValueError("sigma must be square")
        if not np.allclose(s, s.T, atol=SYMMETRY_TOL):
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
        d, _ = _simplex.unit_size(direction)  # the point does not depend on the length of d
        quad = float(d @ self.sigma @ d)
        if not quad > 0.0:
            return np.zeros(self.dim)
        return self.radius * (self.sigma @ d) / math.sqrt(quad)

    def negate(self) -> "Ellipsoid":
        return self

    def scale(self, alpha: float) -> "Ellipsoid":
        return Ellipsoid(self.sigma, alpha * self.radius)

    @functools.cached_property
    def shape_norm(self) -> float:
        """The Frobenius norm of sigma, taken at unit size by a power of two,
        so that its squares cannot overflow."""
        sigma, shift = _simplex.unit_size(self.sigma)
        return math.ldexp(float(np.linalg.norm(sigma)), shift)

    def same_shape(self, other: ConvexBody) -> bool:
        """The matrices agree within SHAPE_TOL once normalized, so that
        (Sigma, eps) and (4*Sigma, eps/2) are one shape."""
        return isinstance(other, Ellipsoid) and bool(np.all(
            np.abs(self.sigma / self.shape_norm - other.sigma / other.shape_norm) <= SHAPE_TOL))

    @property
    def shape_radius(self) -> float:
        return float(self.radius * math.sqrt(self.shape_norm))

    @property
    def degenerate(self) -> bool:
        return self.radius == 0.0

    def polar(self, r: float):
        if self.radius == 0.0:
            return WholeSpace(self.dim)
        inv = np.linalg.inv(self.sigma)
        return Ellipsoid((inv + inv.T) / 2.0, r / self.radius)


@dataclass(frozen=True)
class Combination(ConvexBody):
    """Formal weighted Minkowski combination: sum_k coeff_k * body_k."""

    terms: tuple[tuple[float, ConvexBody], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a combination needs at least one term")
        if any(c < 0.0 or not np.isfinite(c) for c, _ in self.terms):
            raise ValueError("combination coefficients must be nonnegative reals")
        if len({b.dim for _, b in self.terms}) != 1:
            raise ValueError("all combination terms must share one dimension")
        object.__setattr__(self, "terms", tuple((float(c), b) for c, b in self.terms))

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def support(self, direction):
        dirs, single = as_directions(direction, self.dim)
        total = np.zeros(dirs.shape[0])
        for coeff, body in self.terms:
            total += coeff * body.support(dirs)
        return one_or_many(total, single)

    def support_point(self, direction: np.ndarray) -> np.ndarray:
        total = np.zeros(self.dim)
        for coeff, body in self.terms:
            total += coeff * body.support_point(direction)
        return total

    def negate(self) -> "Combination":
        return Combination(tuple((c, b.negate()) for c, b in self.terms))

    def scale(self, alpha: float) -> "Combination":
        return Combination(tuple((alpha * c, b) for c, b in self.terms))

    @property
    def degenerate(self) -> bool:
        return all(c == 0.0 or b.degenerate for c, b in self.terms)


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


def weighted_sum(bodies: list[ConvexBody], weights) -> ConvexBody:
    """The weighted Minkowski sum w_1 B_1 (+) ... (+) w_n B_n, left to right."""
    total = scale(float(weights[0]), bodies[0])
    for w, body in zip(weights[1:], bodies[1:]):
        total = minkowski_sum(total, scale(float(w), body))
    return total


def _pairwise_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] * b.shape[0] > MAX_EXPANSION:
        raise ValueError(
            f"point expansion exceeds the {MAX_EXPANSION}-point cap; "
            "keep bodies hull-pruned or stay with the formal combination"
        )
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


def _sum_points(a: FinitePoints, b: FinitePoints) -> FinitePoints:
    """The pruned Minkowski sum of two point sets.  The operands are pruned
    first, as the sum of hulls is the hull of the sum: in 2D their hulls are
    merged edge by edge, otherwise their pairwise sum is pruned."""
    lhs, rhs = hull_prune(a).points, hull_prune(b).points
    if a.dim == 2:
        return _merge_2d(lhs, rhs)
    return hull_prune(FinitePoints(_pairwise_sum(lhs, rhs)))


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Minkowski sum; support functions add.  Closed forms where available."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    if isinstance(a, FinitePoints) and isinstance(b, FinitePoints):
        return _sum_points(a, b)
    if isinstance(a, LpBall) and a.same_shape(b):
        return LpBall(a.p, a.radius + b.radius, a.center + b.center)
    if isinstance(a, Ellipsoid) and a.same_shape(b):
        # (Sigma, r1) + (c Sigma, r2) = (Sigma, r1 + r2 sqrt(c))
        return Ellipsoid(a.sigma, a.radius + b.radius * math.sqrt(b.shape_norm / a.shape_norm))
    terms = []
    for body in (a, b):
        terms.extend(body.terms if isinstance(body, Combination) else [(1.0, body)])
    return Combination(tuple(terms))


def one_ball_shape(bodies) -> bool:
    """Whether the bodies are origin-centered balls of one shape: each is
    centered and has the first one's shape."""
    return all(b.centered_ball and bodies[0].same_shape(b) for b in bodies)


def _chain(seq) -> list:
    """One monotone chain over [x, y] lists: the middle point of a triple
    (o, a, p) is popped unless (a - o) x (p - o) = l - r is positive, exactly.
    The float sign decides where |l - r| > ORIENT_ERR (|l| + |r|) and that bound
    is normal (an overflow fails the test); other turns are taken in integers."""
    chain, err, floor = [], ORIENT_ERR, sys.float_info.min
    for p in seq:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            left, right = (ax - ox) * (py - oy), (ay - oy) * (px - ox)
            det, bound = left - right, err * (abs(left) + abs(right))
            if not abs(det) > bound >= floor:
                det = _exact_turn(ox, oy, ax, ay, px, py)
            if det > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _exact_turn(*coords: float) -> int:
    """(a - o) x (p - o) of ox, oy, ax, ay, px, py as integers over one power of two."""
    ratios = [v.as_integer_ratio() for v in coords]
    den = max(d for _, d in ratios)
    ox, oy, ax, ay, px, py = (n * (den // d) for n, d in ratios)
    return (ax - ox) * (py - oy) - (ay - oy) * (px - ox)


# directions whose argmax points are the corners of the Akl-Toussaint octagon,
# counterclockwise, and the first of them again to close it
_OCTAGON = np.array([[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1],
                     [1, 0]], dtype=float).T


def _octagon_filter(points: np.ndarray) -> np.ndarray:
    """The points less those surely inside the octagon of their argmaxes (Akl &
    Toussaint 1978): left of every edge, Im(w) > 2 ORIENT_ERR |w| >= the least
    normal for w = (point - corner) conj(edge), as |l| + |r| <= |w| (the 2 covers
    the rounding of |w|); a point the test cannot decide is kept."""
    z = np.ascontiguousarray(points).view(complex)[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        top = (points @ _OCTAGON).argmax(axis=0)
        corners = z[top]
        edges = corners[1:] - corners[:-1]
        solid = edges != 0  # a corner repeated has no edge
        w = (z[:, None] - corners[:-1][solid]) * edges[solid].conj()
        bound = 2.0 * ORIENT_ERR * np.abs(w)
        inside = ((w.imag > bound) & (bound >= sys.float_info.min)).all(axis=1)
    inside[top] = False
    return points[~inside]


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Extreme points in counterclockwise order from the lexicographic
    minimum: the monotone chain, behind the octagon filter on a large cloud."""
    if points.shape[0] > OCTAGON_MIN_POINTS:
        points = _octagon_filter(points)
    return np.asarray(_monotone_chain(points.tolist()), dtype=float)


def _monotone_chain(pts: list) -> list:
    """The extreme points of [x, y] lists of finite floats, counterclockwise
    from the lexicographic minimum (Andrew's monotone chain), each turn
    decided exactly by :func:`_chain`, at any scale."""
    pts = sorted(pts)
    pts = [p for p, prev in zip(pts, [None] + pts) if p != prev]
    if len(pts) <= 2:
        return pts
    return _chain(pts)[:-1] + _chain(reversed(pts))[:-1]


def _edge_keys(hull: list) -> list:
    """Sort keys of the edges of a hull in _hull_2d order, increasing with the
    edge angle in (-pi/2, 3pi/2] from its lexicographic minimum; a point has
    no edge.  A key is the half (pointing left or straight down), exact from
    the sign of dx, then dy / dx, which increases within each half and keeps
    the relative precision of a tiny dx that an angle would round away."""
    keys = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1] if len(hull) > 1 else []):
        dx, dy = x1 - x0, y1 - y0
        keys.append((dx < 0.0 or (dx == 0.0 and dy < 0.0), dy / dx if dx else math.inf))
    return keys


def _merge_2d(p: np.ndarray, q: np.ndarray) -> FinitePoints:
    """The hull of p (+) q for two hulls in _hull_2d order, by merging their
    edge sequences by angle (de Berg et al., Computational Geometry, 13.3).
    Each vertex is the float sum p[i] + q[j], bit-equal to its entry in the
    pairwise sum.  The chain then drops those between parallel edges and puts
    the rest in _hull_2d order: rounding can make another vertex than
    p[0] + q[0] the lexicographic minimum (the sort sees two sorted runs)."""
    p, q = p.tolist(), q.tolist()
    i = j = 0
    vertices = [[p[0][0] + q[0][0], p[0][1] + q[0][1]]]
    for *_, from_q in sorted([(*k, 0) for k in _edge_keys(p)]
                             + [(*k, 1) for k in _edge_keys(q)]):
        i, j = (i, j + 1) if from_q else (i + 1, j)
        a, b = p[i % len(p)], q[j % len(q)]
        vertices.append([a[0] + b[0], a[1] + b[1]])  # the last is the first again
    vertices = FinitePoints(vertices).points.tolist()  # checked: a sum can overflow
    return _own_hull(FinitePoints._checked(np.array(_monotone_chain(vertices))))


def _own_hull(body: FinitePoints) -> FinitePoints:
    """The body, marked as its own :func:`hull_prune`: a prune result is not
    pruned again."""
    body.__dict__["_hull"] = body
    return body


def _sphere_mesh() -> tuple[np.ndarray, np.ndarray]:
    """Unit directions on a latitude-longitude grid from pole to pole (each
    pole once per sector) and the (3, t) corners of the t triangles tiling it."""
    rings, sectors = 26, 48
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, rings),
                             2.0 * np.pi * np.arange(sectors) / sectors, indexing="ij")
    dirs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                    axis=-1).reshape(-1, 3)
    ring = np.arange(rings * sectors).reshape(rings, sectors)
    turn = np.roll(ring, -1, axis=1)
    triangles = np.stack([np.stack([ring[:-1], ring[1:], turn[1:]]),
                          np.stack([ring[:-1], turn[1:], turn[:-1]])], axis=1)
    return dirs, triangles.reshape(3, -1)


_SPHERE, _SPHERE_TRIANGLES = _sphere_mesh()


def _distinct_rows(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of `pts` in lexicographic order, as np.unique(pts,
    axis=0) gives them; of rows that differ only by the sign of a zero, one
    is kept."""
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])]


def _mesh_argmax(pts: np.ndarray) -> np.ndarray:
    """The index of the argmax point of each sphere-mesh direction."""
    block = max(1, SUPPORT_BLOCK // pts.shape[0])
    return np.concatenate([np.argmax(_SPHERE[start:start + block] @ pts.T, axis=1)
                           for start in range(0, len(_SPHERE), block)])


def _mesh_tetrahedra(pts: np.ndarray, top: np.ndarray,
                     apex: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tetrahedra (apex, p_i, p_j, p_l) over the distinct mesh triangles
    mapped to their corners' argmax points `top`, the solid ones only (|det|
    above PRUNE_MARGIN extent^3, the extent the largest |coordinate| of pts -
    apex): the (3, 3t) normals and (t,) determinants of their barycentric
    coordinates, which :func:`_in_tetrahedra` reads."""
    tri = top[_SPHERE_TRIANGLES]
    lo, hi = tri.min(axis=0), tri.max(axis=0)
    mid = tri.sum(axis=0) - lo - hi
    m, distinct = pts.shape[0], (lo < mid) & (mid < hi)
    _, first = np.unique(((lo * m + mid) * m + hi)[distinct], return_index=True)
    a, b, c = (pts[corner[distinct][first]] - apex for corner in (lo, mid, hi))
    u, v = np.stack([b, c, a]), np.stack([c, a, b])  # (3, t, 3): normals u x v
    normals = u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]
    det = np.sum(a * normals[0], axis=1)
    extent = float(np.abs(pts - apex).max())
    solid = np.abs(det) > PRUNE_MARGIN * extent * extent * extent
    return normals[:, solid].reshape(-1, 3).T, det[solid]


def _in_tetrahedra(points: np.ndarray, apex, normals: np.ndarray,
                   det: np.ndarray) -> np.ndarray:
    """Whether each point has barycentric coordinates all >= PRUNE_MARGIN,
    summing to at most 1 - PRUNE_MARGIN, in one of the tetrahedra of
    :func:`_mesh_tetrahedra`: the weights of its three points, the apex taking
    the rest."""
    inside = np.zeros(points.shape[0], dtype=bool)
    block = max(1, PRUNE_BLOCK // max(1, det.size))
    for start in range(0, points.shape[0], block):
        part = points[start:start + block]
        bary = ((part - apex) @ normals).reshape(part.shape[0], 3, -1) / det
        inside[start:start + block] = np.any(
            (bary[:, 0] >= PRUNE_MARGIN) & (bary[:, 1] >= PRUNE_MARGIN)
            & (bary[:, 2] >= PRUNE_MARGIN) & (bary.sum(axis=1) <= 1.0 - PRUNE_MARGIN), axis=1)
    return inside


def _prune_3d(pts: np.ndarray) -> np.ndarray:
    """Distinct 3D points (lexicographic order) less some inside their hull: the
    argmax of every sphere-mesh direction is kept, and a point is dropped only
    when it lies inside a tetrahedron of the kept points' centroid and a mesh
    triangle (:func:`_in_tetrahedra`), so every extreme point is kept."""
    units, _ = _simplex.unit_size(pts)  # so that no determinant overflows at any scale
    top = _mesh_argmax(units)
    keep = np.zeros(pts.shape[0], dtype=bool)
    keep[top] = True
    if keep.all():
        return pts
    centre = units[keep].mean(axis=0)
    rest = np.flatnonzero(~keep)
    keep[rest] = ~_in_tetrahedra(units[rest], centre, *_mesh_tetrahedra(units, top, centre))
    return pts[keep]


def hull_prune(body: FinitePoints) -> FinitePoints:
    """Drop points that do not affect the support function.

    Exact in one and two dimensions (extreme points only; 2D output is in
    counterclockwise order from the lexicographic minimum); in 3D every
    extreme point and possibly others (:func:`_prune_3d`); deduplication
    only in higher dimension.  Memoised on the body, and every result is
    its own prune: a kept point that is not extreme is a redundant
    halfspace of the polar region, never a change to it.
    """
    return body._hull


def _prune(body: FinitePoints) -> FinitePoints:
    pts = body.points
    if pts.shape[0] == 1:
        return body
    if body.dim == 1:
        pts = np.array([[pts[:, 0].min()], [pts[:, 0].max()]])
    elif body.dim == 2:
        pts = _hull_2d(pts)
    else:
        pts = _distinct_rows(pts)
        if body.dim == 3:
            pts = _prune_3d(pts)
    return _own_hull(FinitePoints._checked(pts))


@dataclass(frozen=True)
class HalfspaceRegion:
    """Intersection of halfspaces {delta : normals[k].delta <= offsets[k]}."""

    normals: np.ndarray  # (m, d)
    offsets: np.ndarray  # (m,)
    dim: int

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        if not (normals.ndim == 2 and normals.shape[1] == self.dim
                or normals.shape in ((0,), (self.dim,))):
            raise ValueError(f"normals must be rows of {self.dim} coordinates")
        normals = normals.reshape(-1, self.dim)
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("each halfspace needs one normal and one offset")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))):
            raise ValueError("halfspace data must be finite")
        object.__setattr__(self, "normals", freeze(normals))
        object.__setattr__(self, "offsets", freeze(offsets))

    @classmethod
    def _checked(cls, normals: np.ndarray, offsets: np.ndarray, dim: int) -> "HalfspaceRegion":
        """A region of fresh (m, dim) normals and (m,) float offsets already
        known to be finite (derived from checked data): made read-only in
        place, with no check and no copy."""
        normals.flags.writeable = offsets.flags.writeable = False
        region = object.__new__(cls)
        region.__dict__.update(normals=normals, offsets=offsets, dim=dim)
        return region

    @property
    def n_halfspaces(self) -> int:
        return self.normals.shape[0]

    def contains(self, point, tol: float = TOL) -> bool:
        x = as_vector(point, self.dim)
        return bool(np.all(self.normals @ x <= self.offsets + tol))

    @functools.cached_property
    def _polar_points(self):
        """2^s and the points q_k / 2^s, q_k = a_k / b_k, whose hull with 0 is
        K, the set this region is the polar of, or None unless every offset is
        positive: 1/2 <= max |q / 2^s| < 1.  Each q_k is formed at unit size by
        powers of two, so that no a_k / b_k leaves the float range; a row far
        below the largest may still underflow here, which moves each support
        of K by less than 2^-1074 at that size."""
        if not (self.offsets > 0.0).all():
            return None
        rows, row_exp = _simplex.unit_size(self.normals, rows=True)
        unit, offset_exp = np.frexp(self.offsets)
        exps = row_exp - offset_exp
        top = int(exps.max(initial=0))
        q, shift = _simplex.unit_size(np.ldexp(rows / unit[:, None], (exps - top)[:, None]))
        return top + shift, q

    @functools.cached_property
    def _polar_tetrahedra(self):
        """The tetrahedra of :func:`_unproven`, or None where it proves nothing:
        for a 3D region with polar points q / 2^s, 2^s and the mesh tetrahedra
        (0, q_i, q_j, q_l) / 2^s of those points."""
        points = None if self.dim != 3 else self._polar_points
        if points is None or points[1].shape[0] < 3:
            return None
        shift, q = points
        normals, det = _mesh_tetrahedra(q, _mesh_argmax(q), np.zeros(3))
        return (shift, normals, det) if det.size else None

    def intersect(self, other: "HalfspaceRegion") -> "HalfspaceRegion":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in region intersection")
        return HalfspaceRegion._checked(np.vstack([self.normals, other.normals]),
                                        np.concatenate([self.offsets, other.offsets]),
                                        self.dim)


def polar_hrep(body: ConvexBody, r: float) -> HalfspaceRegion:
    """Halfspace representation of {delta : support(S, delta) <= r}.

    One halfspace per pruned generator point other than 0, whose row would
    read 0 <= r; the body must be a finite point set (a ball's polar is
    :func:`polar_dual_ball`).
    """
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("polar radius must be a nonnegative real")
    if not isinstance(body, FinitePoints):
        raise ValueError(f"{type(body).__name__} does not reduce to a finite point set")
    pts = hull_prune(body).points
    pts = pts[pts.any(axis=1)]
    return HalfspaceRegion._checked(pts, np.full(pts.shape[0], float(r)), body.dim)


def polar_dual_ball(body: ConvexBody, r: float) -> ConvexBody | WholeSpace:
    """Polar set of an origin-centered ball: the dual-shape ball of radius r/eps."""
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("polar radius must be a nonnegative real")
    return body.polar(r)


def lp_maximize(objectives, region: HalfspaceRegion, limits=None):
    """Maximum of each objective over the region, from one LP call.

    Takes a stack (m, d) of objectives, one objective (d,) being a stack of
    one, and returns :func:`_simplex.maximize`'s arrays: the maxima (+inf
    unbounded, -inf on an empty region) and a point attaining each, up to the
    first maximum above its entry of `limits`.  So a query past some limits
    is one comparison, ``values > limits[:len(values)]``.
    """
    dirs, _ = as_directions(objectives, region.dim)
    return _simplex.maximize(dirs, region.normals, region.offsets, limits)


def _unproven(objectives: np.ndarray, region: HalfspaceRegion, limits: np.ndarray):
    """The rows of the objectives that the polar screen leaves to the LP: a
    boolean mask, or every row (a slice) for a region it does not apply to.
    An objective c with a limit L > 0 is proven when c / L lies in one of the
    region's tetrahedra (0, q_i, q_j, q_l) by the margins of
    :func:`_in_tetrahedra`: c = L sum y_k q_k with y >= 0 and sum y <= 1 then
    gives c.x <= L wherever every q_k.x <= 1 (LP duality).  Every step is
    scale-free, as the points are taken at unit size by a power of two."""
    tetrahedra = region._polar_tetrahedra
    if tetrahedra is None:
        return slice(None)
    shift, normals, det = tetrahedra
    positive = limits > 0.0
    rows = np.ones(len(objectives), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow proves nothing
        points = np.ldexp(objectives[positive] / limits[positive, None], -shift)
        rows[positive] = ~_in_tetrahedra(points, 0.0, normals, det)
    return rows


def _boundary(region: HalfspaceRegion, directions: np.ndarray):
    """The boundary points of a star region (every offset positive) along the
    directions u, at unit size, or None for another region.  With 2^s and the
    points q / 2^s of its polar set, each u = v 2^e with 1/2 <= max |v| < 1
    and h = max(0, max_k v.q_k / 2^s): returns v, e and h.  The support of K
    is h(u) = h 2^(e + s), and the boundary point along u is u / h(u) = (v /
    h) 2^-s = t(u) u, with t(u) the least b_k / (a_k.u) over the rows with
    a_k.u > 0; it lies in the region by construction, and h = 0 where no row
    qualifies, as the region is unbounded along u.  h reads NaN where it is
    subnormal, as those bits were lost: then it may be any number near 0, so
    it settles nothing, while h = 0 leaves a true support below 2^-1070."""
    points = region._polar_points
    if points is None:
        return None
    shift, q = points
    units, exps = _simplex.unit_size(directions, rows=True)
    h = np.max(units @ q.T, axis=1, initial=0.0)
    h[(h > 0.0) & (h < np.finfo(float).tiny)] = np.nan
    return units, exps, h


def _refuted(objectives: np.ndarray, region: HalfspaceRegion, limits: np.ndarray) -> np.ndarray:
    """Which objectives the region's boundary points refute: c = v 2^e with a
    limit L whose boundary point along c, x = c / h(c), has c.x > L, which
    reads v.v > L 2^(s - e) h at the unit size of :func:`_boundary` (an
    unbounded c != 0 has h = 0).  Every term is at unit size, so scaling c,
    L or the rows by powers of two moves no answer, and an h that lost its
    bits refutes nothing.  x lies in the region, so the maximum of c is above
    L there with no LP.  Only for a star region the simplex answers (d >= 3;
    a 1D or 2D region takes one exact pass), and never a zero objective."""
    boundary = None if region.dim < 3 else _boundary(region, objectives)
    if boundary is None:
        return np.zeros(len(objectives), dtype=bool)
    units, exps, h = boundary
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(limits, region._polar_points[0] - exps)
        return np.einsum("ij,ij->i", units, units) > scaled * h


def region_maxima(objectives: np.ndarray, region: HalfspaceRegion, limits: np.ndarray,
                  stops: np.ndarray | None = None) -> np.ndarray:
    """The maxima of the objectives over the region, as far as reading them
    against `limits` needs, settled in one order.  A row that a boundary point
    of the region refutes past its limit (:func:`_refuted`) reads +inf; then
    a row that the polar screen proves within its limit (:func:`_unproven`)
    reads -inf, and one LP call answers the others.  With `stops`, a query
    past them: a row refuted past its stop ends the query, the LP stops at
    the first maximum above its stop, and the rows this leaves unanswered
    read -inf, while the screen still proves rows within their limits."""
    stop = stops is not None
    refuted = _refuted(objectives, region, stops if stop else limits)
    values = np.where(refuted, math.inf, -math.inf)
    if stop and refuted.any():
        return values
    rows = np.flatnonzero(~refuted)
    rows = rows[_unproven(objectives[rows], region, limits[rows])]
    if len(rows):
        tops, _ = lp_maximize(objectives[rows], region, stops[rows] if stop else None)
        values[rows[:len(tops)]] = tops
    return values


def _exceeds(normals: np.ndarray, limits: np.ndarray, region: HalfspaceRegion) -> bool:
    """True iff the maximum of some row of normals over the region is above its
    limit, from :func:`region_maxima`."""
    return bool((region_maxima(normals, region, limits, limits) > limits).any())


def _open_rows(b: HalfspaceRegion, region: HalfspaceRegion,
               margin: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of b and their offsets + margin, less those whose maximum over
    the region the polar screen proves within that limit."""
    limits = b.offsets + margin
    rows = _unproven(b.normals, region, limits)
    return b.normals[rows], limits[rows]


def union_witness(a: HalfspaceRegion, regions: list[HalfspaceRegion]):
    """A point of a and its depth outside the regions, the least over the
    regions of its largest row violation: of a's boundary points along the
    rows of the regions (:func:`_boundary`), the finite one of greatest
    depth, or None where a is not a star region or none is finite.  A
    violation past the float range counts as none.  A point deeper than a
    slack lies in a piece of every carve and past a row of the last region
    there, so :func:`region_minus_subset` of a at that slack is False."""
    directions = np.vstack([r.normals for r in regions])
    boundary = _boundary(a, directions)
    if boundary is None:
        return None
    units, _, h = boundary
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        points = np.ldexp(units / h[:, None], -a._polar_points[0])
        points = points[np.isfinite(points).all(axis=1)]
        if not len(points):
            return None
        excess = [points @ r.normals.T - r.offsets for r in regions]
    depth = np.min([np.max(np.where(np.isfinite(e), e, -math.inf), axis=1, initial=-math.inf)
                    for e in excess], axis=0)
    best = int(np.argmax(depth))
    return points[best], float(depth[best])


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
    """True iff some point of a violates a halfspace of b by more than margin.

    The maxima of b's rows over a come from :func:`region_maxima` against
    each offset + margin: a boundary point of a past one settles the query
    with no LP, and the rows the polar screen proves within theirs reach no
    LP.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in containment test")
    return _exceeds(b.normals, b.offsets + margin, a)


def region_minus_subset(a: HalfspaceRegion, carves, b: HalfspaceRegion,
                        slack: float = TOL) -> bool:
    """True iff a \\ (c_1 u ... u c_k) is contained in b (up to the slack
    tolerance), for the sequence of regions `carves`.

    The complement of the first carve is decomposed along its own
    halfspaces: for every halfspace (v, c), the convex piece of a with
    {v.delta >= c + slack} must lie in b once the remaining carves are taken
    out of it in turn.  One batched query of every v over a screens them: a
    piece is empty, and is never built, unless the maximum of v over a
    exceeds c + slack.  So a tangent piece (maximum equal to c + slack) is
    empty, and an empty `a` gives True.  Each other piece is tested against
    b; a piece inside b needs no further carving, and any other piece fails
    at the last carve or is carved by the next one.  The slack keeps the
    closed pieces off each carve's own boundary, so a \\ a comes out empty.
    The first carve's batch is :func:`region_maxima` over a: a row that a
    boundary point of a refutes builds its piece with no LP, and one whose
    maximum the polar screen proves within its offset + slack builds none.
    Every piece lies in a, so a row of b or of a later carve that the screen
    proves within its offset + slack over a is dropped once, before any LP.
    """
    if not carves:
        return region_subset(a, b, slack)
    if any(region.dim != a.dim for region in (*carves, b)):
        raise ValueError("dimension mismatch in containment test")
    first, *rest = carves
    return _minus_subset(a, _open_rows(b, a, slack), (first.normals, first.offsets + slack),
                         *(_open_rows(carve, a, slack) for carve in rest))


def _minus_subset(a: HalfspaceRegion, b_rows, *cuts) -> bool:
    """:func:`region_minus_subset` of a, with the open rows and limits of b
    (`b_rows`) and of each carve (`cuts`): the first carve's rows whose
    maxima over a (:func:`region_maxima`) are above their limits build the
    pieces."""
    (normals, limits), rest = cuts[0], cuts[1:]
    over = region_maxima(normals, a, limits) > limits
    normals, limits = normals[over], limits[over]
    for normal, limit in zip(normals, limits):
        piece = a.intersect(HalfspaceRegion(-normal, [-limit], a.dim))
        if _exceeds(*b_rows, piece) and (not rest or not _minus_subset(piece, b_rows, *rest)):
            return False
    return True


def _axis_directions(dim: int) -> np.ndarray:
    """The directions e_0, -e_0, e_1, -e_1, ... as rows."""
    return np.repeat(np.eye(dim), 2, axis=0) * np.tile([1.0, -1.0], dim)[:, None]


def region_is_origin_only(region: HalfspaceRegion) -> bool:
    """True iff the region is pinched to the single point {0} (up to TOL)."""
    values, _ = lp_maximize(_axis_directions(region.dim), region, np.full(2 * region.dim, TOL))
    return bool(values[0] > -math.inf and (values <= TOL).all())


def region_is_unbounded(region: HalfspaceRegion) -> bool:
    """True iff the region is unbounded along some coordinate axis, i.e.
    unbounded at all (an empty region is bounded)."""
    values, _ = lp_maximize(_axis_directions(region.dim), region)
    return bool((values == math.inf).any())


def region_to_interval(region: HalfspaceRegion) -> tuple[float | None, float | None]:
    """Endpoints of a one-dimensional region; None marks an unbounded side."""
    if region.dim != 1:
        raise ValueError("interval form is defined for one-dimensional regions")
    (hi, minus_lo), _ = lp_maximize(_axis_directions(1), region)
    if hi == -math.inf:
        raise ValueError("region is empty")
    return (None if minus_lo == math.inf else float(-minus_lo),
            None if hi == math.inf else float(hi))
