"""Convex-body algebra for gradient sets and perturbation regions.

Bodies are represented canonically through their support function
``rho(S, u) = sup_{c in S} c.u``; explicit halfspace representations are
derived only for finite point sets, and every LP over such a region, one
objective or a stack, is one call of :func:`lp_maximize`.  All values are
immutable after construction and every operation is a pure function, so
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

Finite point sets are summed through their hulls.  In 2D a step merges the
edge sequences of the two hulls by angle, forming no pairwise sum; in other
dimensions it prunes the pairwise sum, capped at :data:`MAX_EXPANSION` points.
Only :func:`minkowski_sum` of two point sets in d >= 3 can reach the cap (a 1D
hull has two points), and its error reaches the caller.
:func:`hull_prune` memoises on the body, every prune, 2D merge or scale
by alpha > 0 (alpha times the prune) is its own prune, and a body keeps its
negation, so no prune result is pruned again and each 2D cloud is hulled once.

Each variant dispatches on itself: it implements ``support(u)`` (a float
for one direction (d,), an (m,) array for a stack (m, d)),
``support_point(u)`` (a point attaining the support), ``negate()``,
``scale(alpha)``, ``degenerate`` (the set is {0} up to :data:`NEGLIGIBLE`)
and ``centered_ball`` (an ellipsoid, or an l_p ball centered exactly at 0);
the balls add ``same_shape(other)`` (one shape up to size and center),
``shape_norm`` (the matrix norm, 1 for an l_p ball), ``shape_radius`` (the
radius on the normalized shape) and ``polar(r)``.  The free functions below
delegate to these, and :func:`weighted_sum` folds them into a weighted
combination; only :func:`minkowski_sum` dispatches on variants, as it looks
at two bodies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _simplex

TOL = 1e-9            # exact-geometry comparisons
STRICT_MARGIN = 1e-6  # strictness margins for proper-inclusion tests
NEGLIGIBLE = 1e-15    # lengths, radii and support values treated as zero
PRUNE_MARGIN = 1e-6   # 3D prune: least barycentric depth, least |det| / extent^3
FLAT_SINE = 1e-12     # 2D turns with |sin| at most this are collinear
SHAPE_TOL = 1e-12     # normalized ellipsoid matrices this close are one shape
SYMMETRY_TOL = 1e-9   # largest asymmetry accepted in an ellipsoid matrix
MAX_EXPANSION = 10_000   # largest pairwise sum formed; 2D sums merge edges instead
OCTAGON_MIN_POINTS = 20  # 2D clouds larger than this meet the octagon filter before the chain
UNIT_SPAN = 64  # 2D clouds beyond 2^+-UNIT_SPAN in size are chained scaled to unit size
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
        return self.points[int(np.argmax(self.points @ direction))].copy()

    def negate(self) -> "FinitePoints":
        return self._negated

    @functools.cached_property
    def _negated(self) -> "FinitePoints":
        """-S, one body per S, so that its hull is computed once."""
        return FinitePoints._checked(-self.points)

    def scale(self, alpha: float) -> "FinitePoints":
        if alpha == 0.0:
            return FinitePoints(alpha * self.points)
        return _own_hull(FinitePoints(alpha * hull_prune(self).points))

    @functools.cached_property
    def _hull(self) -> "FinitePoints":
        """The memo of :func:`hull_prune`."""
        return _prune(self)

    @property
    def degenerate(self) -> bool:
        return bool(np.all(np.abs(self.points) <= NEGLIGIBLE))


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
        d = direction
        if np.all(np.abs(d) <= NEGLIGIBLE):
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
        return self.centered_ball and self.radius <= NEGLIGIBLE

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
        quad = float(direction @ self.sigma @ direction)
        if quad <= NEGLIGIBLE ** 2:
            return np.zeros(self.dim)
        return self.radius * (self.sigma @ direction) / math.sqrt(quad)

    def negate(self) -> "Ellipsoid":
        return self

    def scale(self, alpha: float) -> "Ellipsoid":
        return Ellipsoid(self.sigma, alpha * self.radius)

    @functools.cached_property
    def shape_norm(self) -> float:
        return float(np.linalg.norm(self.sigma))

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
        return self.radius <= NEGLIGIBLE

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
        return all(c <= NEGLIGIBLE or b.degenerate for c, b in self.terms)


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
    """One monotone chain over a sequence of [x, y] lists: the middle point of
    a triple (o, a, p) is popped unless the triple turns counterclockwise, by
    |sin| > FLAT_SINE where p lies past a along o -> a.  The test is relative
    to the triple itself, so that it holds exactly under scaling by a power of
    two and under negation.  A turn back towards o is never flat: where x
    ties up to rounding the sort can put p after a on a near-vertical line
    yet short of it, and popping a would lose an extreme point."""
    chain, flat = [], FLAT_SINE ** 2
    for p in seq:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            ux, uy, vx, vy = ax - ox, ay - oy, p[0] - ox, p[1] - oy
            turn, uu = ux * vy - uy * vx, ux * ux + uy * uy
            if turn > 0.0 and (ux * vx + uy * vy < uu
                               or turn * turn > flat * uu * (vx * vx + vy * vy)):
                break
            chain.pop()
        chain.append(p)
    return chain


# directions whose argmax points are the corners of the Akl-Toussaint octagon,
# counterclockwise, and the first of them again to close it
_OCTAGON = np.array([[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1],
                     [1, 0]], dtype=float).T


def _octagon_filter(points: np.ndarray) -> np.ndarray:
    """The points less those surely inside the octagon of their argmaxes
    (Akl & Toussaint 1978): inside by the chain's own relative turn test
    against every edge, so that a point the test is unsure of is kept; run,
    like the chain, at unit size on points beyond 2^+-UNIT_SPAN in size."""
    shift = math.frexp(float(np.abs(points).max()))[1]
    unit = points if abs(shift) <= UNIT_SPAN else np.ldexp(points, -shift)
    z = np.ascontiguousarray(unit).view(complex)[:, 0]
    top = (unit @ _OCTAGON).argmax(axis=0)
    corners = z[top]
    edges = corners[1:] - corners[:-1]
    solid = edges != 0  # a corner repeated has no edge
    # turn = Im(w) and |edge| |point - corner| = |w|
    w = (z[:, None] - corners[:-1][solid]) * edges[solid].conj()
    inside = (w.imag > FLAT_SINE * np.abs(w)).all(axis=1)
    inside[top] = False
    return points[~inside]


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Extreme points in counterclockwise order from the lexicographic
    minimum: the monotone chain, behind the octagon filter on a large cloud."""
    if points.shape[0] > OCTAGON_MIN_POINTS:
        points = _octagon_filter(points)
    return np.asarray(_monotone_chain(points.tolist()), dtype=float)


def _monotone_chain(pts: list) -> list:
    """The extreme points of [x, y] lists, counterclockwise from the
    lexicographic minimum (Andrew's monotone chain).  The turn tests multiply
    up to four coordinate differences, which under- or overflow far from unit
    size, so points beyond 2^+-UNIT_SPAN are chained scaled by a power of two
    to unit size and scaled back, which keeps every bit while they stay normal."""
    pts = sorted(pts)
    pts = [p for p, prev in zip(pts, [None] + pts) if p != prev]
    if len(pts) <= 2:
        return pts
    shift = math.frexp(max(map(abs, itertools.chain.from_iterable(pts))))[1]
    if abs(shift) <= UNIT_SPAN:
        return _chain(pts)[:-1] + _chain(reversed(pts))[:-1]
    unit = [[math.ldexp(x, -shift), math.ldexp(y, -shift)] for x, y in pts]
    return [[math.ldexp(x, shift), math.ldexp(y, shift)] for x, y in _monotone_chain(unit)]


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
    # a sum of finite points can overflow, so this body is checked
    return _own_hull(FinitePoints(_monotone_chain(vertices)))


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


def _prune_3d(pts: np.ndarray) -> np.ndarray:
    """Distinct 3D points (np.unique order) less some inside their hull: the
    argmax of every sphere-mesh direction is kept, and a point is dropped only
    when its barycentric coordinates are all >= PRUNE_MARGIN in a tetrahedron
    of the kept points' centroid and a mesh triangle mapped to its corners'
    argmax points, so every extreme point is kept."""
    block = max(1, SUPPORT_BLOCK // pts.shape[0])
    top = np.concatenate([np.argmax(_SPHERE[start:start + block] @ pts.T, axis=1)
                          for start in range(0, len(_SPHERE), block)])
    keep = np.zeros(pts.shape[0], dtype=bool)
    keep[top] = True
    kept = pts[keep]
    centre = kept.mean(axis=0)
    tri = (np.cumsum(keep) - 1)[top][_SPHERE_TRIANGLES]  # corners as rows of kept
    lo, hi = tri.min(axis=0), tri.max(axis=0)
    mid = tri.sum(axis=0) - lo - hi
    m, distinct = kept.shape[0], (lo < mid) & (mid < hi)
    _, first = np.unique(((lo * m + mid) * m + hi)[distinct], return_index=True)
    a, b, c = (kept[corner[distinct][first]] - centre for corner in (lo, mid, hi))
    u, v = np.stack([b, c, a]), np.stack([c, a, b])  # (3, t, 3): normals u x v
    normals = u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]
    det = np.sum(a * normals[0], axis=1)
    extent = float(np.abs(pts - centre).max())
    solid = np.abs(det) > PRUNE_MARGIN * extent * extent * extent
    normals, det = normals[:, solid].reshape(-1, 3).T, det[solid]
    rest = np.flatnonzero(~keep)
    block = max(1, PRUNE_BLOCK // max(1, det.size))
    for start in range(0, rest.size, block):
        part = rest[start:start + block]
        bary = ((pts[part] - centre) @ normals).reshape(part.size, 3, -1) / det
        inside = ((bary[:, 0] >= PRUNE_MARGIN) & (bary[:, 1] >= PRUNE_MARGIN)
                  & (bary[:, 2] >= PRUNE_MARGIN) & (bary.sum(axis=1) <= 1.0 - PRUNE_MARGIN))
        keep[part] = ~np.any(inside, axis=1)
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
        pts = np.unique(pts, axis=0)
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


def polar_hrep(body: ConvexBody, r: float) -> HalfspaceRegion:
    """Halfspace representation of {delta : support(S, delta) <= r}.

    One halfspace per pruned generator point; the body must be a finite
    point set (a ball's polar is :func:`polar_dual_ball`).
    """
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("polar radius must be a nonnegative real")
    if not isinstance(body, FinitePoints):
        raise ValueError(f"{type(body).__name__} does not reduce to a finite point set")
    pts = hull_prune(body).points
    keep = np.linalg.norm(pts, axis=1) > NEGLIGIBLE
    pts = pts[keep] if keep.any() else pts[:0]
    return HalfspaceRegion(pts, np.full(pts.shape[0], float(r)), body.dim)


def polar_dual_ball(body: ConvexBody, r: float) -> ConvexBody | WholeSpace:
    """Polar set of an origin-centered ball: the dual-shape ball of radius r/eps."""
    if r < 0.0 or not np.isfinite(r):
        raise ValueError("polar radius must be a nonnegative real")
    return body.polar(r)


def lp_maximize(objectives, region: HalfspaceRegion, limits=None):
    """Maximum of each objective over the region, from one LP call.

    One objective (d,) gives one result; a stack (m, d) gives a list in its
    order, which stops after the first result that is infeasible or exceeds
    its entry of `limits`.  A 2D region whose rows span the plane is answered
    from its vertices and rays, any other by the simplex.  An infeasible
    region is reported distinctly (it cannot arise from polar constructions).
    """
    dirs, single = as_directions(objectives, region.dim)
    return _simplex.maximize(dirs[0] if single else dirs, region.normals, region.offsets, limits)


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
               for res, limit in zip(lp_maximize(b.normals, a, limits), limits))


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
    """
    if not carves:
        return region_subset(a, b, slack)
    carve, rest = carves[0], carves[1:]
    if not (a.dim == carve.dim == b.dim):
        raise ValueError("dimension mismatch in containment test")
    for normal, offset, top in zip(carve.normals, carve.offsets,
                                   lp_maximize(carve.normals, a)):
        if top.exceeds(limit := float(offset) + slack):
            piece = a.intersect(HalfspaceRegion(-normal, [-limit], a.dim))
            if not region_subset(piece, b, slack) and (
                    not rest or not region_minus_subset(piece, rest, b, slack)):
                return False
    return True


def _axis_directions(dim: int) -> np.ndarray:
    """The directions e_0, -e_0, e_1, -e_1, ... as rows."""
    return np.repeat(np.eye(dim), 2, axis=0) * np.tile([1.0, -1.0], dim)[:, None]


def region_is_origin_only(region: HalfspaceRegion) -> bool:
    """True iff the region is pinched to the single point {0} (up to TOL)."""
    results = lp_maximize(_axis_directions(region.dim), region,
                          np.full(2 * region.dim, TOL))
    return results[0].status != _simplex.INFEASIBLE and not any(
        res.exceeds(TOL) for res in results)


def region_is_unbounded(region: HalfspaceRegion) -> bool:
    """True iff the region is unbounded along some coordinate axis, i.e.
    unbounded at all (an empty region is bounded)."""
    return any(res.status == _simplex.UNBOUNDED
               for res in lp_maximize(_axis_directions(region.dim), region))


def region_to_interval(region: HalfspaceRegion) -> tuple[float | None, float | None]:
    """Endpoints of a one-dimensional region; None marks an unbounded side."""
    if region.dim != 1:
        raise ValueError("interval form is defined for one-dimensional regions")
    results = lp_maximize(_axis_directions(1), region)
    if results[0].status == _simplex.INFEASIBLE:
        raise ValueError("region is empty")
    hi_res, lo_res = results
    hi = None if hi_res.status == _simplex.UNBOUNDED else float(hi_res.value)
    lo = None if lo_res.status == _simplex.UNBOUNDED else float(-lo_res.value)
    return lo, hi
