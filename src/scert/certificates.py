"""Certified perturbation sets for a classifier at a fixed input.

A classifier is described by its logits at one point plus smoothness data:
one gradient set for all classes (uniform mode, ``u``), one per class
(class-wise, ``cw``), or one per ordered class pair for the difference
functions (class-difference, ``cd``).  Certificates come in two families:

* ``lipschitz`` — classical dual-norm-ball certificates built from scalar
  constants (ball-shaped smoothness only);
* ``s`` — polar-set certificates built directly from the gradient sets,
  which subsume the Lipschitz ones.

Every certificate keeps its defining support constraints
``support(G_i, delta) <= r_i`` so membership is exact for any body variant;
an explicit halfspace region or a dual ball is attached whenever one is
derivable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import (
    Combination,
    ConvexBody,
    Ellipsoid,
    FinitePoints,
    HalfspaceRegion,
    LpBall,
    as_directions,
    as_vector,
    ball_shape_key,
    ball_shape_radius,
    dual_exponent,
    one_or_many,
)

ZERO_GAP_TOL = 1e-12


class SmoothnessMismatch(ValueError):
    """Certification mode incompatible with the available smoothness data."""


@dataclass(frozen=True)
class Uniform:
    body: ConvexBody
    mode = "u"

    @property
    def bodies(self) -> tuple[ConvexBody, ...]:
        return (self.body,)


@dataclass(frozen=True)
class ClassWise:
    bodies: tuple[ConvexBody, ...]
    mode = "cw"

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        dims = {b.dim for b in self.bodies}
        if len(dims) != 1:
            raise ValueError("class-wise bodies must share one dimension")


@dataclass(frozen=True)
class ClassDiff:
    """Bodies for the gradient sets of f_i - f_j, keyed by the ordered pair (i, j)."""

    pairs: dict[tuple[int, int], ConvexBody]
    mode = "cd"

    def __post_init__(self):
        object.__setattr__(self, "pairs", dict(self.pairs))
        dims = {b.dim for b in self.pairs.values()}
        if len(dims) != 1:
            raise ValueError("class-difference bodies must share one dimension")
        for i, j in self.pairs:
            if i == j:
                raise ValueError("class-difference pairs must have distinct indices")

    @property
    def bodies(self) -> tuple[ConvexBody, ...]:
        return tuple(self.pairs.values())


Smoothness = Uniform | ClassWise | ClassDiff


def gaps(logits) -> tuple[int, int, np.ndarray]:
    """Top class, runner-up, and per-class prediction gaps.

    Ties break toward the lower class index.  The runner-up gap
    ``r[c_b]`` equals the minimum gap over the non-top classes.
    """
    values = as_vector(logits)
    if values.size < 2:
        raise ValueError("at least two classes are required")
    order = np.argsort(-values, kind="stable")
    c_a, c_b = int(order[0]), int(order[1])
    return c_a, c_b, values[c_a] - values


def runner_up_gap(logits):
    """Top logit minus the runner-up logit over the last axis: a scalar for
    one row of logits, an array for a stack of rows."""
    part = np.partition(np.asarray(logits, dtype=float), -2, axis=-1)
    return part[..., -1] - part[..., -2]


@dataclass(frozen=True)
class ClassifierAtPoint:
    """Logits at a fixed input plus smoothness data (None for gap-only use)."""

    logits: np.ndarray
    smoothness: Smoothness | None = None

    def __post_init__(self):
        values = as_vector(self.logits)
        if values.size < 2:
            raise ValueError("a classifier needs at least two classes")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "logits", values)
        if isinstance(self.smoothness, ClassWise) and len(self.smoothness.bodies) != values.size:
            raise ValueError("class-wise smoothness needs one body per class")

    @property
    def n_classes(self) -> int:
        return self.logits.size

    @property
    def dim(self) -> int | None:
        return None if self.smoothness is None else self.smoothness.bodies[0].dim

    @property
    def top(self) -> int:
        return gaps(self.logits)[0]

    @property
    def runner_up(self) -> int:
        return gaps(self.logits)[1]

    @property
    def gap_vector(self) -> np.ndarray:
        return gaps(self.logits)[2]

    @property
    def gap(self) -> float:
        return float(runner_up_gap(self.logits))


def _is_origin_ball(body: ConvexBody) -> bool:
    if isinstance(body, LpBall):
        return bool(np.all(np.abs(body.center) <= 1e-12))
    return isinstance(body, Ellipsoid)


def _is_degenerate(body: ConvexBody) -> bool:
    """True iff the body's support function is identically <= 0 (the set {0})."""
    if isinstance(body, (LpBall, Ellipsoid)):
        return _is_origin_ball(body) and body.radius <= 1e-15
    if isinstance(body, FinitePoints):
        return bool(np.all(np.abs(body.points) <= 1e-15))
    if isinstance(body, Combination):
        return all(c <= 1e-15 or _is_degenerate(b) for c, b, _ in body.terms)
    return False


@dataclass(frozen=True)
class Certificate:
    """A certified perturbation set around the input.

    ``constraints`` lists the defining support constraints
    ``support(G, delta) <= r``.  ``ball`` is the certified set itself when it
    is a dual ball; ``region`` the halfspace representation when the
    generators are finite.  ``trivial`` marks certificates pinched to {0};
    ``unbounded`` marks certificates that impose no constraint at all.
    """

    mode: str
    family: str
    dim: int
    constraints: tuple[tuple[ConvexBody, float], ...]
    ball: ConvexBody | None = None
    region: HalfspaceRegion | None = None
    trivial: bool = False
    unbounded: bool = False

    @property
    def kind(self) -> str:
        if self.unbounded:
            return "whole_space"
        if self.ball is not None:
            return "ball"
        if self.region is not None:
            return "region"
        return "support"

    @property
    def radius(self) -> float | None:
        if self.unbounded:
            return math.inf
        if self.ball is not None:
            return float(self.ball.radius)
        return None

    def contains(self, delta, tol: float = geometry.TOL):
        """Whether delta (d,) is certified, or an (m,) mask for a stack (m, d)."""
        points, single = as_directions(delta, self.dim)
        inside = np.ones(points.shape[0], dtype=bool)
        if not self.unbounded:
            for gen, r in self.constraints:
                inside &= gen.support(points) <= r + tol
        return one_or_many(inside, single)

    def ray_extent(self, direction):
        """Largest t >= 0 with t * direction certified (inf when unbounded):
        a float for one direction (d,), an (m,) array for a stack (m, d)."""
        dirs, single = as_directions(direction, self.dim)
        extent = np.full(dirs.shape[0], math.inf)
        for gen, r in self.constraints:
            rho = gen.support(dirs)
            hit = rho > 1e-15
            extent[hit] = np.minimum(extent[hit], r / rho[hit])
        return one_or_many(extent, single)


def _realize(mode: str, family: str, dim: int,
             constraints: list[tuple[ConvexBody, float]]) -> Certificate:
    active = [(g, float(r)) for g, r in constraints if not _is_degenerate(g)]
    if not active:
        return Certificate(mode, family, dim, tuple((g, float(r)) for g, r in constraints),
                           unbounded=True)

    ball = None
    region = None
    if all(_is_origin_ball(g) and ball_shape_key(g) is not None for g, _ in active):
        keys = {ball_shape_key(g) for g, _ in active}
        if len(keys) == 1:
            duals = [geometry.polar_dual_ball(g, r) for g, r in active]
            ball = min(duals, key=ball_shape_radius)
    if ball is None:
        try:
            pieces = [geometry.polar_hrep(g, r) for g, r in active]
        except ValueError:
            pieces = None
        if pieces is not None:
            region = pieces[0]
            for piece in pieces[1:]:
                region = region.intersect(piece)

    governing = min(r for _, r in active)
    trivial = False
    if governing <= ZERO_GAP_TOL:
        if ball is not None:
            trivial = ball.radius <= 1e-9
        elif region is not None:
            trivial = geometry.region_is_origin_only(region)
        else:
            rng = np.random.default_rng(0)
            dirs = rng.standard_normal((512, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            cert_probe = Certificate(mode, family, dim, tuple(active))
            trivial = bool(np.all(cert_probe.ray_extent(dirs) <= 1e-9))

    return Certificate(mode, family, dim, tuple(active), ball=ball, region=region,
                       trivial=trivial)


def lipschitz_constant_from_gradients(points, q: float) -> float:
    """Supremum of the l_q norm over a gradient cloud (q dual to the certificate norm)."""
    if isinstance(points, FinitePoints):
        pts = points.points
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("the gradient set must be nonempty")
    ord_q = np.inf if math.isinf(q) else q
    return float(np.max(np.linalg.norm(pts, ord=ord_q, axis=1)))


def _class_wise_constraints(bodies, top: int, r: np.ndarray) -> list[tuple[ConvexBody, float]]:
    """support(G_i (+) -G_top, delta) <= r_i for every class i other than the top."""
    return [(geometry.minkowski_sum(b, geometry.negate(bodies[top])), float(r[i]))
            for i, b in enumerate(bodies) if i != top]


def lipschitz_certificate(clf: ClassifierAtPoint, mode: str) -> Certificate:
    """Dual-norm-ball certificate from ball-shaped smoothness.

    Uniform mode: radius gap/(2L).  Class-wise mode: radius
    min over non-top classes of gap_i / (L_i + L_top).
    """
    if mode not in ("u", "cw"):
        raise SmoothnessMismatch("lipschitz certificates exist in modes 'u' and 'cw'")
    c_a, c_b, r = gaps(clf.logits)
    if mode == "u":
        if not isinstance(clf.smoothness, Uniform):
            raise SmoothnessMismatch("uniform mode needs a single shared gradient ball")
        body = clf.smoothness.body
        if not _is_origin_ball(body):
            raise SmoothnessMismatch("lipschitz certificates need origin-centered balls")
        constraints = [(geometry.scale(2.0, body), float(r[c_b]))]
        return _realize("u", "lipschitz", body.dim, constraints)

    if not isinstance(clf.smoothness, ClassWise):
        raise SmoothnessMismatch("class-wise mode needs one gradient ball per class")
    bodies = clf.smoothness.bodies
    if not all(_is_origin_ball(b) for b in bodies):
        raise SmoothnessMismatch("lipschitz certificates need origin-centered balls")
    if len({ball_shape_key(b) for b in bodies}) != 1:
        raise SmoothnessMismatch("class-wise lipschitz balls must share one shape")
    return _realize("cw", "lipschitz", bodies[0].dim, _class_wise_constraints(bodies, c_a, r))


def s_certificate(clf: ClassifierAtPoint, mode: str) -> Certificate:
    """Polar-set certificate in uniform, class-wise, or class-difference mode."""
    c_a, c_b, r = gaps(clf.logits)
    s = clf.smoothness
    if mode == "u":
        if not isinstance(s, Uniform):
            raise SmoothnessMismatch("uniform mode needs Uniform smoothness")
        gen = geometry.minkowski_sum(s.body, geometry.negate(s.body))
        return _realize("u", "s", s.body.dim, [(gen, float(r[c_b]))])
    if mode == "cw":
        if not isinstance(s, ClassWise):
            raise SmoothnessMismatch("class-wise mode needs ClassWise smoothness")
        return _realize("cw", "s", s.bodies[0].dim, _class_wise_constraints(s.bodies, c_a, r))
    if mode == "cd":
        if not isinstance(s, ClassDiff):
            raise SmoothnessMismatch("class-difference mode needs ClassDiff smoothness")
        constraints = []
        for i in range(clf.n_classes):
            if i == c_a:
                continue
            if (i, c_a) not in s.pairs:
                raise SmoothnessMismatch(
                    f"missing class-difference body for pair ({i}, {c_a})")
            constraints.append((s.pairs[(i, c_a)], float(r[i])))
        return _realize("cd", "s", s.bodies[0].dim, constraints)
    raise SmoothnessMismatch(f"unknown certification mode: {mode!r}")


def smoothing_sigma_to_lipschitz(sigma: float) -> float:
    """l2 Lipschitz constant of a classifier smoothed with N(0, sigma^2 I) noise."""
    if not (sigma > 0.0):
        raise ValueError("sigma must be positive")
    return math.sqrt(2.0 / (math.pi * sigma * sigma))


def _support_point(body: ConvexBody, direction: np.ndarray) -> np.ndarray:
    """A point of the body attaining its support in the given direction."""
    if isinstance(body, FinitePoints):
        return body.points[int(np.argmax(body.points @ direction))].copy()
    if isinstance(body, LpBall):
        d = direction
        if np.all(np.abs(d) <= 1e-15):
            return body.center.copy()
        if math.isinf(body.p):
            g = np.sign(d)
            g[g == 0.0] = 1.0
        elif body.p == 1.0:
            g = np.zeros_like(d)
            k = int(np.argmax(np.abs(d)))
            g[k] = math.copysign(1.0, d[k])
        elif body.p == 2.0:
            g = d / np.linalg.norm(d)
        else:
            q = dual_exponent(body.p)
            scaled = np.abs(d) / np.linalg.norm(d, ord=q)
            g = np.sign(d) * scaled ** (q - 1.0)
        return body.center + body.radius * g
    if isinstance(body, Ellipsoid):
        quad = float(direction @ body.sigma @ direction)
        if quad <= 1e-30:
            return np.zeros(body.dim)
        return body.radius * (body.sigma @ direction) / math.sqrt(quad)
    if isinstance(body, Combination):
        total = np.zeros(body.dim)
        for coeff, sub, negated in body.terms:
            if negated:
                total -= coeff * _support_point(sub, -direction)
            else:
                total += coeff * _support_point(sub, direction)
        return total
    raise TypeError(f"unknown body variant: {type(body).__name__}")


@dataclass(frozen=True)
class AdversarialWitness:
    """Two-class linear classifier flipping its prediction at x + delta.

    The top logit is ``(y - x).grad_top + gap`` and the runner-up logit is
    ``(y - x).grad_runner``; both gradients lie in the gradient set, so the
    pair has exactly the claimed smoothness and gap.
    """

    x: np.ndarray
    delta: np.ndarray
    gap: float
    grad_top: np.ndarray
    grad_runner: np.ndarray

    def logits_at(self, y) -> np.ndarray:
        y = as_vector(y, self.x.size)
        return np.array([
            float((y - self.x) @ self.grad_top) + self.gap,
            float((y - self.x) @ self.grad_runner),
        ])


def adversarial_witness(body: ConvexBody, r: float, x, delta) -> AdversarialWitness:
    """Construct a classifier with gap r at x that misclassifies x + delta.

    Requires delta to lie strictly outside the uniform certificate,
    i.e. support(S (+) -S, delta) > r; a boundary or interior delta is
    rejected because no strict flip exists there.
    """
    if not (r > 0.0):
        raise ValueError("the prediction gap r must be positive")
    x = as_vector(x, body.dim)
    d = as_vector(delta, body.dim)
    spread = body.support(d) + body.support(-d)
    if spread <= r + 1e-12:
        raise ValueError(
            "no adversarial witness: the perturbation is certified "
            f"(support spread {spread:.6g} <= gap {r:.6g})")
    c = _support_point(body, d)
    c_prime = _support_point(body, -d)
    return AdversarialWitness(x=x, delta=d, gap=float(r),
                              grad_top=c_prime, grad_runner=c)
