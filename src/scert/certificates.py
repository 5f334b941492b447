"""Certified perturbation sets for a classifier at a fixed input.

A classifier is described by its logits at one point plus smoothness data:
one gradient set for all classes (uniform mode, ``u``), one per class
(class-wise, ``cw``), or one per ordered class pair for the difference
functions (class-difference, ``cd``).  Certificates come in two families:

* ``s`` — polar-set certificates built directly from the gradient sets;
* ``lipschitz`` — classical dual-norm-ball certificates (ball-shaped
  smoothness only).  A classifier that is L-Lipschitz in a norm has its
  gradients in the dual-norm ball L B*, so its Lipschitz certificate is the
  ``s`` certificate of that ball, relabelled.

Every certificate keeps its defining support constraints
``support(G_i, delta) <= r_i`` so membership is exact for any body variant;
an explicit halfspace region or a dual ball is attached whenever one is
derivable.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .geometry import (
    ConvexBody,
    FinitePoints,
    HalfspaceRegion,
    as_directions,
    as_vector,
    one_ball_shape,
    one_or_many,
)

ZERO_GAP_TOL = 1e-12


class SmoothnessMismatch(ValueError):
    """Certification mode incompatible with the available smoothness data."""


# Each smoothness variant dispatches on itself.  `constraints(top, r)` lists
# its certificate's support constraints from the top class and the gap vector
# r; `pair_terms(top, k)` maps each class i other than the top to the bodies
# whose difference bounds the gradient of f_i - f_top: (S, S), (G_i, G_top) or
# (G_(i,top),); `compose(members, weights)` is the weighted ensemble's smoothness.

@dataclass(frozen=True)
class Uniform:
    body: ConvexBody
    mode = "u"

    @property
    def bodies(self) -> tuple[ConvexBody, ...]:
        return (self.body,)

    @property
    def dim(self) -> int:
        return self.body.dim

    def constraints(self, top: int, r: np.ndarray) -> list[tuple[ConvexBody, float]]:
        """support(S (+) -S, delta) <= the runner-up gap."""
        gen = geometry.minkowski_sum(self.body, geometry.negate(self.body))
        return [(gen, float(np.delete(r, top).min()))]

    def pair_terms(self, top: int, k: int) -> dict[int, tuple[ConvexBody, ...]]:
        return {i: (self.body, self.body) for i in range(k) if i != top}

    @classmethod
    def compose(cls, members: list["Uniform"], weights) -> "Uniform":
        return cls(geometry.weighted_sum([m.body for m in members], weights))


@dataclass(frozen=True)
class ClassWise:
    bodies: tuple[ConvexBody, ...]
    dim: int = field(init=False, repr=False, compare=False)
    mode = "cw"

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        dims = {b.dim for b in self.bodies}
        if len(dims) != 1:
            raise ValueError("class-wise bodies must share one dimension")
        object.__setattr__(self, "dim", dims.pop())

    def constraints(self, top: int, r: np.ndarray) -> list[tuple[ConvexBody, float]]:
        """support(G_i (+) -G_top, delta) <= r_i for every class i other than the top."""
        return [(geometry.minkowski_sum(g_i, geometry.negate(g_top)), float(r[i]))
                for i, (g_i, g_top) in self.pair_terms(top, len(r)).items()]

    def pair_terms(self, top: int, k: int) -> dict[int, tuple[ConvexBody, ...]]:
        return {i: (self.bodies[i], self.bodies[top]) for i in range(k) if i != top}

    @classmethod
    def compose(cls, members: list["ClassWise"], weights) -> "ClassWise":
        return cls(tuple(geometry.weighted_sum(bodies, weights)
                         for bodies in zip(*(m.bodies for m in members))))


@dataclass(frozen=True)
class ClassDiff:
    """Bodies for the gradient sets of f_i - f_j, keyed by the ordered pair (i, j).
    A composed ensemble's pair is summed when first read: `dim` sums none, and
    `bodies`, `pairs.values()`, `pairs.items()` and ``==`` sum them all."""

    pairs: Mapping[tuple[int, int], ConvexBody]
    dim: int = field(init=False, repr=False, compare=False)
    mode = "cd"

    def __post_init__(self):
        if isinstance(self.pairs, _SumOnRead):  # a composed ensemble's pairs stay unsummed
            dims = self.pairs.dims
        else:
            object.__setattr__(self, "pairs", dict(self.pairs))
            dims = {b.dim for b in self.pairs.values()}
        if len(dims) != 1:
            raise ValueError("class-difference bodies must share one dimension")
        object.__setattr__(self, "dim", dims.pop())
        for i, j in self.pairs:
            if i == j:
                raise ValueError("class-difference pairs must have distinct indices")

    @property
    def bodies(self) -> tuple[ConvexBody, ...]:
        return tuple(self.pairs.values())

    def constraints(self, top: int, r: np.ndarray) -> list[tuple[ConvexBody, float]]:
        """support(G_(i,top), delta) <= r_i for every class i other than the top."""
        return [(g, float(r[i])) for i, (g,) in self.pair_terms(top, len(r)).items()]

    def pair_terms(self, top: int, k: int) -> dict[int, tuple[ConvexBody, ...]]:
        missing = [(i, top) for i in range(k) if i != top and (i, top) not in self.pairs]
        if missing:
            raise SmoothnessMismatch(f"missing class-difference body for pair {missing[0]}")
        return {i: (self.pairs[(i, top)],) for i in range(k) if i != top}

    @classmethod
    def compose(cls, members: list["ClassDiff"], weights) -> "ClassDiff":
        """Composes the pairs every member has; SmoothnessMismatch when there
        are none.  A pair's weighted sum is formed when the pair is first
        read, so a certificate pays only for its pairs (i, top)."""
        keys = set.intersection(*(set(m.pairs) for m in members))
        if not keys:
            raise SmoothnessMismatch("members share no class-difference pairs")
        return cls(_SumOnRead({key: [m.pairs[key] for m in members] for key in keys}, weights))


class _SumOnRead(Mapping):
    """Keys to weighted sums of bodies, each formed on its key's first read."""

    def __init__(self, terms: dict, weights):
        self._terms, self._weights, self._sums = terms, weights, {}
        self.dims = {b.dim for bodies in terms.values() for b in bodies}

    def __getitem__(self, key):
        if key not in self._sums:
            self._sums[key] = geometry.weighted_sum(self._terms[key], self._weights)
        return self._sums[key]

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)


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
        object.__setattr__(self, "logits", geometry.freeze(values))
        if isinstance(self.smoothness, ClassWise) and len(self.smoothness.bodies) != values.size:
            raise ValueError("class-wise smoothness needs one body per class")

    @property
    def n_classes(self) -> int:
        return self.logits.size

    @property
    def dim(self) -> int | None:
        return None if self.smoothness is None else self.smoothness.dim

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
            hit = rho > geometry.NEGLIGIBLE
            extent[hit] = np.minimum(extent[hit], r / rho[hit])
        return one_or_many(extent, single)


def _realize(mode: str, family: str, dim: int,
             constraints: list[tuple[ConvexBody, float]]) -> Certificate:
    active = [(g, float(r)) for g, r in constraints if not g.degenerate]
    if not active:
        return Certificate(mode, family, dim, tuple((g, float(r)) for g, r in constraints),
                           unbounded=True)

    ball = region = None
    if one_ball_shape([g for g, _ in active]):
        duals = [geometry.polar_dual_ball(g, r) for g, r in active]
        ball = min(duals, key=lambda dual: dual.shape_radius)
    elif all(isinstance(g, FinitePoints) for g, _ in active):
        region = functools.reduce(HalfspaceRegion.intersect,
                                  [geometry.polar_hrep(g, r) for g, r in active])
    cert = Certificate(mode, family, dim, tuple(active), ball=ball, region=region)
    if min(r for _, r in active) > ZERO_GAP_TOL:
        return cert
    if ball is not None:
        trivial = ball.radius <= geometry.TOL
    elif region is not None:
        trivial = geometry.region_is_origin_only(region)
    else:
        dirs = geometry.seeded_unit_directions(512, dim)
        trivial = bool(np.all(cert.ray_extent(dirs) <= geometry.TOL))
    return replace(cert, trivial=trivial)


def lipschitz_constant_from_gradients(points, q: float) -> float:
    """Supremum of the l_q norm over a gradient cloud (q dual to the certificate norm)."""
    if isinstance(points, FinitePoints):
        pts = points.points
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("the gradient set must be nonempty")
    return float(np.max(np.linalg.norm(pts, ord=q, axis=1)))


_LIPSCHITZ_NEEDS = {"u": "uniform mode needs a single shared gradient ball",
                    "cw": "class-wise mode needs one gradient ball per class"}


def lipschitz_certificate(clf: ClassifierAtPoint, mode: str) -> Certificate:
    """Dual-norm-ball certificate from ball-shaped smoothness.

    Uniform mode: radius gap/(2L).  Class-wise mode: radius
    min over non-top classes of gap_i / (L_i + L_top).  Both are the
    :func:`s_certificate` of the gradient balls: for an origin-centered
    ball B, B (+) -B is the ball 2B, and G_i (+) -G_top has radius
    L_i + L_top.
    """
    if mode not in _LIPSCHITZ_NEEDS:
        raise SmoothnessMismatch("lipschitz certificates exist in modes 'u' and 'cw'")
    s = clf.smoothness
    if s is None or s.mode != mode:
        raise SmoothnessMismatch(_LIPSCHITZ_NEEDS[mode])
    if not all(b.centered_ball for b in s.bodies):
        raise SmoothnessMismatch("lipschitz certificates need origin-centered balls")
    if not one_ball_shape(s.bodies):
        raise SmoothnessMismatch("class-wise lipschitz balls must share one shape")
    return replace(s_certificate(clf, mode), family="lipschitz")


_S_NEEDS = {"u": "uniform mode needs Uniform smoothness",
            "cw": "class-wise mode needs ClassWise smoothness",
            "cd": "class-difference mode needs ClassDiff smoothness"}


def s_certificate(clf: ClassifierAtPoint, mode: str) -> Certificate:
    """Polar-set certificate in uniform, class-wise, or class-difference mode."""
    if mode not in _S_NEEDS:
        raise SmoothnessMismatch(f"unknown certification mode: {mode!r}")
    s = clf.smoothness
    if s is None or s.mode != mode:
        raise SmoothnessMismatch(_S_NEEDS[mode])
    top, _, r = gaps(clf.logits)
    return _realize(mode, "s", clf.dim, s.constraints(top, r))


def smoothing_sigma_to_lipschitz(sigma: float) -> float:
    """l2 Lipschitz constant of a classifier smoothed with N(0, sigma^2 I) noise."""
    if not (sigma > 0.0):
        raise ValueError("sigma must be positive")
    return math.sqrt(2.0 / (math.pi * sigma * sigma))


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
    if spread <= r + ZERO_GAP_TOL:
        raise ValueError(
            "no adversarial witness: the perturbation is certified "
            f"(support spread {spread:.6g} <= gap {r:.6g})")
    c = body.support_point(d)
    c_prime = body.support_point(-d)
    return AdversarialWitness(x=x, delta=d, gap=float(r),
                              grad_top=c_prime, grad_runner=c)
