"""Shared test helpers: independent brute-force oracles and random instances."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from scert import _simplex
from scert.certificates import ClassDiff, ClassifierAtPoint, ClassWise, Uniform
from scert.geometry import (
    TOL,
    Ellipsoid,
    FinitePoints,
    HalfspaceRegion,
    LpBall,
    dual_exponent,
    region_subset,
)


def brute_support(points: np.ndarray, direction: np.ndarray) -> float:
    """Support of a point cloud by direct enumeration."""
    return float(np.max(np.asarray(points) @ np.asarray(direction)))


def reference_support(body, direction) -> float:
    """Support of any body variant at one direction from its closed form,
    one direction at a time (the oracle for direction stacks)."""
    d = np.asarray(direction, dtype=float)
    if isinstance(body, FinitePoints):
        return brute_support(body.points, d)
    if isinstance(body, LpBall):
        q = dual_exponent(body.p)
        return float(body.center @ d + body.radius * np.linalg.norm(d, ord=q))
    if isinstance(body, Ellipsoid):
        return body.radius * math.sqrt(max(float(d @ body.sigma @ d), 0.0))
    return float(sum(coeff * reference_support(sub, d) for coeff, sub in body.terms))


def reference_extent(cert, direction) -> float:
    """Largest t >= 0 with t * direction inside the certificate's support
    constraints, one direction at a time (inf when no constraint binds)."""
    extent = math.inf
    for gen, r in cert.constraints:
        rho = reference_support(gen, direction)
        if rho > 0.0:
            extent = min(extent, r / rho)
    return extent


def scaled_body(body, k: int):
    """A point set or ball scaled by 2^k, from its own data."""
    if isinstance(body, FinitePoints):
        return FinitePoints(np.ldexp(body.points, k))
    if isinstance(body, LpBall):
        return LpBall(body.p, math.ldexp(body.radius, k), body.center)
    return Ellipsoid(body.sigma, math.ldexp(body.radius, k))


def all_normal(values) -> bool:
    """Every entry is 0 or a finite normal float, so that a power of two that
    led to it kept every bit."""
    values = np.abs(np.asarray(values, dtype=float))
    return bool(np.all((values == 0.0) | ((values >= np.finfo(float).tiny) & np.isfinite(values))))


def brute_pairwise_differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise differences a_i - b_j (the sum with the negated set)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[:, None, :] - b[None, :, :]).reshape(-1, a.shape[1])


def reference_minus_subset(a, carves, b, slack: float = TOL) -> bool:
    """Whether a \\ (c_1 u ... u c_k) lies in b, by the unscreened piece
    loop: for every row (v, c) of the first carve the piece of a with
    {v.delta >= c + slack} is built and tested against b with its own
    containment query, and carved by the remaining carves when it is not
    inside b (the oracle for the screened `region_minus_subset`)."""
    if not carves:
        return region_subset(a, b, slack)
    for normal, offset in zip(carves[0].normals, carves[0].offsets):
        piece = a.intersect(HalfspaceRegion(-normal, [-(float(offset) + slack)], a.dim))
        if region_subset(piece, b, slack):
            continue
        if len(carves) == 1 or not reference_minus_subset(piece, carves[1:], b, slack):
            return False
    return True


def vertex_enum_max(objective, normals, offsets, tol=1e-9):
    """Maximum of objective over a bounded 2D halfspace intersection by
    enumerating pairwise line intersections (the LP test oracle)."""
    objective = np.asarray(objective, dtype=float)
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    best = None
    m = normals.shape[0]
    for i, j in itertools.combinations(range(m), 2):
        mat = np.vstack([normals[i], normals[j]])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        vertex = np.linalg.solve(mat, np.array([offsets[i], offsets[j]]))
        if np.all(normals @ vertex <= offsets + tol):
            value = float(objective @ vertex)
            if best is None or value > best:
                best = value
    return best


def assert_stack_matches_solves(objectives, values, points, solves, exact: bool = False):
    """A stack's LP answers against each objective's own solve, a (value,
    point) pair per answered objective.  Every answer has its solve's status
    (+inf, -inf or finite).  The first answer, and every one when `exact`,
    carries its solve's bits.  Any other either carries them or reuses an
    earlier optimal basis: the bits of an earlier point of the stack, with
    the value float(c @ point), within 1e-12 relative of the solve's value."""
    assert len(values) == len(points) == len(solves)
    for i, (c, value, point, (ref, ref_point)) in enumerate(
            zip(objectives, values, points, solves)):
        assert (value == math.inf) == (ref == math.inf)
        assert (value == -math.inf) == (ref == -math.inf)
        if np.float64(value).tobytes() == np.float64(ref).tobytes() \
                and point.tobytes() == ref_point.tobytes():
            continue
        assert i > 0 and not exact, f"answer {i} is not its own solve's"
        assert any(point.tobytes() == earlier.tobytes() for earlier in points[:i])
        assert value == float(c @ point)
        assert abs(value - ref) <= 1e-12 * abs(ref)


def best_gap_by_vertices(logits) -> float:
    """Largest runner-up gap of w @ logits over the weight simplex, by
    enumerating the vertices of the arrangement of the class-pair
    hyperplanes (L[:, i] - L[:, j]).w = 0 and the simplex facets w_m = 0
    (the weight-optimizer test oracle).  The gap is linear on each cell of
    the arrangement, so its maximum sits at one of these vertices."""
    logits = np.asarray(logits, dtype=float)
    n, k = logits.shape
    planes = [logits[:, i] - logits[:, j] for i, j in itertools.combinations(range(k), 2)]
    planes = np.vstack(planes + list(np.eye(n)))
    choices = np.array(list(itertools.combinations(range(len(planes)), n - 1)))
    systems = np.concatenate(
        [np.ones((len(choices), 1, n)), planes[choices]], axis=1)
    systems = systems[np.linalg.matrix_rank(systems) == n]
    rhs = np.zeros((len(systems), n, 1))
    rhs[:, 0] = 1.0
    weights = np.linalg.solve(systems, rhs)[..., 0]
    weights = weights[np.all(weights >= -1e-12, axis=1)]
    ordered = np.sort(weights @ logits, axis=1)
    return float(np.max(ordered[:, -1] - ordered[:, -2]))


def reference_optimize_weights(logits) -> tuple[np.ndarray, float]:
    """`optimize_weights` deciding every class, in class order, and keeping
    the first best by strict `>` (the reference that skipping the classes
    that cannot win must match bit for bit).  A class whose pure bracket is
    closed, max_i min_c <= min_c max_i of L[i, a] - L[i, c], takes its lower
    end at the first member attaining it; every other class solves its LP."""
    logits = np.asarray(logits, dtype=float)
    n, k = logits.shape
    objective = np.zeros(n + 1)
    objective[-1] = 1.0
    on_simplex = np.zeros((n + 2, n + 1))
    on_simplex[:n, :n] = -np.eye(n)
    on_simplex[n, :n] = 1.0
    on_simplex[n + 1, :n] = -1.0
    offsets = np.concatenate([np.zeros(n), [1.0, -1.0], np.zeros(k - 1)])
    best = None
    for a in range(k):
        others = [c for c in range(k) if c != a]
        pure = [min(row[a] - row[c] for c in others) for row in logits]
        lower = max(pure)
        if min(max(row[a] - row[c] for row in logits) for c in others) <= lower:
            weights = np.zeros(n)
            weights[pure.index(lower)] = 1.0
            value = lower
        else:
            margins = logits[:, [a]] - np.delete(logits, a, axis=1)
            rows = np.column_stack([-margins.T, np.ones(k - 1)])
            (value,), (point,) = _simplex.maximize(objective[None, :],
                                                   np.vstack([on_simplex, rows]), offsets)
            weights, value = point[:n], float(value)
        if best is None or value > best[1]:
            best = weights, value
    weights = np.clip(best[0], 0.0, None)
    weights /= weights.sum()
    ordered = np.sort(weights @ logits)
    return weights, float(ordered[-1] - ordered[-2])


def reference_clip(polygon: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by {x : normal.x <= offset},
    one edge at a time (the oracle for the array form in ``render``)."""
    if polygon.shape[0] == 0:
        return polygon
    out: list[np.ndarray] = []
    values = polygon @ normal
    n = polygon.shape[0]
    for i in range(n):
        p, q = polygon[i], polygon[(i + 1) % n]
        vp, vq = values[i], values[(i + 1) % n]
        p_in = vp <= offset + 1e-12
        q_in = vq <= offset + 1e-12
        if p_in:
            out.append(p)
        if p_in != q_in:
            t = (offset - vp) / (vq - vp)
            out.append(p + t * (q - p))
    return np.asarray(out) if out else np.zeros((0, 2))


def exact_top(a, b, alpha: Fraction) -> int:
    """Top class (lowest index among ties) of alpha a + (1 - alpha) b, in
    exact rational arithmetic."""
    mixed = [alpha * Fraction(x) + (1 - alpha) * Fraction(y) for x, y in zip(a, b)]
    return mixed.index(max(mixed))


def first_switch_alpha(a, b) -> Fraction:
    """The weight at which the top class of alpha a + (1 - alpha) b first
    leaves the top class at alpha = 0, found by enumerating every pairwise
    crossing of the class lines alpha -> alpha a_c + (1 - alpha) b_c at
    alpha >= 0 and testing the top class just after each one, exactly."""
    a = [Fraction(x) for x in a]
    b = [Fraction(y) for y in b]
    crossings = {Fraction(0)}
    for i, j in itertools.combinations(range(len(a)), 2):
        slope = (a[i] - b[i]) - (a[j] - b[j])
        if slope != 0 and (b[j] - b[i]) / slope >= 0:
            crossings.add((b[j] - b[i]) / slope)
    points = sorted(crossings)
    start = exact_top(a, b, Fraction(0))
    for here, after in zip(points, points[1:] + [points[-1] + 1]):
        if exact_top(a, b, (here + after) / 2) != start:
            return here
    raise AssertionError("the top class never changes")


def exact_turn_sign(o, a, p) -> int:
    """The sign of (a - o) x (p - o) for 2D float points, in Fraction."""
    (ox, oy), (ax, ay), (px, py) = ([Fraction(float(v)) for v in q] for q in (o, a, p))
    det = (ax - ox) * (py - oy) - (ay - oy) * (px - ox)
    return (det > 0) - (det < 0)


def exact_extreme_points(points) -> set[tuple[float, float]]:
    """The vertices of the convex hull of 2D float points, decided in
    Fraction: p is one exactly when the nonzero vectors q - p lie in an open
    half-plane, that is, when one of them, v, has every other strictly to its
    left or along it (Fraction cross and dot products)."""
    pts = {(float(x), float(y)) for x, y in points}
    exact = {q: (Fraction(q[0]), Fraction(q[1])) for q in pts}
    extreme = set()
    for p in pts:
        (px, py) = exact[p]
        vectors = [(qx - px, qy - py) for q, (qx, qy) in exact.items() if q != p]
        if not vectors or any(
                all(vx * wy - vy * wx > 0 or (vx * wy == vy * wx and vx * wx + vy * wy > 0)
                    for wx, wy in vectors)
                for vx, vy in vectors):
            extreme.add(p)
    return extreme


def unit_directions(n: int, dim: int = 2, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def consistent_instance(rng: np.random.Generator, k: int = 3, sites: int = 30):
    """A random 2D instance whose class-wise, uniform, and class-difference
    gradient sets all come from the same per-site gradients, so the
    certificate lattice provably nests."""
    grads = rng.standard_normal((sites, k, 2))
    logits = rng.uniform(0.0, 1.0, size=k)
    top = int(np.argmax(logits))
    per_class = tuple(FinitePoints(grads[:, i, :]) for i in range(k))
    union = FinitePoints(grads.reshape(-1, 2))
    pairs = {}
    for i in range(k):
        for j in range(k):
            if i != j:
                pairs[(i, j)] = FinitePoints(grads[:, i, :] - grads[:, j, :])
    return {
        "logits": logits,
        "top": top,
        "uniform": ClassifierAtPoint(logits, Uniform(union)),
        "class_wise": ClassifierAtPoint(logits, ClassWise(per_class)),
        "class_diff": ClassifierAtPoint(logits, ClassDiff(pairs)),
        "gradients": grads,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
