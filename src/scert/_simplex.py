"""Small linear programs: a dense two-phase simplex and exact 1D and 2D paths.

Solves   max  c.x   subject to   A x <= b,   x free (unrestricted sign),
for a stack of objectives over the same region, so the method depends on the
region alone.  The answers are arrays: one maximum per objective, +inf where
it is unbounded and -inf on an empty region, and a point attaining each.

A region of the line is answered from its two ends, each a correctly rounded
ratio b_k / a_k, which scales exactly by powers of two (Higham 2002, ch. 2).
A region of the plane is answered from its vertices and extreme rays,
computed once.  Where every offset is positive the region holds 0 inside and
is the polar set of the hull of {a_k / b_k} and 0, so its vertices and rays
come from consecutive points of that one ordered hull (Preparata & Muller
1979; de Berg et al., Computational Geometry, 8.2 and 11.4).  Where an
offset is not positive (a carved piece) or that hull is ill-conditioned,
each pair of boundary lines is met instead, if the nonzero rows span the
plane.  Any other region goes to the simplex: free variables are split as
x = u - v with u, v >= 0 and slack variables turn the inequalities into
equalities.  Rows with negative right-hand side receive an artificial
variable, and a phase-1 feasibility problem is solved once per region.  An
objective runs phase 2 from a copy of that tableau and basis, unless the
optimal basis of an earlier objective passes the stopping rule for it too;
then it takes that basis's point.  Pivoting uses Bland's rule (lowest
eligible index enters, lowest basis index leaves on ratio ties), which
precludes cycling.  The problems handled here are tiny (a handful of
variables, tens of rows), so a dense tableau is the right tool.
"""

from __future__ import annotations

import math

import numpy as np

FEASIBILITY_TOL = 1e-9  # absolute: least entering reduced cost (objective units), phase-1 residual
PIVOT_TOL = 1e-11  # absolute, in row units: least pivot entry; objective entries this small are 0
# Relative tolerance of the 2D path: a vertex v may pass row i by this times
# max(|b_i|, |a_i|.|v|), with no absolute floor, so scaled rows move no vertex.
# It must stay below the 1e-9 slack that carves regions apart, or carved-off
# empty pieces survive; without |a_i|.|v| a thin sliver loses its far vertex.
VERTEX_TOL = 1e-12
# Rows whose angle has a sine below this are parallel on the 2D path, and a
# region whose rows are all parallel goes to the simplex.  It is below
# VERTEX_TOL, so the direction along such a pair still counts as a ray.
PARALLEL_TOL = 1e-13
# An edge of the polar hull between nonzero points p and q whose line passes
# this close to 0, p x q <= STAR_TOL |p| |q|, has its vertex of the region out
# near 1 / (p x q), or none; such a region meets its lines pairwise instead.
STAR_TOL = 1e-9
RATIO_TIE_TOL = 1e-12  # ratios this close to the least tie; Bland's rule breaks the tie
MAX_ITERATIONS = 10_000

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def unit_size(a: np.ndarray, rows: bool = False):
    """a / 2^e and e, 1/2 <= max |a / 2^e| < 1 over the array, or with `rows` over each row
    (e an (m,) array); e = 0 for zeros.  A power of two keeps every bit at any scale."""
    _, e = np.frexp(np.abs(a).max(axis=1 if rows else None, keepdims=True, initial=0.0))
    return np.ldexp(a, -e), e[:, 0] if rows else e.item()


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the full tableau (the last row is the reduced-cost row)."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * tableau[row]
    basis[row] = col


def _run(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
         allowed: np.ndarray) -> str:
    """Run simplex iterations maximizing `cost` on a tableau whose first m
    rows are B^-1 [A | b].  A reduced-cost row is appended in place and kept
    up to date by the pivots; only columns flagged in `allowed` may enter.
    Bland's rule: lowest eligible column enters, lowest basis index leaves
    on ratio ties."""
    m = tableau.shape[0] - 1
    reduced, rhs = tableau[-1, :-1], tableau[:m, -1]  # views: the pivots keep them current
    reduced[:] = cost - cost[basis] @ tableau[:-1, :-1]
    tableau[-1, -1] = 0.0
    for _ in range(MAX_ITERATIONS):
        eligible = allowed & (reduced > FEASIBILITY_TOL)
        entering = int(eligible.argmax())  # Bland's rule: the first eligible column
        if not eligible[entering]:
            return OPTIMAL
        column = tableau[:m, entering]
        rows = column > PIVOT_TOL
        if not rows.any():
            return UNBOUNDED
        ratios = np.divide(rhs, column, out=np.full(m, np.inf), where=rows)
        ties = rows & (ratios <= ratios.min() + RATIO_TIE_TOL)
        leaving = int(np.where(ties, basis, allowed.size).argmin())  # size > any basis index
        _pivot(tableau, basis, leaving, entering)
    raise RuntimeError("simplex did not converge within the iteration cap")


def _phase1(A: np.ndarray, b: np.ndarray):
    """Standard-form tableau of {x : A x <= b} with a feasible basis, or None
    when the region is empty.  Rows with negative offsets get an artificial
    variable, and phase 1 drives the artificials out.  Returns the tableau
    (m + 1 rows, the last for reduced costs), the basis and the columns that
    may enter in phase 2."""
    m, n = A.shape
    # Standard form columns: [u (n), v (n), slacks (m), artificials (k)].
    flip = b < 0.0
    A_std = np.hstack([A, -A, np.eye(m)])
    b_std = b.copy()
    A_std[flip] *= -1.0
    b_std[flip] *= -1.0

    art_rows = np.flatnonzero(flip)
    n_core = 2 * n + m
    n_art = art_rows.size
    total = n_core + n_art

    # One extra row carries the reduced costs through the pivots.
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :n_core] = A_std
    tableau[:m, -1] = b_std
    basis = np.empty(m, dtype=int)
    basis[:] = 2 * n + np.arange(m)  # slack of each row
    for k, r in enumerate(art_rows):
        tableau[r, n_core + k] = 1.0
        basis[r] = n_core + k

    allowed = np.ones(total, dtype=bool)
    if n_art:
        phase1 = np.zeros(total)
        phase1[n_core:] = -1.0
        _run(tableau, basis, phase1, allowed)
        residual = -(phase1[basis] @ tableau[:m, -1])
        if residual > FEASIBILITY_TOL:
            return None
        # Drive leftover zero-level artificials out of the basis.
        for r in range(m):
            if basis[r] >= n_core:
                cols = np.flatnonzero(np.abs(tableau[r, :n_core]) > PIVOT_TOL)
                if cols.size:
                    _pivot(tableau, basis, r, cols[0])
        allowed[n_core:] = False
    return tableau, basis, allowed


def _phase2(objective: np.ndarray, tableau: np.ndarray, basis: np.ndarray,
            allowed: np.ndarray) -> tuple[float, np.ndarray]:
    """The maximum of objective.x and a point attaining it, or +inf and a
    NaN point when it is unbounded, from a tableau that `_phase1` returned;
    pivots the tableau and basis in place."""
    m, n = basis.size, objective.size
    if m == 0:
        if np.all(np.abs(objective) <= PIVOT_TOL):
            return 0.0, np.zeros(n)
        return math.inf, np.full(n, math.nan)
    cost = np.zeros(allowed.size)
    cost[:n] = objective
    cost[n:2 * n] = -objective
    if _run(tableau, basis, cost, allowed) == UNBOUNDED:
        return math.inf, np.full(n, math.nan)
    solution = np.zeros(allowed.size)
    solution[basis] = tableau[:m, -1]
    x = solution[:n] - solution[n:2 * n]
    return float(objective @ x), x


def _solve_stack(objectives: np.ndarray, A: np.ndarray, b: np.ndarray,
                 limits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maxima and points of the objectives by the simplex, up to the first
    maximum above its limit.  Phase 1 runs once, and each objective not yet
    answered runs phase 2 from a copy of its tableau and basis.  A basis that
    ends optimal is optimal for every objective in the cone of its tight
    normals (Bertsimas & Tsitsiklis 1997, 5.1): each later objective that it
    passes by the stopping rule of `_run` takes its point, at that
    objective's own value.  An empty region gives -inf for every objective."""
    values = np.full(len(objectives), -math.inf)
    points = np.full(objectives.shape, math.nan)
    start = _phase1(A, b)
    if start is None:
        return values, points
    tableau, basis, allowed = start
    m, n = basis.size, objectives.shape[1]
    costs = np.zeros((len(objectives), allowed.size))
    costs[:, :n], costs[:, n:2 * n] = objectives, -objectives
    answered = np.zeros(len(objectives), dtype=bool)
    for k, c in enumerate(objectives):
        if not answered[k]:
            final_tableau, final_basis = tableau.copy(), basis.copy()
            values[k], points[k] = _phase2(c, final_tableau, final_basis, allowed)
            later = k + 1 + np.flatnonzero(~answered[k + 1:])
            if m and later.size and values[k] < math.inf:
                reduced = costs[later] - costs[later][:, final_basis] @ final_tableau[:m, :-1]
                for j in later[~np.any(allowed & (reduced > FEASIBILITY_TOL), axis=1)]:
                    values[j], points[j] = float(objectives[j] @ points[k]), points[k]
                    answered[j] = True
        if values[k] > limits[k]:
            return values[:k + 1], points[:k + 1]
    return values, points


def _star_polygon(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices and unit extreme rays of {x : A x <= b} in the plane when
    every offset is positive, from the counterclockwise hull of the points
    a_k / b_k and 0, taken at unit size; None when an offset is not
    positive, a point is not finite, the hull has fewer than three points,
    an edge between nonzero points passes within STAR_TOL of 0 or a vertex
    is out of the float range.

    The region is the polar set of that hull: consecutive nonzero hull
    points p, q give the vertex (q_y - p_y, p_x - q_x) / (p x q), the edge's
    outward normal over p x q, and an edge with 0 as an end gives a ray
    along its outward normal.  At most two edges end at 0, so three hull
    points give a vertex.  The hull has a handful of points, so its edges
    are walked in Python."""
    if not (b > 0.0).all():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        points = A / b[:, None]
        if not np.isfinite(points).all():
            return None
        from .geometry import _monotone_chain  # geometry imports this module
        points, shift = unit_size(points)
        hull = _monotone_chain(points.tolist() + [[0.0, 0.0]])
        if len(hull) < 3:
            return None
        unit = float(np.ldexp(1.0, -shift))  # inf when the points are all subnormal
        vertices, rays = [], []
        for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1]):
            nx, ny = qy - py, px - qx  # the outward normal of the edge p -> q
            if not (px or py) or not (qx or qy):
                norm = math.hypot(nx, ny)
                rays.append([nx / norm, ny / norm])
                continue
            cross = px * qy - py * qx
            if not cross > STAR_TOL * math.hypot(px, py) * math.hypot(qx, qy):
                return None
            vertices.append([nx / cross * unit, ny / cross * unit])
    vertices = np.array(vertices)
    if not np.isfinite(vertices).all():
        return None
    return vertices, np.array(rays).reshape(-1, 2)


def _polygon(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices and unit extreme rays of {x : A x <= b} in the plane, or None
    when the nonzero rows do not span it or an offset at unit size is past the
    float range.  An empty region has no vertices.

    When the rows span the plane, a nonempty region has a vertex and is the
    hull of its vertices plus the cone of its extreme rays.  Each vertex
    is where the boundary, run counterclockwise, leaves one of the boundary
    lines, so it is listed once, and each extreme ray runs along one of them."""
    A, shift = unit_size(A, rows=True)  # each row and its offset by one power of two:
    with np.errstate(over="ignore"):  # the same halfspace
        b = np.ldexp(b, -shift)
    if not np.isfinite(b).all():
        return None
    norms = np.hypot(A[:, 0], A[:, 1])
    zero = norms == 0.0
    if np.any(b[zero] < 0.0):
        return np.empty((0, 2)), np.empty((0, 2))
    A, b, norms = A[~zero], b[~zero], norms[~zero]
    # boundary line i is x = p_i + t d_i with d_i the unit row i turned
    # counterclockwise, which runs the boundary counterclockwise, and row j
    # bounds t on it by slope[i, j] t <= room[i, j]; a row parallel to line i
    # up to rounding (row i itself included) bounds nothing, and the
    # feasibility test below still applies it
    d = np.column_stack([-A[:, 1], A[:, 0]]) / norms[:, None]
    slope = d @ A.T
    parallel = np.abs(slope) <= PARALLEL_TOL * norms
    if parallel.all():
        return None
    p = A * (b / norms ** 2)[:, None]
    room = b - p @ A.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = room / slope
    t_hi = np.where(~parallel & (slope > 0.0), t, np.inf).min(axis=1)  # where x leaves line i
    finite = np.isfinite(t_hi)
    points = p[finite] + t_hi[finite, None] * d[finite]
    scale = np.maximum(np.abs(b), np.hypot(points[:, 0], points[:, 1])[:, None] * norms)
    vertices = points[np.all(points @ A.T <= b + VERTEX_TOL * scale, axis=1)]
    rays = np.concatenate([d, -d])
    rays = rays[np.all(rays @ A.T <= VERTEX_TOL * norms, axis=1)]
    return vertices, rays


def _polygon_results(objectives: np.ndarray, vertices: np.ndarray,
                     rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maxima and points of the objectives over a 2D region with the
    given vertices and rays, from their products term by term: unlike a
    matrix product, these round an objective alike in a stack of any size."""
    if vertices.shape[0] == 0:
        return np.full(len(objectives), -math.inf), np.full(objectives.shape, math.nan)
    values = objectives[:, :1] * vertices[:, 0] + objectives[:, 1:] * vertices[:, 1]
    top = values.argmax(axis=1)
    best, points = values[np.arange(len(top)), top], vertices[top]
    scale = VERTEX_TOL * np.hypot(objectives[:, 0], objectives[:, 1])
    along = objectives[:, :1] * rays[:, 0] + objectives[:, 1:] * rays[:, 1]
    unbounded = np.any(along > scale[:, None], axis=1)
    best[unbounded], points[unbounded] = math.inf, math.nan
    return best, points


def _interval(objectives: np.ndarray, A: np.ndarray, b: np.ndarray):
    """The maxima and points of the objectives over {x : A x <= b} on the line,
    between its ends lo and hi, or None where a ratio b_k / a_k overflows
    inward, as no float lies in the region."""
    a = A[:, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = b / a  # an end that overflows outward is open: no float lies past it
        lo, hi = ratios[a < 0.0].max(initial=-math.inf), ratios[a > 0.0].min(initial=math.inf)
        if hi == -math.inf or lo == math.inf:
            return None
        if lo > hi or (b[a == 0.0] < 0.0).any():  # crossing ends, or 0 x <= b < 0
            return np.full(len(objectives), -math.inf), np.full(objectives.shape, math.nan)
        # c > 0 peaks at hi, c < 0 at lo and c = 0 at the point nearest 0
        points = np.select([objectives > 0.0, objectives < 0.0], [hi, lo], min(max(0.0, lo), hi))
        values = (objectives * points)[:, 0]
    points[np.isinf(points)] = math.nan  # an open end: unbounded
    return values, points


def maximize(objectives, A, b, limits=None) -> tuple[np.ndarray, np.ndarray]:
    """Maximize each objective.x of a stack (k, n) over {x : A x <= b}, x free.

    Returns the maxima as an array and a point attaining each as the rows of
    another, up to the first maximum above its entry of `limits` (all of them
    without limits).  A maximum is +inf where the objective is unbounded,
    with a NaN point, and -inf on an empty region, which no limit is below.
    On the line, the stack is answered from the region's two ends, unless a
    ratio b_k / a_k overflows inward; in the plane, when every offset is
    positive or the nonzero rows span it, from its vertices and extreme rays;
    otherwise the simplex runs one phase 1 and solves the objectives in
    order, and each optimal basis also answers the later objectives it is
    optimal for, at a point that may differ by rounding from their own.
    """
    objectives = np.asarray(objectives, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, objectives.shape[1])
    b = np.asarray(b, dtype=float).reshape(-1)
    limits = np.full(len(objectives), math.inf) if limits is None else np.asarray(limits, float)
    if A.shape[1] == 1 and (answers := _interval(objectives, A, b)) is not None:
        values, points = answers
    elif A.shape[1] == 2 and (polygon := _star_polygon(A, b) or _polygon(A, b)) is not None:
        values, points = _polygon_results(objectives, *polygon)
    else:
        return _solve_stack(objectives, A, b, limits)
    over = values > limits
    count = int(over.argmax()) + 1 if over.any() else len(values)
    return values[:count], points[:count]
