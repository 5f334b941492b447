"""Small linear programs: a dense two-phase simplex and an exact 2D path.

Solves   max  c.x   subject to   A x <= b,   x free (unrestricted sign),
for one objective or for a stack of objectives over the same region; one
objective is a stack of one, so the method depends on the region alone.

A region of the plane whose nonzero rows span it is answered from its
vertices and extreme rays, computed once.  Any other region goes to the
simplex: free variables are split as x = u - v with u, v >= 0 and slack
variables turn the inequalities into equalities.  Rows with negative
right-hand side receive an artificial variable, and a phase-1 feasibility
problem is solved once per region; each objective then runs phase 2 from a
copy of that tableau and basis.  Pivoting uses Bland's rule (lowest eligible
index enters, lowest basis index leaves on ratio ties), which precludes
cycling.  The problems handled here are tiny (a handful of variables, tens
of rows), so a dense tableau is the right tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-11
# Relative tolerance of the 2D path.  It must stay strictly below the 1e-9
# slack that carves regions apart, or carved-off empty pieces survive; and it
# scales with |a_i|.|v| as well as |b_i|, or the far vertex of a thin sliver
# is dropped and its support comes out too small.
VERTEX_TOL = 1e-12
# Rows whose angle has a sine below this are parallel on the 2D path, and a
# region whose rows are all parallel goes to the simplex.  It is below
# VERTEX_TOL, so the direction along such a pair still counts as a ray.
PARALLEL_TOL = 1e-13
RATIO_TIE_TOL = 1e-12  # ratios this close to the least tie; Bland's rule breaks the tie
MAX_ITERATIONS = 10_000

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    value: float | None = None
    point: np.ndarray | None = None

    def exceeds(self, limit: float) -> bool:
        """True iff the maximum is above `limit`.  An unbounded maximum is
        above every finite limit; an infeasible problem has no maximum."""
        if self.status == UNBOUNDED:
            return limit < math.inf
        return self.status == OPTIMAL and self.value > limit


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
            allowed: np.ndarray) -> SimplexResult:
    """Maximize objective.x from a tableau that `_phase1` returned; pivots
    the tableau and basis in place."""
    m, n = basis.size, objective.size
    if m == 0:
        if np.all(np.abs(objective) <= PIVOT_TOL):
            return SimplexResult(OPTIMAL, 0.0, np.zeros(n))
        return SimplexResult(UNBOUNDED)
    cost = np.zeros(allowed.size)
    cost[:n] = objective
    cost[n:2 * n] = -objective
    status = _run(tableau, basis, cost, allowed)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED)

    solution = np.zeros(allowed.size)
    solution[basis] = tableau[:m, -1]
    x = solution[:n] - solution[n:2 * n]
    return SimplexResult(OPTIMAL, float(objective @ x), x)


def _solve_stack(objectives: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Results of each objective by the simplex, lazily.  Phase 1 runs once;
    each objective starts from a copy of its tableau and basis, so its
    pivots do not depend on the other objectives."""
    start = _phase1(A, b)
    if start is None:
        yield SimplexResult(INFEASIBLE)
        return
    tableau, basis, allowed = start
    for c in objectives:
        yield _phase2(c, tableau.copy(), basis.copy(), allowed)


def _polygon(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices and unit extreme rays of {x : A x <= b} in the plane, or None
    when the nonzero rows do not span it.  An empty region has no vertices.

    When the rows span the plane, a nonempty region has a vertex and is the
    hull of its vertices plus the cone of its extreme rays.  Each vertex
    is where the boundary, run counterclockwise, leaves one of the boundary
    lines, so it is listed once, and each extreme ray runs along one of them.
    """
    norms = np.hypot(A[:, 0], A[:, 1])
    zero = norms == 0.0
    if np.any(b[zero] < -VERTEX_TOL * np.maximum(1.0, np.abs(b[zero]))):
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
    scale = np.maximum(np.maximum(1.0, np.abs(b)),
                       np.hypot(points[:, 0], points[:, 1])[:, None] * norms)
    vertices = points[np.all(points @ A.T <= b + VERTEX_TOL * scale, axis=1)]
    rays = np.concatenate([d, -d])
    rays = rays[np.all(rays @ A.T <= VERTEX_TOL * norms, axis=1)]
    return vertices, rays


def _polygon_results(objectives: np.ndarray, vertices: np.ndarray, rays: np.ndarray):
    """Results of every objective over a 2D region with the given vertices
    and rays, from their products term by term: unlike a matrix product,
    these round an objective alike in a stack of any size."""
    if vertices.shape[0] == 0:
        return [SimplexResult(INFEASIBLE)]
    values = objectives[:, :1] * vertices[:, 0] + objectives[:, 1:] * vertices[:, 1]
    top = values.argmax(axis=1)
    best = values[np.arange(len(top)), top].tolist()
    scale = VERTEX_TOL * np.hypot(objectives[:, 0], objectives[:, 1])
    along = objectives[:, :1] * rays[:, 0] + objectives[:, 1:] * rays[:, 1]
    unbounded = np.any(along > scale[:, None], axis=1).tolist()
    return (SimplexResult(UNBOUNDED) if unbounded[i]
            else SimplexResult(OPTIMAL, best[i], vertices[top[i]])
            for i in range(len(top)))


def maximize(objectives, A, b, limits=None):
    """Maximize objective.x over {x : A x <= b} with x free.

    A single objective (shape (n,)) gives one :class:`SimplexResult`, the
    result of it as a stack of one.  A stack of objectives (shape (k, n))
    gives a list of results in order.  The list stops after the first
    result that is infeasible or exceeds its entry of `limits` (see
    :meth:`SimplexResult.exceeds`); without limits it stops only on an
    infeasible region.  In the plane, when the nonzero rows span it, the
    stack is answered from the region's vertices and extreme rays; otherwise
    the simplex solves one objective at a time after one phase 1.
    """
    objectives = np.asarray(objectives, dtype=float)
    single = objectives.ndim == 1
    stack = objectives.reshape(-1, objectives.shape[-1])
    A = np.asarray(A, dtype=float).reshape(-1, stack.shape[1])
    b = np.asarray(b, dtype=float).reshape(-1)
    polygon = _polygon(A, b) if A.shape[1] == 2 else None
    if polygon is not None:
        candidates = _polygon_results(stack, *polygon)
    else:
        candidates = _solve_stack(stack, A, b)
    if limits is None:
        limits = [math.inf] * len(stack)
    results = []
    for res, limit in zip(candidates, limits):
        results.append(res)
        if res.status == INFEASIBLE or res.exceeds(limit):
            break
    return results[0] if single else results
