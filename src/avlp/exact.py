"""Exact solving by a sign-tree branch-and-bound or orthant enumeration,
the LP relaxation bound, and the vertex-candidacy test.

The feasible set is a union of convex polyhedra, one per sign orthant, so
the problem reduces to at most 2^l LPs where l counts the nonzero columns
of D.  When the split LP relaxation bounds every coordinate, ``solve_exact``
searches a tree over those signs instead and typically solves a few dozen
LPs; otherwise it solves the orthant LPs in order, all 2^l of them unless
one is unbounded, which ends the sweep.  That sweep and
``find_feasible_point`` share one orthant loop, ``_orthant_search``; every
other per-orthant sweep of the package draws its signs from
``sign_vectors``, as int arrays, and builds its LPs by
``orthant_restriction``; only a sign that a result reports becomes a
``SignVector``.  The orthant loop applies ``solve_lp``'s empty-row rule
once per problem: an orthant in which a violated row of the problem
vanishes is decided infeasible, with the Farkas vector ``solve_lp`` would
give, before its LP is built.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    AvlpProblem,
    SignVector,
    membership,
    nonzero_columns,
    orthant_restriction,
    secant,
    secant_relaxation,
    sgn,
    split_relaxation,
)
from .simplex import (FEAS_TOL, PIVOT_TOL, LinearProgram, LpOutcome, LpStatus, SimplexError,
                      margin, solve_lp)


class SolveStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SolveReport:
    """Verdict of ``solve_exact``.  ``orthants_solved`` counts the orthants
    the enumeration decided, each by its LP or by the empty-row rule of
    ``_orthant_search``, up to and including the first unbounded one;
    ``nodes_solved`` counts the LPs of the sign tree (its bound LPs, its
    node LPs and at most one orthant LP that polishes its optimum).  One
    path runs, so one of the two is 0."""

    status: str
    f_star: float | None = None
    x_star: np.ndarray | None = None
    witness_sign: SignVector | None = None
    orthants_solved: int = 0
    ray: np.ndarray | None = None
    nodes_solved: int = 0


def sign_vectors(n: int, enumerated: list[int]) -> Iterator[np.ndarray]:
    """All sign vectors in {+-1}^n, lexicographic (-1 < +1) over the
    enumerated indices, with the remaining entries set to 0 (meaning
    unconstrained; their absolute value never enters the system).  Each
    is a fresh int array of length n, so a caller may keep it.

    This is the package's one sign enumerator."""
    for combo in itertools.product((-1, 1), repeat=len(enumerated)):
        s = np.zeros(n, dtype=int)
        s[enumerated] = combo
        yield s


def _solve(lp: LinearProgram, where: str) -> LpOutcome:
    """solve_lp, with a SimplexError re-raised naming ``where`` the LP came
    from.  An optimum of the wrong length is such an error too."""
    try:
        out = solve_lp(lp)
    except SimplexError as exc:
        raise SimplexError(f"{where}: {exc}") from exc
    if out.is_optimal and out.x.shape != (lp.num_vars,):
        raise SimplexError(f"{where}: optimum has {out.x.size} entries, expected {lp.num_vars}")
    return out


def _empty_rows(p: AvlpProblem, enumerated: list[int]):
    """The rows that ``solve_lp``'s empty-row rule rejects in some orthant,
    as arrays (rows, masks, values) over the orthant number t of
    sign_vectors order; empty when there are none or more than 62 signs.

    In orthant s row i of the orthant LP is A_i - D_i diag(s), which is
    exactly zero iff |A_ij| == D_ij on every column and s_j = sign(A_ij)
    on the support of A_i; s_j = +1 on the q-th enumerated column sets bit
    l-1-q of t.  Such a row is empty in orthant t iff t & mask == value,
    and rejected iff b_i < -margin(FEAS_TOL, b_i)."""
    l = len(enumerated)
    if l > 62:  # t would overflow int64; 2^62 orthants are out of reach anyway
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    rows = np.flatnonzero((p.b < -margin(FEAS_TOL, p.b)) & (np.abs(p.A) == p.D).all(axis=1))
    bits = np.zeros(p.n, dtype=np.int64)
    bits[enumerated] = 1 << np.arange(l - 1, -1, -1, dtype=np.int64)
    masks = np.where(p.A[rows] != 0, bits, 0).sum(axis=1)
    values = np.where(p.A[rows] > 0, bits, 0).sum(axis=1)
    return rows, masks, values


def _orthant_search(p: AvlpProblem) -> Iterator[tuple[np.ndarray, LpOutcome]]:
    """Solve the orthant LP of every sign vector over the nonzero columns
    of D, yielding (sign array, outcome) in sign_vectors order.  A
    SimplexError is re-raised naming the orthant it came from.

    The empty-row rule of ``solve_lp`` is applied once per problem
    (``_empty_rows``), before any LP is built: an orthant in which a
    violated row of the problem vanishes gets the outcome ``solve_lp``
    would return, INFEASIBLE with Farkas vector e_i of the first such
    row, and no LP."""
    enumerated = nonzero_columns(p.D)
    rows, masks, values = _empty_rows(p, enumerated)
    for t, s in enumerate(sign_vectors(p.n, enumerated)):
        hit = rows[t & masks == values] if rows.size else rows
        if hit.size:
            farkas = np.zeros(p.m + len(enumerated))
            farkas[hit[0]] = 1.0
            yield s, LpOutcome(LpStatus.INFEASIBLE, farkas=farkas)
        else:
            yield s, _solve(orthant_restriction(p, s), f"orthant {tuple(s.tolist())}")


def _beats(bound: float, incumbent: float) -> bool:
    """Whether a node whose relaxation reaches ``bound`` may still improve
    on the incumbent value.  Without an incumbent every node may:
    -inf + margin(tol, -inf) is NaN, and comparing with it would prune
    them all."""
    return incumbent == -math.inf or bound > incumbent + margin(FEAS_TOL, incumbent)


def _coordinate_bounds(p: AvlpProblem) -> tuple[LpStatus, np.ndarray, np.ndarray, int]:
    """Bounds l <= x <= u, widened outward by margin(PIVOT_TOL, bound), the
    kernel's optimality tolerance.  A secant on these bounds leaves
    t_j - |x_j| of the widening at the ends, so a wider margin (FEAS_TOL)
    would keep points on a box face from passing membership and make the
    tree branch to the leaves.

    Bounds come from singleton rows first: a row with one nonzero a in A[i]
    and a zero D[i] states a x_j <= b_i, so u_j <= b_i / a for a > 0 and
    l_j >= b_i / a for a < 0 (LP presolve; Andersen & Andersen, Math.
    Prog. 71, 1995).  Only an end that no such row states finitely costs an
    LP over the split relaxation.  Rows that contradict each other (l_j >
    u_j) stay in every node LP, so the root node is infeasible.

    Returns (status, l, u, LPs solved): status is OPTIMAL when every
    coordinate is bounded, otherwise the status of the first LP that was
    not optimal (INFEASIBLE: the relaxation, and so the problem, is
    infeasible), with l and u None."""
    n = p.n
    # ends[0] = u and ends[1] = -l: a x_j <= b_i caps ends[a < 0, j] at b_i / |a|
    ends = np.full((2, n), np.inf)
    rows = np.flatnonzero((np.count_nonzero(p.A, axis=1) == 1) & ~p.D.any(axis=1))
    cols = np.nonzero(p.A[rows])[1]  # one per row, in row order
    a = p.A[rows, cols]
    with np.errstate(over="ignore"):
        np.minimum.at(ends, (np.where(a > 0, 0, 1), cols), p.b[rows] / np.abs(a))
    root = None if np.isfinite(ends).all() else split_relaxation(p)
    solved = 0
    for j in range(n):
        for row, sign in enumerate((1.0, -1.0)):
            if np.isfinite(ends[row, j]):
                continue
            obj = np.zeros(2 * n)
            obj[j], obj[n + j] = sign, -sign
            out = _solve(LinearProgram(root.G, root.h, obj), f"bound of x_{j}")
            solved += 1
            if not out.is_optimal:
                return out.status, None, None, solved
            ends[row, j] = out.value
    u, l = ends[0], -ends[1]
    return LpStatus.OPTIMAL, l - margin(PIVOT_TOL, l), u + margin(PIVOT_TOL, u), solved


def _sign_tree(p: AvlpProblem) -> SolveReport | None:
    """Best-first branch-and-bound over the signs of the nonzero columns of
    D, or None when the relaxation leaves some coordinate unbounded (or its
    bound LPs fail), so that only the orthant sweep can decide.

    The root bounds come from singleton rows, and from a split-relaxation
    LP only for an end that no row states (``_coordinate_bounds``).  Each
    node fixes some signs and solves ``secant_relaxation`` on those
    bounds; its value bounds every point of the node.  A node closes when
    its point is a member, or when every sign is fixed (its LP is then the
    orthant LP); otherwise it branches on the coordinate with the largest
    D-weighted gap colsum(D)_j (sec_j(x_j) - |x_j|).
    """
    try:
        status, l, u, solved = _coordinate_bounds(p)
    except SimplexError:
        return None
    if status is LpStatus.INFEASIBLE:
        return SolveReport(SolveStatus.INFEASIBLE, nodes_solved=solved)
    if status is LpStatus.UNBOUNDED:
        return None

    weight = p.D.sum(axis=0)
    branchable = weight > 0
    root = np.zeros(p.n, dtype=int)
    root[branchable & (l >= 0.0)] = 1
    root[branchable & (u <= 0.0)] = -1
    incumbent, best, best_at_leaf = -math.inf, None, False
    heap = []
    order = itertools.count()

    def visit(signs):
        nonlocal solved, incumbent, best, best_at_leaf
        where = f"node {tuple(int(v) for v in signs)}"
        out = _solve(secant_relaxation(p, signs, (l, u)), where)
        solved += 1
        if out.status is LpStatus.UNBOUNDED:
            raise SimplexError(f"{where}: LP reported unbounded within finite bounds")
        if out.status is LpStatus.INFEASIBLE or not _beats(out.value, incumbent):
            return
        x = out.x
        free = branchable & (signs == 0)
        if not free.any() or membership(p, x)[0]:
            incumbent, best, best_at_leaf = out.value, x, not free.any()
        else:
            slope, intercept = secant(l[free], u[free])
            gap = np.full(p.n, -np.inf)
            gap[free] = weight[free] * (slope * x[free] + intercept - np.abs(x[free]))
            heapq.heappush(heap, (-out.value, next(order), signs, int(np.argmax(gap))))

    visit(root)
    while heap:
        bound, _, signs, j = heapq.heappop(heap)
        if not _beats(-bound, incumbent):
            break  # best first: no node left can beat the incumbent
        for sign in (-1, 1):
            child = signs.copy()
            child[j] = sign
            visit(child)

    if best is None:
        return SolveReport(SolveStatus.INFEASIBLE, nodes_solved=solved)
    if not best_at_leaf:
        # the secant of the widened bounds relaxes every row a little even
        # on a box face, so a member point of a node with free signs may
        # sit up to membership's tolerance outside the set; the orthant LP
        # of its signs (a leaf) gives a vertex of the set itself
        signs = np.where(branchable, np.where(best > 0.0, 1, -1), 0)
        out = _solve(orthant_restriction(p, signs), f"orthant {tuple(signs.tolist())}")
        solved += 1
        if out.is_optimal:
            best = out.x
    # the lexicographically smallest orthant (-1 < +1) containing best
    witness = SignVector(tuple(np.where(branchable, np.where(best > 0.0, 1, -1), 0)))
    if not membership(p, best)[0]:
        raise SimplexError(f"orthant {witness.entries}: optimal point fails membership")
    return SolveReport(
        SolveStatus.OPTIMAL,
        f_star=float(p.c @ best),
        x_star=best,
        witness_sign=witness,
        nodes_solved=solved,
    )


def _sweep(p: AvlpProblem) -> SolveReport:
    """Solve the orthant LPs in sign_vectors order.  The first unbounded
    orthant makes the problem unbounded and ends the sweep; otherwise every
    orthant is solved and the best optimal one wins, ties going to the
    lexicographically smallest sign vector."""
    best = None
    solved = 0

    for s, out in _orthant_search(p):
        solved += 1
        if out.status is LpStatus.UNBOUNDED:
            return SolveReport(
                SolveStatus.UNBOUNDED, witness_sign=SignVector(tuple(s.tolist())),
                orthants_solved=solved, ray=out.ray
            )
        if out.is_optimal and (best is None or out.value > best[1].value):
            best = (s, out)

    if best is None:
        return SolveReport(SolveStatus.INFEASIBLE, orthants_solved=solved)
    s, out = best
    if not membership(p, out.x)[0]:
        raise SimplexError(f"orthant {tuple(s.tolist())}: optimal point fails membership")
    return SolveReport(
        SolveStatus.OPTIMAL,
        f_star=float(out.value),
        x_star=out.x,
        witness_sign=SignVector(tuple(s.tolist())),
        orthants_solved=solved,
    )


def solve_exact(p: AvlpProblem) -> SolveReport:
    """Solve the problem exactly.

    Signs matter only on the nonzero columns of D.  When the split
    relaxation bounds every coordinate, a sign-tree branch-and-bound
    decides (``nodes_solved`` LPs); its witness sign is the
    lexicographically smallest orthant containing x_star.  Otherwise the
    orthants are decided in sign_vectors order (``orthants_solved``, each by
    its LP or by the empty-row rule of ``_orthant_search``): the first
    unbounded orthant makes the problem unbounded and stops the sweep, and
    ties between optimal orthants go to the lexicographically smallest sign
    vector.  Either way the optimal point is checked for membership before
    it is returned; a point that fails raises SimplexError naming its
    orthant.
    """
    if nonzero_columns(p.D):
        report = _sign_tree(p)
        if report is not None:
            return report
    return _sweep(p)


def find_feasible_point(p: AvlpProblem) -> np.ndarray | None:
    """First feasible point found during orthant enumeration, or None."""
    for _, out in _orthant_search(p.with_objective(np.zeros(p.n))):
        if out.is_optimal:
            return out.x
        if out.status is LpStatus.UNBOUNDED:  # pragma: no cover - obj is zero
            raise SimplexError("zero-objective orthant LP reported unbounded")
    return None


def relaxation_bound(p: AvlpProblem) -> LpOutcome:
    """LP relaxation via the split x = x1 - x2, |x| ~ x1 + x2, posed by
    ``split_relaxation``.

    Solves max c^T x1 - c^T x2 s.t. (A-D)x1 - (A+D)x2 <= b, x1, x2 >= 0.
    When optimal, its value is an upper bound on the exact optimum.
    """
    return solve_lp(split_relaxation(p))


@dataclass(frozen=True)
class CandidacyResult:
    passed: bool
    reason: str = ""


def vertex_candidacy(p: AvlpProblem, x) -> CandidacyResult:
    """Necessary vertex condition: a vertex of conv(M) must be a vertex of
    the orthant polyhedron both without and with the orthant rows.

    x must be a member at FEAS_TOL; a row is active when it holds with
    equality within margin(FEAS_TOL, h_i).  fail certifies x is not a
    vertex of conv(M); pass is not sufficient.
    """
    x = np.asarray(x, dtype=float).ravel()
    ok, _ = membership(p, x, FEAS_TOL)
    if not ok:
        raise ValueError("point is not feasible")
    lp = orthant_restriction(p, sgn(x))
    active = np.abs(lp.G @ x - lp.h) <= margin(FEAS_TOL, lp.h)
    active1 = lp.G[: p.m][active[: p.m]]
    rank1 = np.linalg.matrix_rank(active1) if active1.size else 0
    if rank1 < p.n:
        return CandidacyResult(
            False, "active rows of the orthant system have rank < n"
        )
    if np.linalg.matrix_rank(lp.G[active]) < p.n:
        return CandidacyResult(
            False, "active rows including orthant facets have rank < n"
        )
    return CandidacyResult(True)
