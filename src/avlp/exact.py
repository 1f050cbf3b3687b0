"""Exact solving by orthant enumeration, the LP relaxation bound, and the
vertex-candidacy test.

The feasible set is a union of convex polyhedra, one per sign orthant, so
the problem reduces to 2^l LPs where l counts the nonzero columns of D.
Every orthant search of the package runs through ``_orthant_search``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import AvlpProblem, SignVector, membership, nonzero_columns, orthant_restriction
from .simplex import LinearProgram, LpOutcome, LpStatus, SimplexError, solve_lp


class SolveStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SolveReport:
    status: str
    f_star: float | None = None
    x_star: np.ndarray | None = None
    witness_sign: SignVector | None = None
    orthants_solved: int = 0
    ray: np.ndarray | None = None


def sign_vectors(n: int, enumerated: list[int]) -> Iterator[SignVector]:
    """All sign vectors in {+-1}^n, lexicographic (-1 < +1) over the
    enumerated indices, with the remaining entries set to 0 (meaning
    unconstrained; their absolute value never enters the system).

    This is the package's one sign enumerator."""
    for combo in itertools.product((-1, 1), repeat=len(enumerated)):
        s = [0] * n
        for idx, val in zip(enumerated, combo):
            s[idx] = val
        yield SignVector(tuple(s))


def _orthant_search(p: AvlpProblem) -> Iterator[tuple[SignVector, LpOutcome]]:
    """Solve the orthant LP of every sign vector over the nonzero columns
    of D, yielding (sign, outcome) in sign_vectors order.  A SimplexError
    is re-raised naming the orthant it came from."""
    for s in sign_vectors(p.n, nonzero_columns(p.D)):
        try:
            out = solve_lp(orthant_restriction(p, s))
        except SimplexError as exc:
            raise SimplexError(f"orthant {s.entries}: {exc}") from exc
        yield s, out


def solve_exact(p: AvlpProblem) -> SolveReport:
    """Solve the problem exactly by enumerating sign orthants.

    Signs are enumerated only on the nonzero columns of D (the orthant LP
    does not depend on the remaining signs, which are left free).
    Aggregation: any unbounded orthant makes the problem unbounded,
    otherwise the best optimal orthant wins; ties go to the
    lexicographically smallest sign vector.  The optimal point is
    checked for membership before it is returned; a point that fails
    raises SimplexError naming its orthant.
    """
    best = None
    unbounded = None
    solved = 0

    for s, out in _orthant_search(p):
        solved += 1
        if out.status is LpStatus.UNBOUNDED and unbounded is None:
            unbounded = (s, out)
        elif out.is_optimal and (best is None or out.value > best[1].value):
            best = (s, out)

    if unbounded is not None:
        return SolveReport(
            SolveStatus.UNBOUNDED,
            witness_sign=unbounded[0],
            orthants_solved=solved,
            ray=unbounded[1].ray,
        )
    if best is None:
        return SolveReport(SolveStatus.INFEASIBLE, orthants_solved=solved)
    s, out = best
    if not membership(p, out.x)[0]:
        raise SimplexError(f"orthant {s.entries}: optimal point fails membership")
    return SolveReport(
        SolveStatus.OPTIMAL,
        f_star=float(out.value),
        x_star=out.x,
        witness_sign=s,
        orthants_solved=solved,
    )


def find_feasible_point(p: AvlpProblem) -> np.ndarray | None:
    """First feasible point found during orthant enumeration, or None."""
    for _, out in _orthant_search(p.with_objective(np.zeros(p.n))):
        if out.is_optimal:
            return out.x
        if out.status is LpStatus.UNBOUNDED:  # pragma: no cover - obj is zero
            raise SimplexError("zero-objective orthant LP reported unbounded")
    return None


def relaxation_bound(p: AvlpProblem) -> LpOutcome:
    """LP relaxation via the split x = x1 - x2, |x| ~ x1 + x2.

    Solves max c^T x1 - c^T x2 s.t. (A-D)x1 - (A+D)x2 <= b, x1, x2 >= 0.
    When optimal, its value is an upper bound on the exact optimum.
    """
    n = p.n
    G = np.vstack(
        [
            np.hstack([p.A - p.D, -(p.A + p.D)]),
            -np.eye(2 * n),
        ]
    )
    h = np.concatenate([p.b, np.zeros(2 * n)])
    obj = np.concatenate([p.c, -p.c])
    return solve_lp(LinearProgram(G, h, obj))


@dataclass(frozen=True)
class CandidacyResult:
    passed: bool
    reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def vertex_candidacy(p: AvlpProblem, x, tol: float = 1e-8) -> CandidacyResult:
    """Necessary vertex condition: a vertex of conv(M) must be a vertex of
    the orthant polyhedron both without and with the orthant rows.

    fail certifies x is not a vertex of conv(M); pass is not sufficient.
    """
    x = np.asarray(x, dtype=float).ravel()
    ok, _ = membership(p, x, tol)
    if not ok:
        raise ValueError("point is not feasible")
    lp = orthant_restriction(p, SignVector.from_point(x))
    active = np.abs(lp.G @ x - lp.h) <= tol * (1.0 + np.abs(lp.h))
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
