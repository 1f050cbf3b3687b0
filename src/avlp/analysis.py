"""Structural analyzers for the feasible set: boundedness for all right-hand
sides, universal feasibility, a sufficient connectedness condition, necessary
convexity conditions, and a brute-force vertex enumerator used as an oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    AvlpProblem,
    RawProblem,
    SignVector,
    membership,
    orthant_restriction,
    split_relaxation,
)
from .exact import _solve, find_feasible_point, sign_vectors
from .integrality import solve_rational
from .simplex import FEAS_TOL, MEMBER_TOL, margin, solve_lp

VERTEX_MAX_DIM = 4
VERTEX_MAX_ROWS = 12


class SizeLimitError(ValueError):
    """Enumeration limits for the brute-force routines exceeded."""


def enumerate_vertices(G, h, tol: float = MEMBER_TOL) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """All vertices of {x : G x <= h} with their active row sets.

    Candidate points are the solutions of every nonsingular d-subset of
    rows, solved exactly by ``solve_rational``, filtered by feasibility
    (G x <= h + tol) and deduplicated.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    k, d = G.shape
    if d > VERTEX_MAX_DIM or k > VERTEX_MAX_ROWS:
        raise SizeLimitError(f"vertex enumeration limited to d<={VERTEX_MAX_DIM}, k<={VERTEX_MAX_ROWS}")
    GF = [[Fraction(v) for v in row] for row in G]
    hF = [Fraction(v) for v in h]
    tolF = Fraction(tol)
    seen: dict[tuple, tuple[np.ndarray, tuple[int, ...]]] = {}
    for S in itertools.combinations(range(k), d):
        x = solve_rational([GF[i] for i in S], [hF[i] for i in S])
        if x is None:
            continue
        vals = [sum(GF[i][j] * x[j] for j in range(d)) for i in range(k)]
        if any(vals[i] > hF[i] + tolF for i in range(k)):
            continue
        active = tuple(i for i in range(k) if abs(vals[i] - hF[i]) <= tolF)
        key = tuple(round(float(v), 9) for v in x)
        if key not in seen:
            seen[key] = (np.array([float(v) for v in x]), active)
    return list(seen.values())


# ---------------------------------------------------------------------------
# verdict types


@dataclass(frozen=True)
class BoundednessVerdict:
    bounded: bool
    ray: np.ndarray | None = None
    sign: SignVector | None = None


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible_all_b: bool
    witness: np.ndarray | None = None


@dataclass(frozen=True)
class ConnectednessVerdict:
    holds: bool
    u: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass(frozen=True)
class ConvexityVerdict:
    consistent: bool
    row: int | None = None
    coordinate: int | None = None
    x1: np.ndarray | None = None
    x2: np.ndarray | None = None


# ---------------------------------------------------------------------------
# analyzers


def bounded_for_all_b(p: AvlpProblem) -> BoundednessVerdict:
    """Decide whether M(b) is bounded for every b.

    Equivalent to A x - D|x| <= 0 having only the trivial solution.  Every
    full orthant is checked with a box-capped LP: a positive optimum of
    max e^T diag(s) x over the homogeneous orthant system exposes a
    nontrivial ray (rays scale, so the cap |x| <= e loses nothing).
    Signs on zero columns of D still matter here through the orthant rows,
    so all 2^n orthants are enumerated.
    """
    n = p.n
    eye = np.eye(n)
    capped = AvlpProblem(
        np.vstack([p.A, eye, -eye]),
        np.vstack([p.D, np.zeros((2 * n, n))]),
        np.concatenate([np.zeros(p.m), np.ones(2 * n)]),
        np.zeros(n),
    )
    for s in sign_vectors(n, list(range(n))):
        lp = orthant_restriction(capped.with_objective(s), s)
        out = _solve(lp, f"orthant {tuple(s.tolist())}")
        if out.is_optimal and out.value > FEAS_TOL:
            return BoundednessVerdict(False, ray=out.x, sign=SignVector(tuple(s.tolist())))
    return BoundednessVerdict(True)


def feasible_for_all_b(p: AvlpProblem) -> FeasibilityVerdict:
    """M(b) is nonempty for every b iff it is nonempty for b = -e."""
    probe = p.with_rhs(-np.ones(p.m))
    witness = find_feasible_point(probe)
    if witness is None:
        return FeasibilityVerdict(False)
    return FeasibilityVerdict(True, witness=witness)


def connected_sufficient(p: AvlpProblem) -> ConnectednessVerdict:
    """Sufficient condition for connectedness of M:
    solvability of (A+D)u - (A-D)v <= b with u, v >= 0, the split
    relaxation of A x + D|x| <= b."""
    out = solve_lp(split_relaxation(RawProblem(p.A, -p.D, p.b, np.zeros(p.n))))
    if out.is_optimal:
        return ConnectednessVerdict(True, u=out.x[:p.n], v=out.x[p.n:])
    return ConnectednessVerdict(False)


def convexity_active_pair_check(p: AvlpProblem, x1, x2, i: int) -> ConvexityVerdict:
    """Necessary convexity condition at a shared active row.

    Requires row i active at both feasible points (within
    margin(FEAS_TOL, b_i), members at FEAS_TOL).  A coordinate j with
    x1_j * x2_j < -FEAS_TOL and D_ij > 0 certifies that M is not convex.
    """
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    for x in (x1, x2):
        ok, res = membership(p, x, FEAS_TOL)
        if not ok:
            raise ValueError("point is not feasible")
        if abs(res[i]) > margin(FEAS_TOL, p.b[i]):
            raise ValueError(f"row {i} is not active at the point")
    for j in range(p.n):
        if x1[j] * x2[j] < -FEAS_TOL and p.D[i, j] > 0:
            return ConvexityVerdict(False, row=i, coordinate=j, x1=x1, x2=x2)
    return ConvexityVerdict(True)


def convexity_vertex_check(p: AvlpProblem) -> ConvexityVerdict:
    """Necessary convexity condition over orthant-polyhedron vertices.

    Enumerates, per orthant s, the vertices of (A - D diag(s)) x <= b that
    lie in the orthant (at FEAS_TOL), for n <= VERTEX_MAX_DIM.  Two
    vertices from different orthants sharing an active row i while
    flipping the sign of a coordinate j with D_ij > 0 certify that M is
    not convex.
    """
    if p.n > VERTEX_MAX_DIM:
        raise SizeLimitError(f"convexity vertex check limited to n <= {VERTEX_MAX_DIM}")
    found: list[tuple[np.ndarray, np.ndarray, tuple[int, ...]]] = []
    for s in sign_vectors(p.n, list(range(p.n))):
        G = orthant_restriction(p, s).G[: p.m]
        for x, active in enumerate_vertices(G, p.b, FEAS_TOL):
            if np.all(s * x >= -FEAS_TOL):
                found.append((s, x, active))
    for (s1, x1, a1), (s2, x2, a2) in itertools.combinations(found, 2):
        shared = set(a1) & set(a2)
        if not shared:
            continue
        for j in range(p.n):
            if x1[j] * x2[j] < -FEAS_TOL:
                for i in shared:
                    if p.D[i, j] > 0:
                        return ConvexityVerdict(False, row=i, coordinate=j, x1=x1, x2=x2)
    return ConvexityVerdict(True)
