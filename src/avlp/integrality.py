"""Exact integer linear algebra (Bareiss determinants, exact rank, an exact
rational solve) and the unimodularity checks deciding whether every vertex
of the feasible set is integral for all integral right-hand sides.

All arithmetic here runs over Python integers (fraction-free Bareiss
elimination); the whole point is distinguishing determinant values +-1
from +-2, which floating point cannot be trusted with.

The sign checks test (A - D diag(s))^T for many s.  Row j of that matrix
is A[:, j] - s_j D[:, j], so its minor on the column subset S depends on s
only through s_j for j in J_S, the columns j with D[i, j] != 0 for some i
in S.  Each check therefore eliminates every distinct (S, s restricted to
J_S) minor once, however many signs share it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import sign_vectors


class BudgetExceededError(RuntimeError):
    pass


DEFAULT_BUDGET = 10**7


def _to_int_matrix(M) -> list[list[int]]:
    M = np.asarray(M, dtype=object)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    out = []
    for row in M:
        ints = []
        for v in row:
            if int(v) != v:
                raise ValueError(f"matrix entry {v!r} is not an integer")
            ints.append(int(v))
        out.append(ints)
    return out


def _bareiss(a: list[list[int]], skip_zero_columns: bool) -> tuple[int, int]:
    """Fraction-free Bareiss elimination of the integer rows a, in place.

    Every division is exact, so entries stay integer minors of the input
    and never grow beyond them.  A column without a pivot is skipped when
    skip_zero_columns is set, and otherwise ends the elimination.  Returns
    the number of pivots and the last pivot with the sign of the row swaps;
    for a square matrix of full rank that is its determinant.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        if a[rank][col] == 0:
            swap = next((i for i in range(rank + 1, nrows) if a[i][col] != 0), None)
            if swap is None:
                if skip_zero_columns:
                    continue
                break
            a[rank], a[swap] = a[swap], a[rank]
            sign = -sign
        pivot_row = a[rank]
        pivot = pivot_row[col]
        for i in range(rank + 1, nrows):
            row = a[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            row[col] = 0
        prev = pivot
        rank += 1
    return rank, sign * prev


def _det(rows: list[list[int]]) -> int:
    """Determinant of the square integer rows, eliminated in place."""
    rank, last = _bareiss(rows, skip_zero_columns=False)
    return last if rank == len(rows) else 0


def det_exact(M) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination; exact for any magnitude."""
    rows = _to_int_matrix(M)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return _det(rows)


def solve_rational(rows, rhs) -> list[Fraction] | None:
    """Exact solution of the square system rows x = rhs, or None when it is
    singular.  Entries may be ints, Fractions or floats (read exactly).

    Each equation is scaled to integers by the lcm of its denominators,
    which leaves the solution unchanged; Cramer's rule then takes every
    x_j as a ratio of two Bareiss determinants.
    """
    scaled = []
    for row, r in zip(rows, rhs):
        eq = [Fraction(v) for v in row] + [Fraction(r)]
        k = math.lcm(*(v.denominator for v in eq))
        scaled.append([v.numerator * (k // v.denominator) for v in eq])
    d = len(scaled)
    det = _det([eq[:d] for eq in scaled])
    if det == 0:
        return None
    return [Fraction(_det([eq[:j] + eq[d:] + eq[j + 1:d] for eq in scaled]), det)
            for j in range(d)]


def rank_exact(M) -> int:
    """Rank of an integer matrix over the rationals, exactly."""
    return _bareiss(_to_int_matrix(M), skip_zero_columns=True)[0]


@dataclass(frozen=True)
class UnimodularityResult:
    unimodular: bool
    bad_subset: tuple[int, ...] | None = None
    bad_det: int | None = None


def _column_subsets(n: int, m: int):
    """The n-subsets of range(m) in combinations order, once n x m is known
    to have at most as many rows as columns and few enough subsets."""
    if n > m:
        raise ValueError(f"need at least as many columns ({m}) as rows ({n})")
    count = math.comb(m, n)
    if count > DEFAULT_BUDGET:
        raise BudgetExceededError(f"{count} column subsets exceed budget {DEFAULT_BUDGET}")
    return itertools.combinations(range(m), n)


def is_unimodular(M) -> UnimodularityResult:
    """Whether every nonsingular n x n column submatrix of the n x m
    matrix M has determinant +1 or -1."""
    rows = _to_int_matrix(M)
    n = len(rows)
    m = len(rows[0]) if rows else 0
    for subset in _column_subsets(n, m):
        d = _det([[row[j] for j in subset] for row in rows])
        if d not in (-1, 0, 1):
            return UnimodularityResult(False, subset, d)
    return UnimodularityResult(True)


@dataclass(frozen=True, slots=True)
class IntegralityReport:
    integral_for_all_b: bool
    witness_sign: tuple[int, ...] | None
    witness_basis: tuple[int, ...] | None
    witness_det: int | None
    checked_signs: int
    method: str


def _as_int_arrays(A, D):
    A = np.asarray(_to_int_matrix(A), dtype=object)
    D = np.asarray(_to_int_matrix(D), dtype=object)
    if A.shape != D.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {D.shape}")
    return A, D


def _check_signs(A, D, signs, method) -> IntegralityReport:
    """is_unimodular((A - D diag(s))^T) for each s in order, up to the first
    that fails, with every distinct minor eliminated once (see the module
    docstring).  The signs of a check are distinct, so a minor whose J_S is
    every column recurs for no other sign and is not kept."""
    m, n = A.shape
    if n == 0:
        raise ValueError("expected a matrix")  # (A - D diag(s))^T has no rows
    At, Dt = A.T.tolist(), D.T.tolist()
    plan = [(S, [j for j in range(n) if any(Dt[j][i] for i in S)], {})
            for S in _column_subsets(n, m)]
    checked = 0
    for s in signs:
        checked += 1
        for S, J, seen in plan:
            key = tuple([s[j] for j in J])
            d = seen.get(key)
            if d is None:
                d = _det([[a[i] - sj * e[i] for i in S] for a, e, sj in zip(At, Dt, s)])
                if len(J) < n:
                    seen[key] = d
            if d not in (-1, 0, 1):
                return IntegralityReport(False, tuple(int(v) for v in s), S, d, checked, method)
    return IntegralityReport(True, None, None, None, checked, method)


def integrality_full(A, D) -> IntegralityReport:
    """Vertices of {x : Ax - D|x| <= b} are integral for every integral b
    iff (A - D diag(s))^T is unimodular for all s in {+-1}^n."""
    A, D = _as_int_arrays(A, D)
    m, n = A.shape
    total = (2**n) * math.comb(m, n) if n <= m else 0
    if n > m:
        raise ValueError(f"need m >= n, got m={m}, n={n}")
    if total > DEFAULT_BUDGET:
        raise BudgetExceededError(f"workload {total} exceeds budget {DEFAULT_BUDGET}")
    signs = (s.tolist() for s in sign_vectors(n, list(range(n))))
    return _check_signs(A, D, signs, "full")


def _at_most_two_nonzeros(n: int) -> list[tuple[int, ...]]:
    """The 2n^2 + 1 vectors of {-1, 0, 1}^n with at most two nonzero
    entries, in the lexicographic order of itertools.product."""
    out = []
    for k in range(3):
        for support in itertools.combinations(range(n), k):
            for values in itertools.product((-1, 1), repeat=k):
                s = [0] * n
                for j, v in zip(support, values):
                    s[j] = v
                out.append(tuple(s))
    return sorted(out)


def integrality_rank_one(A, D) -> IntegralityReport:
    """For rank-one D the full check reduces to sign vectors with at most
    two nonzero entries (over {+-1, 0}^n)."""
    A, D = _as_int_arrays(A, D)
    if rank_exact(D.tolist()) != 1:
        raise ValueError("D must have rank exactly 1")
    return _check_signs(A, D, _at_most_two_nonzeros(A.shape[1]), "rank_one")


def extended_signs_check(A, D) -> bool:
    """Given that the strict-sign check passes, unimodularity extends to
    all s in {+-1, 0}^n by determinant linearity; verified directly."""
    A, D = _as_int_arrays(A, D)
    base = integrality_full(A, D)
    if not base.integral_for_all_b:
        raise ValueError("extended check requires the strict-sign check to pass")
    n = A.shape[1]
    signs = itertools.product((-1, 0, 1), repeat=n)
    return _check_signs(A, D, signs, "extended").integral_for_all_b


def det_linearity_identity(A, D, s, i) -> bool:
    """Exact identity behind the extension to zero signs: with s_i = 0,
    twice the determinant equals the sum of the determinants at s_i = +1
    and s_i = -1, for every square basis."""
    A, D = _as_int_arrays(A, D)
    m, n = A.shape
    s = [int(v) for v in s]
    if len(s) != n or s[i] != 0:
        raise ValueError("sign vector must have a zero at position i")
    sp = s[:]
    sp[i] = 1
    sm = s[:]
    sm[i] = -1

    def bases(sig):
        sv = np.asarray(sig, dtype=object)
        return (A - D * sv).T.tolist()

    M0, Mp, Mm = bases(s), bases(sp), bases(sm)
    for subset in itertools.combinations(range(m), n):
        d0 = det_exact([[M0[r][j] for j in subset] for r in range(n)])
        dp = det_exact([[Mp[r][j] for j in subset] for r in range(n)])
        dm = det_exact([[Mm[r][j] for j in subset] for r in range(n)])
        if 2 * d0 != dp + dm:
            return False
    return True
