"""Independent ground-truth solver used only by the tests.

Solves max c^T x s.t. Ax - D|x| <= b by enumerating all 2^n full sign
orthants and, in each one, enumerating basic solutions of the orthant
polyhedron with rational arithmetic.  Every orthant polyhedron carries
the n rows -diag(s) x <= 0, so it is pointed: when nonempty it has a
vertex, and when the objective is bounded the optimum is attained at one.
Unboundedness is certified by an extreme ray with positive objective,
found through (n-1)-row active sets and signed-minor null vectors.

Everything here is deliberately independent of the package internals: no
simplex, no floating-point pivoting, only fractions and determinants.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def _det(M) -> Fraction:
    n = len(M)
    a = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = Fraction(1) / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def _solve_square(M, rhs):
    n = len(M)
    d = _det(M)
    if d == 0:
        return None
    # Cramer's rule
    out = []
    for j in range(n):
        Mj = [[M[i][k] if k != j else rhs[i] for k in range(n)] for i in range(n)]
        out.append(_det(Mj) / d)
    return out


def _null_vector(rows, n):
    """For n-1 independent rows, a nonzero vector orthogonal to all of
    them, from signed maximal minors."""
    r = [(-1) ** j * _det([[row[k] for k in range(n) if k != j] for row in rows]) for j in range(n)]
    return r if any(v != 0 for v in r) else None


def _orthant_system(A, D, b, s):
    m = len(b)
    n = len(A[0]) if m else len(s)
    G = [[Fraction(A[i][j]) - Fraction(D[i][j]) * s[j] for j in range(n)] for i in range(m)]
    h = [Fraction(v) for v in b]
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(-s[j])
        G.append(row)
        h.append(Fraction(0))
    return G, h


def _feasible(G, h, x) -> bool:
    return all(sum(G[i][j] * x[j] for j in range(len(x))) <= h[i] for i in range(len(G)))


def oracle_solve(A, D, b, c):
    """Returns (status, value) with status in {"optimal", "infeasible",
    "unbounded"} and value a Fraction when optimal."""
    A = [[Fraction(v) for v in row] for row in np.atleast_2d(np.asarray(A, dtype=object))]
    D = [[Fraction(v) for v in row] for row in np.atleast_2d(np.asarray(D, dtype=object))]
    b = [Fraction(v) for v in np.asarray(b, dtype=object).ravel()]
    c = [Fraction(v) for v in np.asarray(c, dtype=object).ravel()]
    n = len(c)
    m = len(b)
    best = None
    feasible = False
    for s in itertools.product((1, -1), repeat=n):
        G, h = _orthant_system(A, D, b, s)
        rows = list(range(len(G)))
        orthant_feasible = False
        orthant_best = None
        for subset in itertools.combinations(rows, n):
            M = [G[i] for i in subset]
            x = _solve_square(M, [h[i] for i in subset])
            if x is None or not _feasible(G, h, x):
                continue
            orthant_feasible = True
            val = sum(c[j] * x[j] for j in range(n))
            if orthant_best is None or val > orthant_best:
                orthant_best = val
        if not orthant_feasible:
            continue
        feasible = True
        # extreme rays from (n-1)-row active sets (n = 1 means the zero
        # active set, i.e. the recession cone spans a single null vector
        # direction of an empty row system: handle by taking +-e_1)
        for subset in itertools.combinations(rows, n - 1):
            if n == 1:
                candidates = [[Fraction(1)], [Fraction(-1)]]
            else:
                M = [G[i] for i in subset]
                r = _null_vector(M, n)
                if r is None:
                    continue
                candidates = [r, [-v for v in r]]
            for r in candidates:
                if all(sum(G[i][j] * r[j] for j in range(n)) <= 0 for i in rows):
                    if sum(c[j] * r[j] for j in range(n)) > 0:
                        return "unbounded", None
        if orthant_best is not None and (best is None or orthant_best > best):
            best = orthant_best
    if not feasible:
        return "infeasible", None
    return "optimal", best


def random_integer_instance(rng, n_max=3, m_max=5, span=3):
    """Random integral instance with D >= 0 in the acceptance corpus shape."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    A = rng.integers(-span, span + 1, size=(m, n))
    D = np.abs(rng.integers(-span, span + 1, size=(m, n)))
    b = rng.integers(-span, span + 1, size=m)
    c = rng.integers(-span, span + 1, size=n)
    return A, D, b, c


def assert_same_outcome(out, ref):
    """Two LP outcomes agree: the same status, and bit for bit the same x,
    value, ray and Farkas vector."""
    assert out.status is ref.status
    for field in ("x", "value", "ray", "farkas"):
        a, b = getattr(out, field), getattr(ref, field)
        assert (a is None) == (b is None), field
        assert a is None or np.array_equal(a, b), field
