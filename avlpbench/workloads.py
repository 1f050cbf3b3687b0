"""The three workloads: inputs made from a seed, the timed operation, and
the reference check run after timing.

Each workload object has
  ``setup(rng, workdir) -> items``  inputs of the run (timed as set-up),
  ``op(item) -> output``            one operation (timed),
  ``check(item, output) -> bool``   comparison with a reference (untimed),
  ``round``                         items per balanced round: every run
                                    times whole rounds, so each run has
                                    the same mix of input sizes and kinds.
The avlp modules are looked up as module attributes at call time, so the
tracer's wrappers take effect.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from avlp import cli, core, integrality, reformulate, stability

FEAS_TOL = 1e-9
VALUE_TOL = 1e-6
# union query points keep this distance from every piece boundary, so that
# solver tolerances cannot change the answer
MARGIN = 1e-3
DIMS = (2, 3)
# members of the interval family sampled per stability report
FAMILY_SAMPLES = 4


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# solve-dense


class SolveDense:
    """``avlp solve <file>`` in-process on random dense instances: m = 2n
    rows A ~ N(0,1), D = 0.3|N(0,1)|, b ~ U(0.5, 2), c ~ N(0,1), plus the
    2n box rows |x_j| <= 5, so every orthant LP is bounded and x = 0 is
    feasible.  A round is the whole corpus, so every run times whole passes
    over the same instances.  Reference: the best HiGHS value over every
    orthant LP."""

    def __init__(self, n: int = 8, corpus: int = 8):
        self.n = n
        self.corpus = corpus
        self.round = corpus
        self._ref: dict[int, float] = {}

    def setup(self, rng, workdir):
        n, m = self.n, 2 * self.n
        items = []
        for i in range(self.corpus):
            A = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
            D = np.vstack([0.3 * np.abs(rng.normal(size=(m, n))), np.zeros((2 * n, n))])
            b = np.concatenate([rng.uniform(0.5, 2.0, size=m), np.full(2 * n, 5.0)])
            c = rng.normal(size=n)
            path = workdir / f"dense-{i:04d}.json"
            data = {"n": n, "m": A.shape[0], "A": A.ravel().tolist(),
                    "D": D.ravel().tolist(), "b": b.tolist(), "c": c.tolist()}
            path.write_text(json.dumps(data))
            items.append((i, str(path), core.AvlpProblem(A, D, b, c)))
        return items

    def op(self, item):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["solve", item[1]])
        return code, json.loads(buf.getvalue())

    def reference(self, p) -> float:
        """Best value over every orthant LP, each solved by HiGHS."""
        from scipy.optimize import linprog

        best = -math.inf
        for signs in np.ndindex(*(2,) * p.n):
            s = 1.0 - 2.0 * np.asarray(signs, dtype=float)
            G = np.vstack([p.A - p.D * s, -np.diag(s)])
            h = np.concatenate([p.b, np.zeros(p.n)])
            res = linprog(-p.c, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
            if res.status == 0:
                best = max(best, -res.fun)
            elif res.status != 2:  # 2 = infeasible; boxes rule out unbounded
                raise RuntimeError(f"HiGHS status {res.status} on a reference LP")
        return best

    def check(self, item, output) -> bool:
        i, _, p = item
        code, rep = output
        if code != 0 or rep.get("status") != "optimal":
            return False
        if i not in self._ref:
            self._ref[i] = self.reference(p)
        f_star = rep["f_star"]
        x_star = np.asarray(rep["x_star"], dtype=float)
        return (
            _close(f_star, self._ref[i], VALUE_TOL)
            and core.membership(p, x_star)[0]
            and _close(float(p.c @ x_star), f_star, FEAS_TOL)
        )


# ---------------------------------------------------------------------------
# feasibility-union


def _random_piece(rng, n, cut: bool):
    """A random box, cut by a random halfspace through it when ``cut``."""
    centre = rng.uniform(-4.0, 4.0, size=n)
    half = rng.uniform(0.5, 2.0, size=n)
    G = [np.eye(n), -np.eye(n)]
    h = [centre + half, -(centre - half)]
    if cut:
        g = rng.normal(size=n)
        g /= np.linalg.norm(g)
        G.append(g[None, :])
        h.append(np.array([g @ centre + rng.uniform(0.0, 0.5) * np.linalg.norm(half)]))
    return reformulate.Polyhedron(np.vstack(G), np.concatenate(h))


def _clear(pieces, x) -> bool:
    """True when x lies at least MARGIN inside or outside every piece (all
    rows have unit norm, so a row's slack is its distance to x)."""
    return all(abs(np.min(q.h - q.G @ x)) >= MARGIN for q in pieces)


class FeasibilityUnion:
    """Membership queries on unions of 4-16 boxes in R^2 or R^3, every
    second box cut by a halfspace, each union encoded with
    ``union_to_avlp`` inside the operation.  A round holds one query per
    (union size, dimension, inside or outside); an inside point lies in
    exactly one piece, at a position the round fixes, and an outside point
    in none, both at least MARGIN from every piece boundary.  The search
    for a completing z stops at the first feasible sign pattern, so fixing
    the containing piece fixes how many LPs a query solves, whatever the
    seed.  In each round one query per (dimension, side) uses
    ``encoding_membership``, spread over the sizes; the rest use
    ``union_membership``.
    Reference: ``UnionOfPolyhedra.contains``."""

    def __init__(self, rounds: int = 10, sizes=range(4, 17)):
        sizes = tuple(sizes)
        combos = list(itertools.product((True, False), DIMS))
        # (pieces, dimension, containing piece or None, encoding query);
        # 5 * s spreads the containing piece over the search order
        self.plan = [(m, n, (5 * s) % m if inside else None, s == c * len(sizes) // len(combos))
                     for c, (inside, n) in enumerate(combos) for s, m in enumerate(sizes)]
        self.round = len(self.plan)
        self.items = rounds * self.round

    @staticmethod
    def _point(rng, u, target, tries: int = 200):
        """A point in piece ``target`` only, or in no piece when ``target``
        is None; None if ``tries`` samples find none."""
        lo = np.min([-q.h[q.n : 2 * q.n] for q in u.pieces], axis=0) - 1.0
        hi = np.max([q.h[: q.n] for q in u.pieces], axis=0) + 1.0
        for _ in range(tries):
            if target is None:
                x = rng.uniform(lo, hi)
            else:
                q = u.pieces[target]
                x = rng.uniform(-q.h[q.n : 2 * q.n], q.h[: q.n])
            inside = [j for j, q in enumerate(u.pieces) if q.contains(x)]
            if inside == ([] if target is None else [target]) and _clear(u.pieces, x):
                return x
        return None

    def setup(self, rng, workdir):
        items = []
        for i in range(self.items):
            m, n, target, encoding = self.plan[i % self.round]
            x = None
            while x is None:
                u = reformulate.UnionOfPolyhedra(
                    tuple(_random_piece(rng, n, cut=j % 2 == 1) for j in range(m)))
                x = self._point(rng, u, target)
            items.append((i, u, x, encoding))
        return items

    def op(self, item):
        _, u, x, encoding = item
        enc = reformulate.union_to_avlp(u)
        if encoding:
            return reformulate.encoding_membership(enc, x)
        return reformulate.union_membership(enc, x)

    def check(self, item, output) -> bool:
        _, u, x, _ = item
        return isinstance(output, bool) and output == u.contains(x)


# ---------------------------------------------------------------------------
# certify


def _stable_instance(rng, n):
    """Float instance whose midpoint LP has the unique optimal basis
    0..n-1 at x0 and a well-conditioned basis matrix (spectrum near 2),
    with a small D (relative radius ~1e-3)."""
    m = 2 * n
    A_B = rng.normal(size=(n, n)) / math.sqrt(n) + 2.0 * np.eye(n)
    A_N = rng.normal(size=(m - n, n))
    x0 = rng.normal(size=n)
    y = rng.uniform(0.5, 1.5, size=n)
    A = np.vstack([A_B, A_N])
    b = np.concatenate([A_B @ x0, A_N @ x0 + rng.uniform(1.0, 2.0, size=m - n)])
    D = 1e-3 * np.abs(rng.normal(size=(m, n)))
    return core.AvlpProblem(A, D, b, A_B.T @ y)


def _integer_instance(rng, n, m, integral: bool):
    """(A, D) with D >= 0 and integrality known by construction.

    A - D diag(s) stacks a signed interval matrix (totally unimodular) on
    the rows -s_j e_j, so it is totally unimodular for every s.  The
    non-integral variant plants rows e_a + e_b and e_a - e_b, a minor of
    determinant -2 that the unit rows extend to an n x n basis."""
    rows = []
    for _ in range(m - n):
        lo = int(rng.integers(n))
        hi = int(rng.integers(lo, n))
        r = np.zeros(n, dtype=int)
        r[lo : hi + 1] = 1 if rng.random() < 0.5 else -1
        rows.append(r)
    if not integral:
        a, b = rng.choice(n, size=2, replace=False)
        rows[0] = np.zeros(n, dtype=int)
        rows[0][[a, b]] = 1
        rows[1] = np.zeros(n, dtype=int)
        rows[1][a], rows[1][b] = 1, -1
    A = np.vstack(rows + [np.zeros((n, n), dtype=int)])
    D = np.vstack([np.zeros((m - n, n), dtype=int), np.eye(n, dtype=int)])
    perm = rng.permutation(m)
    return A[perm], D[perm]


def _fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(int(v)) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def _in_box(box, v, tol=1e-9) -> bool:
    return all(iv.lo - tol * (1 + abs(x)) <= x <= iv.hi + tol * (1 + abs(x))
               for iv, x in zip(box, v))


class Certify:
    """One bundle per operation: ``basis_stability_check`` on a float
    instance with n cycling over ``stable_sizes``, then
    ``integrality_full`` on an integer (n_int x m_int) instance, integral
    by construction except at the positions ``nonintegral_at`` of each
    round of ``len(stable_sizes)`` bundles.
    Reference: sampled members of the interval family solve inside the
    returned boxes, the recovered x_star is a member with value f_star,
    integrality verdicts match the construction and every witness
    determinant is recomputed over Fraction."""

    # Sizes span 16..24 with the middle size three times, so that the median
    # and the tail each fall inside a group of equal-cost bundles rather
    # than in a gap between sizes, where run-to-run noise would move them.
    def __init__(self, rounds: int = 16, stable_sizes=(16, 18, 19, 20, 20, 20, 21, 22, 24),
                 n_int: int = 5, m_int: int = 9, nonintegral_at=(0, 1)):
        self.stable_sizes = tuple(stable_sizes)
        self.round = len(self.stable_sizes)
        self.bundles = rounds * self.round
        self.n_int = n_int
        self.m_int = m_int
        self.nonintegral_at = tuple(nonintegral_at)
        self._rng = np.random.default_rng(0)

    def setup(self, rng, workdir):
        items = []
        for i in range(self.bundles):
            n = self.stable_sizes[i % self.round]
            integral = i % self.round not in self.nonintegral_at
            A, D = _integer_instance(rng, self.n_int, self.m_int, integral)
            items.append((i, _stable_instance(rng, n), A, D, integral))
        self._rng = np.random.default_rng(rng.integers(2**63))
        return items

    def op(self, item):
        _, p, A, D, _ = item
        return (stability.basis_stability_check(p), integrality.integrality_full(A, D))

    def _check_stability(self, p, rep) -> bool:
        # the instance is built so that 0..n-1 is the one optimal basis and
        # stays so over the whole family: the right verdict is "verified"
        B = list(rep.basis)
        if not rep.verified or sorted(B) != list(range(p.n)):
            return False
        for _ in range(FAMILY_SAMPLES):
            M = p.A[B] + p.D[B] * self._rng.uniform(-1.0, 1.0, size=(len(B), p.n))
            if not _in_box(rep.y_box, np.linalg.solve(M.T, p.c)):
                return False
            if not _in_box(rep.x_box, np.linalg.solve(M, p.b[B])):
                return False
        return core.membership(p, rep.x_star)[0] and _close(
            float(p.c @ rep.x_star), rep.f_star, 1e-7
        )

    def _check_integrality(self, A, D, integral, rep) -> bool:
        if rep.integral_for_all_b != integral:
            return False
        if integral:
            return rep.checked_signs == 2 ** A.shape[1]
        M = (A - D * np.asarray(rep.witness_sign)).T
        det = _fraction_det(M[:, list(rep.witness_basis)].tolist())
        return det == rep.witness_det and abs(det) > 1

    def check(self, item, output) -> bool:
        _, p, A, D, integral = item
        rep_s, rep_i = output
        return self._check_stability(p, rep_s) and self._check_integrality(A, D, integral, rep_i)


def make(name: str, tiny: bool = False):
    """The workload called ``name``; ``tiny`` shrinks it for the smoke test."""
    if name == "solve-dense":
        return SolveDense(n=3, corpus=4) if tiny else SolveDense()
    if name == "feasibility-union":
        return FeasibilityUnion(rounds=1, sizes=(4, 5)) if tiny else FeasibilityUnion()
    if name == "certify":
        if tiny:
            return Certify(rounds=2, stable_sizes=(3, 4), n_int=2, m_int=4, nonintegral_at=(1,))
        return Certify()
    raise KeyError(name)
