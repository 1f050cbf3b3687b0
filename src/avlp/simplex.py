"""Dense two-phase simplex for inequality-form LPs with certificates.

Problems are stated as ``max obj^T x subject to G x <= h`` with free
variables.  Internally the problem is converted to equality standard form
by splitting ``x = u - v`` and adding slacks; a row with h_i < 0 is negated
and also gets an artificial column, the only artificials phase 1 needs.
Outcomes carry verifiable certificates: a ray for unbounded problems and a
Farkas vector, read from the phase-1 reduced costs of the slacks, for
infeasible ones.

Rows of G with no nonzero entry are decided before the tableau is built
(the empty-row rule of LP presolve, Andersen & Andersen, Math. Prog. 71,
1995): such a row reads 0 <= h_i, so the LP is infeasible, with Farkas
vector e_i, as soon as one has h_i < -margin(FEAS_TOL, h_i); otherwise
those rows are dropped and the rest is solved.  An LP without columns is
all empty rows.

Tolerance policy.  This module, the bottom of the package's import graph,
holds every tolerance the package decides a verdict with; the other
modules import these names, and no other module defines a tolerance of
its own (the rigorous rounding constants of ``stability``'s enclosures
are not tolerances and stay there).

- ``PIVOT_TOL`` = 1e-10: the kernel's pivot and optimality threshold, an
  absolute test on tableau entries and reduced costs; also the outward
  widening of the sign tree's coordinate bounds.
- ``RATIO_TIE_TOL`` = 1e-9: ratios within RATIO_TIE_TOL * (1 + |least
  ratio|) of the least tie in the kernel's ratio test, written inline so
  that a pivot makes no extra call.
- ``MEMBER_TOL`` = 1e-9: a point satisfies a row (``membership``,
  ``Polyhedron.contains``, ``QpReformulation.feasible``); the default of
  the two tolerances callers pass, ``membership``'s and
  ``enumerate_vertices``'.
- ``FEAS_TOL`` = 1e-8: an LP row set is feasible (phase 1 and the empty
  rows), a row is active at a point, a node's bound beats the incumbent,
  and an LP value or product is positive (boundedness and KKT margins,
  KKT residuals, sign products in the convexity checks).  The vertex
  candidacy test and the convexity checks pass it to ``membership``.
- ``VERIFY_TOL`` = 1e-7: a constructed object checks out (a point
  recovered from stable multipliers, a row emitted by the orthant-convex
  encoding).
- ``VALUE_TOL`` = 1e-6: two optimal values reached by different routes
  agree (``optimum_on_lp_part``).

Every relative test but the ratio tie goes through one rule,
``margin(tol, ref)`` = tol * (1 + |ref|), with ref the right-hand side or
value the quantity is compared against.  These tests are absolute,
against tol itself: the
kernel's pivot tests, positivity of an LP value (``bounded_for_all_b``
and both margins of ``kkt_global_property``), ``verify_kkt``'s residuals
and its x1 * x2 test, the nonnegativity of ``QpReformulation.feasible``,
the sign products of the convexity checks and ``enumerate_vertices``'
exact ``Fraction`` comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

PIVOT_TOL = 1e-10
RATIO_TIE_TOL = 1e-9
MEMBER_TOL = 1e-9
FEAS_TOL = 1e-8
VERIFY_TOL = 1e-7
VALUE_TOL = 1e-6


def margin(tol: float, ref):
    """Slack tol * (1 + |ref|) of a relative test against ``ref``, a
    number or an array (entrywise)."""
    return tol * (1.0 + abs(ref))


class SimplexError(RuntimeError):
    """Numerical failure (cycling guard or iteration limit exceeded)."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max obj^T x  s.t.  G x <= h, x free."""

    G: np.ndarray
    h: np.ndarray
    obj: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.asarray(self.h, dtype=float).ravel()
        obj = np.asarray(self.obj, dtype=float).ravel()
        if G.size == 0:
            G = G.reshape(h.shape[0], obj.shape[0])
        if G.shape != (h.shape[0], obj.shape[0]):
            raise ValueError(
                f"inconsistent LP dimensions: G {G.shape}, h {h.shape}, obj {obj.shape}"
            )
        for name, arr in (("G", G), ("h", h), ("obj", obj)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"LP field {name!r} has a non-finite entry")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "obj", obj)

    @property
    def num_vars(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    ray: np.ndarray | None = None
    farkas: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


def _pivot(T: np.ndarray, red: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    piv = T[row]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= colv[:, None] * piv
    red -= red[col] * piv
    basis[row] = col


def _iterate(T, red, basis, bland_after: int, max_iters: int):
    """Run simplex pivots (minimization). Returns None at optimum or the
    entering column index if an unbounded direction is detected."""
    degen = 0
    for _ in range(max_iters):
        col = int(np.argmin(red[:-1]))  # Dantzig: the first most negative
        if red[col] >= -PIVOT_TOL:
            return None
        if degen > bland_after:
            col = int(np.flatnonzero(red[:-1] < -PIVOT_TOL)[0])  # Bland's rule
        colvals = T[:, col]
        pos = np.where(colvals > PIVOT_TOL)[0]
        if pos.size == 0:
            return col
        ratios = T[pos, -1] / colvals[pos]
        rmin = ratios.min()
        scale = 1.0 + abs(rmin)
        ties = pos[ratios <= rmin + RATIO_TIE_TOL * scale]
        row = int(ties[0] if ties.size == 1 else ties[np.argmin(basis[ties])])
        degen = degen + 1 if rmin <= PIVOT_TOL else 0
        _pivot(T, red, basis, row, col)
    raise SimplexError("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve an inequality-form LP, returning status plus certificate.

    Rows of G with no nonzero entry are decided first: if one has
    h_i < -margin(FEAS_TOL, h_i), the first such row gives the Farkas
    vector e_i and no tableau is built; otherwise they are dropped, and a
    Farkas vector of the remaining rows is returned with zeros on them.

    Deterministic: Dantzig pricing with a switch to Bland's rule after
    2*(k+d) consecutive degenerate pivots.  Phase 1 starts from a crash
    basis: the slack of every row with h_i >= 0 and the artificial of
    every other row, so with h >= 0 phase 1 takes no pivot.  Only the
    rows with h_i < 0 have an artificial column, so the phase-1 tableau
    of k rows with f such rows has 2d + k + f + 1 columns.  At a phase-1
    optimum with a positive sum of artificials, the slack reduced costs,
    clipped at 0, are a Farkas vector y: y >= 0, G^T y = 0, h^T y < 0.
    """
    G, h, obj = lp.G, lp.h, lp.obj
    k_all, d = G.shape

    kept = None
    empty = ~G.any(axis=1)
    if empty.any():
        violated = np.flatnonzero(empty & (h < -margin(FEAS_TOL, h)))
        if violated.size:
            y = np.zeros(k_all)
            y[violated[0]] = 1.0
            return LpOutcome(LpStatus.INFEASIBLE, farkas=y)
        kept = np.flatnonzero(~empty)
        G, h = G[kept], h[kept]
    k = G.shape[0]

    if k == 0:
        if np.all(obj == 0.0):
            return LpOutcome(LpStatus.OPTIMAL, x=np.zeros(d), value=0.0)
        ray = np.sign(obj)
        return LpOutcome(LpStatus.UNBOUNDED, ray=ray)

    # standard form [G, -G, I] z = h, z >= 0
    N = 2 * d + k
    A = np.hstack([G, -G, np.eye(k)])
    b = h.astype(float).copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # crash basis: a row with h_i >= 0 starts with its slack basic, a
    # flipped row with its artificial, columns N, N+1, ... in row order;
    # every artificial keeps cost 1
    f = int(flip.sum())
    T = np.hstack([A, np.eye(k)[:, flip], b[:, None]])
    basis = 2 * d + np.arange(k)
    basis[flip] = N + np.arange(f)
    bland_after = 2 * (k + d)
    max_iters = 5000 + 200 * (k + N)

    # phase 1: minimize sum of artificials
    red = np.zeros(N + f + 1)
    red[N : N + f] = 1.0
    red[: N + f] -= T[flip, : N + f].sum(axis=0)
    red[-1] = -T[flip, -1].sum()
    if _iterate(T, red, basis, bland_after, max_iters) is not None:
        raise SimplexError("phase-1 problem reported unbounded")

    if -red[-1] > margin(FEAS_TOL, np.max(np.abs(h), initial=0.0)):
        # infeasible; the phase-1 duals are the slack reduced costs
        farkas = np.clip(red[2 * d : N], 0.0, None)
        if kept is not None:
            full = np.zeros(k_all)
            full[kept] = farkas
            farkas = full
        return LpOutcome(LpStatus.INFEASIBLE, farkas=farkas)

    # drive leftover artificials out of the basis
    keep = np.ones(k, dtype=bool)
    for r in np.flatnonzero(basis >= N):
        piv_cols = np.flatnonzero(np.abs(T[r, :N]) > PIVOT_TOL)
        if piv_cols.size:
            _pivot(T, red, basis, r, int(piv_cols[0]))
        else:
            keep[r] = False

    # phase 2 on original cost (minimize -obj over split variables)
    T = np.hstack([T[keep, :N], T[keep, -1:]])
    basis = basis[keep]
    cost = np.concatenate([-obj, obj, np.zeros(k)])
    red = np.zeros(N + 1)
    red[:N] = cost - cost[basis] @ T[:, :N]
    red[-1] = -(cost[basis] @ T[:, -1])
    entering = _iterate(T, red, basis, bland_after, max_iters)

    if entering is not None:
        rz = np.zeros(N)
        rz[entering] = 1.0
        rz[basis] = -T[:, entering]
        ray = rz[:d] - rz[d : 2 * d]
        norm = np.max(np.abs(ray))
        if norm > 0:
            ray = ray / norm
        return LpOutcome(LpStatus.UNBOUNDED, ray=ray)

    z = np.zeros(N)
    z[basis] = T[:, -1]
    x = z[:d] - z[d : 2 * d]
    return LpOutcome(LpStatus.OPTIMAL, x=x, value=float(obj @ x))
