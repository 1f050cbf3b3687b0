"""Quadratic-program reformulation over split variables and the analysis of
its KKT conditions.

The problem max c^T x s.t. Ax - D|x| <= b maps onto the nonconvex QP
max c^T x1 - c^T x2 - alpha x1^T x2 over the split x = x1 - x2 with
x1, x2 >= 0.  For a large enough penalty alpha the optima coincide.  The
KKT points of that QP are however a weak certificate: the stationarity
system admits spurious noncomplementary solutions for essentially every
problem, and this module both tests for that and constructs witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AvlpProblem
from .simplex import FEAS_TOL, MEMBER_TOL, VALUE_TOL, LinearProgram, LpStatus, margin, solve_lp


@dataclass(frozen=True)
class QpReformulation:
    problem: AvlpProblem
    alpha: float
    lower: np.ndarray  # A - D, constraint block on x1
    upper: np.ndarray  # A + D, constraint block on x2

    def objective(self, x1, x2) -> float:
        c = self.problem.c
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return float(c @ x1 - c @ x2 - self.alpha * (x1 @ x2))

    def feasible(self, x1, x2) -> bool:
        """x1, x2 >= -MEMBER_TOL and the rows hold within margin(MEMBER_TOL, b_i)."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        if np.min(x1, initial=0.0) < -MEMBER_TOL or np.min(x2, initial=0.0) < -MEMBER_TOL:
            return False
        resid = self.lower @ x1 - self.upper @ x2 - self.problem.b
        return bool(np.all(resid <= margin(MEMBER_TOL, self.problem.b)))


@dataclass(frozen=True)
class KktPoint:
    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("x1", "x2", "u", "v", "w"):
            arr = np.asarray(getattr(self, name), dtype=float).ravel()
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class KktVerification:
    """Verdict pair for a candidate first-order point.

    valid covers stationarity, nonnegativity of all blocks, primal
    feasibility, and complementary slackness of the multipliers.
    complementary separately reports (x1)^T x2 = 0, which is what makes
    x = x1 - x2 a feasible point of the source problem; KKT points can be
    valid yet noncomplementary in this sense.
    """

    valid: bool
    complementary: bool
    violations: tuple[str, ...]
    noncomplementary_indices: tuple[int, ...]
    max_violation: float


def default_alpha(p: AvlpProblem) -> float:
    """Penalty scale 100 (1 + max absolute entry of the data)^2."""
    peak = max(
        float(np.max(np.abs(p.A), initial=0.0)),
        float(np.max(np.abs(p.D), initial=0.0)),
        float(np.max(np.abs(p.b), initial=0.0)),
        float(np.max(np.abs(p.c), initial=0.0)),
    )
    return 100.0 * (1.0 + peak) ** 2


def build_qp(p: AvlpProblem, alpha="auto") -> QpReformulation:
    if alpha == "auto":
        alpha = default_alpha(p)
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return QpReformulation(p, alpha, p.A - p.D, p.A + p.D)


def verify_kkt(qp: QpReformulation, b, pt: KktPoint) -> KktVerification:
    """Check the first-order system of the split QP at the given point,
    for the given right-hand side.

    Stationarity: u = -c + alpha x2 + (A-D)^T w and
    v = c + alpha x1 - (A+D)^T w.  Nonnegativity covers all five blocks,
    feasibility is (A-D)x1 - (A+D)x2 <= b, and multiplier complementarity
    is u^T x1 = v^T x2 = w^T (b - (A-D)x1 + (A+D)x2) = 0.  Each residual
    and each product x1_i x2_i is compared with FEAS_TOL.
    """
    b = np.asarray(b, dtype=float).ravel()
    c = qp.problem.c
    slack = b - qp.lower @ pt.x1 + qp.upper @ pt.x2
    violations = []
    errs = [0.0]

    def check(name, err):
        errs.append(err)
        if err > FEAS_TOL:
            violations.append(name)

    check(
        "stationarity-u",
        float(np.max(np.abs(pt.u - (-c + qp.alpha * pt.x2 + qp.lower.T @ pt.w)), initial=0.0)),
    )
    check(
        "stationarity-v",
        float(np.max(np.abs(pt.v - (c + qp.alpha * pt.x1 - qp.upper.T @ pt.w)), initial=0.0)),
    )
    for name, arr in (("x1", pt.x1), ("x2", pt.x2), ("u", pt.u), ("v", pt.v), ("w", pt.w)):
        check(f"nonnegativity-{name}", -float(np.min(arr, initial=0.0)))
    check("primal-feasibility", -float(np.min(slack, initial=0.0)))
    check(
        "complementary-slackness",
        max(abs(float(pt.u @ pt.x1)), abs(float(pt.v @ pt.x2)), abs(float(pt.w @ slack))),
    )
    noncomp = tuple(
        int(i) for i in np.nonzero(pt.x1 * pt.x2 > FEAS_TOL)[0]
    )
    return KktVerification(
        valid=not violations,
        complementary=not noncomp,
        violations=tuple(violations),
        noncomplementary_indices=noncomp,
        max_violation=max(errs),
    )


@dataclass(frozen=True)
class GlobalKktReport:
    holds_for_all_b: bool
    witness_w: np.ndarray | None
    witness_index: int | None
    margin: float


def kkt_global_property(p: AvlpProblem) -> GlobalKktReport:
    """Decide whether, for every right-hand side b, all KKT points of the
    split QP are complementary in the multiplier sense.

    The property fails exactly when some w >= 0 satisfies the two-sided
    system (A-D)^T w <= c <= (A+D)^T w with strict slack in both bounds at
    a common index.  Each index is probed with one LP maximizing the
    smaller of the two slacks there.
    """
    m, n = p.m, p.n
    L = p.A - p.D
    U = p.A + p.D
    base_G = [L.T, -U.T, -np.eye(m)]
    base_h = [p.c, -p.c, np.zeros(m)]

    def probe(i):
        # variables (w, delta)
        G = np.vstack(
            [
                np.hstack([np.vstack(base_G), np.zeros((2 * n + m, 1))]),
                np.hstack([np.zeros((1, m)), np.ones((1, 1))]),  # delta <= 1
                np.hstack([L.T[[i]], np.ones((1, 1))]),  # L^T w + d <= c_i
                np.hstack([-U.T[[i]], np.ones((1, 1))]),  # -U^T w + d <= -c_i
            ]
        )
        h = np.concatenate([np.concatenate(base_h), [1.0, p.c[i], -p.c[i]]])
        obj = np.zeros(m + 1)
        obj[m] = 1.0
        return solve_lp(LinearProgram(G, h, obj))

    best_margin = -np.inf
    for i in range(n):
        out = probe(i)
        if out.status is LpStatus.INFEASIBLE:
            continue
        if out.is_optimal and out.value > FEAS_TOL:
            return GlobalKktReport(False, out.x[:m], i, out.value)
        if out.is_optimal:
            best_margin = max(best_margin, out.value)
    return GlobalKktReport(True, None, None, best_margin)


def construct_kkt_counterexample(
    p: AvlpProblem, w, alpha="auto"
) -> tuple[np.ndarray, KktPoint]:
    """From a multiplier vector w >= 0 with strict two-sided slack, build a
    right-hand side b and a noncomplementary KKT point of the split QP:
    x1 = (1/alpha)(-c + (A+D)^T w)^+, x2 = (1/alpha)(c - (A-D)^T w)^+,
    with u, v from stationarity and b chosen to make all constraints tight.
    """
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != p.m:
        raise ValueError(f"w has length {w.shape[0]}, expected {p.m}")
    if np.any(w < 0):
        raise ValueError("w must be nonnegative")
    if alpha == "auto":
        alpha = default_alpha(p)
    alpha = float(alpha)
    L = p.A - p.D
    U = p.A + p.D
    c = p.c
    x1 = np.clip((-c + U.T @ w) / alpha, 0.0, None)
    x2 = np.clip((c - L.T @ w) / alpha, 0.0, None)
    u = -c + alpha * x2 + L.T @ w
    v = c + alpha * x1 - U.T @ w
    b = L @ x1 - U @ x2
    return b, KktPoint(x1=x1, x2=x2, u=u, v=v, w=w)


@dataclass(frozen=True)
class LpPartReport:
    verdict: str  # "confirmed", "refuted", or "inapplicable"
    x_star: np.ndarray | None = None
    lp_value: float | None = None
    avlp_value: float | None = None
    reason: str | None = None


def optimum_on_lp_part(p: AvlpProblem) -> LpPartReport:
    """When the global complementarity property holds, an optimum of the
    problem is attained on the D-free part {x : Ax <= b} whenever that
    part is nonempty and the problem has an optimum.  This solves the
    plain LP max c^T x s.t. Ax <= b and compares with the exact optimum.

    Returns inapplicable when a hypothesis fails, confirmed when the two
    values agree within margin(VALUE_TOL, exact optimum), refuted otherwise.
    """
    from .exact import SolveStatus, solve_exact

    if not kkt_global_property(p).holds_for_all_b:
        return LpPartReport("inapplicable", reason="complementarity property fails")
    lp_out = solve_lp(LinearProgram(p.A, p.b, p.c))
    if not lp_out.is_optimal:
        return LpPartReport(
            "inapplicable", reason=f"LP part is {lp_out.status.name.lower()}"
        )
    rep = solve_exact(p)
    if rep.status != SolveStatus.OPTIMAL:
        return LpPartReport("inapplicable", reason=f"problem is {rep.status}")
    agree = abs(lp_out.value - rep.f_star) <= margin(VALUE_TOL, rep.f_star)
    return LpPartReport(
        "confirmed" if agree else "refuted",
        x_star=lp_out.x,
        lp_value=lp_out.value,
        avlp_value=rep.f_star,
    )
