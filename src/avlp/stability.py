"""Interval arithmetic and the basis-stability certificate.

A problem is basis stable when one row basis B stays optimal for every
matrix in the interval family [A - D, A + D].  Stability is only
certified, never refuted: both conditions are sufficient, and an
unverified outcome is inconclusive.  Under a verified basis the optimal
value comes from a single LP over the dual box and an optimal point is
recovered through an explicit matrix in the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AvlpProblem, membership
from .simplex import LinearProgram, solve_lp

_WIDEN_ULPS = 4


def _down(x: float) -> float:
    for _ in range(_WIDEN_ULPS):
        x = math.nextafter(x, -math.inf)
    return x


def _up(x: float) -> float:
    for _ in range(_WIDEN_ULPS):
        x = math.nextafter(x, math.inf)
    return x


@dataclass(frozen=True)
class Interval:
    """Closed interval with outward-widened arithmetic.

    Every operation widens its result by a few ulps in both directions to
    absorb rounding, except when both operands are points: the product or
    sum of degenerate intervals is the exact floating-point result.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v: float) -> "Interval":
        v = float(v)
        return Interval(v, v)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rad(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def mag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def _wrap(self, lo: float, hi: float, exact: bool) -> "Interval":
        if exact:
            return Interval(lo, hi)
        return Interval(_down(lo), _up(hi))

    def __add__(self, other: "Interval") -> "Interval":
        exact = self.is_point and other.is_point
        return self._wrap(self.lo + other.lo, self.hi + other.hi, exact)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        exact = self.is_point and other.is_point
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return self._wrap(min(prods), max(prods), exact)

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        exact = self.is_point and other.is_point
        quots = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return self._wrap(min(quots), max(quots), exact)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def subset_of(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def inflate(self, eps: float) -> "Interval":
        pad = eps * (1.0 + self.mag)
        return Interval(self.lo - pad, self.hi + pad)


@dataclass(frozen=True)
class IntervalMatrix:
    """Matrix family [mid - rad, mid + rad] with rad >= 0."""

    mid: np.ndarray
    rad: np.ndarray

    def __post_init__(self):
        mid = np.atleast_2d(np.asarray(self.mid, dtype=float))
        rad = np.atleast_2d(np.asarray(self.rad, dtype=float))
        if mid.shape != rad.shape:
            raise ValueError(f"shape mismatch {mid.shape} vs {rad.shape}")
        if np.any(rad < 0):
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "rad", rad)

    @property
    def shape(self):
        return self.mid.shape

    def entry(self, i: int, j: int) -> Interval:
        m, r = self.mid[i, j], self.rad[i, j]
        if r == 0.0:
            return Interval.point(m)
        return Interval(m - r, m + r)

    @property
    def T(self) -> "IntervalMatrix":
        return IntervalMatrix(self.mid.T, self.rad.T)

    def contains_matrix(self, M, tol: float = 0.0) -> bool:
        M = np.asarray(M, dtype=float)
        return bool(np.all(np.abs(M - self.mid) <= self.rad + tol))


def interval_matvec(M: IntervalMatrix, box: list[Interval]) -> list[Interval]:
    """Interval product of a matrix family with a box of intervals."""
    m, n = M.shape
    if len(box) != n:
        raise ValueError(f"box has length {len(box)}, expected {n}")
    out = []
    for i in range(m):
        acc = Interval.point(0.0)
        for j in range(n):
            acc = acc + M.entry(i, j) * box[j]
        out.append(acc)
    return out


class EnclosureError(RuntimeError):
    pass


def enclose_solutions(
    M: IntervalMatrix, rhs, refine: bool = True, max_sweeps: int = 20
) -> list[Interval]:
    """Box guaranteed to contain every solution of Ax = rhs over A in M.

    Preconditions by the midpoint inverse C, bounds the solution spread by
    a Neumann-type estimate, then certifies the result with a Krawczyk
    containment test (epsilon-inflated) and optionally tightens it with
    interval Gauss-Seidel sweeps.  Raises EnclosureError when the
    preconditioned radius is too large or certification fails.
    """
    rhs = np.asarray(rhs, dtype=float).ravel()
    n = M.shape[0]
    if M.shape[0] != M.shape[1] or rhs.shape[0] != n:
        raise ValueError("need a square system with a matching right-hand side")
    try:
        C = np.linalg.inv(M.mid)
    except np.linalg.LinAlgError as exc:
        raise EnclosureError("midpoint matrix is singular") from exc
    R = np.abs(C) @ M.rad
    # rough spectral bound: if ||R|| >= 1 the preconditioned family may
    # contain singular matrices and no finite enclosure exists this way
    norm = np.linalg.norm(R, ord=np.inf)
    eigbound = max(abs(np.linalg.eigvals(R))) if n <= 50 else norm
    if eigbound >= 1.0 - 1e-12:
        raise EnclosureError(
            f"preconditioned radius spectral bound {eigbound:.6g} >= 1"
        )
    x_mid = C @ rhs
    # interval evaluation of z = C (rhs - [A] x_mid)
    z = []
    for i in range(n):
        acc = Interval.point(0.0)
        for j in range(n):
            resid = Interval.point(rhs[j]) - interval_matvec(
                IntervalMatrix(M.mid[j : j + 1, :], M.rad[j : j + 1, :]),
                [Interval.point(v) for v in x_mid],
            )[0]
            acc = acc + Interval.point(C[i, j]) * resid
        z.append(acc)
    Gmag = np.abs(np.eye(n) - C @ M.mid) + R
    try:
        spread = np.linalg.solve(np.eye(n) - Gmag, np.array([iv.mag for iv in z]))
    except np.linalg.LinAlgError as exc:
        raise EnclosureError("spread system singular") from exc
    spread = np.abs(spread) * (1.0 + 1e-10) + 1e-300
    box = [
        Interval(_down(x_mid[i] - spread[i]), _up(x_mid[i] + spread[i]))
        for i in range(n)
    ]

    def krawczyk(X: list[Interval]) -> list[Interval]:
        out = []
        for i in range(n):
            acc = z[i]
            for j in range(n):
                g = Interval.point(1.0 if i == j else 0.0)
                for k in range(n):
                    g = g - Interval.point(C[i, k]) * M.entry(k, j)
                acc = acc + g * (X[j] - Interval.point(x_mid[j]))
            out.append(Interval.point(x_mid[i]) + acc)
        return out

    certified = False
    for _ in range(10):
        inflated = [iv.inflate(1e-12) for iv in box]
        K = krawczyk(inflated)
        if all(K[i].subset_of(inflated[i]) for i in range(n)):
            box = [K[i].intersect(inflated[i]) for i in range(n)]
            certified = True
            break
        box = [iv.inflate(1e-8) for iv in box]
    if not certified:
        raise EnclosureError("containment certification failed")

    if refine:
        for _ in range(max_sweeps):
            changed = False
            for i in range(n):
                acc = Interval.point(rhs[i])
                for j in range(n):
                    if j != i:
                        acc = acc - M.entry(i, j) * box[j]
                piv = M.entry(i, i)
                if piv.lo <= 0.0 <= piv.hi:
                    continue
                new = (acc / piv).intersect(box[i])
                if new.lo > box[i].lo + 1e-15 or new.hi < box[i].hi - 1e-15:
                    changed = True
                box[i] = new
            if not changed:
                break
    return box


@dataclass(frozen=True)
class StabilityReport:
    basis: tuple[int, ...]
    condition1_verified: bool
    condition2_verified: bool
    y_box: list[Interval] | None = None
    x_box: list[Interval] | None = None
    f_star: float | None = None
    x_star: np.ndarray | None = None
    reason: str | None = None

    @property
    def verified(self) -> bool:
        return self.condition1_verified and self.condition2_verified


def _basis_family(p: AvlpProblem, B) -> IntervalMatrix:
    B = list(B)
    return IntervalMatrix(p.A[B, :], p.D[B, :])


def default_basis(p: AvlpProblem) -> tuple[int, ...]:
    """Optimal active rows of the midpoint LP (the problem with D = 0),
    completed to n rows if degenerate."""
    out = solve_lp(LinearProgram(p.A, p.b, p.c))
    if not out.is_optimal:
        raise ValueError(f"midpoint LP is {out.status.name.lower()}, no basis")
    resid = p.A @ out.x - p.b
    active = [int(i) for i in np.nonzero(resid >= -1e-8 * (1.0 + np.abs(p.b)))[0]]
    chosen: list[int] = []
    for i in active:
        trial = chosen + [i]
        if np.linalg.matrix_rank(p.A[trial, :]) == len(trial):
            chosen.append(i)
        if len(chosen) == p.n:
            break
    if len(chosen) < p.n:
        raise ValueError("midpoint LP basis is rank deficient")
    return tuple(chosen)


def basis_stability_check(p: AvlpProblem, B=None) -> StabilityReport:
    """Sufficient certificate that basis B is optimal for the whole family.

    Condition 1: the enclosure of the dual systems [A +- D]_B^T y = c lies
    in y >= 0.  Condition 2: with the x-enclosure of [A +- D]_B x = b_B,
    the interval product over the nonbasic rows stays below b_N.
    """
    if B is None:
        B = default_basis(p)
    B = tuple(int(i) for i in B)
    if len(B) != p.n:
        raise ValueError(f"basis size {len(B)}, expected {p.n}")
    N = [i for i in range(p.m) if i not in B]
    fam = _basis_family(p, B)
    try:
        y_box = enclose_solutions(fam.T, p.c)
    except EnclosureError as exc:
        return StabilityReport(B, False, False, reason=f"dual enclosure: {exc}")
    cond1 = all(iv.lo >= 0.0 for iv in y_box)
    try:
        x_box = enclose_solutions(fam, p.b[list(B)])
    except EnclosureError as exc:
        return StabilityReport(B, cond1, False, y_box=y_box, reason=f"primal enclosure: {exc}")
    cond2 = True
    if N:
        fam_N = IntervalMatrix(p.A[N, :], p.D[N, :])
        z = interval_matvec(fam_N, x_box)
        cond2 = all(z[i].hi <= p.b[N[i]] for i in range(len(N)))
    report = StabilityReport(B, cond1, cond2, y_box=y_box, x_box=x_box)
    if report.verified:
        f_star, y_star = stable_optimal_value(p, B)
        x_star = recover_x_star(p, B, y_star)
        report = StabilityReport(
            B, cond1, cond2, y_box=y_box, x_box=x_box, f_star=f_star, x_star=x_star
        )
    return report


def stable_optimal_value(p: AvlpProblem, B) -> tuple[float, np.ndarray]:
    """Optimal value under verified stability: the LP
    max b_B^T y s.t. (A - D)_B^T y <= c <= (A + D)_B^T y, y >= 0."""
    B = list(B)
    L = (p.A - p.D)[B, :].T
    U = (p.A + p.D)[B, :].T
    n = len(B)
    G = np.vstack([L, -U, -np.eye(n)])
    h = np.concatenate([p.c, -p.c, np.zeros(n)])
    out = solve_lp(LinearProgram(G, h, p.b[B]))
    if not out.is_optimal:
        raise RuntimeError(
            f"stable-value LP is {out.status.name.lower()}; the stability "
            "verdict does not hold for this basis"
        )
    return out.value, out.x


def recover_x_star(p: AvlpProblem, B, y_star, tol: float = 1e-7) -> np.ndarray:
    """Optimal point from the dual optimum: pick the matrix in the basis
    family whose transpose maps y* to c, then solve its square system.

    The construction scales each column of D_B by the residual ratio
    d_j = (A_B^T y* - c)_j / (D_B^T |y*|)_j and signs rows by sgn(y*);
    the residual bound |A_B^T y* - c| <= D_B^T |y*| guarantees |d| <= 1,
    so the matrix stays inside the family.
    """
    B = list(B)
    y = np.asarray(y_star, dtype=float).ravel()
    A_B = p.A[B, :]
    D_B = p.D[B, :]
    resid = A_B.T @ y - p.c
    denom = D_B.T @ np.abs(y)
    if np.any(np.abs(resid) > denom + tol * (1.0 + np.abs(p.c))):
        raise ValueError("y* does not satisfy the family residual bound")
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(denom > 0, resid / np.where(denom > 0, denom, 1.0), 0.0)
    d = np.clip(d, -1.0, 1.0)
    delta = (np.sign(y)[:, None] * D_B) * d[None, :]
    A_tilde = A_B - delta
    x_star = np.linalg.solve(A_tilde, p.b[B])
    ok, _ = membership(p, x_star)
    if not ok:
        raise RuntimeError("recovered point is not feasible")
    f_star = float(p.b[B] @ y)
    if abs(float(p.c @ x_star) - f_star) > tol * (1.0 + abs(f_star)):
        raise RuntimeError("recovered point misses the certified value")
    return x_star
