"""Interval arithmetic and the basis-stability certificate.

A problem is basis stable when one row basis B stays optimal for every
matrix in the interval family [A - D, A + D].  Stability is only
certified, never refuted: both conditions are sufficient, and an
unverified outcome is inconclusive.  Under a verified basis the optimal
value comes from a single LP over the dual box and an optimal point is
recovered through an explicit matrix in the family.

Rounding model.  Enclosures and interval products run on midpoint-radius
arrays (Rump, BIT 39, 1999) in IEEE double precision under the default
round-to-nearest, with u = 2**-53 and eta = 2**-1074, the smallest
subnormal.  No computed value is trusted, a point entry included:

- One operation: the exact a + b, a - b, a * b or a / b of two floats
  lies within one np.nextafter step of its rounded result (an underflow
  errs by at most eta / 2).
- A dot product of length k, summed in any order: the rounded result s
  differs from the exact one by at most gamma_k |a|^T |b| + k eta, where
  gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
  Algorithms, Thm 3.1, with the underflow term).  With S the rounded
  value of |a|^T |b|, this is at most gamma_2k S + 2k eta, which
  ``_dot_error`` evaluates upward.
- A radius, a sum of k nonnegative products computed as r, is at most
  r plus the same bound.

Every lower bound is pushed down and every upper bound up with
np.nextafter.  A bound that overflows widens its interval to the whole
line.  The scalar ``Interval`` is only a checked (lo, hi) record, the item
type of a box; it has no arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AvlpProblem, membership
from .simplex import FEAS_TOL, VERIFY_TOL, LinearProgram, margin, solve_lp


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], one entry of an ``IntervalVector``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


_U = 2.0**-53
_ETA = 2.0**-1074


def _next_down(x):
    return np.nextafter(x, -np.inf)


def _next_up(x):
    return np.nextafter(x, np.inf)


def _dot_error(S, k: int):
    """Upper bound on the rounding error of a dot product of length k
    whose computed |a|^T |b| is S: gamma_2k S + 2k eta, rounded up."""
    gamma = math.nextafter(2 * k * _U / math.nextafter(1.0 - 2 * k * _U, 0.0), math.inf)
    return _next_up(_next_up(gamma * S) + 2 * k * _ETA)


def _midrad(lo, hi):
    """Midpoint and radius whose interval [mid - rad, mid + rad] covers [lo, hi]."""
    mid = 0.5 * lo + 0.5 * hi
    return mid, _next_up(np.maximum(hi - mid, mid - lo))


def _mr_matvec(Am, Ar, xm, xr):
    """Bounds (lo, hi) of A x over |A - Am| <= Ar and |x - xm| <= xr.

    Exactly, A x lies in <Am xm, |Am| xr + Ar (|xm| + xr)> (Rump 1999); the
    centre and the radius are rounded and bounded by the dot-product rule.
    """
    k = Am.shape[-1]
    absAm = np.abs(Am)
    with np.errstate(over="ignore", invalid="ignore"):
        centre = Am @ xm
        rad = absAm @ xr + Ar @ _next_up(np.abs(xm) + xr)
        rad = _next_up(_next_up(rad + _dot_error(rad, 2 * k)) + _dot_error(absAm @ np.abs(xm), k))
        lo, hi = _next_down(centre - rad), _next_up(centre + rad)
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not np.all(finite):
        lo, hi = np.where(finite, lo, -np.inf), np.where(finite, hi, np.inf)
    return lo, hi


@dataclass(frozen=True, slots=True, eq=False)
class IntervalVector:
    """Box of n intervals held as one read-only (2, n) array: lower bounds
    in row 0, upper bounds in row 1.  Its length, indexing and iteration
    yield ``Interval`` objects."""

    bounds: np.ndarray

    def __post_init__(self):
        bounds = np.array(self.bounds, dtype=float)
        if bounds.ndim != 2 or bounds.shape[0] != 2:
            raise ValueError(f"bounds must have shape (2, n), got {bounds.shape}")
        if not np.all(bounds[0] <= bounds[1]):
            raise ValueError("empty interval in box")
        bounds.setflags(write=False)
        object.__setattr__(self, "bounds", bounds)

    @property
    def lo(self) -> np.ndarray:
        return self.bounds[0]

    @property
    def hi(self) -> np.ndarray:
        return self.bounds[1]

    def __len__(self) -> int:
        return self.bounds.shape[1]

    def __getitem__(self, i: int) -> Interval:
        lo, hi = self.bounds[:, i].tolist()
        return Interval(lo, hi)

    def __iter__(self):
        return (Interval(lo, hi) for lo, hi in self.bounds.T.tolist())


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

    @property
    def T(self) -> "IntervalMatrix":
        return IntervalMatrix(self.mid.T, self.rad.T)


def interval_matvec(M: IntervalMatrix, box: IntervalVector) -> IntervalVector:
    """Interval product of a matrix family with a box."""
    m, n = M.shape
    if len(box) != n:
        raise ValueError(f"box has length {len(box)}, expected {n}")
    return IntervalVector(np.stack(_mr_matvec(M.mid, M.rad, *_midrad(box.lo, box.hi))))


class EnclosureError(RuntimeError):
    pass


def _inflate(lo, hi, eps: float):
    pad = eps * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    return lo - pad, hi + pad


def enclose_solutions(M: IntervalMatrix, rhs) -> IntervalVector:
    """Box guaranteed to contain every solution of Ax = rhs over A in M.

    Preconditions by the midpoint inverse C, bounds the solution spread by
    a Neumann-type estimate, then certifies the result with a Krawczyk
    containment test (epsilon-inflated): the Krawczyk box must lie in the
    interior of the trial box, which also proves every matrix in M
    nonsingular.  Then tightens it with interval Gauss-Seidel sweeps.
    Raises EnclosureError when the preconditioned radius is too large or
    certification fails.
    """
    rhs = np.asarray(rhs, dtype=float).ravel()
    n = M.shape[0]
    if M.shape[0] != M.shape[1] or rhs.shape[0] != n:
        raise ValueError("need a square system with a matching right-hand side")
    Am, Ar = M.mid, M.rad
    if not (np.all(np.isfinite(Am)) and np.all(np.isfinite(Ar)) and np.all(np.isfinite(rhs))):
        raise EnclosureError("non-finite data")
    try:
        C = np.linalg.inv(Am)
    except np.linalg.LinAlgError as exc:
        raise EnclosureError("midpoint matrix is singular") from exc
    absC = np.abs(C)
    R = absC @ Ar
    # rough spectral bound: if ||R|| >= 1 the preconditioned family may
    # contain singular matrices and no finite enclosure exists this way
    norm = np.linalg.norm(R, ord=np.inf)
    eigbound = max(abs(np.linalg.eigvals(R))) if n <= 50 else norm
    if eigbound >= 1.0 - 1e-12:
        raise EnclosureError(
            f"preconditioned radius spectral bound {eigbound:.6g} >= 1"
        )
    x_mid = C @ rhs
    # z = C (rhs - [A] x_mid), and x_mid + z
    ax_lo, ax_hi = _mr_matvec(Am, Ar, x_mid, np.zeros(n))
    resid = _midrad(_next_down(rhs - ax_hi), _next_up(rhs - ax_lo))
    z_lo, z_hi = _mr_matvec(C, np.zeros((n, n)), *resid)
    xz_lo, xz_hi = _next_down(x_mid + z_lo), _next_up(x_mid + z_hi)
    # G = I - C [A] as midpoint and radius
    eye = np.eye(n)
    G_mid = eye - C @ Am
    G_rad = _next_up(_next_up(R + _dot_error(R, n)) + _dot_error(eye + absC @ np.abs(Am), n + 1))

    Gmag = np.abs(G_mid) + R
    try:
        spread = np.linalg.solve(eye - Gmag, np.maximum(np.abs(z_lo), np.abs(z_hi)))
    except np.linalg.LinAlgError as exc:
        raise EnclosureError("spread system singular") from exc
    spread = np.abs(spread) * (1.0 + 1e-10) + 1e-300
    lo, hi = _next_down(x_mid - spread), _next_up(x_mid + spread)

    # K(X) = x_mid + z + G (X - x_mid)
    certified = False
    for _ in range(10):
        X_lo, X_hi = _inflate(lo, hi, 1e-12)
        d = _midrad(_next_down(X_lo - x_mid), _next_up(X_hi - x_mid))
        g_lo, g_hi = _mr_matvec(G_mid, G_rad, *d)
        K_lo, K_hi = _next_down(xz_lo + g_lo), _next_up(xz_hi + g_hi)
        if np.all(X_lo < K_lo) and np.all(K_hi < X_hi):
            lo, hi = K_lo, K_hi
            certified = True
            break
        lo, hi = _inflate(lo, hi, 1e-8)
    if not certified:
        raise EnclosureError("containment certification failed")

    lo, hi = _gauss_seidel(Am, Ar, rhs, lo, hi)
    return IntervalVector(np.stack([lo, hi]))


def _gauss_seidel(Am, Ar, rhs, lo, hi):
    """Interval Gauss-Seidel sweeps x_i <- (rhs_i - sum_{j != i} A_ij x_j)
    / A_ii intersected with x_i, until no bound moves by more than 1e-15,
    at most 20 times."""
    n = len(rhs)
    off_mid, off_rad = Am.copy(), Ar.copy()
    np.fill_diagonal(off_mid, 0.0)
    np.fill_diagonal(off_rad, 0.0)
    piv_lo = _next_down(np.diag(Am) - np.diag(Ar)).tolist()
    piv_hi = _next_up(np.diag(Am) + np.diag(Ar)).tolist()
    lo, hi = lo.copy(), hi.copy()
    down, up = -math.inf, math.inf
    for _ in range(20):
        changed = False
        for i in range(n):
            p_lo, p_hi = piv_lo[i], piv_hi[i]
            if p_lo <= 0.0 <= p_hi:
                continue
            s_lo, s_hi = _mr_matvec(off_mid[i], off_rad[i], *_midrad(lo, hi))
            a_lo = math.nextafter(rhs[i] - s_hi, down)
            a_hi = math.nextafter(rhs[i] - s_lo, up)
            quots = (a_lo / p_lo, a_lo / p_hi, a_hi / p_lo, a_hi / p_hi)
            new_lo = max(math.nextafter(min(quots), down), lo[i])
            new_hi = min(math.nextafter(max(quots), up), hi[i])
            if new_lo > lo[i] + 1e-15 or new_hi < hi[i] - 1e-15:
                changed = True
            lo[i], hi[i] = new_lo, new_hi
        if not changed:
            break
    return lo, hi


@dataclass(frozen=True, slots=True)
class StabilityReport:
    basis: tuple[int, ...]
    condition1_verified: bool
    condition2_verified: bool
    y_box: IntervalVector | None = None
    x_box: IntervalVector | None = None
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
    active = [int(i) for i in np.nonzero(resid >= -margin(FEAS_TOL, p.b))[0]]
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
    cond1 = bool(np.all(y_box.lo >= 0.0))
    try:
        x_box = enclose_solutions(fam, p.b[list(B)])
    except EnclosureError as exc:
        return StabilityReport(B, cond1, False, y_box=y_box, reason=f"primal enclosure: {exc}")
    cond2 = True
    if N:
        fam_N = IntervalMatrix(p.A[N, :], p.D[N, :])
        cond2 = bool(np.all(interval_matvec(fam_N, x_box).hi <= p.b[N]))
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


def recover_x_star(p: AvlpProblem, B, y_star) -> np.ndarray:
    """Optimal point from the dual optimum: pick the matrix in the basis
    family whose transpose maps y* to c, then solve its square system.

    The construction scales each column of D_B by the residual ratio
    d_j = (A_B^T y* - c)_j / (D_B^T |y*|)_j and signs rows by sgn(y*);
    the residual bound |A_B^T y* - c| <= D_B^T |y*| guarantees |d| <= 1,
    so the matrix stays inside the family.  That bound is checked within
    margin(VERIFY_TOL, c_j), and c^T x* must meet b_B^T y* within
    margin(VERIFY_TOL, b_B^T y*).
    """
    B = list(B)
    y = np.asarray(y_star, dtype=float).ravel()
    A_B = p.A[B, :]
    D_B = p.D[B, :]
    resid = A_B.T @ y - p.c
    denom = D_B.T @ np.abs(y)
    if np.any(np.abs(resid) > denom + margin(VERIFY_TOL, p.c)):
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
    if abs(float(p.c @ x_star) - f_star) > margin(VERIFY_TOL, f_star):
        raise RuntimeError("recovered point misses the certified value")
    return x_star
