"""Canonical data model for linear programs with absolute values.

The canonical problem is ``max c^T x  s.t.  A x - D |x| <= b`` with D >= 0
entrywise.  This module provides the problem types, normalization of
sign-unrestricted D, and membership evaluation.  It also holds the LP
builders: the secant relaxation of a sign-tree node, whose all-fixed case
is the restriction to a sign orthant (where the problem becomes a plain
LP), and the split LP relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import MEMBER_TOL, LinearProgram, margin


class DimensionError(ValueError):
    """Matrix/vector shapes do not agree."""


def sgn(x) -> np.ndarray:
    """Entrywise sign with the convention sgn(r) = 1 for r >= 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class SignVector:
    """Element of {-1, 0, +1}^n selecting an orthant."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if any(e not in (-1, 0, 1) for e in entries):
            raise ValueError("sign vector entries must be in {-1, 0, +1}")
        object.__setattr__(self, "entries", tuple(int(e) for e in entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_strict(self) -> bool:
        return all(e != 0 for e in self.entries)


def _check_shapes(A, D, b, c):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    if A.shape != D.shape:
        raise DimensionError(f"A {A.shape} and D {D.shape} must share shape")
    if b.shape[0] != A.shape[0]:
        raise DimensionError(f"b has length {b.shape[0]}, expected {A.shape[0]}")
    if c.shape[0] != A.shape[1]:
        raise DimensionError(f"c has length {c.shape[0]}, expected {A.shape[1]}")
    for name, arr in (("A", A), ("D", D), ("b", b), ("c", c)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"field {name!r} has a non-finite entry")
    return A, D, b, c


@dataclass(frozen=True)
class RawProblem:
    """max c^T x  s.t.  A x - D |x| <= b, with D unrestricted in sign."""

    A: np.ndarray
    D: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        given = (self.A, self.D, self.b, self.c)
        for name, arr, src in zip("ADbc", _check_shapes(*given), given):
            if isinstance(src, np.ndarray) and arr.flags.writeable:
                arr = arr.copy()  # the caller's array or a view of it stays theirs
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class AvlpProblem(RawProblem):
    """max c^T x  s.t.  A x - D |x| <= b, with D >= 0."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.D < 0):
            raise ValueError("field 'D' must be nonnegative entrywise; use normalize() first")

    def with_rhs(self, b) -> "AvlpProblem":
        return AvlpProblem(self.A, self.D, b, self.c)

    def with_objective(self, c) -> "AvlpProblem":
        return AvlpProblem(self.A, self.D, self.b, c)


def normalize(raw: RawProblem) -> AvlpProblem:
    """Rewrite a problem with sign-unrestricted D into canonical form.

    Splits D = D+ - D- and introduces y with -y <= x <= y, giving rows
    A x - D+|x| + D- y <= b over the doubled variable vector (x, y).
    If D is already nonnegative the problem is returned unchanged.
    """
    if np.all(raw.D >= 0):
        return AvlpProblem(raw.A, raw.D, raw.b, raw.c)
    m, n = raw.m, raw.n
    Dp = np.maximum(raw.D, 0.0)
    Dm = np.maximum(-raw.D, 0.0)
    eye = np.eye(n)
    zeros_mn = np.zeros((m, n))
    A2 = np.vstack(
        [
            np.hstack([raw.A, Dm]),
            np.hstack([eye, -eye]),
            np.hstack([-eye, -eye]),
        ]
    )
    D2 = np.vstack(
        [
            np.hstack([Dp, zeros_mn]),
            np.zeros((2 * n, 2 * n)),
        ]
    )
    b2 = np.concatenate([raw.b, np.zeros(2 * n)])
    c2 = np.concatenate([raw.c, np.zeros(n)])
    return AvlpProblem(A2, D2, b2, c2)


def orthant_restriction(p: AvlpProblem, s) -> LinearProgram:
    """LP obtained by restricting the problem to the orthant diag(s) x >= 0,
    for a sign array s (entries in {-1, 0, +1}) or a SignVector.

    Within the orthant |x| = diag(s) x, so the constraints become
    (A - D diag(s)) x <= b together with -diag(s) x <= 0.  This is
    ``secant_relaxation`` with every sign fixed.

    A zero entry in s leaves that coordinate unconstrained; this is only
    sound when the matching column of D is zero, since then |x_j| never
    enters the system.
    """
    return secant_relaxation(p, s.entries if isinstance(s, SignVector) else s)


def split_relaxation(p: RawProblem) -> LinearProgram:
    """LP relaxation in split form x = p - q, t = p + q, p, q >= 0, with t
    standing in for |x|:

        max c^T p - c^T q  s.t.  (A - D) p - (A + D) q <= b.

    The variables are p, then q; the rows are those of the problem, then
    -p, -q <= 0.  D may have either sign: with D >= 0, when optimal, its
    value bounds the exact optimum; with -D in place of D it is the split
    relaxation of A x + D|x| <= b.
    """
    n = p.n
    G = np.vstack([np.hstack([p.A - p.D, -(p.A + p.D)]), -np.eye(2 * n)])
    h = np.concatenate([p.b, np.zeros(2 * n)])
    return LinearProgram(G, h, np.concatenate([p.c, -p.c]))


def secant(l, u) -> tuple[np.ndarray, np.ndarray]:
    """Slope and intercept of the secant of |x| on [l, u], l < 0 < u: the
    least concave function that is >= |x| there, equal to it at both ends."""
    return (u + l) / (u - l), -2.0 * u * l / (u - l)


def secant_relaxation(p: AvlpProblem, signs, bounds=None) -> LinearProgram:
    """LP relaxation in x of the points whose signs match ``signs``
    (entries in {-1, 0, +1}, 0 meaning free) within ``bounds = (l, u)``:

        max c^T x  s.t.  A x - D tau(x) <= b,  -s_j x_j <= 0 (s_j fixed),
                         x_j <= u_j, -x_j <= -l_j (s_j free, D column nonzero),

    where tau_j(x_j) is s_j x_j = |x_j| on a fixed coordinate and the
    ``secant`` of |x_j| on [l_j, u_j] on a free one with a nonzero column
    of D (such coordinates need l_j < 0 < u_j).  As D >= 0, this is the
    split relaxation t >= |x| with t capped by the secant, projected onto
    x.  With every nonzero column of D fixed it is the orthant LP, which
    needs no bounds; a free sign on a nonzero column of D without bounds
    raises ValueError.
    """
    signs = np.asarray(signs)
    if signs.shape != (p.n,):
        raise DimensionError(f"sign vector shape {signs.shape}, expected ({p.n},)")
    fixed = signs != 0
    capped = np.flatnonzero(~fixed & np.any(p.D != 0, axis=0))
    slope = signs.astype(float)
    if capped.size == 0:
        sign_rows = -np.diag(slope)[fixed]
        return LinearProgram(np.vstack([p.A - p.D * slope, sign_rows]),
                             np.concatenate([p.b, np.zeros(sign_rows.shape[0])]), p.c)
    if bounds is None:
        raise ValueError(
            "zero sign entries are only allowed for coordinates whose column "
            "of D is zero"
        )
    l, u = bounds
    intercept = np.zeros(p.n)
    slope[capped], intercept[capped] = secant(l[capped], u[capped])
    eye = np.eye(p.n)
    G = np.vstack([p.A - p.D * slope, -eye[fixed] * signs[fixed, None], eye[capped], -eye[capped]])
    h = np.concatenate([p.b + p.D @ intercept, np.zeros(np.count_nonzero(fixed)),
                        u[capped], -l[capped]])
    return LinearProgram(G, h, p.c)


def membership(
    p: AvlpProblem, x, tol: float = MEMBER_TOL
) -> tuple[bool, np.ndarray]:
    """Evaluate A x - D|x| <= b at x; returns (feasible, residual vector).

    Feasibility allows margin(tol, b_i) per row.  A point with a non-finite
    entry raises ValueError.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != p.n:
        raise DimensionError(f"point has length {x.shape[0]}, expected {p.n}")
    if not np.isfinite(x).all():
        raise ValueError("point has a non-finite entry")
    residual = p.A @ x - p.D @ np.abs(x) - p.b
    ok = bool(np.all(residual <= margin(tol, p.b)))
    return ok, residual


def nonzero_columns(D) -> list[int]:
    """Indices of nonzero columns of D; their count drives orthant enumeration."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return [j for j in range(D.shape[1]) if np.any(D[:, j] != 0.0)]
