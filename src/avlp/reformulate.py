"""Compilers from richer models into canonical absolute-value form.

Supported sources: 0-1 integer LPs, disjunctions of inequalities,
disjunctions of equation systems, unions of polyhedra (with logarithmically
many auxiliary variables), and per-orthant convex descriptions (no new
variables, verified per orthant).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import AvlpProblem, SignVector, orthant_restriction
from .exact import _solve, find_feasible_point, sign_vectors
from .simplex import MEMBER_TOL, VERIFY_TOL, LpStatus, margin
from .simplex import solve_lp  # noqa: F401  (a binding avlpbench's tracer test reads)


class ReformulationError(ValueError):
    pass


class OrthantConvexVerificationError(ReformulationError):
    """Raised when no admissible scaling makes the single-inequality
    construction valid; carries the offending orthant/row pairs."""

    def __init__(self, offending, alpha):
        self.offending = offending
        self.alpha = alpha
        super().__init__(
            f"orthant-convex encoding unverifiable up to alpha={alpha:g}; "
            f"offending (orthant, row) pairs: {offending}"
        )


@dataclass(frozen=True)
class VarRole:
    role: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class Encoding:
    problem: AvlpProblem
    original_vars: tuple[int, ...]
    aux_vars: tuple[VarRole, ...] = ()
    meta: dict = field(default_factory=dict)

    @property
    def num_aux(self) -> int:
        return sum(len(r.indices) for r in self.aux_vars)


def _slice_membership(enc: Encoding, x) -> bool:
    """Whether some auxiliary completion z of x satisfies the encoded
    system: a search of the sign orthants of the slice at x,
    A_aux z - D_aux |z| <= b - A_orig x + D_orig |x|, for a feasible z.
    With no auxiliary variables the slice has no columns and its one LP
    checks the rows."""
    p = enc.problem
    orig = list(enc.original_vars)
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != len(orig):
        raise ReformulationError(f"point has length {x.shape[0]}, expected {len(orig)}")
    if not np.isfinite(x).all():
        raise ReformulationError("point has a non-finite entry")
    aux = np.ones(p.n, dtype=bool)
    aux[orig] = False
    rhs = p.b - p.A[:, orig] @ x + p.D[:, orig] @ np.abs(x)
    z_slice = AvlpProblem(p.A[:, aux], p.D[:, aux], rhs, np.zeros(np.count_nonzero(aux)))
    return find_feasible_point(z_slice) is not None


def encoding_membership(enc: Encoding, x) -> bool:
    """Projected membership: does some auxiliary completion of x satisfy
    the encoded system?  Decided by searching the slice at x.
    ``union_membership`` runs the same search; the two stay separate
    functions so that a tracer or profiler that wraps functions tells the
    two queries apart."""
    return _slice_membership(enc, x)


# ---------------------------------------------------------------------------
# 0-1 integer linear programs


def ilp01_to_avlp(A, b, c) -> Encoding:
    """Encode max c^T x s.t. A x <= b, x in {0,1}^n.

    Variables (x, y) with 2x - y = e and |y| = e; only the y-columns of D
    are nonzero, so orthant enumeration stays at 2^n.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    m, n = A.shape
    eye = np.eye(n)
    zmn = np.zeros((m, n))
    znn = np.zeros((n, n))
    e = np.ones(n)
    A2 = np.vstack(
        [
            np.hstack([A, zmn]),
            np.hstack([2 * eye, -eye]),
            np.hstack([-2 * eye, eye]),
            np.hstack([znn, znn]),
            np.hstack([znn, eye]),
            np.hstack([znn, -eye]),
        ]
    )
    D2 = np.zeros_like(A2)
    D2[m + 2 * n : m + 3 * n, n:] = eye
    b2 = np.concatenate([b, e, -e, -e, e, e])
    c2 = np.concatenate([c, np.zeros(n)])
    problem = AvlpProblem(A2, D2, b2, c2)
    return Encoding(
        problem,
        original_vars=tuple(range(n)),
        aux_vars=(VarRole("binary-indicators", tuple(range(n, 2 * n))),),
    )


# ---------------------------------------------------------------------------
# disjunctions


def _residual(row, n: int, nv: int) -> np.ndarray:
    """The expression g^T x - h of row = (g, h), x being the first n of the
    nv variables.  Here an affine expression over nv variables is one array
    of length nv + 1: the coefficients, then the constant."""
    g, h = row
    expr = np.zeros(nv + 1)
    expr[:n] = np.asarray(g, dtype=float).ravel()
    expr[-1] = -float(h)
    return expr


class _RowBuilder:
    def __init__(self, nv: int):
        self.nv = nv
        self.A: list[np.ndarray] = []
        self.D: list[np.ndarray] = []
        self.b: list[float] = []

    def leq(self, expr: np.ndarray, abs_col: int | None = None):
        """Append row expr(v) - |v_abs_col| <= 0 (expr(v) <= 0 without one)."""
        drow = np.zeros(self.nv)
        if abs_col is not None:
            drow[abs_col] = 1.0
        self.A.append(expr[:-1])
        self.D.append(drow)
        self.b.append(-expr[-1])

    def equal(self, expr: np.ndarray):
        """Append rows expr(v) = 0 (two inequalities)."""
        self.leq(expr)
        self.leq(-1.0 * expr)

    def build(self, obj) -> AvlpProblem:
        return AvlpProblem(np.array(self.A), np.array(self.D), np.array(self.b), obj)


def disjunction_ineq_to_avlp(terms, n: int) -> Encoding:
    """Encode f_1(x) <= 0 OR ... OR f_k(x) <= 0 for affine terms
    f_i(x) = g_i^T x - h_i given as (g_i, h_i) pairs.

    Uses the identity 2 min(a, b) = a + b - |a - b| folded over the terms.
    Each fold introduces a residual variable t (an equality) whose absolute
    value enters a single row; inner folds also introduce a bound variable
    w <= |t| standing in for the nested absolute value.  The projection to
    x is exactly the disjunction.
    """
    terms = list(terms)
    k = len(terms)
    if k < 2:
        raise ReformulationError("disjunction needs at least two terms")
    num_t = k - 1
    num_w = max(k - 2, 0)
    nv = n + num_t + num_w
    t0, w0 = n, n + num_t
    unit = np.eye(nv + 1)

    rb = _RowBuilder(nv)
    E = _residual(terms[k - 1], n, nv)
    scale = 1.0
    ti = num_t - 1
    wi = num_w - 1
    for j in range(k - 2, -1, -1):
        f = _residual(terms[j], n, nv)
        t = t0 + ti
        ti -= 1
        rb.equal(unit[t] - (scale * f - E))
        if j > 0:
            w = w0 + wi
            wi -= 1
            rb.leq(unit[w], abs_col=t)  # w <= |t|
            E = scale * f + E - unit[w]
            scale *= 2.0
        else:
            rb.leq(scale * f + E, abs_col=t)
    problem = rb.build(np.zeros(nv))
    aux = [VarRole("min-residuals", tuple(range(t0, t0 + num_t)))]
    if num_w:
        aux.append(VarRole("abs-bounds", tuple(range(w0, w0 + num_w))))
    return Encoding(problem, original_vars=tuple(range(n)), aux_vars=tuple(aux))


def disjunction_eq_to_avlp(F, G, n: int, mode: str = "corrected") -> Encoding:
    """Encode (all f_i(x) = 0) OR (all g_j(x) = 0) for affine rows
    (g, h) meaning g^T x - h = 0.

    corrected (default): per pair asserts |t_i - r_j| = |t_i + r_j|,
    equivalent to t_i r_j = 0, so the projection is exactly the
    disjunction.  paper_literal: emits the pairwise equations
    t_i + r_j = |t_i - r_j| verbatim, which additionally forces
    t_i >= 0 and r_j >= 0 and therefore rejects points whose satisfied
    system leaves the other side's residuals negative.
    """
    if mode not in ("corrected", "paper_literal"):
        raise ReformulationError(f"unknown mode {mode!r}")
    F = list(F)
    G = list(G)
    m1, m2 = len(F), len(G)
    if m1 == 0 or m2 == 0:
        raise ReformulationError("both systems must be nonempty")
    pairs = m1 * m2
    per_pair = 2 if mode == "corrected" else 1
    nv = n + m1 + m2 + per_pair * pairs
    t0 = n
    r0 = n + m1
    p0 = n + m1 + m2
    unit = np.eye(nv + 1)

    rb = _RowBuilder(nv)
    for i, row in enumerate(F):
        rb.equal(unit[t0 + i] - _residual(row, n, nv))
    for j, row in enumerate(G):
        rb.equal(unit[r0 + j] - _residual(row, n, nv))

    if mode == "paper_literal":
        for i in range(m1):
            rb.leq(-1.0 * unit[t0 + i])  # t_i >= 0
        for j in range(m2):
            rb.leq(-1.0 * unit[r0 + j])  # r_j >= 0
        for idx, (i, j) in enumerate(itertools.product(range(m1), range(m2))):
            pq = p0 + idx
            rb.equal(unit[pq] - (unit[t0 + i] - unit[r0 + j]))
            rb.leq(unit[t0 + i] + unit[r0 + j], abs_col=pq)
        aux_roles = (
            VarRole("residuals-left", tuple(range(t0, r0))),
            VarRole("residuals-right", tuple(range(r0, p0))),
            VarRole("pair-differences", tuple(range(p0, nv))),
        )
    else:
        for idx, (i, j) in enumerate(itertools.product(range(m1), range(m2))):
            pp = p0 + 2 * idx
            qq = pp + 1
            rb.equal(unit[pp] - (unit[t0 + i] - unit[r0 + j]))
            rb.equal(unit[qq] - (unit[t0 + i] + unit[r0 + j]))
            # |q| <= |p| and |p| <= |q|  =>  |t - r| = |t + r|  =>  t r = 0
            rb.leq(unit[qq], abs_col=pp)
            rb.leq(-1.0 * unit[qq], abs_col=pp)
            rb.leq(unit[pp], abs_col=qq)
            rb.leq(-1.0 * unit[pp], abs_col=qq)
        aux_roles = (
            VarRole("residuals-left", tuple(range(t0, r0))),
            VarRole("residuals-right", tuple(range(r0, p0))),
            VarRole("pair-bounds", tuple(range(p0, nv))),
        )
    problem = rb.build(np.zeros(nv))
    return Encoding(
        problem,
        original_vars=tuple(range(n)),
        aux_vars=aux_roles,
        meta={"mode": mode},
    )


# ---------------------------------------------------------------------------
# unions of polyhedra


@dataclass(frozen=True)
class Polyhedron:
    """Set {x : G x <= h}."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        h = np.asarray(self.h, dtype=float).ravel()
        if G.shape[0] != h.shape[0]:
            raise ReformulationError(f"polyhedron rows {G.shape[0]} != rhs {h.shape[0]}")
        for name, arr in (("G", G), ("h", h)):
            if not np.isfinite(arr).all():
                raise ReformulationError(f"polyhedron field {name!r} has a non-finite entry")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.G.shape[1]

    def contains(self, x) -> bool:
        """G x <= h within margin(MEMBER_TOL, h_i) per row.  A point with a
        non-finite entry raises ReformulationError."""
        x = np.asarray(x, dtype=float).ravel()
        # a Python loop beats np.isfinite on short points, and a union
        # query runs this once per piece
        if not all(map(math.isfinite, x.tolist())):
            raise ReformulationError("point has a non-finite entry")
        return bool(np.all(self.G @ x <= self.h + margin(MEMBER_TOL, self.h)))


@dataclass(frozen=True)
class UnionOfPolyhedra:
    pieces: tuple[Polyhedron, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if not pieces:
            raise ReformulationError("union needs at least one piece")
        n = pieces[0].n
        if any(q.n != n for q in pieces):
            raise ReformulationError("pieces must share the ambient dimension")
        object.__setattr__(self, "pieces", pieces)

    @property
    def n(self) -> int:
        return self.pieces[0].n

    def contains(self, x) -> bool:
        return any(q.contains(x) for q in self.pieces)


def _selector_codes(m: int) -> list[tuple[int, ...]]:
    """Distinct prefix-free selector vectors over {+-1}, ceil(log2 m) long
    at most.  Bit 0 maps to +1.  The first 2^k - m pieces get the shorter
    codes, mirroring the three-piece layout with an omitted trailing term."""
    if m == 1:
        return [()]
    k = math.ceil(math.log2(m))
    short = 2**k - m
    codes = []
    for i in range(m):
        if i < short:
            value, length = i, k - 1
        else:
            value, length = 2 * short + (i - short), k
        bits = [(value >> (length - 1 - j)) & 1 for j in range(length)]
        codes.append(tuple(1 if bit == 0 else -1 for bit in bits))
    return codes


def union_to_avlp(u: UnionOfPolyhedra) -> Encoding:
    """Encode a union of m polyhedra with k = ceil(log2 m) extra variables.

    Piece i gets a selector s^i over z; its block reads
    A^i x + sum_j (s^i_j z_j - |z_j|) e <= b^i.  A point x is in the union
    iff some z makes the whole system feasible.
    """
    m = len(u.pieces)
    n = u.n
    k = math.ceil(math.log2(m)) if m > 1 else 0
    codes = _selector_codes(m)
    # row i of C is piece i's code, 0 past a short one; each piece's rows repeat it
    C = np.array([code + (0,) * (k - len(code)) for code in codes], dtype=float).reshape(m, k)
    zA = np.repeat(C, [piece.G.shape[0] for piece in u.pieces], axis=0)
    G = np.vstack([piece.G for piece in u.pieces])
    problem = AvlpProblem(
        np.hstack([G, zA]),
        np.hstack([np.zeros_like(G), np.abs(zA)]),
        np.concatenate([piece.h for piece in u.pieces]),
        np.zeros(n + k),
    )
    return Encoding(
        problem,
        original_vars=tuple(range(n)),
        aux_vars=(VarRole("piece-selectors", tuple(range(n, n + k))),),
        meta={"selectors": tuple(codes), "pieces": m},
    )


def union_membership(enc: Encoding, x) -> bool:
    """Whether x lies in the union a ``union_to_avlp`` encoding describes:
    the search of ``encoding_membership``, over the 2^k sign orthants of
    the z-slice A_z z - D_z |z| <= b - A_x x (D vanishes on x)."""
    return _slice_membership(enc, x)


# ---------------------------------------------------------------------------
# orthant-convex sets without extra variables


ALPHA_CAP_FACTOR = 2.0**20


@dataclass(frozen=True)
class OrthantConvexReport:
    alpha: float
    rows_emitted: int


def _emit_orthant_convex(pieces, n, alpha):
    A_rows = []
    D_rows = []
    b_vals = []
    for s, rows in pieces:
        sa = np.array(s.entries, dtype=float)
        for a, beta in rows:
            a = np.asarray(a, dtype=float).ravel()
            A_rows.append(alpha * sa + a)
            D_rows.append(alpha * np.ones(n))
            b_vals.append(float(beta))
    return np.array(A_rows), np.array(D_rows), np.array(b_vals)


def _verify_orthant_convex(pieces, emitted: AvlpProblem):
    """Check each emitted row is implied by every orthant's description:
    its maximum there stays within margin(VERIFY_TOL, beta) of beta."""
    n = emitted.n
    piece_rows = {s.entries: rows for s, rows in pieces}
    orthants = []
    for sp in sign_vectors(n, list(range(n))):
        key = tuple(sp.tolist())
        desc = piece_rows.get(key, [])
        region = AvlpProblem(
            np.reshape([np.ravel(a) for a, _ in desc], (len(desc), n)),
            np.zeros((len(desc), n)),
            [beta for _, beta in desc],
            np.zeros(n),
        )
        orthants.append((key, orthant_restriction(region, sp), orthant_restriction(emitted, sp).G))
    offending = []
    for row, beta in enumerate(emitted.b):
        for key, lp, rows_in_sp in orthants:
            out = _solve(replace(lp, obj=rows_in_sp[row]), f"orthant {key}")
            if out.status is LpStatus.UNBOUNDED or (
                out.is_optimal and out.value > beta + margin(VERIFY_TOL, beta)
            ):
                offending.append((key, row))
    return offending


def orthant_convex_to_avlp(pieces, alpha="auto") -> tuple[Encoding, OrthantConvexReport]:
    """Encode a per-orthant convex description without extra variables.

    pieces: list of (s, [(a, beta), ...]), s a strict SignVector or its
    entries, meaning a^T x <= beta describes the set inside orthant s; an
    orthant without rows is wholly contained, an empty one is cut with a
    row like 0^T x <= -1.  Each row becomes (alpha diag(s) e + a)^T x -
    alpha e^T |x| <= beta.  With alpha='auto' the scale doubles from
    1 + max|a| until an LP per (orthant, row) certifies every emitted row
    is implied by each orthant's description; failure up to the cap,
    ALPHA_CAP_FACTOR times the first scale, raises, which happens exactly
    for sets with an unbounded boundary direction orthogonal to an axis.
    """
    pieces = [(s if isinstance(s, SignVector) else SignVector(tuple(s)), list(rows)) for s, rows in pieces]
    if not pieces:
        raise ReformulationError("need at least one orthant piece")
    n = pieces[0][0].n
    seen = set()
    for s, _ in pieces:
        if s.n != n or not s.is_strict:
            raise ReformulationError("orthant signs must be strict and share dimension")
        if s.entries in seen:
            raise ReformulationError(f"duplicate orthant {s.entries}")
        seen.add(s.entries)

    max_coef = max(
        (abs(float(v)) for _, rows in pieces for a, _ in rows for v in np.ravel(a)),
        default=0.0,
    )
    if alpha == "auto":
        alpha0 = 1.0 + max_coef
        limit = ALPHA_CAP_FACTOR * alpha0
        doublings = (alpha0 * 2.0**i for i in itertools.count())
        scales = itertools.takewhile(lambda a: a <= limit, doublings)
    else:
        limit = float(alpha)
        if limit <= 0:
            raise ReformulationError("alpha must be positive")
        scales = [limit]
    for a_val in scales:
        problem = AvlpProblem(*_emit_orthant_convex(pieces, n, a_val), np.zeros(n))
        offending = _verify_orthant_convex(pieces, problem)
        if not offending:
            break
    else:
        raise OrthantConvexVerificationError(offending, limit)

    enc = Encoding(problem, original_vars=tuple(range(n)), aux_vars=())
    return enc, OrthantConvexReport(alpha=a_val, rows_emitted=problem.m)
