import itertools

import numpy as np
import pytest

from avlp import exact, simplex
from avlp.core import SignVector, membership
from avlp.exact import SolveStatus, solve_exact
from avlp.reformulate import (
    OrthantConvexVerificationError,
    Polyhedron,
    ReformulationError,
    UnionOfPolyhedra,
    disjunction_eq_to_avlp,
    disjunction_ineq_to_avlp,
    encoding_membership,
    ilp01_to_avlp,
    orthant_convex_to_avlp,
    union_membership,
    union_to_avlp,
)
from avlp.simplex import LinearProgram, LpStatus, SimplexError, solve_lp

from .oracles import assert_same_outcome


class TestIlp01:
    def test_knapsack_optimum(self):
        enc = ilp01_to_avlp([[1, 1]], [1], [1, 1])
        rep = solve_exact(enc.problem)
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.f_star == pytest.approx(1.0, abs=1e-8)

    def test_only_binary_points_are_members(self):
        enc = ilp01_to_avlp([[1, 1]], [1], [1, 1])
        assert encoding_membership(enc, [1, 0])
        assert encoding_membership(enc, [0, 1])
        assert encoding_membership(enc, [0, 0])
        assert not encoding_membership(enc, [1, 1])
        assert not encoding_membership(enc, [0.5, 0])

    def test_orthant_count_tracks_original_variables(self):
        # only the indicator columns of D are nonzero
        enc = ilp01_to_avlp([[1, 1, 1]], [2], [1, 1, 1])
        nonzero = np.any(enc.problem.D != 0, axis=0)
        assert list(nonzero) == [False, False, False, True, True, True]


class TestDisjunctionInequalities:
    def test_two_term_fixture(self):
        # (x - 1 <= 0) or (-x + 2 <= 0): feasible x are (-inf, 1] u [2, inf)
        enc = disjunction_ineq_to_avlp([([1.0], 1.0), ([-1.0], -2.0)], 1)
        for x, expect in [(0.5, True), (1.0, True), (1.5, False), (2.0, True), (7.0, True)]:
            assert encoding_membership(enc, [x]) == expect, x

    def test_four_term_grid_equivalence(self):
        terms = [([1, 0], 0.0), ([-1, 0], -3.0), ([0, 1], -1.0), ([0, -1], -4.0)]
        enc = disjunction_ineq_to_avlp(terms, 2)
        for x1 in np.linspace(-2, 5, 15):
            for x2 in np.linspace(-3, 6, 15):
                direct = any(
                    float(np.dot(g, [x1, x2])) - h <= 1e-9 for g, h in terms
                )
                assert encoding_membership(enc, [x1, x2]) == direct, (x1, x2)

    def test_needs_two_terms(self):
        with pytest.raises(ReformulationError):
            disjunction_ineq_to_avlp([([1.0], 0.0)], 1)


class TestDisjunctionEquations:
    def test_corrected_mode_accepts_both_branches(self):
        enc = disjunction_eq_to_avlp([([1.0], 1.0)], [([1.0], 2.0)], 1)
        assert encoding_membership(enc, [1.0])
        assert encoding_membership(enc, [2.0])
        assert not encoding_membership(enc, [1.5])
        assert not encoding_membership(enc, [0.0])

    def test_literal_mode_requires_nonnegative_residuals(self):
        enc = disjunction_eq_to_avlp(
            [([1.0], 1.0)], [([1.0], 2.0)], 1, mode="paper_literal"
        )
        # x = 1 satisfies the left system but leaves the right residual
        # negative, which the literal encoding rejects
        assert not encoding_membership(enc, [1.0])
        assert encoding_membership(enc, [2.0])

    def test_corrected_matches_truth_on_2d_systems(self):
        F = [([1.0, 0.0], 1.0), ([0.0, 1.0], 0.0)]  # x = (1, 0)
        G = [([1.0, -1.0], 0.0)]  # x1 = x2
        enc = disjunction_eq_to_avlp(F, G, 2)
        for x1 in np.linspace(-2, 2, 9):
            for x2 in np.linspace(-2, 2, 9):
                left = abs(x1 - 1.0) < 1e-12 and abs(x2) < 1e-12
                right = abs(x1 - x2) < 1e-12
                assert encoding_membership(enc, [x1, x2]) == (left or right)

    def test_unknown_mode(self):
        with pytest.raises(ReformulationError):
            disjunction_eq_to_avlp([([1.0], 0.0)], [([1.0], 0.0)], 1, mode="x")


def record_posed_lps(monkeypatch):
    """Patch ``exact.solve_lp`` to record every LP it solves; returns the
    list the LPs are appended to."""
    posed = []

    def recording_solve_lp(lp):
        posed.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(exact, "solve_lp", recording_solve_lp)
    return posed


def record_orthant_outcomes(monkeypatch):
    """Patch ``exact._orthant_search`` to record every (sign, outcome) it
    yields; returns the list they are appended to."""
    searched = []
    search = exact._orthant_search

    def recording_search(p):
        for s, out in search(p):
            searched.append((s, out))
            yield s, out

    monkeypatch.setattr(exact, "_orthant_search", recording_search)
    return searched


def spelled_slice_lps(enc, x):
    """(sign, LP) for every z orthant of a union encoding's slice at x, in
    sign order: rows [A_z - D_z diag(s); -diag(s)], right-hand side
    [b - A_x x; 0], zero objective."""
    n = len(enc.original_vars)
    Az, Dz = enc.problem.A[:, n:], enc.problem.D[:, n:]
    k = Az.shape[1]
    h = np.concatenate([enc.problem.b - enc.problem.A[:, :n] @ x, np.zeros(k)])
    lps = []
    for sig in itertools.product((-1, 1), repeat=k):
        s = np.array(sig, dtype=float)
        lps.append((sig, LinearProgram(np.vstack([Az - Dz * s, -np.diag(s)]), h, np.zeros(k))))
    return lps


def interval(lo, hi):
    return Polyhedron([[1.0], [-1.0]], [hi, -lo])


class TestUnion:
    def test_two_intervals(self):
        enc = union_to_avlp(UnionOfPolyhedra((interval(0, 1), interval(2, 3))))
        assert enc.num_aux == 1
        for x, expect in [(0.5, True), (1.5, False), (2.5, True), (3.0, True), (-0.1, False)]:
            assert union_membership(enc, [x]) == expect, x

    def test_selector_codes_three_pieces(self):
        enc = union_to_avlp(
            UnionOfPolyhedra((interval(0, 1), interval(2, 3), interval(4, 5)))
        )
        # one short code and two long ones, prefix-free, first bit set +1
        assert enc.meta["selectors"] == ((1,), (-1, 1), (-1, -1))
        assert enc.num_aux == 2

    def test_aux_count_is_log2(self):
        for m in range(1, 9):
            pieces = tuple(interval(3 * i, 3 * i + 1) for i in range(m))
            enc = union_to_avlp(UnionOfPolyhedra(pieces))
            assert enc.num_aux == int(np.ceil(np.log2(m))) if m > 1 else enc.num_aux == 0

    def test_grid_equivalence_random_unions(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 3))
            pieces = []
            for _ in range(m):
                lo = rng.integers(-4, 3, size=n)
                hi = lo + rng.integers(1, 4, size=n)
                G = np.vstack([np.eye(n), -np.eye(n)])
                h = np.concatenate([hi, -lo]).astype(float)
                pieces.append(Polyhedron(G, h))
            u = UnionOfPolyhedra(tuple(pieces))
            enc = union_to_avlp(u)
            grid = rng.uniform(-5, 7, size=(40, n))
            for x in grid:
                assert union_membership(enc, x) == u.contains(x)

    @pytest.mark.parametrize("offset", [5e-9, 2e-8, 5e-8])
    def test_one_piece_and_two_pieces_share_a_tolerance(self, offset):
        # the one-piece encoding has no z columns and the piece's rows lose
        # their z columns in the orthant that selects it, so every query
        # decides x <= 1 as the same empty row 0 <= -offset
        x = [1.0 + offset]
        alone = union_to_avlp(UnionOfPolyhedra((interval(0, 1),)))
        pair = union_to_avlp(UnionOfPolyhedra((interval(0, 1), interval(5, 6))))
        assert alone.num_aux == 0 and pair.num_aux == 1
        verdict = union_membership(alone, x)
        assert union_membership(pair, x) == verdict
        assert encoding_membership(alone, x) == verdict
        assert encoding_membership(pair, x) == verdict

    def test_encoding_membership_agrees_with_union_membership(self):
        u = UnionOfPolyhedra((interval(0, 1), interval(2, 3)))
        enc = union_to_avlp(u)
        for x in np.linspace(-1, 4, 21):
            assert union_membership(enc, [x]) == encoding_membership(enc, [x])

    def test_union_membership_searches_z_orthants_in_sign_order(self, monkeypatch):
        u = UnionOfPolyhedra((interval(0, 1), interval(2, 3), interval(4, 5)))
        enc = union_to_avlp(u)
        posed = record_posed_lps(monkeypatch)
        searched = record_orthant_outcomes(monkeypatch)
        x = np.array([3.5])  # in no piece, so every z orthant is searched
        assert not union_membership(enc, x)
        assert posed == []  # each orthant's selected piece has a violated empty row
        spelled = spelled_slice_lps(enc, x)
        assert [tuple(s.tolist()) for s, _ in searched] == [sig for sig, _ in spelled]
        assert len(searched) == 4
        for (_, out), (_, lp) in zip(searched, spelled):
            assert_same_outcome(out, solve_lp(lp))
            assert out.status is LpStatus.INFEASIBLE

        # a point in the last piece: orthant (-1, -1) selects it, so its
        # spelled LP is posed and is feasible
        searched.clear()
        assert union_membership(enc, [4.5])
        sig, lp = spelled_slice_lps(enc, np.array([4.5]))[0]
        assert [tuple(s.tolist()) for s, _ in searched] == [sig]
        assert len(posed) == 1
        assert np.array_equal(posed[0].G, lp.G) and np.array_equal(posed[0].h, lp.h)
        assert not posed[0].obj.any()

    @pytest.mark.parametrize("query", [union_membership, encoding_membership])
    def test_outside_query_decides_every_orthant_without_pivot(self, monkeypatch, query):
        def no_pivot(*args):
            raise AssertionError("unexpected pivot")

        monkeypatch.setattr(simplex, "_pivot", no_pivot)
        posed = record_posed_lps(monkeypatch)
        searched = record_orthant_outcomes(monkeypatch)
        boxes = tuple(
            Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), [3 * i + 1, 3 * j + 1, -3 * i, -3 * j])
            for i in range(4)
            for j in range(4)
        )
        enc = union_to_avlp(UnionOfPolyhedra(boxes))
        assert enc.num_aux == 4
        x = np.array([4.5, 1.5])
        assert not query(enc, x)
        assert posed == []
        spelled = spelled_slice_lps(enc, x)
        assert [tuple(s.tolist()) for s, _ in searched] == [sig for sig, _ in spelled]
        assert len(searched) == 16
        for (_, out), (_, lp) in zip(searched, spelled):
            assert_same_outcome(out, solve_lp(lp))
            assert out.status is LpStatus.INFEASIBLE

    def test_encoding_membership_poses_the_union_slice(self, monkeypatch):
        enc = union_to_avlp(
            UnionOfPolyhedra((interval(0, 1), interval(2, 3), interval(4, 5)))
        )
        posed = []
        for query in (union_membership, encoding_membership):
            posed.append(record_posed_lps(monkeypatch))
            for x in (0.5, 3.5, 4.5):
                query(enc, [x])
        union_lps, encoding_lps = posed
        assert len(union_lps) == len(encoding_lps) > 0
        for a, b in zip(union_lps, encoding_lps):
            assert np.array_equal(a.G, b.G) and np.array_equal(a.h, b.h)

    def test_encoding_membership_with_abs_of_original_variables(self):
        # an orthant-convex encoding has |x| in its rows and no auxiliary
        # variable, so its slice at x has no columns
        pieces = [
            (SignVector((s1, s2)), [(np.array([s1, s2], dtype=float), 1.0)])
            for s1 in (1, -1)
            for s2 in (1, -1)
        ]
        enc, _ = orthant_convex_to_avlp(pieces)
        for x in itertools.product(np.linspace(-1.5, 1.5, 13), repeat=2):
            assert encoding_membership(enc, x) == membership(enc.problem, np.array(x))[0], x

    @pytest.mark.parametrize("query", [union_membership, encoding_membership])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_named(self, query, value):
        enc = union_to_avlp(UnionOfPolyhedra((interval(0, 1), interval(2, 3))))
        with pytest.raises(ReformulationError, match="point has a non-finite entry"):
            query(enc, [value])

    @pytest.mark.parametrize("field", ["G", "h"])
    def test_polyhedron_rejects_non_finite_data(self, field):
        data = {"G": np.array([[1.0], [-1.0]]), "h": np.array([1.0, 0.0])}
        data[field].flat[0] = np.inf
        with pytest.raises(ReformulationError, match=f"field '{field}' has a non-finite entry"):
            Polyhedron(data["G"], data["h"])

    @pytest.mark.parametrize("query", [union_membership, encoding_membership])
    def test_membership_names_orthant_on_simplex_error(self, monkeypatch, query):
        def failing_solve_lp(lp):
            raise SimplexError("simplex iteration limit exceeded")

        monkeypatch.setattr(exact, "solve_lp", failing_solve_lp)
        enc = union_to_avlp(UnionOfPolyhedra((interval(0, 1), interval(2, 3))))
        with pytest.raises(SimplexError, match=r"orthant \("):
            query(enc, [0.5])


def empty_orthant(s):
    return (SignVector(s), [(np.array([0.0, 0.0]), -1.0)])


class TestOrthantConvex:
    def test_diamond(self):
        pieces = [
            (SignVector((s1, s2)), [(np.array([s1, s2], dtype=float), 1.0)])
            for s1 in (1, -1)
            for s2 in (1, -1)
        ]
        enc, rep = orthant_convex_to_avlp(pieces)
        assert rep.rows_emitted == 4
        for pt, expect in [((0.5, 0.4), True), ((0.8, 0.8), False), ((-1.0, 0.0), True)]:
            assert membership(enc.problem, np.array(pt))[0] == expect
        assert orthant_convex_to_avlp(pieces, alpha=2.0)[1].alpha == 2.0

    def test_unbounded_boundary_direction_fails_verification(self):
        # {x1 <= -1, x2 >= 1} u {-x1 + x2 <= 0, x2 >= 1}: the boundary
        # half-line parallel to the x2 axis defeats every scaling
        pieces = [
            (
                SignVector((1, 1)),
                [(np.array([-1.0, 1.0]), 0.0), (np.array([0.0, -1.0]), -1.0)],
            ),
            (
                SignVector((-1, 1)),
                [(np.array([1.0, 0.0]), -1.0), (np.array([0.0, -1.0]), -1.0)],
            ),
            empty_orthant((1, -1)),
            empty_orthant((-1, -1)),
        ]
        with pytest.raises(OrthantConvexVerificationError) as exc:
            orthant_convex_to_avlp(pieces)
        assert exc.value.offending

    def test_globally_valid_inequality_with_box(self):
        box = [
            (np.array([1.0, 0.0]), 2.0),
            (np.array([-1.0, 0.0]), 2.0),
            (np.array([0.0, 1.0]), 2.0),
            (np.array([0.0, -1.0]), 2.0),
        ]
        ineq = (np.array([-1.0, 1.0]), 0.0)
        pieces = [
            (SignVector((s1, s2)), box + [ineq]) for s1 in (1, -1) for s2 in (1, -1)
        ]
        enc, rep = orthant_convex_to_avlp(pieces)
        assert rep.alpha >= 1.0
        for pt, expect in [
            ((1.0, 0.5), True),
            ((0.5, 1.0), False),
            ((2.0, 2.0), True),
            ((3.0, 0.0), False),
            ((-1.0, -2.0), True),
        ]:
            assert membership(enc.problem, np.array(pt))[0] == expect, pt

    def test_single_orthant_set_collapses_to_inequality(self):
        rows = [
            (np.array([1.0, 0.0]), 2.0),
            (np.array([-1.0, 0.0]), -1.0),
            (np.array([0.0, 1.0]), 2.0),
            (np.array([0.0, -1.0]), -1.0),
            (np.array([1.0, 1.0]), 3.5),
        ]
        pieces = [(SignVector((1, 1)), rows)] + [
            empty_orthant(s) for s in ((-1, 1), (1, -1), (-1, -1))
        ]
        enc, rep = orthant_convex_to_avlp(pieces)
        s = np.array([1.0, 1.0])
        for i, (a, beta) in enumerate(rows):
            # restricted to x >= 0 the emitted row is the original one
            assert np.allclose(enc.problem.A[i] - enc.problem.D[i] * s, a)
            assert enc.problem.b[i] == beta
        assert membership(enc.problem, np.array([1.5, 1.5]))[0]
        assert not membership(enc.problem, np.array([2.0, 2.0]))[0]
        assert not membership(enc.problem, np.array([-1.5, 1.5]))[0]

    def test_simplex_error_names_orthant(self, monkeypatch):
        def failing_solve_lp(lp):
            raise SimplexError("simplex iteration limit exceeded")

        monkeypatch.setattr(exact, "solve_lp", failing_solve_lp)
        piece = (SignVector((1,)), [(np.array([1.0]), 1.0)])
        with pytest.raises(SimplexError, match=r"orthant \(-1,\): simplex iteration"):
            orthant_convex_to_avlp([piece])

    def test_duplicate_orthant_rejected(self):
        piece = (SignVector((1,)), [(np.array([1.0]), 1.0)])
        with pytest.raises(ReformulationError):
            orthant_convex_to_avlp([piece, piece])

    @pytest.mark.parametrize(
        "signs, message",
        [([(1, 0)], "must be strict"), ([SignVector((1, -1)), (1, -1)], r"duplicate orthant \(1, -1\)")],
        ids=["zero sign", "duplicate as entries"],
    )
    def test_zero_sign_and_duplicate_orthant_are_rejected(self, signs, message):
        pieces = [(s, [(np.array([1.0, 0.0]), 1.0)]) for s in signs]
        with pytest.raises(ReformulationError, match=message):
            orthant_convex_to_avlp(pieces)
