import itertools
import math

import numpy as np
import pytest

from avlp import exact
from avlp.core import AvlpProblem, SignVector, membership, nonzero_columns, orthant_restriction
from avlp.exact import (
    SolveStatus,
    find_feasible_point,
    relaxation_bound,
    sign_vectors,
    solve_exact,
    vertex_candidacy,
)
from avlp.simplex import PIVOT_TOL, LpOutcome, LpStatus, SimplexError, margin, solve_lp

from .oracles import assert_same_outcome, oracle_solve, random_integer_instance


def manhattan_ball():
    """|x1| + |x2| <= 1 written with redundant-looking scaled rows:
    10 s^T x - (|x1| + |x2|) <= 9 for all four sign rows."""
    A = 10.0 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    D = np.ones((4, 2))
    b = 9.0 * np.ones(4)
    return AvlpProblem(A, D, b, [1.0, 0.0])


def boxed(A, D, b, c, B):
    """The problem with the rows |x_j| <= B added."""
    A, D = np.atleast_2d(A), np.atleast_2d(D)
    n = A.shape[1]
    eye = np.eye(n)
    return AvlpProblem(
        np.vstack([A, eye, -eye]),
        np.vstack([D, np.zeros((2 * n, n))]),
        np.concatenate([np.ravel(b), np.full(2 * n, float(B))]),
        c,
    )


def set_partitioning(a):
    """Feasible iff x in {+-1}^3 with a^T x <= 0; objective a^T x."""
    a = np.asarray(a, dtype=float)
    n = a.size
    A = np.vstack([np.eye(n), -np.eye(n), np.zeros((n, n)), a])
    D = np.vstack([np.zeros((2 * n, n)), np.eye(n), np.zeros((1, n))])
    b = np.concatenate([np.ones(2 * n), -np.ones(n), [0.0]])
    return AvlpProblem(A, D, b, a)


class TestManhattanBall:
    def test_membership_at_hand_points(self):
        p = manhattan_ball()
        inside = [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.5, 0.5), (-0.25, 0.7)]
        outside = [(1.0, 1.0), (0.0, 1.5), (-0.9, -0.2)]
        for pt in inside:
            assert membership(p, np.array(pt))[0], pt
        for pt in outside:
            assert not membership(p, np.array(pt))[0], pt

    def test_max_x1(self):
        rep = solve_exact(manhattan_ball())
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.f_star == pytest.approx(1.0, abs=1e-9)
        assert rep.x_star == pytest.approx([1.0, 0.0], abs=1e-9)
        assert rep.orthants_solved == 4

    def test_witness_sign_lexicographic_tie_break(self):
        # the optimum (1, 0) lies in two orthants; the first in -1 < +1
        # lexicographic order wins
        rep = solve_exact(manhattan_ball())
        assert rep.witness_sign.entries == (1, -1)


class TestSetPartitioning:
    def test_partitionable_weights(self):
        rep = solve_exact(set_partitioning([1.0, 1.0, 2.0]))
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.f_star == pytest.approx(0.0, abs=1e-9)

    def test_unpartitionable_weights(self):
        rep = solve_exact(set_partitioning([1.0, 1.0, 1.0]))
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.f_star == pytest.approx(-1.0, abs=1e-9)

    def test_relaxation_is_strictly_above_exact_value(self):
        p = set_partitioning([1.0, 1.0, 1.0])
        relax = relaxation_bound(p)
        assert relax.status is LpStatus.OPTIMAL
        assert relax.value == pytest.approx(0.0, abs=1e-8)
        assert relax.value > solve_exact(p).f_star + 0.5


def test_infeasible_status():
    p = AvlpProblem([[0.0]], [[0.0]], [-1.0], [1.0])
    rep = solve_exact(p)
    assert rep.status == SolveStatus.INFEASIBLE
    assert rep.f_star is None


def test_unbounded_status_with_ray():
    # x - 2|x| <= 0 is satisfied by every x; max x unbounded
    p = AvlpProblem([[1.0]], [[2.0]], [0.0], [1.0])
    rep = solve_exact(p)
    assert rep.status == SolveStatus.UNBOUNDED
    assert rep.ray is not None


def test_sweep_stops_at_the_first_unbounded_orthant(monkeypatch):
    # x_j - 2|x_j| <= 0 holds everywhere, so the relaxation is unbounded
    # and the sweep decides; max -x1 is unbounded already in orthant (-1, -1)
    p = AvlpProblem(np.eye(2), 2.0 * np.eye(2), [0.0, 0.0], [-1.0, 0.0])
    orthant_lps = []

    def first_orthant_only(lp):
        if lp.num_vars == p.n:
            orthant_lps.append(lp)
            if len(orthant_lps) > 1:
                raise SimplexError("a later orthant was solved")
        return solve_lp(lp)

    monkeypatch.setattr(exact, "solve_lp", first_orthant_only)
    rep = solve_exact(p)
    assert rep.status == SolveStatus.UNBOUNDED and rep.nodes_solved == 0
    assert rep.witness_sign.entries == (-1, -1)
    assert rep.orthants_solved == 1 and len(orthant_lps) == 1
    assert rep.ray[0] < 0


def test_sign_vectors_enumeration_order_and_zeros():
    got = list(sign_vectors(3, [0, 2]))
    assert [tuple(s.tolist()) for s in got] == [(-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)]
    assert all(s.dtype.kind == "i" for s in got)
    # a fresh array per yield, so a caller may keep one
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(got, 2))


def test_sweep_builds_one_sign_vector(monkeypatch):
    # the box |x_j| <= 2 with a nonzero column of D on every coordinate:
    # x_j - |x_j| / 2 <= 1 and -x_j - |x_j| / 2 <= 1; 64 orthants
    eye = np.eye(6)
    p = AvlpProblem(np.vstack([eye, -eye]), 0.5 * np.vstack([eye, eye]), np.ones(12), np.ones(6))
    built = []
    post_init = SignVector.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SignVector, "__post_init__", counting_post_init)
    rep = exact._sweep(p)
    assert rep.status == SolveStatus.OPTIMAL and rep.orthants_solved == 64
    assert built == [rep.witness_sign] and rep.witness_sign.entries == (1,) * 6


def test_find_feasible_point():
    p = AvlpProblem([[1.0]], [[2.0]], [-1.0], [0.0])
    x = find_feasible_point(p)
    assert x is not None
    assert membership(p, x)[0]
    assert find_feasible_point(AvlpProblem([[0.0]], [[0.0]], [-1.0], [0.0])) is None


@pytest.mark.parametrize("search", [solve_exact, find_feasible_point])
def test_orthant_search_names_orthant_on_simplex_error(monkeypatch, search):
    def failing_solve_lp(lp):
        raise SimplexError("simplex iteration limit exceeded")

    monkeypatch.setattr(exact, "solve_lp", failing_solve_lp)
    with pytest.raises(SimplexError, match=r"orthant \(-1, -1\): simplex iteration"):
        search(manhattan_ball())


def test_solve_exact_rejects_non_member_optimum(monkeypatch):
    # every orthant LP "returns" (5, 5), which lies outside the feasible set
    def wrong_solve_lp(lp):
        return LpOutcome(LpStatus.OPTIMAL, x=np.array([5.0, 5.0]), value=5.0)

    monkeypatch.setattr(exact, "solve_lp", wrong_solve_lp)
    with pytest.raises(SimplexError, match=r"orthant \(-1, -1\): optimal point fails membership"):
        solve_exact(manhattan_ball())


class TestVertexCandidacy:
    def test_optimum_of_manhattan_ball_passes(self):
        p = manhattan_ball()
        assert vertex_candidacy(p, np.array([1.0, 0.0])).passed

    def test_interior_point_fails(self):
        p = manhattan_ball()
        res = vertex_candidacy(p, np.array([0.1, 0.1]))
        assert not res.passed

    def test_infeasible_point_rejected(self):
        with pytest.raises(ValueError):
            vertex_candidacy(manhattan_ball(), np.array([2.0, 2.0]))


class TestSignTree:
    def test_agrees_with_oracle_on_boxed_instances(self):
        rng = np.random.default_rng(7)
        statuses = []
        while len(statuses) < 100:
            A, D, b, c = random_integer_instance(rng)
            if not nonzero_columns(D):
                continue  # one orthant: nothing to branch on
            p = boxed(A, D, b, c, int(rng.integers(1, 4)))
            status, value = oracle_solve(p.A, p.D, p.b, p.c)
            rep = solve_exact(p)
            assert rep.nodes_solved > 0 and rep.orthants_solved == 0
            assert rep.status == status
            if status == "optimal":
                assert rep.f_star == pytest.approx(float(value), rel=1e-9, abs=1e-9)
                assert membership(p, rep.x_star)[0]
            statuses.append(status)
        assert "infeasible" in statuses

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_enumeration_on_dense_boxed_instances(self, n):
        rng = np.random.default_rng(n)
        statuses = set()
        for _ in range(8):
            m = 2 * n
            p = boxed(rng.normal(size=(m, n)), 0.3 * np.abs(rng.normal(size=(m, n))),
                      rng.uniform(-6.0, 2.0, size=m), rng.normal(size=n), 5.0)
            tree, sweep = solve_exact(p), exact._sweep(p)
            assert tree.nodes_solved > 0 and sweep.orthants_solved == 2**n
            assert tree.status == sweep.status
            if sweep.status == SolveStatus.OPTIMAL:
                assert tree.f_star == pytest.approx(sweep.f_star, rel=1e-9, abs=1e-9)
            statuses.add(sweep.status)
        assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}

    def test_every_node_may_beat_a_missing_incumbent(self):
        # -inf + tol * (1 + inf) is NaN: unguarded, no node would beat it
        assert exact._beats(-1e300, -math.inf)
        assert exact._beats(1.0 + 1e-6, 1.0)
        assert not exact._beats(1.0 + 1e-12, 1.0)

    def test_infeasible_root(self):
        # x <= 1 and x >= 2 leave the relaxation empty
        p = AvlpProblem([[1.0], [-1.0], [0.0]], [[0.0], [0.0], [1.0]], [1.0, -2.0, 0.0], [1.0])
        rep = solve_exact(p)
        assert rep.status == SolveStatus.INFEASIBLE
        assert (rep.nodes_solved, rep.orthants_solved) == (1, 0)

    def test_unbounded_relaxation_falls_back_to_enumeration(self):
        for p, orthants in ((manhattan_ball(), 4), (AvlpProblem([[1.0]], [[2.0]], [0.0], [1.0]), 2)):
            rep = solve_exact(p)
            assert (rep.nodes_solved, rep.orthants_solved) == (0, orthants)

    def test_witness_is_smallest_orthant_containing_the_optimum(self):
        p = manhattan_ball()
        rep = solve_exact(boxed(p.A, p.D, p.b, p.c, 1.0))
        assert rep.nodes_solved > 0
        assert rep.f_star == pytest.approx(1.0, abs=1e-9)
        assert rep.x_star == pytest.approx([1.0, 0.0], abs=1e-9)
        assert rep.witness_sign.entries == (1, -1)

    def test_witness_is_zero_on_zero_columns_of_d(self):
        # x2 enters no absolute value; max x1 + x2 over |x1| >= 1, |x_j| <= 1
        p = boxed([[0.0, 0.0]], [[1.0, 0.0]], [-1.0], [1.0, 1.0], 1.0)
        rep = solve_exact(p)
        assert rep.nodes_solved > 0
        assert rep.f_star == pytest.approx(2.0, abs=1e-9)
        assert rep.witness_sign.entries == (1, 0)

    def test_node_names_itself_on_simplex_error(self, monkeypatch):
        p = manhattan_ball()
        p = boxed(p.A, p.D, p.b, p.c, 1.0)

        def failing_node_lp(lp):
            if lp.num_vars == p.n:  # a node LP; bound LPs have 2n columns
                raise SimplexError("simplex iteration limit exceeded")
            return solve_lp(lp)

        monkeypatch.setattr(exact, "solve_lp", failing_node_lp)
        with pytest.raises(SimplexError, match=r"node \(0, 0\): simplex iteration"):
            solve_exact(p)

    def test_faulty_kernel_ends_in_simplex_error(self, monkeypatch):
        # an optimum shifted outside [l, u] puts the secant under |x_j|, so
        # a free coordinate's gap falls below any finite sentinel; the tree
        # must still branch on free coordinates only, reach its leaves and
        # reject the leaf point at the membership check
        p = manhattan_ball()
        p = boxed(p.A, p.D, p.b, p.c, 1.0)
        calls = []

        def shifted_solve_lp(lp):
            calls.append(lp)
            if len(calls) > 2 ** (p.n + 1):
                pytest.fail("more LPs than the tree over n signs has nodes")
            out = solve_lp(lp)
            if out.is_optimal:
                return LpOutcome(LpStatus.OPTIMAL, x=out.x + 100.0, value=out.value)
            return out

        monkeypatch.setattr(exact, "solve_lp", shifted_solve_lp)
        with pytest.raises(SimplexError, match="optimal point fails membership"):
            solve_exact(p)

    def test_box_rows_leave_no_bound_lp(self):
        p = manhattan_ball()
        status, l, u, solved = exact._coordinate_bounds(boxed(p.A, p.D, p.b, p.c, 3.0))
        assert (status, solved) == (LpStatus.OPTIMAL, 0)
        assert np.array_equal(u, np.full(2, 3.0 + margin(PIVOT_TOL, 3.0)))
        assert np.array_equal(l, -u)

    def test_one_lp_per_end_no_row_states(self):
        # x1 <= 2 and x2 >= -3 are rows; -x1 - x2 <= 1 and x2 - x1 <= 4
        # leave x1 >= -2.5 and x2 <= 6 to the LPs
        A = [[1.0, 0.0], [0.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]]
        D = [[0.0, 0.0]] * 4 + [[1.0, 1.0]]
        p = AvlpProblem(A, D, [2.0, 3.0, 1.0, 4.0, 0.0], [1.0, 1.0])
        status, l, u, solved = exact._coordinate_bounds(p)
        assert (status, solved) == (LpStatus.OPTIMAL, 2)
        assert l == pytest.approx([-2.5, -3.0], abs=1e-8)
        assert u == pytest.approx([2.0, 6.0], abs=1e-8)

    def test_row_with_absolute_values_is_no_bound(self):
        # x1 - |x2| <= 1 does not cap x1: the box row x1 <= 5 does
        p = boxed([[1.0, 0.0]], [[0.0, 1.0]], [1.0], [1.0, 0.0], 5.0)
        _, _, u, solved = exact._coordinate_bounds(p)
        assert solved == 0
        assert u[0] == 5.0 + margin(PIVOT_TOL, 5.0)
        assert solve_exact(p).f_star == pytest.approx(5.0, abs=1e-9)

    def test_negative_coefficient_row_is_a_lower_bound(self):
        # -2 x1 <= 3 is x1 >= -1.5
        p = AvlpProblem([[-2.0], [1.0], [0.0]], [[0.0], [0.0], [1.0]], [3.0, 1.0, 0.0], [-1.0])
        _, l, _, solved = exact._coordinate_bounds(p)
        assert solved == 0
        assert l[0] == -1.5 - margin(PIVOT_TOL, -1.5)
        assert solve_exact(p).f_star == pytest.approx(1.5, abs=1e-9)

    def test_row_bound_that_overflows_is_no_bound(self):
        # 1e300 / 1e-300 overflows to inf; the row x <= 5 still caps x
        p = AvlpProblem([[1e-300], [1.0], [-1.0], [0.0]], [[0.0], [0.0], [0.0], [1.0]],
                        [1e300, 5.0, 5.0, 0.0], [1.0])
        _, _, u, solved = exact._coordinate_bounds(p)
        assert solved == 0
        assert u[0] == 5.0 + margin(PIVOT_TOL, 5.0)

    def test_contradictory_rows_are_infeasible(self):
        # x2 <= -1 and x2 >= 1 as rows, x1 boxed, and x1 - |x1| - |x2| <= 1
        A = [[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
        D = [[0.0, 0.0]] * 4 + [[1.0, 1.0]]
        p = AvlpProblem(A, D, [-1.0, -1.0, 2.0, 2.0, 1.0], [1.0, 0.0])
        rep = solve_exact(p)
        assert rep.status == SolveStatus.INFEASIBLE
        assert (rep.nodes_solved, rep.orthants_solved) == (1, 0)
        assert oracle_solve(p.A, p.D, p.b, p.c)[0] == "infeasible"


def with_row(A, D, b, c, a, d, beta):
    """The problem with the row a x - d|x| <= beta appended."""
    return AvlpProblem(np.vstack([A, a]), np.vstack([D, d]), np.append(b, beta), c)


def screen_case(rng, kind):
    """A seeded integer problem with a row the screen must get right, and
    the share of its orthants that may still need an LP."""
    A, D, b, c = random_integer_instance(rng, n_max=4, m_max=5)
    n = A.shape[1]
    signs = rng.choice([-1.0, 1.0], size=n)
    if kind == "no signs":  # l = 0, plus a violated zero row
        D = np.zeros_like(D)
        return with_row(A, D, b, c, np.zeros(n), np.zeros(n), -1.0), 0.0
    if kind == "zero row":
        return with_row(A, D, b, c, np.zeros(n), np.zeros(n), -2.0), 0.0
    d = rng.integers(1, 4, size=n).astype(float)
    if kind == "zero D column":  # |a| == d except on a column of D that is zero
        D[:, 0] = 0
        d[0] = 0.0
        a = signs * d
        a[0] = 1.0
        return with_row(A, D, b, c, a, d, -1.0), 1.0
    if kind == "unequal":  # the same support, but |a_j| != d_j on one column
        a = signs * d
        a[-1] += signs[-1]
        return with_row(A, D, b, c, a, d, -1.0), 1.0
    # "half": one support column, so the row vanishes in half the orthants
    j = int(rng.integers(n))
    a, d1 = np.zeros(n), np.zeros(n)
    d1[j] = d[j]
    a[j] = signs[j] * d[j]
    return with_row(A, D, b, c, a, d1, -1.0), 0.5


def record_posed_lps(monkeypatch):
    """Patch ``exact.solve_lp`` to record every LP it solves."""
    posed = []

    def recording_solve_lp(lp):
        posed.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(exact, "solve_lp", recording_solve_lp)
    return posed


SCREEN_CASES = ["no signs", "zero row", "zero D column", "unequal", "half"]


class TestEmptyRowScreen:
    @pytest.mark.parametrize("seed, kind", enumerate(SCREEN_CASES))
    def test_orthant_search_equals_solve_lp_orthant_by_orthant(self, monkeypatch, seed, kind):
        rng = np.random.default_rng(seed)
        posed = record_posed_lps(monkeypatch)
        for _ in range(40):
            p, share = screen_case(rng, kind)
            posed.clear()
            searched = list(exact._orthant_search(p))
            signs = list(sign_vectors(p.n, nonzero_columns(p.D)))
            assert [tuple(s.tolist()) for s, _ in searched] == [tuple(s.tolist()) for s in signs]
            for s, out in searched:
                assert_same_outcome(out, solve_lp(orthant_restriction(p, s)))
            assert len(posed) <= share * len(signs)

    def test_sweep_keeps_verdict_and_orthant_count(self, monkeypatch):
        # x1 - |x1| <= -1 vanishes where x1 >= 0, and the split relaxation
        # is unbounded in x1, so the sweep decides; x2 - |x2| <= 0 vanishes
        # where x2 >= 0 but holds
        p = AvlpProblem([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [-1.0, 0.0], [1.0, 0.0])
        posed = record_posed_lps(monkeypatch)
        rep = solve_exact(p)
        assert rep.status == SolveStatus.OPTIMAL and rep.nodes_solved == 0
        assert rep.f_star == -0.5 and rep.witness_sign.entries == (-1, -1)
        assert rep.orthants_solved == 4
        assert [lp.num_vars for lp in posed].count(p.n) == 2  # orthants (+1, *) screened
        assert oracle_solve(p.A, p.D, p.b, p.c) == ("optimal", -0.5)
