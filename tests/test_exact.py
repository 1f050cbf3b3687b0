import numpy as np
import pytest

from avlp import exact
from avlp.core import AvlpProblem, membership
from avlp.exact import (
    SolveStatus,
    find_feasible_point,
    relaxation_bound,
    sign_vectors,
    solve_exact,
    vertex_candidacy,
)
from avlp.simplex import LpOutcome, LpStatus, SimplexError


def manhattan_ball():
    """|x1| + |x2| <= 1 written with redundant-looking scaled rows:
    10 s^T x - (|x1| + |x2|) <= 9 for all four sign rows."""
    A = 10.0 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    D = np.ones((4, 2))
    b = 9.0 * np.ones(4)
    return AvlpProblem(A, D, b, [1.0, 0.0])


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


def test_sign_vectors_enumeration_order_and_zeros():
    got = [s.entries for s in sign_vectors(3, [0, 2])]
    assert got == [(-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)]


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
