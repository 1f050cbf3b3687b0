import numpy as np
import pytest

from avlp import exact
from avlp.analysis import (
    SizeLimitError,
    bounded_for_all_b,
    connected_sufficient,
    convexity_active_pair_check,
    convexity_vertex_check,
    enumerate_vertices,
    feasible_for_all_b,
)
from avlp.core import AvlpProblem
from avlp.simplex import SimplexError

from .test_exact import manhattan_ball, set_partitioning


def nonconvex_wedge():
    """-2 <= x1 <= 2, x2 >= 0, x2 - |x1| <= 0: two triangles meeting at
    the origin, not convex."""
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    D = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    b = np.array([2.0, 2.0, 0.0, 0.0])
    return AvlpProblem(A, D, b, [0.0, 1.0])


def wedge_with_shifted_row():
    """Adds x2 - 0.5 x1 - |x1| <= 0, whose active pairs stay consistent."""
    w = nonconvex_wedge()
    A = np.vstack([w.A, [-0.5, 1.0]])
    D = np.vstack([w.D, [1.0, 0.0]])
    b = np.concatenate([w.b, [0.0]])
    return AvlpProblem(A, D, b, w.c)


class TestEnumerateVertices:
    def test_unit_square(self):
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.array([1.0, 1.0, 0.0, 0.0])
        verts = enumerate_vertices(G, h)
        pts = sorted(tuple(np.round(v, 9)) for v, _ in verts)
        assert pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_active_sets_are_full(self):
        # degenerate vertex with three active rows
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        h = np.array([1.0, 1.0, 2.0, 0.0, 0.0])
        verts = enumerate_vertices(G, h)
        by_pt = {tuple(np.round(v, 9)): act for v, act in verts}
        assert set(by_pt[(1.0, 1.0)]) == {0, 1, 2}

    def test_infeasible_gives_empty(self):
        G = np.array([[1.0], [-1.0]])
        h = np.array([0.0, -1.0])
        assert enumerate_vertices(G, h) == []

    def test_size_limits(self):
        with pytest.raises(SizeLimitError):
            enumerate_vertices(np.zeros((1, 5)), np.zeros(1))


class TestBoundedness:
    def test_bounded_fixture(self):
        assert bounded_for_all_b(manhattan_ball()).bounded

    def test_unbounded_when_d_dominates(self):
        v = bounded_for_all_b(AvlpProblem([[1.0]], [[2.0]], [0.0], [1.0]))
        assert not v.bounded
        assert v.ray is not None
        # the ray solves Ax - D|x| <= 0 nontrivially
        assert abs(v.ray[0]) > 1e-9
        assert v.ray[0] - 2.0 * abs(v.ray[0]) <= 1e-9

    def test_pure_lp_box_is_bounded(self):
        p = AvlpProblem(
            np.vstack([np.eye(2), -np.eye(2)]), np.zeros((4, 2)), np.ones(4), [1.0, 1.0]
        )
        assert bounded_for_all_b(p).bounded

    def test_pure_lp_halfline_needs_all_orthants(self):
        # D = 0, single row x <= b: unbounded along -x, which lives in the
        # orthant the nonzero-column shortcut would skip
        v = bounded_for_all_b(AvlpProblem([[1.0]], [[0.0]], [1.0], [1.0]))
        assert not v.bounded

    def test_simplex_error_names_orthant(self, monkeypatch):
        def failing_solve_lp(lp):
            raise SimplexError("simplex iteration limit exceeded")

        monkeypatch.setattr(exact, "solve_lp", failing_solve_lp)
        with pytest.raises(SimplexError, match=r"orthant \(-1, -1\): simplex iteration"):
            bounded_for_all_b(manhattan_ball())


def test_feasible_for_all_b():
    assert feasible_for_all_b(AvlpProblem([[1.0]], [[2.0]], [5.0], [0.0])).feasible_all_b
    # 0x - 0|x| <= b fails at b = -e
    assert not feasible_for_all_b(AvlpProblem([[0.0]], [[0.0]], [5.0], [0.0])).feasible_all_b


class TestConnectedness:
    def test_nonnegative_rhs_holds(self):
        v = connected_sufficient(manhattan_ball())
        assert v.holds
        assert v.u is not None

    def test_set_partitioning_inconclusive(self):
        assert not connected_sufficient(set_partitioning([1.0, 1.0, 2.0])).holds


class TestConvexity:
    def test_wedge_violation_found(self):
        v = convexity_vertex_check(nonconvex_wedge())
        assert not v.consistent
        assert v.row == 3
        assert v.coordinate == 0
        xs = sorted([tuple(np.round(v.x1, 6)), tuple(np.round(v.x2, 6))])
        assert xs == [(-2.0, 2.0), (2.0, 2.0)]

    def test_extra_row_is_consistent(self):
        assert convexity_vertex_check(wedge_with_shifted_row()).consistent

    def test_manhattan_ball_consistent(self):
        assert convexity_vertex_check(manhattan_ball()).consistent

    def test_pair_check_on_wedge(self):
        p = nonconvex_wedge()
        x1 = np.array([2.0, 2.0])
        x2 = np.array([-2.0, 2.0])
        v = convexity_active_pair_check(p, x1, x2, 3)
        assert not v.consistent

    def test_pair_check_requires_active_rows(self):
        p = nonconvex_wedge()
        with pytest.raises(ValueError):
            convexity_active_pair_check(p, np.array([0.5, 0.0]), np.array([-0.5, 0.0]), 3)
