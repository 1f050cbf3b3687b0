from fractions import Fraction

import numpy as np
import pytest

from avlp.core import AvlpProblem, membership
from avlp.exact import solve_exact
from avlp.stability import (
    EnclosureError,
    Interval,
    IntervalMatrix,
    IntervalVector,
    basis_stability_check,
    default_basis,
    enclose_solutions,
    interval_matvec,
    recover_x_star,
    stable_optimal_value,
)

from .oracles import _solve_square

class TestInterval:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)


class TestIntervalMatrix:
    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            IntervalMatrix([[1.0]], [[-0.1]])

    def test_matvec(self):
        M = IntervalMatrix([[2.0]], [[1.0]])
        out = interval_matvec(M, IntervalVector(np.array([[1.0], [1.0]])))
        assert out[0].lo <= 1.0 and out[0].hi >= 3.0

    def test_matvec_of_points_is_not_trusted(self):
        # 1e16 + 1 - 1e16 rounds to 0; the true value is 1
        M = IntervalMatrix([[1.0, 1.0, -1.0]], np.zeros((1, 3)))
        out = interval_matvec(M, IntervalVector(np.array([[1e16, 1.0, 1e16]] * 2)))
        assert out[0].lo <= 1.0 <= out[0].hi

    def test_matvec_overflow_widens_to_the_whole_line(self):
        M = IntervalMatrix([[1e308, 1e308]], np.zeros((1, 2)))
        out = interval_matvec(M, IntervalVector(np.full((2, 2), 10.0)))
        assert out[0] == Interval(-np.inf, np.inf)


class TestIntervalVector:
    def test_len_index_and_iteration_yield_intervals(self):
        box = IntervalVector(np.array([[0.0, -1.0, 2.0], [1.0, 1.0, 2.0]]))
        assert len(box) == 3
        assert box[1] == Interval(-1.0, 1.0)
        assert box[-1] == Interval(2.0, 2.0)
        assert list(box) == [Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(2.0, 2.0)]
        assert all(type(iv.lo) is float for iv in box)

    def test_is_read_only(self):
        box = IntervalVector(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            box.lo[0] = -1.0

    def test_rejects_empty_interval_and_bad_shape(self):
        with pytest.raises(ValueError):
            IntervalVector(np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError):
            IntervalVector(np.zeros(3))


class TestEnclosure:
    def test_point_system(self):
        box = enclose_solutions(IntervalMatrix([[2.0]], [[0.0]]), [1.0])
        assert box[0].lo == pytest.approx(0.5, abs=1e-12)
        assert box[0].hi == pytest.approx(0.5, abs=1e-12)

    def test_one_dimensional_family(self):
        box = enclose_solutions(IntervalMatrix([[2.0]], [[0.1]]), [1.0])
        assert box[0].lo <= 1.0 / 2.1
        assert box[0].hi >= 1.0 / 1.9
        assert box[0].hi - box[0].lo < 0.06

    def test_large_radius_fails(self):
        with pytest.raises(EnclosureError):
            enclose_solutions(IntervalMatrix(np.eye(2), 0.6 * np.ones((2, 2))), [1.0, 1.0])

    def test_non_finite_data_fails(self):
        with pytest.raises(EnclosureError):
            enclose_solutions(IntervalMatrix([[2.0]], [[0.0]]), [np.inf])

    def test_singular_midpoint_fails(self):
        with pytest.raises(EnclosureError):
            enclose_solutions(IntervalMatrix([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2))), [1.0, 0.0])

    def test_soundness_on_random_samples(self):
        rng = np.random.default_rng(0)
        tried = 0
        for _ in range(100):
            n = int(rng.integers(1, 5))
            mid = rng.normal(size=(n, n)) + 3 * np.eye(n)
            rad = 0.05 * np.abs(rng.normal(size=(n, n)))
            rhs = rng.normal(size=n)
            try:
                box = enclose_solutions(IntervalMatrix(mid, rad), rhs)
            except EnclosureError:
                continue
            tried += 1
            sampled = mid + rad * rng.uniform(-1, 1, size=(n, n))
            x = np.linalg.solve(sampled, rhs)
            assert all(box[i].lo <= x[i] <= box[i].hi for i in range(n))
        assert tried >= 50

    def test_point_families_contain_the_exact_solution(self):
        # rad = 0: the box must hold the solution of the float data itself,
        # compared exactly over the rationals
        rng = np.random.default_rng(2024)
        certified = 0
        for _ in range(200):
            n = int(rng.integers(2, 7))
            cond = 10.0 ** rng.uniform(2, 9)
            U, _ = np.linalg.qr(rng.normal(size=(n, n)))
            V, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = U @ np.diag(np.logspace(0, -np.log10(cond), n)) @ V.T
            rhs = rng.normal(size=n)
            try:
                box = enclose_solutions(IntervalMatrix(A, np.zeros((n, n))), rhs)
            except EnclosureError:
                continue
            certified += 1
            x = _solve_square(A.tolist(), rhs.tolist())
            assert all(Fraction(iv.lo) <= xi <= Fraction(iv.hi) for iv, xi in zip(box, x))
        assert certified >= 180


def one_var_fixture():
    """max x s.t. [0.9, 1.1] x <= 1 and -x <= 0."""
    return AvlpProblem([[1.0], [-1.0]], [[0.1], [0.0]], [1.0, 0.0], [1.0])


class TestBasisStability:
    def test_default_basis_from_midpoint_lp(self):
        assert default_basis(one_var_fixture()) == (0,)

    def test_fixture_verifies_both_conditions(self):
        rep = basis_stability_check(one_var_fixture())
        assert rep.condition1_verified and rep.condition2_verified
        assert rep.y_box[0].lo >= 0.0
        assert rep.f_star == pytest.approx(1.0 / 0.9, abs=1e-10)
        assert rep.x_star == pytest.approx([1.0 / 0.9], abs=1e-8)

    def test_d_zero_reduces_to_classical_test(self):
        p = AvlpProblem([[1.0], [-1.0]], [[0.0], [0.0]], [1.0, 0.0], [1.0])
        rep = basis_stability_check(p)
        assert rep.verified
        assert rep.f_star == pytest.approx(1.0)

    def test_wide_radius_is_inconclusive(self):
        p = AvlpProblem([[1.0], [-1.0]], [[1.5], [0.0]], [1.0, 0.0], [1.0])
        rep = basis_stability_check(p, B=(0,))
        assert not rep.verified
        assert rep.reason is not None

    def test_report_boxes_are_interval_vectors_of_length_n(self):
        p = AvlpProblem(
            [[2.0, 0.1], [0.2, 2.0], [1.0, 1.0], [-1.0, 0.0]],
            0.01 * np.ones((4, 2)),
            [1.0, 1.0, 3.0, 1.0],
            [1.0, 1.0],
        )
        rep = basis_stability_check(p)
        assert rep.verified and rep.basis == (0, 1)
        for box in (rep.y_box, rep.x_box):
            assert isinstance(box, IntervalVector)
            assert len(box) == 2
            assert all(isinstance(iv, Interval) for iv in box)
            assert [box[i] for i in range(2)] == list(box)
        assert all(iv.lo >= 0.0 for iv in rep.y_box)
        assert all(iv.lo <= v <= iv.hi for iv, v in zip(rep.x_box, rep.x_star))

    def test_wrong_basis_fails_condition1(self):
        rep = basis_stability_check(one_var_fixture(), B=(1,))
        assert not rep.condition1_verified


class TestStableValueAndRecovery:
    def test_fixture_value_and_multiplier(self):
        f_star, y_star = stable_optimal_value(one_var_fixture(), (0,))
        assert f_star == pytest.approx(1.0 / 0.9, abs=1e-10)
        assert y_star == pytest.approx([1.0 / 0.9], abs=1e-10)

    def test_matches_exact_solver(self):
        p = one_var_fixture()
        f_star, _ = stable_optimal_value(p, (0,))
        assert f_star == pytest.approx(solve_exact(p).f_star, abs=1e-8)

    def test_recovery_constructs_family_member(self):
        p = one_var_fixture()
        _, y_star = stable_optimal_value(p, (0,))
        x_star = recover_x_star(p, (0,), y_star)
        assert x_star == pytest.approx([1.0 / 0.9], abs=1e-8)
        assert membership(p, x_star)[0]

    def test_recovery_d_zero(self):
        p = AvlpProblem([[2.0], [-1.0]], [[0.0], [0.0]], [1.0, 0.0], [1.0])
        _, y_star = stable_optimal_value(p, (0,))
        assert recover_x_star(p, (0,), y_star) == pytest.approx([0.5])

    def test_recovery_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            recover_x_star(one_var_fixture(), (0,), [100.0])
