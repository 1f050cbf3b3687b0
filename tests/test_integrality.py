import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from avlp import integrality
from avlp.exact import sign_vectors
from avlp.integrality import (
    BudgetExceededError,
    IntegralityReport,
    det_exact,
    det_linearity_identity,
    extended_signs_check,
    integrality_full,
    integrality_rank_one,
    is_unimodular,
    rank_exact,
    solve_rational,
)

from .oracles import _solve_square


class TestDetExact:
    def test_identity(self):
        assert det_exact(np.eye(3)) == 1

    def test_two_by_two(self):
        assert det_exact([[-1, 1], [1, 1]]) == -2

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    def test_matches_numpy_on_randoms(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            M = rng.integers(-4, 5, size=(n, n))
            assert det_exact(M) == round(np.linalg.det(M))

    def test_exact_beyond_float_precision(self):
        M = np.diag([10**6, 10**6, 10**6]).tolist()
        M[0][0] += 0  # still diagonal; det = 1e18 exactly
        assert det_exact(M) == 10**18

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            det_exact([[0.5]])


class TestSolveRational:
    def test_matches_the_oracle_on_float_systems(self):
        # float data read exactly; every third system is made singular by
        # a zero row (d = 1) or a row that doubles another, which is exact
        # in floating point
        rng = np.random.default_rng(7)
        singular = 0
        for t in range(150):
            d = int(rng.integers(1, 5))
            M = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-3, 4, size=(d, 1))
            if t % 3 == 0:
                M[-1] = 2.0 * M[0] if d > 1 else 0.0
            rhs = rng.normal(size=d)
            expected = _solve_square(M.tolist(), rhs.tolist())
            assert solve_rational(M.tolist(), rhs.tolist()) == expected
            singular += expected is None
        assert singular == 50

    def test_fraction_entries(self):
        x = solve_rational([[Fraction(1, 3), 1], [0, Fraction(2, 7)]], [1, Fraction(1, 2)])
        assert x == [Fraction(-9, 4), Fraction(7, 4)]


class TestRankExact:
    def test_zero_pivot_column_is_skipped(self):
        # column 0 has no pivot; rows 0 and 1 are parallel
        assert rank_exact([[0, 2, 1], [0, 4, 2], [0, 1, 3]]) == 2
        # column 1 has no pivot once column 0 is eliminated
        assert rank_exact([[1, 2, 3], [2, 4, 7]]) == 2
        assert rank_exact([[0, 0], [0, 0]]) == 0
        assert rank_exact([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) == 2

    def test_matches_numpy_on_randoms(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            shape = tuple(int(v) for v in rng.integers(1, 6, size=2))
            M = rng.integers(-3, 4, size=shape) * (rng.random(shape) < 0.5)
            assert rank_exact(M) == np.linalg.matrix_rank(M)


class TestIsUnimodular:
    def test_identity_with_zero_columns(self):
        assert is_unimodular([[1, 0, 0, 0], [0, 1, 0, 0]]).unimodular

    def test_single_bad_basis(self):
        res = is_unimodular([[-1, 1], [1, 1]])
        assert not res.unimodular
        assert res.bad_det == -2

    def test_incidence_style(self):
        assert is_unimodular([[1, 0, 1], [0, 1, 1]]).unimodular

    def test_budget(self):
        # C(40, 10) ~ 8.5e8 column subsets exceed DEFAULT_BUDGET, so this
        # raises before any determinant is taken
        with pytest.raises(BudgetExceededError):
            is_unimodular(np.ones((10, 40), dtype=int))

    def test_witness_matches_det_exact_over_subsets(self):
        # reference: det_exact on every column subset, in order
        rng = np.random.default_rng(11)
        bad = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            M = rng.integers(-2, 3, size=(n, int(rng.integers(n, n + 4))))
            want = next(
                ((sub, d) for sub in itertools.combinations(range(M.shape[1]), n)
                 if (d := det_exact(M[:, list(sub)])) not in (-1, 0, 1)),
                None,
            )
            res = is_unimodular(M)
            assert res.unimodular == (want is None)
            if want is not None:
                bad += 1
                assert (res.bad_subset, res.bad_det) == want
        assert bad >= 50


class TestIntegralityFull:
    def test_near_identity_fixture(self):
        rep = integrality_full([[-1, 0], [0, -1]], [[0, 0], [0, 1]])
        assert not rep.integral_for_all_b
        # re-verify the witness: the cited basis determinant is not 0 or +-1
        assert abs(rep.witness_det) == 2
        s = np.array(rep.witness_sign)
        A = np.array([[-1, 0], [0, -1]])
        D = np.array([[0, 0], [0, 1]])
        M = (A - D * s).T
        sub = M[:, list(rep.witness_basis)]
        assert det_exact(sub) == rep.witness_det

    def test_d_zero_identity_integral(self):
        assert integrality_full(np.eye(2), np.zeros((2, 2))).integral_for_all_b

    def test_no_columns_is_rejected(self):
        # (A - D diag(s))^T has no rows; the CLI reports this as an error
        with pytest.raises(ValueError, match="expected a matrix"):
            integrality_full(np.zeros((2, 0), dtype=int), np.zeros((2, 0), dtype=int))

    def test_rank_one_uncertainty_fixture(self):
        rep = integrality_full([[0, 0], [1, 1]], [[1, 1], [0, 0]])
        assert not rep.integral_for_all_b
        assert abs(rep.witness_det) == 2
        # the failing sign has mixed entries: strict single-orthant signs
        # of one sign pattern would not expose it
        assert set(rep.witness_sign) == {-1, 1}


class TestRankOne:
    def test_fixture_caught_at_two_nonzeros(self):
        rep = integrality_rank_one([[0, 0], [1, 1]], [[1, 1], [0, 0]])
        assert not rep.integral_for_all_b
        assert sum(v != 0 for v in rep.witness_sign) == 2

    def test_agrees_with_full_on_e1e1t(self):
        A = np.eye(2, dtype=int)
        D = np.array([[1, 0], [0, 0]])
        assert (
            integrality_rank_one(A, D).integral_for_all_b
            == integrality_full(A, D).integral_for_all_b
        )

    def test_rejects_non_rank_one(self):
        with pytest.raises(ValueError):
            integrality_rank_one(np.eye(2), np.eye(2))

    def test_random_agreement_with_full(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 60:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 5))
            D = np.abs(np.outer(rng.integers(-2, 3, m), rng.integers(-2, 3, n)))
            if rank_exact(D.tolist()) != 1:
                continue
            A = rng.integers(-2, 3, size=(m, n))
            full = integrality_full(A, D)
            fast = integrality_rank_one(A, D)
            assert full.integral_for_all_b == fast.integral_for_all_b, (A, D)
            checked += 1


class TestExtendedSigns:
    def test_d_zero_identity(self):
        assert extended_signs_check(np.eye(2), np.zeros((2, 2)))

    def test_requires_passing_base_check(self):
        with pytest.raises(ValueError):
            extended_signs_check([[-1, 0], [0, -1]], [[0, 0], [0, 1]])

    def test_self_test_on_random_passing_instances(self):
        rng = np.random.default_rng(13)
        found = 0
        for _ in range(300):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(n, 4))
            A = rng.integers(-1, 2, size=(m, n))
            D = np.abs(rng.integers(-1, 2, size=(m, n)))
            rep = integrality_full(A, D)
            if rep.integral_for_all_b and D.sum() > 0:
                assert extended_signs_check(A, D)
                found += 1
                if found >= 8:
                    return
        assert found >= 1


def test_determinant_linearity_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, 5))
        A = rng.integers(-3, 4, size=(m, n))
        D = np.abs(rng.integers(-3, 4, size=(m, n)))
        s = [int(v) for v in rng.choice([-1, 0, 1], size=n)]
        i = int(rng.integers(0, n))
        s[i] = 0
        assert det_linearity_identity(A, D, s, i)


def reference_report(A, D, signs, method) -> IntegralityReport:
    """One is_unimodular call on (A - D diag(s))^T per sign, in order."""
    A, D = np.asarray(A, dtype=int), np.asarray(D, dtype=int)
    checked = 0
    for s in signs:
        checked += 1
        res = is_unimodular((A - D * np.asarray(s)).T)
        if not res.unimodular:
            return IntegralityReport(False, tuple(s), res.bad_subset, res.bad_det, checked, method)
    return IntegralityReport(True, None, None, None, checked, method)


def at_most_two_nonzeros(n):
    return [s for s in itertools.product((-1, 0, 1), repeat=n) if sum(v != 0 for v in s) <= 2]


def equivalence_instances():
    rng = np.random.default_rng(31)
    yield [[-1, 0], [0, -1]], [[0, 0], [0, 1]]  # near identity
    yield [[0, 0], [1, 1]], [[1, 1], [0, 0]]  # rank-one uncertainty
    for t in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, n + 3))
        A = rng.integers(-1, 2, size=(m, n))
        if t % 4 == 0:
            D = np.abs(np.outer(rng.integers(-1, 2, m), rng.integers(-1, 2, n)))
        elif t % 4 == 1:
            D = np.abs(rng.integers(-2, 3, size=(m, n)))  # dense
        else:
            D = np.abs(rng.integers(-1, 2, size=(m, n))) * (rng.random((m, n)) < 0.3)
        yield A, D


class TestDistinctMinors:
    def test_reports_equal_one_unimodularity_check_per_sign(self):
        kinds = {"rank_one": 0, "extended": 0, "failed": 0}
        for A, D in equivalence_instances():
            n = np.shape(A)[1]
            full = integrality_full(A, D)
            signs = (s.tolist() for s in sign_vectors(n, list(range(n))))
            assert full == reference_report(A, D, signs, "full")
            kinds["failed"] += not full.integral_for_all_b
            if rank_exact(D) == 1:
                want = reference_report(A, D, at_most_two_nonzeros(n), "rank_one")
                assert integrality_rank_one(A, D) == want
                kinds["rank_one"] += 1
            if full.integral_for_all_b:
                signs = itertools.product((-1, 0, 1), repeat=n)
                want = reference_report(A, D, signs, "extended").integral_for_all_b
                assert extended_signs_check(A, D) == want
                kinds["extended"] += 1
        assert kinds["rank_one"] >= 30 and kinds["extended"] >= 30 and kinds["failed"] >= 30

    @pytest.mark.parametrize("n", range(7))
    def test_rank_one_signs_are_the_filtered_product(self, n):
        assert integrality._at_most_two_nonzeros(n) == at_most_two_nonzeros(n)

    @staticmethod
    def count_eliminations(monkeypatch):
        calls = []
        det = integrality._det

        def counting_det(rows):
            calls.append(rows)
            return det(rows)

        monkeypatch.setattr(integrality, "_det", counting_det)
        return calls

    def test_zero_d_eliminates_each_subset_once(self, monkeypatch):
        calls = self.count_eliminations(monkeypatch)
        A = np.vstack([np.eye(3, dtype=int), np.ones((2, 3), dtype=int) - np.eye(2, 3, dtype=int)])
        rep = integrality_full(A, np.zeros((5, 3), dtype=int))
        assert rep.integral_for_all_b and rep.checked_signs == 8
        assert len(calls) == math.comb(5, 3)

    def test_eliminations_equal_distinct_minors(self, monkeypatch):
        # interval rows over the rows -s_j e_j: totally unimodular for every
        # s, so all 8 signs are checked.  D has one nonzero per column, and
        # the minor on S depends on the signs of the columns whose nonzero
        # row lies in S
        calls = self.count_eliminations(monkeypatch)
        m, n = 6, 3
        A = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 0], [0, 1, 1], [-1, -1, -1], [0, 0, 0]])
        D = np.zeros((m, n), dtype=int)
        D[[2, 5, 0], [0, 1, 2]] = 1
        rep = integrality_full(A, D)
        assert rep.integral_for_all_b and rep.checked_signs == 8
        keys = set()
        for s in sign_vectors(n, list(range(n))):
            for S in itertools.combinations(range(m), n):
                J = [j for j in range(n) if D[list(S), j].any()]
                keys.add((S, tuple(s[J].tolist())))
        assert len(calls) == len(keys) < 8 * math.comb(m, n)
