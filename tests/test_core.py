import numpy as np
import pytest

import avlp
from avlp.core import (
    AvlpProblem,
    DimensionError,
    RawProblem,
    SignVector,
    membership,
    nonzero_columns,
    normalize,
    orthant_restriction,
    secant,
    secant_relaxation,
    sgn,
    split_relaxation,
)


def test_sgn_convention():
    assert sgn(0.0) == 1
    assert sgn(-0.0) == 1
    assert sgn(2.5) == 1
    assert sgn(-1e-30) == -1


class TestSignVector:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            SignVector((1, 2))

    @pytest.mark.parametrize("entry", [1.5, 0.9, -1.2])
    def test_rejects_entries_it_would_truncate(self, entry):
        with pytest.raises(ValueError, match="entries must be in"):
            SignVector((entry, -1))

    def test_strictness(self):
        assert SignVector((1, -1)).is_strict
        assert not SignVector((1, 0)).is_strict


class TestAvlpProblem:
    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            AvlpProblem([[1.0]], [[-0.5]], [1.0], [1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises((ValueError, DimensionError)):
            AvlpProblem([[1.0, 0.0]], [[1.0]], [1.0], [1.0, 0.0])

    @pytest.mark.parametrize("field", ["A", "D", "b", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, field, bad):
        data = {"A": [[1.0, 0.0]], "D": [[0.0, 1.0]], "b": [1.0], "c": [1.0, 0.0]}
        data[field] = np.array(data[field])
        data[field].flat[0] = bad
        for cls in (AvlpProblem, RawProblem):
            with pytest.raises(ValueError, match=f"field '{field}' has a non-finite entry"):
                cls(**data)

    def test_arrays_read_only(self):
        p = AvlpProblem([[1.0]], [[0.0]], [1.0], [1.0])
        with pytest.raises(ValueError):
            p.A[0, 0] = 5.0

    @pytest.mark.parametrize("cls", [AvlpProblem, RawProblem])
    def test_caller_arrays_stay_writeable_and_unshared(self, cls):
        given = {"A": np.ones((2, 2)), "D": np.zeros((2, 2)), "b": np.ones(2), "c": np.ones(2)}
        p = cls(**given)
        for arr in given.values():
            assert arr.flags.writeable
            arr[...] = 7.0
        assert np.array_equal(p.A, np.ones((2, 2)))
        assert np.array_equal(p.D, np.zeros((2, 2)))
        assert np.array_equal(p.b, np.ones(2)) and np.array_equal(p.c, np.ones(2))

    def test_with_rhs_and_objective(self):
        p = AvlpProblem([[1.0]], [[0.0]], [1.0], [1.0])
        assert p.with_rhs([2.0]).b[0] == 2.0
        assert p.with_objective([3.0]).c[0] == 3.0


def test_normalize_passthrough_when_d_nonnegative():
    raw = RawProblem([[1.0]], [[0.5]], [1.0], [1.0])
    p = normalize(raw)
    assert p.n == 1 and p.m == 1
    assert p.D[0, 0] == 0.5


def test_normalize_doubles_variables_on_negative_d():
    # x - (-1)|x| <= 1 means x + |x| <= 1, i.e. x <= 1/2 for x >= 0
    raw = RawProblem([[1.0]], [[-1.0]], [1.0], [1.0])
    p = normalize(raw)
    assert p.n == 2
    assert np.all(p.D >= 0)
    # feasibility must agree with the source system on both branches
    for x in (-3.0, 0.25, 0.5, 0.75):
        direct = x + abs(x) <= 1.0 + 1e-12
        # encoded vars (x, y) with y = |x|
        ok, _ = membership(p, np.array([x, abs(x)]))
        assert ok == direct


def test_membership_residual():
    p = AvlpProblem([[1.0], [-1.0]], [[1.0], [0.0]], [0.0, 1.0], [1.0])
    ok, resid = membership(p, np.array([-0.5]))
    assert ok
    assert resid.shape == (2,)
    assert resid[0] == pytest.approx(-0.5 - 0.5)


def test_orthant_restriction_builds_expected_system():
    p = AvlpProblem([[9.0, 9.0]], [[0.0, 0.0]], [9.0], [1.0, 0.0])
    lp = orthant_restriction(p, SignVector((1, 1)))
    assert lp.G.shape == (3, 2)
    assert np.array_equal(lp.G[0], [9.0, 9.0])


def test_orthant_restriction_matches_the_explicit_formula():
    # [A - D diag(s); -diag(s)[s != 0]] x <= [b; 0], with zero signs on
    # some zero columns of D
    rng = np.random.default_rng(2)
    for _ in range(50):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        zero_cols = rng.random(n) < 0.4
        D = np.abs(rng.normal(size=(m, n)))
        D[:, zero_cols] = 0.0
        s = rng.choice((-1, 1), size=n)
        s[zero_cols & (rng.random(n) < 0.5)] = 0
        p = AvlpProblem(rng.normal(size=(m, n)), D, rng.normal(size=m), rng.normal(size=n))
        lp = orthant_restriction(p, SignVector(tuple(s)))
        kept = [j for j in range(n) if s[j] != 0]
        G = [[p.A[i, j] - p.D[i, j] * s[j] for j in range(n)] for i in range(m)]
        G += [[-float(s[j]) if k == j else 0.0 for k in range(n)] for j in kept]
        assert np.array_equal(lp.G, G)
        assert np.array_equal(lp.h, list(p.b) + [0.0] * len(kept))
        assert np.array_equal(lp.obj, p.c)


def test_orthant_restriction_zero_sign_leaves_coordinate_free():
    p = AvlpProblem([[1.0, 0.0]], [[0.0, 0.0]], [1.0], [1.0, 0.0])
    lp = orthant_restriction(p, SignVector((1, 0)))
    # only one sign row is added, for the first coordinate
    assert lp.G.shape == (2, 2)


def test_orthant_restriction_zero_sign_rejected_when_d_column_nonzero():
    p = AvlpProblem([[1.0]], [[1.0]], [1.0], [1.0])
    with pytest.raises(ValueError):
        orthant_restriction(p, SignVector((0,)))


def test_nonzero_columns():
    D = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    assert nonzero_columns(D) == [1]


def _random_problem(rng, m=4, n=3):
    return AvlpProblem(rng.normal(size=(m, n)), np.abs(rng.normal(size=(m, n))),
                       rng.uniform(0.5, 2.0, size=m), rng.normal(size=n))


def test_split_relaxation_root_is_the_relaxation_lp():
    p = _random_problem(np.random.default_rng(0))
    lp = split_relaxation(p)
    n = p.n
    G = np.vstack([np.hstack([p.A - p.D, -(p.A + p.D)]), -np.eye(2 * n)])
    assert np.array_equal(lp.G, G)
    assert np.array_equal(lp.h, np.concatenate([p.b, np.zeros(2 * n)]))
    assert np.array_equal(lp.obj, np.concatenate([p.c, -p.c]))


def test_secant_relaxation_leaf_is_the_orthant_lp():
    p = _random_problem(np.random.default_rng(1))
    s = SignVector((1, -1, 1))
    bounds = (np.full(3, -2.0), np.full(3, 3.0))
    lp, leaf = secant_relaxation(p, np.array(s.entries), bounds), orthant_restriction(p, s)
    assert np.array_equal(lp.G, leaf.G)
    assert np.array_equal(lp.h, leaf.h)
    assert np.array_equal(lp.obj, leaf.obj)


def test_secant_is_exact_at_both_ends_and_above_between():
    l, u = np.array([-1.0, -3.0]), np.array([4.0, 2.0])
    slope, intercept = secant(l, u)
    assert slope * l + intercept == pytest.approx(np.abs(l))
    assert slope * u + intercept == pytest.approx(u)
    assert np.all(intercept > 0.0)  # its value at x = 0, above |0|


def test_secant_relaxation_caps_free_coordinates_by_the_secant():
    # x_0 free on [-1, 4] with a nonzero column of D; x_1 fixed; x_2 free
    # but its column of D is zero, so it keeps |x_2| out and gets no box
    p = AvlpProblem(np.ones((1, 3)), [[1.0, 1.0, 0.0]], [1.0], [1.0, 1.0, 1.0])
    lp = secant_relaxation(p, np.array([0, 1, 0]), (np.full(3, -1.0), np.full(3, 4.0)))
    # sec(x_0) = 0.6 x_0 + 1.6: x_0 + x_1 + x_2 - (0.6 x_0 + 1.6) - x_1 <= 1,
    # then the sign row -x_1 <= 0 and the box -1 <= x_0 <= 4
    assert np.allclose(lp.G, [[0.4, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.allclose(lp.h, [2.6, 0.0, 4.0, 1.0])


def test_secant_relaxation_without_bounds_needs_every_nonzero_d_column_fixed():
    p = AvlpProblem([[1.0, 1.0]], [[0.0, 1.0]], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="zero sign entries"):
        secant_relaxation(p, np.array([1, 0]))
    # a free sign on the zero column of D needs no bounds
    assert secant_relaxation(p, np.array([0, 1])).G.shape == (2, 2)


def test_secant_relaxation_rejects_wrong_sign_length():
    p = AvlpProblem([[1.0]], [[1.0]], [1.0], [1.0])
    with pytest.raises(DimensionError):
        secant_relaxation(p, np.array([1, 1]), (np.full(1, -1.0), np.full(1, 1.0)))
    with pytest.raises(DimensionError):
        orthant_restriction(p, SignVector((1, 1)))


def test_public_names_stay():
    assert sorted(avlp.__all__) == [
        "AvlpProblem", "DimensionError", "LinearProgram", "LpOutcome", "LpStatus",
        "RawProblem", "SignVector", "SimplexError", "SolveReport", "SolveStatus",
        "find_feasible_point", "membership", "normalize", "orthant_restriction",
        "relaxation_bound", "sgn", "solve_exact", "solve_lp", "vertex_candidacy",
    ]
    for name in avlp.__all__:
        assert hasattr(avlp, name), name
