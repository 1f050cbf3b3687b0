import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avlp import simplex
from avlp.simplex import LinearProgram, LpStatus, solve_lp

from .oracles import assert_same_outcome, oracle_solve


def test_optimal_square():
    # max x1 + x2 on the unit square
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.array([1.0, 1.0, 0.0, 0.0])
    out = solve_lp(LinearProgram(G, h, [1.0, 1.0]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(2.0)
    assert out.x == pytest.approx([1.0, 1.0])


def test_infeasible_with_farkas_certificate():
    # x <= 0 and -x <= -1
    G = np.array([[1.0], [-1.0]])
    h = np.array([0.0, -1.0])
    out = solve_lp(LinearProgram(G, h, [0.0]))
    assert out.status is LpStatus.INFEASIBLE
    y = out.farkas
    assert y is not None and np.all(y >= -1e-12)
    assert np.allclose(y @ G, 0.0, atol=1e-9)
    assert y @ h < -1e-9


def test_unbounded_with_ray():
    G = np.array([[-1.0]])
    h = np.array([0.0])
    out = solve_lp(LinearProgram(G, h, [1.0]))
    assert out.status is LpStatus.UNBOUNDED
    r = out.ray
    assert r is not None
    assert np.all(G @ r <= 1e-12)
    assert float(np.array([1.0]) @ r) > 1e-9


def test_no_constraints_zero_objective():
    out = solve_lp(LinearProgram(np.zeros((0, 2)), np.zeros(0), [0.0, 0.0]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(0.0)


def test_no_constraints_nonzero_objective_unbounded():
    out = solve_lp(LinearProgram(np.zeros((0, 1)), np.zeros(0), [1.0]))
    assert out.status is LpStatus.UNBOUNDED


def test_degenerate_instance_terminates():
    # many redundant rows through one vertex; anti-cycling must kick in
    G = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    out = solve_lp(LinearProgram(G, h, [1.0, 1.0]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == pytest.approx(0.0)


def test_zero_objective_with_nonnegative_h_needs_no_pivot(monkeypatch):
    # the slack basis is feasible when h >= 0, so x = 0 is returned as is
    def no_pivot(*args):
        raise AssertionError("unexpected pivot")

    monkeypatch.setattr(simplex, "_pivot", no_pivot)
    rng = np.random.default_rng(3)
    G = rng.integers(-3, 4, size=(12, 4)).astype(float)
    h = rng.integers(0, 4, size=12).astype(float)
    out = solve_lp(LinearProgram(G, h, np.zeros(4)))
    assert out.status is LpStatus.OPTIMAL
    assert np.array_equal(out.x, np.zeros(4))


def test_phase1_tableau_has_an_artificial_only_per_negative_rhs(monkeypatch):
    # k = 5 non-empty rows (plus one empty row), d = 3 columns and f = 2
    # rows with h_i < 0: [G, -G, I] takes 2d + k columns, the artificials
    # f and the right-hand side 1
    widths = []
    iterate = simplex._iterate

    def recording_iterate(T, *args):
        widths.append(T.shape[1])
        return iterate(T, *args)

    monkeypatch.setattr(simplex, "_iterate", recording_iterate)
    G = np.array(
        [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 1.0], [0.0, -1.0, 0.0],
         [1.0, 1.0, 1.0], [-2.0, 0.0, 1.0]]
    )
    h = np.array([4.0, 1.0, -1.0, 3.0, 5.0, -2.0])
    out = solve_lp(LinearProgram(G, h, [1.0, 1.0, 0.0]))
    assert out.status is LpStatus.OPTIMAL
    assert np.all(G @ out.x <= h + 1e-9)
    assert widths[0] == 2 * 3 + 5 + 2 + 1


def assert_farkas(y, G, h):
    y = y / np.max(y)
    assert np.all(y >= 0.0)
    assert np.allclose(y @ G, 0.0, atol=1e-9)
    assert y @ h < -1e-9


def test_violated_empty_row_is_infeasible_without_pivot(monkeypatch):
    # rows 1 and 3 read 0 <= -2 and 0 <= -5; row 2 alone would need a
    # phase-1 pivot, so the verdict must come before the tableau
    def no_pivot(*args):
        raise AssertionError("unexpected pivot")

    monkeypatch.setattr(simplex, "_pivot", no_pivot)
    G = np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    h = np.array([4.0, -2.0, -1.0, -5.0])
    out = solve_lp(LinearProgram(G, h, [1.0, 0.0]))
    assert out.status is LpStatus.INFEASIBLE
    assert np.array_equal(out.farkas, [0.0, 1.0, 0.0, 0.0])
    assert_farkas(out.farkas, G, h)


def test_lp_without_columns_checks_each_row():
    ok = solve_lp(LinearProgram(np.zeros((3, 0)), [0.0, 2.0, -1e-9], np.zeros(0)))
    assert ok.status is LpStatus.OPTIMAL and ok.x.shape == (0,)
    bad = solve_lp(LinearProgram(np.zeros((3, 0)), [1.0, -1.0, -3.0], np.zeros(0)))
    assert bad.status is LpStatus.INFEASIBLE
    assert np.array_equal(bad.farkas, [0.0, 1.0, 0.0])


def test_satisfied_empty_rows_change_nothing():
    # inserting rows 0 <= h_i with h_i >= 0 leaves the verdict and value;
    # a Farkas vector covers every row and is zero on the inserted ones
    rng = np.random.default_rng(5)
    counts = {status: 0 for status in LpStatus}
    for _ in range(600):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        G = rng.integers(-3, 4, size=(k, d)).astype(float)
        h = rng.integers(-3, 4, size=k).astype(float)
        c = rng.integers(-3, 4, size=d).astype(float)
        zeros = int(rng.integers(1, 4))
        rows = np.sort(rng.choice(k + zeros, size=zeros, replace=False))
        others = np.setdiff1d(np.arange(k + zeros), rows)
        Gz = np.zeros((k + zeros, d))
        hz = np.zeros(k + zeros)
        Gz[others], hz[others] = G, h
        hz[rows] = rng.integers(0, 4, size=zeros)
        base = solve_lp(LinearProgram(G, h, c))
        padded = solve_lp(LinearProgram(Gz, hz, c))
        counts[base.status] += 1
        assert padded.status is base.status
        if base.status is LpStatus.OPTIMAL:
            assert padded.value == pytest.approx(base.value, abs=1e-9)
        elif base.status is LpStatus.INFEASIBLE:
            assert padded.farkas.shape == (k + zeros,)
            assert np.all(padded.farkas[rows] == 0.0)
            assert_farkas(padded.farkas, Gz, hz)
    assert min(counts.values()) > 60, counts


def test_certificates_on_random_mixed_sign_lps():
    rng = np.random.default_rng(11)
    counts = {status: 0 for status in LpStatus}
    for _ in range(3000):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        G = rng.integers(-3, 4, size=(k, d)).astype(float)
        h = rng.integers(-3, 4, size=k).astype(float)
        c = rng.integers(-3, 4, size=d).astype(float)
        out = solve_lp(LinearProgram(G, h, c))
        counts[out.status] += 1
        if out.status is LpStatus.INFEASIBLE:
            assert_farkas(out.farkas, G, h)
        elif out.status is LpStatus.UNBOUNDED:
            r = out.ray
            assert np.all(G @ r <= 1e-9)
            assert c @ r > 1e-9
        else:
            assert np.all(G @ out.x <= h + 1e-9 * (1.0 + np.abs(h)))
    assert min(counts.values()) > 300, counts


@pytest.mark.parametrize("field", ["G", "h", "obj"])
def test_rejects_non_finite_entry(field):
    data = {"G": [[1.0, 0.0]], "h": [1.0], "obj": [1.0, 0.0]}
    data[field] = np.array(data[field])
    data[field].flat[0] = np.nan
    with pytest.raises(ValueError, match=f"LP field '{field}' has a non-finite entry"):
        LinearProgram(**data)


def test_cross_check_against_rational_oracle():
    rng = np.random.default_rng(7)
    for _ in range(120):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 9))
        G = rng.integers(-3, 4, size=(k, d))
        h = rng.integers(-3, 4, size=k)
        c = rng.integers(-3, 4, size=d)
        # an LP is the D=0 special case of the oracle's problem class
        status, val = oracle_solve(G, np.zeros_like(G), h, c)
        out = solve_lp(LinearProgram(G.astype(float), h.astype(float), c.astype(float)))
        assert out.status.name.lower() == status
        if status == "optimal":
            assert out.value == pytest.approx(float(val), abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_row_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    k, d = 6, 2
    G = rng.integers(-2, 3, size=(k, d)).astype(float)
    h = rng.integers(-2, 3, size=k).astype(float)
    c = rng.integers(-2, 3, size=d).astype(float)
    out1 = solve_lp(LinearProgram(G, h, c))
    perm = rng.permutation(k)
    out2 = solve_lp(LinearProgram(G[perm], h[perm], c))
    assert out1.status is out2.status
    if out1.status is LpStatus.OPTIMAL:
        assert out1.value == pytest.approx(out2.value, abs=1e-8)


def record_pivots(monkeypatch, pivot):
    """Patch ``simplex._pivot`` to record (row, col) and then run ``pivot``;
    returns the list of recorded pivots."""
    pivots = []

    def recording_pivot(T, red, basis, row, col):
        pivots.append((row, col))
        pivot(T, red, basis, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording_pivot)
    return pivots


def test_dantzig_picks_lowest_index_among_equal_most_negative(monkeypatch):
    pivots = record_pivots(monkeypatch, simplex._pivot)
    T = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 2.0], [1.0, 2.0, 1.0, 0.0, 1.0, 4.0]])
    red = np.array([-1.0, -3.0, -3.0, 0.0, 0.0, 0.0])
    basis = np.array([3, 4])
    assert simplex._iterate(T, red, basis, 100, 100) is None
    # columns 1 and 2 tie at -3; rows 0 and 1 tie at ratio 2, row 0 has the smaller basic index
    assert pivots[0] == (0, 1)


@pytest.mark.parametrize(
    "bland_after, expected", [(0, [(0, 1), (1, 0), (1, 2)]), (100, [(0, 1), (1, 2)])]
)
def test_bland_picks_lowest_index_improving_column_after_degenerate_pivot(
        monkeypatch, bland_after, expected):
    pivots = record_pivots(monkeypatch, simplex._pivot)
    # column 1 enters first (-5) on row 0, whose rhs is 0: a degenerate pivot;
    # then Bland takes column 0 (-1) where Dantzig takes column 2 (-2)
    T = np.array([[0.0, 1.0, 0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0, 1.0]])
    red = np.array([-1.0, -5.0, -2.0, 0.0, 0.0, 0.0])
    basis = np.array([3, 4])
    assert simplex._iterate(T, red, basis, bland_after, 100) is None
    assert pivots == expected


def reference_pivot(T, red, basis, row, col):
    T[row] /= T[row, col]
    piv = T[row]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, piv)
    red -= red[col] * piv
    basis[row] = col


def reference_iterate(T, red, basis, bland_after, max_iters):
    """The kernel's pricing as first written: Dantzig over the improving
    columns, Bland's lowest index after bland_after degenerate pivots, the
    least basic index among tied ratios."""
    degen = 0
    for _ in range(max_iters):
        cols = np.where(red[:-1] < -simplex.PIVOT_TOL)[0]
        if cols.size == 0:
            return None
        col = int(cols[0]) if degen > bland_after else int(cols[np.argmin(red[cols])])
        pos = np.where(T[:, col] > simplex.PIVOT_TOL)[0]
        if pos.size == 0:
            return col
        ratios = T[pos, -1] / T[pos, col]
        rmin = ratios.min()
        ties = pos[ratios <= rmin + simplex.RATIO_TIE_TOL * (1.0 + abs(rmin))]
        row = int(ties[np.argmin(basis[ties])])
        degen = degen + 1 if rmin <= simplex.PIVOT_TOL else 0
        simplex._pivot(T, red, basis, row, col)
    raise simplex.SimplexError("simplex iteration limit exceeded")


def test_pivots_match_reference_pricing(monkeypatch):
    rng = np.random.default_rng(23)
    iterate, pivot = simplex._iterate, simplex._pivot
    total = 0
    for trial in range(300):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 10))
        lp = LinearProgram(rng.integers(-3, 4, size=(k, d)), rng.integers(-3, 4, size=k),
                           rng.integers(-3, 4, size=d))
        # every other LP switches to Bland's rule after its first degenerate pivot
        force = 0 if trial % 2 else None
        runs = []
        for it, piv in ((iterate, pivot), (reference_iterate, reference_pivot)):
            def run(T, red, basis, bland_after, max_iters, it=it):
                return it(T, red, basis, bland_after if force is None else force, max_iters)

            monkeypatch.setattr(simplex, "_iterate", run)
            pivots = record_pivots(monkeypatch, piv)
            runs.append((solve_lp(lp), pivots))
        (out, pivots), (ref, ref_pivots) = runs
        assert pivots == ref_pivots
        assert_same_outcome(out, ref)
        total += len(pivots)
    assert total > 600
