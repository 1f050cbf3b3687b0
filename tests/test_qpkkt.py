import json

import numpy as np
import pytest

from avlp import cli
from avlp.core import AvlpProblem, membership
from avlp.qpkkt import (
    KktPoint,
    build_qp,
    construct_kkt_counterexample,
    default_alpha,
    kkt_global_property,
    optimum_on_lp_part,
    verify_kkt,
)


def tiny():
    """n = m = 1, A = 0, D = 1, c = 1: every b admits spurious KKT points."""
    return AvlpProblem([[0.0]], [[1.0]], [-7.0], [1.0])


class TestBuildQp:
    def test_blocks(self):
        qp = build_qp(tiny(), alpha=1.0)
        assert qp.lower[0, 0] == -1.0
        assert qp.upper[0, 0] == 1.0

    def test_auto_alpha_on_data_bounded_by_three(self):
        p = AvlpProblem([[3.0]], [[2.0]], [-3.0], [1.0])
        assert build_qp(p).alpha == 1600.0
        assert default_alpha(p) == 1600.0

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            build_qp(tiny(), alpha=0.0)

    def test_objective_and_feasibility(self):
        qp = build_qp(tiny(), alpha=1.0)
        assert qp.objective([1.0], [3.0]) == pytest.approx(1.0 - 3.0 - 3.0)
        assert qp.feasible([7.0], [0.0])  # -7 <= -7
        assert not qp.feasible([1.0], [3.0])  # -4 <= -7 is false


class TestVerifyKkt:
    def test_zero_point_is_valid_and_complementary(self):
        p = AvlpProblem([[0.0]], [[1.0]], [0.0], [0.0])
        qp = build_qp(p, alpha=1.0)
        v = verify_kkt(qp, [0.0], KktPoint([0], [0], [0], [0], [0]))
        assert v.valid and v.complementary

    def test_perturbed_point_is_invalid(self):
        p = tiny()
        qp = build_qp(p, alpha=1.0)
        b, pt = construct_kkt_counterexample(p, [2.0], alpha=1.0)
        bad = KktPoint(pt.x1, pt.x2, pt.u + 1.0, pt.v, pt.w)
        v = verify_kkt(qp, b, bad)
        assert not v.valid
        assert "stationarity-u" in v.violations


class TestGlobalProperty:
    def test_fixture_fails_with_witness(self):
        rep = kkt_global_property(tiny())
        assert not rep.holds_for_all_b
        assert rep.witness_index == 0
        w = rep.witness_w
        # the witness satisfies the strict two-sided system |c - A^T w| < D^T w
        p = tiny()
        resid = abs(float(p.c[0]) - float((p.A.T @ w)[0]))
        assert resid < float((p.D.T @ w)[0]) - 1e-9

    def test_d_zero_holds(self):
        assert kkt_global_property(AvlpProblem([[1.0]], [[0.0]], [1.0], [1.0])).holds_for_all_b

    def test_ties_without_strictness_hold(self):
        # A = D = 1, c = 0: residual always equals the bound, never strict
        assert kkt_global_property(AvlpProblem([[1.0]], [[1.0]], [1.0], [0.0])).holds_for_all_b

    def test_witness_tight_at_other_indices_is_found(self, tmp_path):
        # strict two-sided slack at index 0 only; index 1 is tight for
        # every w, so one LP over both indices would see no witness
        A = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        D = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        p = AvlpProblem(A, D, np.ones(4), [0.0, 1.0])
        rep = kkt_global_property(p)
        assert not rep.holds_for_all_b
        assert (rep.witness_index, rep.margin) == (0, 1.0)
        b, pt = construct_kkt_counterexample(p, rep.witness_w)
        v = verify_kkt(build_qp(p), b, pt)
        assert v.valid and not v.complementary
        # the one probe per index is the only probe
        path = tmp_path / "k.json"
        path.write_text(json.dumps(
            {"n": 2, "m": 4, "A": np.ravel(A).tolist(), "D": np.ravel(D).tolist(),
             "b": [1, 1, 1, 1], "c": [0, 1]}
        ))
        with pytest.raises(SystemExit) as exc:
            cli.main(["kkt", str(path), "--aggregate"])
        assert exc.value.code == 2


class TestCounterexample:
    def test_proof_formulas_on_fixture(self):
        p = tiny()
        b, pt = construct_kkt_counterexample(p, [2.0], alpha=1.0)
        assert pt.x1 == pytest.approx([1.0])
        assert pt.x2 == pytest.approx([3.0])
        # all constraints tight by construction
        assert b == pytest.approx([-4.0])

    def test_point_is_valid_noncomplementary_nonmember(self):
        p = tiny()
        qp = build_qp(p, alpha=1.0)
        b, pt = construct_kkt_counterexample(p, [2.0], alpha=1.0)
        v = verify_kkt(qp, b, pt)
        assert v.valid
        assert not v.complementary
        assert v.noncomplementary_indices == (0,)
        assert not membership(p.with_rhs(b), pt.x1 - pt.x2)[0]

    def test_scaling_the_witness_keeps_noncomplementarity(self):
        p = tiny()
        qp = build_qp(p, alpha=1.0)
        b, pt = construct_kkt_counterexample(p, [20.0], alpha=1.0)
        v = verify_kkt(qp, b, pt)
        assert v.valid and not v.complementary

    def test_strict_index_gives_positive_pair(self):
        rep = kkt_global_property(tiny())
        b, pt = construct_kkt_counterexample(tiny(), rep.witness_w, alpha=1.0)
        i = rep.witness_index
        assert pt.x1[i] > 1e-9 and pt.x2[i] > 1e-9

    def test_rejects_bad_witness(self):
        with pytest.raises(ValueError):
            construct_kkt_counterexample(tiny(), [-1.0])


class TestOptimumOnLpPart:
    def test_d_zero_confirmed(self):
        p = AvlpProblem([[1.0], [-1.0]], [[0.0], [0.0]], [2.0, 1.0], [1.0])
        rep = optimum_on_lp_part(p)
        assert rep.verdict == "confirmed"
        assert rep.lp_value == pytest.approx(rep.avlp_value)

    def test_failing_property_is_inapplicable(self):
        assert optimum_on_lp_part(tiny()).verdict == "inapplicable"

    def test_random_instances_with_property_holding(self):
        rng = np.random.default_rng(11)
        confirmed = 0
        for _ in range(120):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(n, 5))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            # sparse D: the complementarity property rarely survives a
            # dense absolute-value part
            D = np.abs(rng.integers(-2, 3, size=(m, n))).astype(float)
            D *= rng.random(size=(m, n)) < 0.25
            b = rng.integers(-3, 4, size=m).astype(float)
            c = rng.integers(-3, 4, size=n).astype(float)
            p = AvlpProblem(A, D, b, c)
            rep = optimum_on_lp_part(p)
            if rep.verdict == "inapplicable":
                continue
            assert rep.verdict == "confirmed", (A, D, b, c)
            confirmed += 1
        assert confirmed >= 5
