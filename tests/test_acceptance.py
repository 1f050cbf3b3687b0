"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line on the live terminal (bypassing capture) so a full run
yields a nine-line scoreboard.
"""

import csv
import json
import math

import numpy as np
import pytest

from avlp import cli
from avlp.core import AvlpProblem, SignVector, membership
from avlp.exact import find_feasible_point, relaxation_bound, solve_exact
from avlp.integrality import (
    det_exact,
    det_linearity_identity,
    integrality_full,
    integrality_rank_one,
)
from avlp.qpkkt import (
    build_qp,
    construct_kkt_counterexample,
    kkt_global_property,
    verify_kkt,
)
from avlp.reformulate import (
    ALPHA_CAP_FACTOR,
    OrthantConvexVerificationError,
    Polyhedron,
    UnionOfPolyhedra,
    orthant_convex_to_avlp,
    union_membership,
    union_to_avlp,
)
from avlp.stability import (
    EnclosureError,
    IntervalMatrix,
    basis_stability_check,
    enclose_solutions,
)

from .oracles import oracle_solve, random_integer_instance
from .test_exact import manhattan_ball, set_partitioning


def check(capsys, num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num} ({label}): {verdict}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """500 random integer instances with both solver and oracle verdicts."""
    rng = np.random.default_rng(20260826)
    out = []
    for _ in range(500):
        A, D, b, c = random_integer_instance(rng)
        p = AvlpProblem(A, D, b, c)
        status, value = oracle_solve(A, D, b, c)
        out.append((p, status, value, solve_exact(p)))
    return out


def test_criterion_1_oracle_equivalence(corpus, capsys):
    mismatches = 0
    for p, status, value, rep in corpus:
        if rep.status != status:
            mismatches += 1
        elif status == "optimal" and abs(rep.f_star - float(value)) > 1e-6:
            mismatches += 1
    check(
        capsys, 1, "oracle equivalence on 500 random instances",
        mismatches == 0, f"{mismatches} mismatches",
    )


def test_criterion_2_manhattan_ball(capsys, tmp_path):
    p = manhattan_ball()
    hand_points = [
        ((0.0, 0.0), True),
        ((1.0, 0.0), True),
        ((-1.0, 0.0), True),
        ((0.0, -1.0), True),
        ((0.5, 0.4), True),
        ((0.6, 0.6), False),
        ((0.8, -0.8), False),
        ((2.0, 0.0), False),
    ]
    ok = all(membership(p, np.array(pt))[0] == want for pt, want in hand_points)
    rep = solve_exact(p)
    ok = ok and rep.status == "optimal" and abs(rep.f_star - 1.0) <= 1e-9

    src = tmp_path / "man.json"
    src.write_text(json.dumps(cli.problem_to_json(p)))
    out = tmp_path / "man.csv"
    ok = ok and cli.main(["polygon2d", str(src), str(out)]) == 0
    capsys.readouterr()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    pieces = {}
    for r in rows:
        pieces.setdefault((r["s1"], r["s2"]), []).append(
            (float(r["x1"]), float(r["x2"]))
        )
    ok = ok and len(pieces) == 4 and all(len(v) == 3 for v in pieces.values())
    corners = {pt for v in pieces.values() for pt in v if (0.0, 0.0) != pt}
    ok = ok and corners == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    check(capsys, 2, "manhattan ball membership, optimum, polygon", ok)


def test_criterion_3_set_partitioning(capsys):
    r1 = solve_exact(set_partitioning((1, 1, 2)))
    r2 = solve_exact(set_partitioning((1, 1, 1)))
    ok = (
        r1.status == "optimal"
        and abs(r1.f_star - 0.0) <= 1e-9
        and r2.status == "optimal"
        and abs(r2.f_star - (-1.0)) <= 1e-9
    )
    check(capsys, 3, "set partitioning gadget optima", ok,
          f"f*=({r1.f_star}, {r2.f_star})")


def wedge_union_3var():
    """Encoding of {x1 <= -1, x2 >= 1} u {-x1 + x2 <= 0, x2 >= 1} with one
    auxiliary variable: rows x1+x3-|x3| <= -1, -x1+x2-x3-|x3| <= 0, x2 >= 1."""
    A = [[1.0, 0.0, 1.0], [-1.0, 1.0, -1.0], [0.0, -1.0, 0.0]]
    D = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    return AvlpProblem(A, D, [-1.0, 0.0, -1.0], [0.0, 0.0, 0.0])


def wedge_member(x1, x2):
    """Existential check: is there x3 making (x1, x2, x3) feasible?  Fixing
    the first two coordinates leaves sign-branch LPs over x3 only."""
    p = wedge_union_3var()
    fix = np.array([
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    ])
    fixed = AvlpProblem(
        np.vstack([p.A, fix]),
        np.vstack([p.D, np.zeros((4, 3))]),
        np.concatenate([p.b, [x1, -x1, x2, -x2]]),
        p.c,
    )
    return find_feasible_point(fixed) is not None


def test_criterion_4_wedge_union_encoding(capsys):
    ok = all(wedge_member(*pt) for pt in [(-2, 2), (2, 2), (3, 1)])
    ok = ok and not any(wedge_member(*pt) for pt in [(0, 1), (1, 2)])

    # the raw 2-variable set has no single-inequality description: the
    # verification sweep must reject every alpha up to the cap,
    # ALPHA_CAP_FACTOR times the first scale 1 + max|a| = 2
    empty = [(np.array([0.0, 0.0]), -1.0)]
    pieces = [
        (SignVector((1, 1)),
         [(np.array([-1.0, 1.0]), 0.0), (np.array([0.0, -1.0]), -1.0)]),
        (SignVector((-1, 1)),
         [(np.array([1.0, 0.0]), -1.0), (np.array([0.0, -1.0]), -1.0)]),
        (SignVector((1, -1)), empty),
        (SignVector((-1, -1)), empty),
    ]
    try:
        orthant_convex_to_avlp(pieces)
        ok = False
    except OrthantConvexVerificationError as exc:
        ok = ok and exc.alpha == ALPHA_CAP_FACTOR * 2.0
    check(capsys, 4, "wedge union: aux-variable encoding, no direct encoding", ok)


def test_criterion_5_random_unions(capsys):
    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 3))
        pieces = []
        for _ in range(m):
            if n == 2 and rng.random() < 0.3:
                g = rng.integers(-2, 3, size=2).astype(float)
                if not g.any():
                    g[0] = 1.0
                pieces.append(Polyhedron([g], [float(rng.integers(-2, 3))]))
            else:
                lo = rng.integers(-4, 3, size=n)
                hi = lo + rng.integers(1, 4, size=n)
                G = np.vstack([np.eye(n), -np.eye(n)])
                pieces.append(Polyhedron(G, np.concatenate([hi, -lo]).astype(float)))
        u = UnionOfPolyhedra(tuple(pieces))
        enc = union_to_avlp(u)
        if enc.num_aux != math.ceil(math.log2(m)):
            disagreements += 1
            continue
        pts = rng.uniform(-5, 5, size=(200, n))
        for x in pts:
            if union_membership(enc, x) != u.contains(x):
                disagreements += 1
    check(capsys, 5, "union encodings vs direct membership", disagreements == 0,
          f"{disagreements} disagreements")


def test_criterion_6_kkt_round_trip(capsys):
    # fixture where multiplier complementarity fails for some b
    p = AvlpProblem([[0.0]], [[1.0]], [1.0], [1.0])
    rep = kkt_global_property(p)
    ok = not rep.holds_for_all_b and rep.witness_w is not None
    if ok:
        qp = build_qp(p)
        b, pt = construct_kkt_counterexample(p, rep.witness_w)
        ver = verify_kkt(qp, b, pt)
        ok = ver.valid and not ver.complementary
        shifted = AvlpProblem(p.A, p.D, b, p.c)
        ok = ok and not membership(shifted, pt.x1 - pt.x2)[0]

    # on instances where the property holds, a 10^4-trial perturbation
    # search over multiplier vectors must find no two-sided strict slack
    rng = np.random.default_rng(99)
    holders = 0
    attempts = 0
    escaped = 0
    while holders < 100 and attempts < 3000:
        attempts += 1
        A, D, _, c = random_integer_instance(rng)
        D = D * (rng.random(size=D.shape) < 0.3)
        p2 = AvlpProblem(A, D, np.zeros(A.shape[0]), c)
        g = kkt_global_property(p2)
        if not g.holds_for_all_b:
            continue
        holders += 1
        m, n = A.shape
        W = rng.uniform(0.0, 10.0, size=(10_000, m))
        lo = W @ (np.asarray(A, float) - np.asarray(D, float))
        hi = W @ (np.asarray(A, float) + np.asarray(D, float))
        cf = np.asarray(c, float)
        slack = np.minimum(hi - cf, cf - lo)
        cand = np.argwhere(slack > 1e-8)
        for t, _i in cand[:20]:
            qp2 = build_qp(p2)
            b2, pt2 = construct_kkt_counterexample(p2, W[t])
            v2 = verify_kkt(qp2, b2, pt2)
            if v2.valid and not v2.complementary:
                escaped += 1
    ok = ok and holders == 100 and escaped == 0
    check(capsys, 6, "kkt complementarity round trip", ok,
          f"{holders} holding instances, {escaped} escapes")


def test_criterion_7_integrality(capsys):
    # fixture 1: near-identity with one uncertain column
    r1 = integrality_full([[-1, 0], [0, -1]], [[0, 0], [0, 1]])
    ok = not r1.integral_for_all_b and abs(r1.witness_det) == 2
    A1 = np.array([[-1, 0], [0, -1]])
    D1 = np.array([[0, 0], [0, 1]])
    M1 = (A1 - D1 * np.array(r1.witness_sign)).T
    ok = ok and det_exact(M1[:, list(r1.witness_basis)]) == r1.witness_det
    # fixture 2: rank-one uncertainty needing a mixed sign vector
    r2 = integrality_full([[0, 0], [1, 1]], [[1, 1], [0, 0]])
    ok = ok and not r2.integral_for_all_b and abs(r2.witness_det) == 2
    ok = ok and set(r2.witness_sign) == {-1, 1}

    rng = np.random.default_rng(13)
    agree = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n, n + 3))
        A = rng.integers(-2, 3, size=(m, n))
        u = rng.integers(-2, 3, size=m)
        v = np.abs(rng.integers(-2, 3, size=n))
        D = np.abs(np.outer(u, v))
        if np.count_nonzero(D) == 0 or np.linalg.matrix_rank(D) != 1:
            continue
        if (
            integrality_full(A, D).integral_for_all_b
            == integrality_rank_one(A, D).integral_for_all_b
        ):
            agree += 1
        else:
            agree -= 10**6
    ok = ok and agree > 100

    identity_holds = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        A = rng.integers(-5, 6, size=(n, n))
        D = np.abs(rng.integers(-5, 6, size=(n, n)))
        s = rng.choice([-1, 1], size=n)
        i = int(rng.integers(0, n))
        s[i] = 0
        if det_linearity_identity(A, D, s, i):
            identity_holds += 1
    ok = ok and identity_holds == 1000
    check(capsys, 7, "integrality fixtures, rank-one agreement, det identity",
          ok, f"{identity_holds}/1000 identity trials")


def test_criterion_8_basis_stability(capsys):
    p = AvlpProblem([[1.0], [-1.0]], [[0.1], [0.0]], [1.0, 0.0], [1.0])
    rep = basis_stability_check(p)
    ok = rep.condition1_verified and rep.condition2_verified and rep.verified
    ok = ok and abs(rep.f_star - 1.0 / 0.9) <= 1e-10
    exact = solve_exact(p)
    ok = ok and abs(rep.f_star - exact.f_star) <= 1e-10

    rng = np.random.default_rng(5)
    sound = True
    certified = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        mid = rng.normal(size=(n, n)) + 3 * np.eye(n)
        rad = 0.05 * np.abs(rng.normal(size=(n, n)))
        rhs = rng.normal(size=n)
        try:
            box = enclose_solutions(IntervalMatrix(mid, rad), rhs)
        except EnclosureError:
            continue
        certified += 1
        sampled = mid + rad * rng.uniform(-1, 1, size=(n, n))
        x = np.linalg.solve(sampled, rhs)
        sound = sound and all(box[i].lo <= x[i] <= box[i].hi for i in range(n))
    ok = ok and sound and certified >= 50
    check(capsys, 8, "basis stability fixture and enclosure soundness", ok,
          f"f*={rep.f_star!r}, {certified} certified enclosures")


def test_criterion_9_relaxation_dominance(corpus, capsys):
    violations = 0
    checked = 0
    for p, status, value, rep in corpus:
        if rep.status != "optimal":
            continue
        checked += 1
        relax = relaxation_bound(p)
        if relax.status.name.lower() == "optimal" and relax.value < rep.f_star - 1e-9:
            violations += 1
    p_strict = set_partitioning((1, 1, 1))
    relax = relaxation_bound(p_strict)
    strict = (
        relax.status.name.lower() == "optimal"
        and abs(relax.value - 0.0) <= 1e-8
        and abs(solve_exact(p_strict).f_star - (-1.0)) <= 1e-9
    )
    check(capsys, 9, "relaxation bound dominates exact optimum",
          violations == 0 and strict,
          f"{checked} optimal instances, {violations} violations")
