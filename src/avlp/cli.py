"""Command-line interface: JSON problem files, structured reports, and a
2-D polygon export of the feasible set.

Commands: solve, check, reformulate, polygon2d, kkt, integrality,
stability.  Exit codes for solve follow the status (0 optimal,
2 infeasible, 3 unbounded, 1 error); kkt exits 4 when the global
complementarity property fails; everything else uses 0/1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import analysis, exact, integrality, qpkkt, reformulate, stability
from .core import AvlpProblem, RawProblem, normalize, orthant_restriction

SCHEMA_VERSION = 1


class ProblemFileError(ValueError):
    pass


def _fnum(x: float) -> float:
    """Round-trippable 17-significant-digit float value for JSON."""
    return float(format(float(x), ".17g"))


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _fnum(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, stability.Interval):
        return {"lo": _fnum(obj.lo), "hi": _fnum(obj.hi)}
    if isinstance(obj, stability.IntervalVector):
        return [_jsonify(iv) for iv in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _floats(value, field, ndim=None) -> np.ndarray:
    """value as a float array (with ``ndim`` dimensions, if given), or a
    ProblemFileError naming the field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"field {field!r}: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise ProblemFileError(f"field {field!r}: expected {('a number', 'a list')[ndim]}")
    return arr


def _finite(arr, field) -> np.ndarray:
    """arr, or a ProblemFileError naming the field when an entry of arr is
    not finite."""
    if not np.isfinite(arr).all():
        raise ProblemFileError(f"field {field!r} has a non-finite entry")
    return arr


def _count(data, field) -> int:
    """data[field] as a nonnegative int, or a ProblemFileError naming the field."""
    value = _field(data, field)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProblemFileError(f"field {field!r}: {value!r} is not a nonnegative integer")
    return value


def _matrix(flat, m, n, field):
    arr = _floats(flat, field)
    if arr.size != m * n:
        raise ProblemFileError(f"field {field!r} has {arr.size} entries, expected {m * n}")
    return arr.reshape(m, n)


def load_problem(path: str) -> tuple[AvlpProblem, dict]:
    """Read a problem file; returns the problem and the raw JSON object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"malformed JSON in {path}: {exc}") from exc
    for field in ("n", "m", "A", "D", "b", "c"):
        if field not in data:
            raise ProblemFileError(f"missing field {field!r}")
    m, n = _count(data, "m"), _count(data, "n")
    A = _matrix(data["A"], m, n, "A")
    D = _matrix(data["D"], m, n, "D")
    b = _floats(data["b"], "b")
    c = _floats(data["c"], "c")
    if b.size != m:
        raise ProblemFileError(f"field 'b' has {b.size} entries, expected {m}")
    if c.size != n:
        raise ProblemFileError(f"field 'c' has {c.size} entries, expected {n}")
    try:
        if data.get("raw", False):
            return normalize(RawProblem(A, D, b, c)), data
        return AvlpProblem(A, D, b, c), data
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def problem_to_json(p: AvlpProblem, **extra) -> dict:
    out = {
        "n": p.n,
        "m": p.m,
        "A": [_fnum(v) for v in p.A.ravel()],
        "D": [_fnum(v) for v in p.D.ravel()],
        "b": [_fnum(v) for v in p.b],
        "c": [_fnum(v) for v in p.c],
    }
    out.update(extra)
    return out


def _emit(report: dict, args) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    if getattr(args, "text", False):
        for k, v in report.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(_jsonify(report), indent=2))


def cmd_solve(args) -> int:
    p, _ = load_problem(args.path)
    rep = exact.solve_exact(p)
    out = {
        "status": rep.status,
        "f_star": rep.f_star,
        "x_star": rep.x_star,
        "witness_sign": list(rep.witness_sign.entries) if rep.witness_sign else None,
        "orthants_solved": rep.orthants_solved,
        "nodes_solved": rep.nodes_solved,
        "ray": rep.ray,
    }
    if args.relax:
        relax = exact.relaxation_bound(p)
        out["relaxation_bound"] = {
            "status": relax.status.name.lower(),
            "value": relax.value,
        }
    _emit(out, args)
    return {"optimal": 0, "infeasible": 2, "unbounded": 3}[rep.status]


def cmd_check(args) -> int:
    p, _ = load_problem(args.path)
    out = {}
    if args.bounded:
        v = analysis.bounded_for_all_b(p)
        out["bounded_for_all_b"] = {"bounded": v.bounded, "ray": v.ray,
                                    "sign": list(v.sign.entries) if v.sign else None}
    if args.feasible_all_b:
        v = analysis.feasible_for_all_b(p)
        out["feasible_for_all_b"] = {"feasible": v.feasible_all_b, "witness": v.witness}
    if args.connected:
        v = analysis.connected_sufficient(p)
        out["connected"] = {"holds": v.holds, "u": v.u, "v": v.v}
    if args.convexity:
        v = analysis.convexity_vertex_check(p)
        out["convexity"] = {
            "consistent": v.consistent, "row": v.row, "coordinate": v.coordinate,
            "x1": v.x1, "x2": v.x2,
        }
    if not out:
        raise ProblemFileError("no check requested; pass at least one flag")
    _emit(out, args)
    return 0


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc


def _encoding_file(enc: reformulate.Encoding, **meta) -> dict:
    aux = [{"role": r.role, "indices": list(r.indices)} for r in enc.aux_vars]
    return problem_to_json(
        enc.problem,
        aux={"original_vars": list(enc.original_vars), "roles": aux},
        meta=_jsonify({**enc.meta, **meta}),
        schema_version=SCHEMA_VERSION,
    )


def _field(obj, key: str, where: str = ""):
    """obj[key], or a ProblemFileError naming the missing field."""
    if not isinstance(obj, dict) or key not in obj:
        raise ProblemFileError(f"missing field {where + key!r}")
    return obj[key]


def _rows(data, key: str, g="g", h="h", where="") -> list[tuple[np.ndarray, float]]:
    """The (g, h) pairs of the list data[key], naming any missing or
    malformed field."""
    rows = []
    for i, t in enumerate(_field(data, key, where)):
        at = f"{where}{key}[{i}]."
        g_val = _finite(_floats(_field(t, g, at), at + g), at + g)
        rows.append((g_val, float(_finite(_floats(_field(t, h, at), at + h, 0), at + h))))
    return rows


def cmd_reformulate(args) -> int:
    data = _read_json(args.input)
    kind = args.kind
    if kind == "ilp01":
        m, n = _count(data, "m"), _count(data, "n")
        enc = reformulate.ilp01_to_avlp(
            _matrix(_field(data, "A"), m, n, "A"),
            _floats(_field(data, "b"), "b"), _floats(_field(data, "c"), "c"),
        )
        out = _encoding_file(enc)
    elif kind == "disj-ineq":
        n = _count(data, "n")
        enc = reformulate.disjunction_ineq_to_avlp(_rows(data, "terms"), n)
        out = _encoding_file(enc)
    elif kind == "disj-eq":
        n = _count(data, "n")
        mode = "paper_literal" if args.mode == "paper-literal" else "corrected"
        enc = reformulate.disjunction_eq_to_avlp(
            _rows(data, "left"), _rows(data, "right"), n, mode=mode
        )
        out = _encoding_file(enc)
    elif kind == "union":
        n = _count(data, "n")
        pieces = []
        for i, piece in enumerate(_field(data, "pieces")):
            h = _finite(_floats(_field(piece, "h", f"pieces[{i}]."), f"pieces[{i}].h"),
                        f"pieces[{i}].h")
            G = _matrix(_field(piece, "G", f"pieces[{i}]."), h.size, n, f"pieces[{i}].G")
            pieces.append(reformulate.Polyhedron(_finite(G, f"pieces[{i}].G"), h))
        enc = reformulate.union_to_avlp(reformulate.UnionOfPolyhedra(tuple(pieces)))
        out = _encoding_file(enc)
    elif kind == "orthant-convex":
        pieces = []
        for i, piece in enumerate(_field(data, "pieces")):
            at = f"pieces[{i}]."
            s = _floats(_field(piece, "s", at), at + "s", 1)
            if not np.isin(s, (-1.0, 1.0)).all():
                raise ProblemFileError(f"field {at + 's'!r}: entries must be -1 or 1")
            rows = _rows(piece, "rows", "a", "beta", at)
            pieces.append((s, rows))
        alpha = data.get("alpha", "auto")
        if alpha != "auto":
            alpha = float(_floats(alpha, "alpha", 0))
            if not math.isfinite(alpha):
                raise ProblemFileError(f"field 'alpha': {alpha} is not finite")
        try:
            enc, rep = reformulate.orthant_convex_to_avlp(pieces, alpha=alpha)
        except reformulate.OrthantConvexVerificationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = _encoding_file(enc, alpha=rep.alpha, rows_emitted=rep.rows_emitted)
    else:  # pragma: no cover - argparse restricts choices
        raise ProblemFileError(f"unknown reformulation {kind!r}")
    with open(args.output, "w") as fh:
        json.dump(_jsonify(out), fh, indent=2)
    print(f"wrote {args.output}")
    return 0


def _ccw_sorted(vertices: list[np.ndarray]) -> list[np.ndarray]:
    if len(vertices) <= 2:
        return vertices
    center = np.mean(vertices, axis=0)
    return sorted(vertices, key=lambda v: math.atan2(v[1] - center[1], v[0] - center[0]))


def cmd_polygon2d(args) -> int:
    p, _ = load_problem(args.path)
    if p.n != 2:
        print(f"error: polygon export needs n = 2, got n = {p.n}", file=sys.stderr)
        return 1
    if not (math.isfinite(args.box) and args.box > 0):
        raise ProblemFileError(f"--box {args.box!r}: must be a positive finite number")
    lo, hi = -args.box, args.box
    box_G = np.vstack([np.eye(2), -np.eye(2)])
    box_h = np.array([hi, hi, -lo, -lo])
    rows = []
    for s in exact.sign_vectors(2, [0, 1]):
        lp = orthant_restriction(p, s)
        G = np.vstack([lp.G, box_G])
        h = np.concatenate([lp.h, box_h])
        vertices = [v for v, _ in analysis.enumerate_vertices(G, h)]
        for k, v in enumerate(_ccw_sorted(vertices)):
            rows.append([*s.tolist(), k, _fnum(v[0]), _fnum(v[1])])
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s1", "s2", "vertex", "x1", "x2"])
        writer.writerows(rows)
    print(f"wrote {args.output} ({len(rows)} vertices)")
    return 0


def cmd_kkt(args) -> int:
    p, _ = load_problem(args.path)
    rep = qpkkt.kkt_global_property(p)
    out = {
        "holds_for_all_b": rep.holds_for_all_b,
        "witness_w": rep.witness_w,
        "witness_index": rep.witness_index,
        "margin": rep.margin,
    }
    if not rep.holds_for_all_b:
        b, pt = qpkkt.construct_kkt_counterexample(p, rep.witness_w)
        out["counterexample"] = {
            "b": b, "x1": pt.x1, "x2": pt.x2, "u": pt.u, "v": pt.v, "w": pt.w,
        }
    _emit(out, args)
    return 0 if rep.holds_for_all_b else 4


def cmd_integrality(args) -> int:
    p, data = load_problem(args.path)
    if not data.get("integer", False):
        print("error: integrality requires a file with \"integer\": true", file=sys.stderr)
        return 1
    if not (np.all(p.A == np.round(p.A)) and np.all(p.D == np.round(p.D))):
        print("error: field 'A'/'D': entries must be integers", file=sys.stderr)
        return 1
    rep = integrality.integrality_full(p.A, p.D)
    _emit(
        {
            "integral_for_all_b": rep.integral_for_all_b,
            "witness_sign": rep.witness_sign,
            "witness_basis": rep.witness_basis,
            "witness_det": rep.witness_det,
            "checked_signs": rep.checked_signs,
            "method": rep.method,
        },
        args,
    )
    return 0


def cmd_stability(args) -> int:
    p, _ = load_problem(args.path)
    basis = None
    if args.basis:
        try:
            basis = tuple(int(v) for v in args.basis.split(","))
        except ValueError:
            raise ProblemFileError(f"--basis {args.basis!r}: not a list of row indices") from None
        if len(basis) != p.n:
            raise ProblemFileError(f"--basis needs {p.n} row indices, got {args.basis!r}")
        if not all(0 <= i < p.m for i in basis):
            raise ProblemFileError(f"--basis index out of range 0..{p.m - 1}: {args.basis!r}")
    rep = stability.basis_stability_check(p, basis)
    _emit(
        {
            "basis": list(rep.basis),
            "condition1_verified": rep.condition1_verified,
            "condition2_verified": rep.condition2_verified,
            "verified": rep.verified,
            "y_box": rep.y_box,
            "x_box": rep.x_box,
            "f_star": rep.f_star,
            "x_star": rep.x_star,
            "reason": rep.reason,
        },
        args,
    )
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avlp",
        description="Solve and analyze linear programs with absolute values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve by sign-tree branch-and-bound "
                        "(orthant enumeration when the relaxation is unbounded)")
    sp.add_argument("path")
    sp.add_argument("--relax", action="store_true", help="also report the split-LP bound")
    _output_flags(sp)
    sp.set_defaults(func=cmd_solve)

    cp = sub.add_parser("check", help="structural analyses")
    cp.add_argument("path")
    cp.add_argument("--bounded", action="store_true")
    cp.add_argument("--feasible-all-b", dest="feasible_all_b", action="store_true")
    cp.add_argument("--connected", action="store_true")
    cp.add_argument("--convexity", action="store_true")
    _output_flags(cp)
    cp.set_defaults(func=cmd_check)

    rp = sub.add_parser("reformulate", help="compile a model into canonical form")
    rp.add_argument("kind", choices=["ilp01", "disj-ineq", "disj-eq", "union", "orthant-convex"])
    rp.add_argument("input")
    rp.add_argument("output")
    rp.add_argument("--mode", choices=["corrected", "paper-literal"], default="corrected")
    rp.set_defaults(func=cmd_reformulate)

    pp = sub.add_parser("polygon2d", help="export per-orthant vertex cycles as CSV")
    pp.add_argument("path")
    pp.add_argument("output")
    pp.add_argument("--box", type=float, default=10.0, help="clip to [-box, box]^2")
    pp.set_defaults(func=cmd_polygon2d)

    kp = sub.add_parser("kkt", help="global KKT complementarity property")
    kp.add_argument("path")
    _output_flags(kp)
    kp.set_defaults(func=cmd_kkt)

    ip = sub.add_parser("integrality", help="vertex integrality for all integral b")
    ip.add_argument("path")
    _output_flags(ip)
    ip.set_defaults(func=cmd_integrality)

    stp = sub.add_parser("stability", help="basis stability certificate")
    stp.add_argument("path")
    stp.add_argument("--basis", help="comma-separated row indices, e.g. 0,2")
    _output_flags(stp)
    stp.set_defaults(func=cmd_stability)
    return parser


def _output_flags(p) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", dest="text", action="store_false", default=False)
    g.add_argument("--text", dest="text", action="store_true")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
