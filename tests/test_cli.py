import argparse
import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from avlp import cli


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def manhattan_file(tmp_path):
    return write(
        tmp_path,
        "man.json",
        {
            "n": 2,
            "m": 4,
            "A": [10, 10, 10, -10, -10, 10, -10, -10],
            "D": [1, 1, 1, 1, 1, 1, 1, 1],
            "b": [9, 9, 9, 9],
            "c": [1, 0],
        },
    )


class TestProblemFile:
    def test_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 2))
        D = np.abs(rng.normal(size=(3, 2)))
        b = rng.normal(size=3)
        c = rng.normal(size=2)
        path = write(
            tmp_path,
            "p.json",
            {
                "n": 2,
                "m": 3,
                "A": [cli._fnum(v) for v in A.ravel()],
                "D": [cli._fnum(v) for v in D.ravel()],
                "b": [cli._fnum(v) for v in b],
                "c": [cli._fnum(v) for v in c],
            },
        )
        p1, _ = cli.load_problem(path)
        # save and reload: matrices must match bit for bit
        path2 = write(tmp_path, "p2.json", cli.problem_to_json(p1))
        p2, _ = cli.load_problem(path2)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.D, p2.D)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.c, p2.c)

    def test_seventeen_digit_roundtrip_of_awkward_floats(self):
        for v in (0.1, 1 / 3, np.nextafter(1.0, 2.0), 1e-300, -2.5e17):
            assert cli._fnum(v) == v

    def test_missing_field_named(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"n": 1, "m": 1, "A": [1], "D": [0], "b": [1]})
        assert cli.main(["solve", path]) == 1
        assert "'c'" in capsys.readouterr().err

    def test_wrong_length_named(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.json",
            {"n": 2, "m": 1, "A": [1], "D": [0, 0], "b": [1], "c": [1, 0]},
        )
        assert cli.main(["solve", path]) == 1
        assert "'A'" in capsys.readouterr().err

    def test_negative_d_rejected_without_raw(self, tmp_path, capsys):
        path = write(
            tmp_path, "bad.json",
            {"n": 1, "m": 1, "A": [1], "D": [-1], "b": [1], "c": [1]},
        )
        assert cli.main(["solve", path]) == 1
        assert "'D'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("A", [float("nan"), -1]), ("b", [float("inf"), 1]), ("D", [0, float("-inf")])],
    )
    @pytest.mark.parametrize("raw", [False, True])
    def test_non_finite_entry_named(self, tmp_path, capsys, field, value, raw):
        data = {"n": 1, "m": 2, "A": [1, -1], "D": [0, 0], "b": [1, 1], "c": [1], "raw": raw}
        data[field] = value
        path = write(tmp_path, "bad.json", data)
        assert cli.main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"field '{field}' has a non-finite entry" in captured.err

    @pytest.mark.parametrize(
        "field, value",
        [("A", ["a", 1]), ("b", [[1], [1, 2]]), ("m", "two"), ("m", 2.5), ("n", True),
         ("n", -1), ("m", math.inf)],
    )
    def test_malformed_number_named(self, tmp_path, capsys, field, value):
        data = {"n": 1, "m": 2, "A": [1, -1], "D": [0, 0], "b": [1, 1], "c": [1]}
        data[field] = value
        path = write(tmp_path, "bad.json", data)
        assert cli.main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: field '{field}'" in captured.err

    def test_raw_mode_normalizes(self, tmp_path, capsys):
        path = write(
            tmp_path, "raw.json",
            {"n": 1, "m": 1, "A": [1], "D": [-1], "b": [1], "c": [1], "raw": True},
        )
        assert cli.main(["solve", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        # x + |x| <= 1, max x: optimum 1/2 in the doubled encoding
        assert rep["f_star"] == pytest.approx(0.5)


class TestSolve:
    def test_manhattan_exit_zero(self, tmp_path, capsys):
        assert cli.main(["solve", manhattan_file(tmp_path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "optimal"
        assert rep["f_star"] == pytest.approx(1.0, abs=1e-9)

    def test_lp_counts_name_the_search(self, tmp_path, capsys):
        # the relaxation of the Manhattan ball is unbounded: enumeration
        assert cli.main(["solve", manhattan_file(tmp_path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["orthants_solved"], rep["nodes_solved"]) == (4, 0)
        # with |x_j| <= 1 added the sign tree decides
        path = write(
            tmp_path, "boxed.json",
            {
                "n": 2, "m": 8,
                "A": [10, 10, 10, -10, -10, 10, -10, -10, 1, 0, 0, 1, -1, 0, 0, -1],
                "D": [1] * 8 + [0] * 8,
                "b": [9, 9, 9, 9, 1, 1, 1, 1],
                "c": [1, 0],
            },
        )
        assert cli.main(["solve", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema_version"] == 1
        assert rep["orthants_solved"] == 0 and rep["nodes_solved"] > 0
        assert rep["witness_sign"] == [1, -1]

    def test_infeasible_exit_two(self, tmp_path):
        path = write(
            tmp_path, "i.json", {"n": 1, "m": 1, "A": [0], "D": [0], "b": [-1], "c": [0]}
        )
        assert cli.main(["solve", path]) == 2

    def test_unbounded_exit_three(self, tmp_path):
        path = write(
            tmp_path, "u.json", {"n": 1, "m": 1, "A": [1], "D": [2], "b": [0], "c": [1]}
        )
        assert cli.main(["solve", path]) == 3

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert cli.main(["solve", str(path)]) == 1

    def test_relax_flag(self, tmp_path, capsys):
        path = write(
            tmp_path, "sp.json",
            {
                "n": 3, "m": 10,
                "A": list(np.vstack([np.eye(3), -np.eye(3), np.zeros((3, 3)), np.ones((1, 3))]).ravel()),
                "D": list(np.vstack([np.zeros((6, 3)), np.eye(3), np.zeros((1, 3))]).ravel()),
                "b": [1, 1, 1, 1, 1, 1, -1, -1, -1, 0],
                "c": [1, 1, 1],
            },
        )
        assert cli.main(["solve", path, "--relax"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["f_star"] == pytest.approx(-1.0, abs=1e-9)
        assert rep["relaxation_bound"]["value"] == pytest.approx(0.0, abs=1e-8)


class TestCheck:
    def test_connected_holds_on_nonnegative_rhs(self, tmp_path, capsys):
        assert cli.main(["check", manhattan_file(tmp_path), "--connected"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["connected"]["holds"] is True

    def test_bounded_no_with_ray(self, tmp_path, capsys):
        path = write(
            tmp_path, "u.json", {"n": 1, "m": 1, "A": [1], "D": [2], "b": [0], "c": [1]}
        )
        assert cli.main(["check", path, "--bounded"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["bounded_for_all_b"]["bounded"] is False
        assert rep["bounded_for_all_b"]["ray"] is not None

    def test_no_flags_is_an_error(self, tmp_path):
        assert cli.main(["check", manhattan_file(tmp_path)]) == 1


class TestReformulate:
    def test_union_then_solve(self, tmp_path, capsys):
        inp = write(
            tmp_path, "union.json",
            {"n": 1, "pieces": [{"G": [1, -1], "h": [1, 0]}, {"G": [1, -1], "h": [3, -2]}]},
        )
        out = str(tmp_path / "enc.json")
        assert cli.main(["reformulate", "union", inp, out]) == 0
        data = json.loads((tmp_path / "enc.json").read_text())
        assert data["n"] == 2  # x plus one selector
        capsys.readouterr()
        assert cli.main(["solve", out]) == 0

    def test_ilp01_knapsack(self, tmp_path, capsys):
        inp = write(tmp_path, "k.json", {"n": 2, "m": 1, "A": [1, 1], "b": [1], "c": [1, 1]})
        out = str(tmp_path / "enc.json")
        assert cli.main(["reformulate", "ilp01", inp, out]) == 0
        capsys.readouterr()
        assert cli.main(["solve", out]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["f_star"] == pytest.approx(1.0, abs=1e-8)

    def test_disj_eq_modes_differ(self, tmp_path):
        inp = write(
            tmp_path, "d.json",
            {"n": 1, "left": [{"g": [1], "h": 1}], "right": [{"g": [1], "h": 2}]},
        )
        out1 = str(tmp_path / "corrected.json")
        out2 = str(tmp_path / "literal.json")
        assert cli.main(["reformulate", "disj-eq", inp, out1]) == 0
        assert cli.main(["reformulate", "disj-eq", inp, out2, "--mode", "paper-literal"]) == 0
        d1 = json.loads((tmp_path / "corrected.json").read_text())
        d2 = json.loads((tmp_path / "literal.json").read_text())
        assert d1 != d2

    def test_orthant_convex_failure_reported(self, tmp_path, capsys):
        inp = write(
            tmp_path, "oc.json",
            {
                "n": 2,
                "alpha": 4.0,
                "pieces": [
                    {"s": [1, 1], "rows": [{"a": [-1, 1], "beta": 0}, {"a": [0, -1], "beta": -1}]},
                    {"s": [-1, 1], "rows": [{"a": [1, 0], "beta": -1}, {"a": [0, -1], "beta": -1}]},
                    {"s": [1, -1], "rows": [{"a": [0, 0], "beta": -1}]},
                    {"s": [-1, -1], "rows": [{"a": [0, 0], "beta": -1}]},
                ],
            },
        )
        out = str(tmp_path / "enc.json")
        assert cli.main(["reformulate", "orthant-convex", inp, out]) == 1
        assert "orthant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, data, field",
        [
            ("ilp01", {"n": 2, "m": 1}, "'A'"),
            ("ilp01", {"n": 2, "A": [1, 1], "b": [1], "c": [1, 1]}, "'m'"),
            ("disj-ineq", {"n": 1}, "'terms'"),
            ("disj-ineq", {"n": 1, "terms": [{"g": [1]}]}, "'terms[0].h'"),
            ("disj-eq", {"n": 1, "left": [{"g": [1], "h": 1}]}, "'right'"),
            ("disj-eq", {"n": 1, "left": [{"h": 1}], "right": []}, "'left[0].g'"),
            ("union", {"pieces": []}, "'n'"),
            ("union", {"n": 1, "pieces": [{"G": [1]}]}, "'pieces[0].h'"),
            ("orthant-convex", {"n": 1}, "'pieces'"),
            ("orthant-convex", {"pieces": [{"rows": []}]}, "'pieces[0].s'"),
            ("orthant-convex", {"pieces": [{"s": [1], "rows": [{"a": [1]}]}]},
             "'pieces[0].rows[0].beta'"),
        ],
    )
    def test_missing_field_is_named(self, tmp_path, capsys, kind, data, field):
        inp = write(tmp_path, "in.json", data)
        assert cli.main(["reformulate", kind, inp, str(tmp_path / "out.json")]) == 1
        assert f"missing field {field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, data, field",
        [
            ("ilp01", {"n": 2, "m": 1, "A": [1, "x"], "b": [1], "c": [1, 1]}, "'A'"),
            ("disj-ineq", {"n": 1, "terms": [{"g": [1], "h": "x"}]}, "'terms[0].h'"),
            ("orthant-convex", {"pieces": [{"s": 5, "rows": []}]}, "'pieces[0].s'"),
            ("orthant-convex", {"pieces": [{"s": ["a", 1], "rows": []}]}, "'pieces[0].s'"),
            ("orthant-convex", {"alpha": [1], "pieces": [{"s": [1], "rows": []}]}, "'alpha'"),
            ("orthant-convex", {"alpha": None, "pieces": [{"s": [1], "rows": []}]}, "'alpha'"),
        ],
    )
    def test_malformed_number_is_named(self, tmp_path, capsys, kind, data, field):
        inp = write(tmp_path, "in.json", data)
        assert cli.main(["reformulate", kind, inp, str(tmp_path / "out.json")]) == 1
        assert f"error: field {field}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, data, field",
        [
            ("union", {"n": 1, "pieces": [{"G": [1, -1], "h": [1, 0]},
                                         {"G": [1, -1], "h": [math.inf, 0]}]}, "pieces[1].h"),
            ("union", {"n": 1, "pieces": [{"G": [1, -1], "h": [1, 0]},
                                         {"G": [math.nan, -1], "h": [1, 0]}]}, "pieces[1].G"),
            ("disj-ineq", {"n": 1, "terms": [{"g": [1], "h": math.inf}, {"g": [-1], "h": 0}]},
             "terms[0].h"),
            ("disj-eq",
             {"n": 1, "left": [{"g": [math.nan], "h": 1}], "right": [{"g": [1], "h": 2}]},
             "left[0].g"),
            ("orthant-convex", {"pieces": [{"s": [1], "rows": [{"a": [1], "beta": -math.inf}]}]},
             "pieces[0].rows[0].beta"),
        ],
    )
    def test_non_finite_entry_is_named(self, tmp_path, capsys, kind, data, field):
        inp = write(tmp_path, "in.json", data)
        assert cli.main(["reformulate", kind, inp, str(tmp_path / "out.json")]) == 1
        assert f"error: field '{field}' has a non-finite entry" in capsys.readouterr().err


class TestPolygon2d:
    def test_manhattan_triangles(self, tmp_path, capsys):
        out = str(tmp_path / "poly.csv")
        assert cli.main(["polygon2d", manhattan_file(tmp_path), out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        by_orthant = {}
        for r in rows:
            by_orthant.setdefault((r["s1"], r["s2"]), []).append(
                (float(r["x1"]), float(r["x2"]))
            )
        assert len(by_orthant) == 4
        for verts in by_orthant.values():
            assert len(verts) == 3  # each orthant piece is a triangle
        all_pts = {pt for verts in by_orthant.values() for pt in verts}
        assert (1.0, 0.0) in all_pts and (-1.0, 0.0) in all_pts
        assert (0.0, 1.0) in all_pts and (0.0, -1.0) in all_pts

    def test_empty_set_header_only(self, tmp_path, capsys):
        path = write(
            tmp_path, "e.json",
            {"n": 2, "m": 1, "A": [0, 0], "D": [0, 0], "b": [-1], "c": [0, 0]},
        )
        out = str(tmp_path / "poly.csv")
        assert cli.main(["polygon2d", path, out]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines == ["s1,s2,vertex,x1,x2"]

    def test_requires_two_variables(self, tmp_path, capsys):
        path = write(
            tmp_path, "one.json", {"n": 1, "m": 1, "A": [1], "D": [0], "b": [1], "c": [1]}
        )
        assert cli.main(["polygon2d", path, str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("box", ["inf", "nan", "-1", "0"])
    def test_bad_box_flag_is_named(self, tmp_path, capsys, box):
        out = tmp_path / "poly.csv"
        assert cli.main(["polygon2d", manhattan_file(tmp_path), str(out), f"--box={box}"]) == 1
        assert "--box" in capsys.readouterr().err
        assert not out.exists()


class TestKkt:
    def test_failing_fixture_exit_four(self, tmp_path, capsys):
        path = write(
            tmp_path, "k.json", {"n": 1, "m": 1, "A": [0], "D": [1], "b": [-7], "c": [1]}
        )
        assert cli.main(["kkt", path]) == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["holds_for_all_b"] is False
        assert rep["witness_w"] is not None
        assert "counterexample" in rep

    def test_holding_fixture_exit_zero(self, tmp_path, capsys):
        path = write(
            tmp_path, "k.json", {"n": 1, "m": 1, "A": [1], "D": [0], "b": [1], "c": [1]}
        )
        assert cli.main(["kkt", path]) == 0


class TestIntegrality:
    def test_fixture_not_integral(self, tmp_path, capsys):
        path = write(
            tmp_path, "i.json",
            {
                "n": 2, "m": 2,
                "A": [-1, 0, 0, -1], "D": [0, 0, 0, 1],
                "b": [0, 0], "c": [0, 0], "integer": True,
            },
        )
        assert cli.main(["integrality", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["integral_for_all_b"] is False
        assert abs(rep["witness_det"]) == 2

    def test_large_integers_are_exact(self, tmp_path, capsys):
        path = write(
            tmp_path, "i.json",
            {"n": 1, "m": 2, "A": [1e19, -1e19], "D": [0, 0], "b": [1, 1], "c": [1],
             "integer": True},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["integrality", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["integral_for_all_b"] is False
        assert rep["witness_det"] == 10**19

    def test_requires_integer_flag(self, tmp_path, capsys):
        path = write(
            tmp_path, "i.json",
            {"n": 1, "m": 1, "A": [1], "D": [0], "b": [1], "c": [1]},
        )
        assert cli.main(["integrality", path]) == 1


class TestStability:
    def test_one_var_fixture(self, tmp_path, capsys):
        path = write(
            tmp_path, "s.json",
            {"n": 1, "m": 2, "A": [1, -1], "D": [0.1, 0], "b": [1, 0], "c": [1]},
        )
        assert cli.main(["stability", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verified"] is True
        assert rep["f_star"] == pytest.approx(1.0 / 0.9, abs=1e-9)

    def test_explicit_basis_flag(self, tmp_path, capsys):
        path = write(
            tmp_path, "s.json",
            {"n": 1, "m": 2, "A": [1, -1], "D": [0.1, 0], "b": [1, 0], "c": [1]},
        )
        assert cli.main(["stability", path, "--basis", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["condition1_verified"] is False

    def test_boxes_print_as_lo_hi_objects(self, tmp_path, capsys):
        path = write(
            tmp_path, "s.json",
            {"n": 2, "m": 4, "A": [2, 0.1, 0.2, 2, 1, 1, -1, 0],
             "D": [0.01] * 8, "b": [1, 1, 3, 1], "c": [1, 1]},
        )
        assert cli.main(["stability", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verified"] is True
        for key in ("y_box", "x_box"):
            assert len(rep[key]) == 2
            for iv in rep[key]:
                assert list(iv) == ["lo", "hi"]
                assert iv["lo"] <= iv["hi"]

    @pytest.mark.parametrize("basis", ["5", "-1", "0,1", "x"])
    def test_bad_basis_flag_is_named(self, tmp_path, capsys, basis):
        path = write(
            tmp_path, "s.json", {"n": 1, "m": 1, "A": [1], "D": [0.1], "b": [1], "c": [1]},
        )
        assert cli.main(["stability", path, "--basis", basis]) == 1
        assert "--basis" in capsys.readouterr().err


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once and reuses it
    assert cli.build_parser() is cli.build_parser()
    path = manhattan_file(tmp_path)
    assert cli.main(["solve", path, "--relax"]) == 0
    assert "relaxation_bound" in json.loads(capsys.readouterr().out)
    assert cli.main(["solve", path]) == 0
    assert "relaxation_bound" not in json.loads(capsys.readouterr().out)
    assert cli.main(["solve", path, "--text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "schema_version: 1"
    assert not any(line.startswith("relaxation_bound") for line in lines)


def test_determinism(tmp_path, capsys):
    path = manhattan_file(tmp_path)
    cli.main(["solve", path])
    first = capsys.readouterr().out
    cli.main(["solve", path])
    assert capsys.readouterr().out == first


def test_readme_usage_block_lists_every_option_of_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Subcommands", 1)[1].split("```")[1]
    usage = {line.split()[1]: line for line in block.strip().splitlines()}
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(usage) == set(subparsers.choices)
    mismatched = []
    for name, sub in subparsers.choices.items():
        options = {opt for action in sub._actions for opt in action.option_strings}
        options -= {"-h", "--help", "--json", "--text"}
        listed = set(re.findall(r"--[a-z][a-z-]*", usage[name]))
        if listed != options:
            mismatched.append((name, sorted(options - listed), sorted(listed - options)))
    assert mismatched == []
