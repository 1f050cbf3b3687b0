"""The tolerance policy: each level pinned at its value, and a lint that
keeps every tolerance in ``avlp.simplex``.

Each boundary test puts a quantity at half its margin (inside: passes)
and at twice its margin (outside: fails), with the margins written out at
their present values, so a change of a value in the policy shows up here.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from avlp import exact
from avlp.core import AvlpProblem, membership
from avlp.exact import vertex_candidacy
from avlp.qpkkt import optimum_on_lp_part
from avlp.reformulate import Polyhedron, ReformulationError, UnionOfPolyhedra
from avlp.stability import recover_x_star

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "avlp"

# the functions of stability.py holding the rigorous enclosure constants
ENCLOSURE_CODE = {"enclose_solutions", "_gauss_seidel"}
# the margin rule itself, and the two tolerances whose callers pass
# different values
TOL_PARAMETERS = {"margin", "membership", "enumerate_vertices"}


def inside_and_outside(margin):
    """(offset, inside) at half and at twice the margin."""
    return [(0.5 * margin, True), (2.0 * margin, False)]


def one_row():
    """x <= 3: a relative margin of tol * (1 + 3)."""
    return AvlpProblem([[1.0]], [[0.0]], [3.0], [0.0])


@pytest.mark.parametrize("offset, inside", inside_and_outside(1e-9 * 4.0))
def test_membership_at_member_tol(offset, inside):
    assert membership(one_row(), [3.0 + offset])[0] is inside


@pytest.mark.parametrize("offset, inside", inside_and_outside(1e-9 * 4.0))
def test_polyhedron_contains_at_member_tol(offset, inside):
    assert Polyhedron([[1.0]], [3.0]).contains([3.0 + offset]) is inside


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_point_is_rejected_by_every_membership_test(value):
    with pytest.raises(ValueError, match="point has a non-finite entry"):
        membership(one_row(), [value])
    piece = Polyhedron([[1.0]], [3.0])
    for query in (piece.contains, UnionOfPolyhedra((piece,)).contains):
        with pytest.raises(ReformulationError, match="point has a non-finite entry"):
            query([value])


@pytest.mark.parametrize("offset, inside", inside_and_outside(1e-8 * 4.0))
def test_vertex_candidacy_activity_at_feas_tol(offset, inside):
    # x = 3 - offset is a vertex only while the row x <= 3 counts as active
    assert vertex_candidacy(one_row(), [3.0 - offset]).passed is inside


@pytest.mark.parametrize("offset, inside", inside_and_outside(1e-8 * 11.0))
def test_beats_at_feas_tol(offset, inside):
    # a bound within the margin of the incumbent 10 cannot improve on it
    assert exact._beats(10.0 + offset, 10.0) is (not inside)


@pytest.mark.parametrize("offset, inside", inside_and_outside(1e-7 * 2.0))
def test_recover_x_star_at_verify_tol(offset, inside):
    # A = 1, D = 0, c = 1 - offset, y* = 1: the residual A^T y* - c is offset
    # against a margin 1e-7 * (1 + |c|), and c x* misses b y* = 1 by offset
    p = AvlpProblem([[1.0]], [[0.0]], [1.0], [1.0 - offset])
    if inside:
        assert recover_x_star(p, (0,), [1.0]) == pytest.approx([1.0])
    else:
        with pytest.raises(ValueError, match="residual bound"):
            recover_x_star(p, (0,), [1.0])


@pytest.mark.parametrize("offset, inside", inside_and_outside(1e-6 * 3.0))
def test_optimum_on_lp_part_at_value_tol(monkeypatch, offset, inside):
    # max x s.t. -1 <= x <= 2 has optimum 2 on both routes; the exact one is
    # moved by offset against a margin 1e-6 * (1 + 2)
    solve = exact.solve_exact

    def shifted(p):
        rep = solve(p)
        return dataclasses.replace(rep, f_star=rep.f_star + offset)

    monkeypatch.setattr(exact, "solve_exact", shifted)
    p = AvlpProblem([[1.0], [-1.0]], [[0.0], [0.0]], [2.0, 1.0], [1.0])
    assert optimum_on_lp_part(p).verdict == ("confirmed" if inside else "refuted")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _small_float_literals(path):
    """(enclosing top-level function or None, line) of each float literal
    with 0 < |v| < 1e-5."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if where is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            if (isinstance(child, ast.Constant) and isinstance(child.value, float)
                    and 0.0 < abs(child.value) < 1e-5):
                found.append((where, child.lineno))
            walk(child, inner)

    walk(_tree(path), None)
    return found


def _public_functions(path):
    """(qualified name, node) of each public function and public method."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_tolerances_live_in_simplex():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "simplex.py":
            continue
        for where, line in _small_float_literals(path):
            if not (path.name == "stability.py" and where in ENCLOSURE_CODE):
                stray.append(f"{path.name}:{line} ({where})")
    assert not stray, "tolerance literals outside avlp.simplex: " + ", ".join(stray)


def test_no_tol_parameters_but_the_two_in_use():
    knobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, fn in _public_functions(path):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if any(a.arg == "tol" for a in args) and name not in TOL_PARAMETERS:
                knobs.append(f"{path.name}:{name}")
    assert not knobs, "tol parameters no caller sets: " + ", ".join(knobs)
