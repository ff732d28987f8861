"""The package's layers: the numeric kernel ``ball`` and ``ratfunc`` at the
bottom, each module above them importing only modules below it, no module
importing ``mpmath`` or ``random``, and one subtraction for every ring type."""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

import sasano_galois
from sasano_galois import algnum
from sasano_galois.algnum import AlgNum, TowerError, TowerLevel, TowerSpec, canonical_tower
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.ratfunc import Frozen, Poly, RatFunc
from sasano_galois.sasano import PolyExpr

PACKAGE = Path(sasano_galois.__file__).resolve().parent

# Bottom to top: a module may import only package modules listed before it.
LAYERS = (
    "ball", "ratfunc", "algnum", "puiseux", "diffsys", "exprparse", "sasano",
    "reduction", "galois", "weyl", "report", "cli",
)

RING_TYPES = (AlgNum, PuiseuxPoly, Poly, RatFunc, PolyExpr)


def _package_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports, at any depth of its code."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            found |= {n.split(".")[1] for n in names if n.startswith("sasano_galois.")}
    return found


def test_layers_list_every_module():
    assert set(LAYERS) == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_only_lower_layers(name):
    below = set(LAYERS[: LAYERS.index(name)])
    assert _package_imports(name) <= below, f"{name} imports {_package_imports(name) - below}"


def _imports(name: str) -> set[str]:
    """Every module name that module ``name`` imports, at any depth of its code."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
    return found


@pytest.mark.parametrize("name", LAYERS)
def test_no_module_imports_mpmath(name):
    assert not {n for n in _imports(name) if n.split(".")[0] == "mpmath"}


@pytest.mark.parametrize("name", LAYERS)
def test_no_module_imports_random(name):
    # every check the commands run is exact and deterministic; sampling lives in the tests
    assert "random" not in _imports(name)


def test_no_runtime_dependency():
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert not project.get("dependencies")


def test_ball_imports_no_package_module():
    assert not _package_imports("ball") and _imports("ball") <= {"__future__", "fractions", "math"}


def test_only_ball_and_algnum_name_the_grid_rule():
    # ball defines bits and algnum alone maps digits to a grid; everything
    # else takes the grid of a ball it is given
    for name in set(LAYERS) - {"ball", "algnum"}:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            imported = isinstance(node, ast.ImportFrom) and "bits" in {alias.name for alias in node.names}
            assert not (imported or isinstance(node, ast.Attribute) and node.attr == "bits"), name


def test_only_algnum_reduction_and_report_embed():
    # puiseux, diffsys and the other exact layers hold no numeric code: tower
    # numbers become balls in the tower, the reduction's audit and the report
    for name in set(LAYERS) - {"algnum", "reduction", "report"}:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            embeds = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "embed"
            assert not embeds, f"{name}: line {node.lineno}"


def test_ratfunc_loads_no_other_package_module():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = (
        "import json, sys\nimport sasano_galois.ratfunc\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sasano_galois.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == ["sasano_galois.ratfunc"]


@pytest.mark.parametrize("cls", RING_TYPES, ids=lambda cls: cls.__name__)
def test_subtraction_is_frozens(cls):
    assert cls.__sub__ is Frozen.__sub__ and cls.__rsub__ is Frozen.__rsub__
    # AlgNum keeps the two names in its own dict, where the benchmark tracer wraps them
    assert ("__sub__" in vars(cls)) == ("__rsub__" in vars(cls)) == (cls is AlgNum)


def test_mixed_subtraction_keeps_its_results():
    tower = canonical_tower()
    g = AlgNum.generator(tower, 0)
    p = PuiseuxPoly.monomial(tower, 3, Fraction(1, 2))
    difference = g - p
    assert type(difference) is PuiseuxPoly and difference == PuiseuxPoly.const(tower, g) + -p
    assert 3 - g == -g + 3 and g - Fraction(1, 2) == g + Fraction(-1, 2)
    f = RatFunc.make(Poly.variable(), Poly((1, 1), 1))
    assert Fraction(2, 3) - f == -f + Fraction(2, 3)
    y = PolyExpr.var("y")
    assert 1 - y == -y + 1
    assert Poly((1, 2), 3) - 2 == Poly((1, 2), 3) + -2 == Poly((-5, 2), 3)


def test_base_level_inverts_through_poly_division():
    assert not hasattr(algnum, "_trim")
    source = inspect.getsource(algnum._inv_mod_binomial)
    assert ".divmod(" in source and "Fraction(0)" not in source


def test_zero_divisor_in_a_reducible_level_raises():
    # x^2 = 4 is reducible: g - 2 is a zero divisor, caught by Euclid's zero remainder.
    tower = TowerSpec((TowerLevel("g", 2, (((), Fraction(4)),), ("2", "0")),))
    with pytest.raises(TowerError, match="zero divisor"):
        (AlgNum.generator(tower, 0) - 2).inverse()
    assert (AlgNum.generator(tower, 0) + 1).inverse() == (AlgNum.generator(tower, 0) - 1) / 3


MOVE_CLASSES = {"ConstantGauge", "Shear", "Substitution"}


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


@pytest.mark.parametrize("name", LAYERS)
def test_no_module_tests_a_move_type(name):
    # each move class carries its own action, audit step and report text
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            assert not _names_in(node.args[1]) & MOVE_CLASSES, f"{name}: line {node.lineno}"


def test_only_the_generator_formulas_compare_a_generator_name():
    # _divisor and _reflect state each generator's map; everywhere else a
    # name is checked once (weyl._generator) and the map is not branched on
    tree = ast.parse((PACKAGE / "weyl.py").read_text())
    owners = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in ("_divisor", "_reflect")]
    assert len(owners) == 2
    allowed = {id(n) for owner in owners for n in ast.walk(owner)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in allowed:
            literals = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
            assert not literals & {"s0", "s1", "s2"}, f"weyl: line {node.lineno}"


def test_report_imports_no_move_class():
    tree = ast.parse((PACKAGE / "report.py").read_text())
    imports = (node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom))
    imported = {alias.name for node in imports for alias in node.names}
    assert not imported & MOVE_CLASSES
    assert not _names_in(tree) & MOVE_CLASSES


FIXTURE_KEYS = {"stages", "gauges", "leading_unit_shear", "name", "var", "prefactor", "rows"}


def _calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    calls = (n for n in ast.walk(tree) if isinstance(n, ast.Call))
    return [n for n in calls if getattr(n.func, "id", getattr(n.func, "attr", None)) == name]


def test_only_the_reader_knows_the_fixture_layout():
    # _fixture alone calls load_fixtures(), so only reduction holds the tables;
    # there only the reader subscripts them (report's matrix payload has "rows" too)
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text()) for name in LAYERS}
    names = ("_fixture", "fixture_system", "fixture_constant_matrix")
    reader = {n.name: n for n in trees["reduction"].body if isinstance(n, ast.FunctionDef) and n.name in names}
    inside = {id(n) for owner in reader.values() for n in ast.walk(owner)}
    for node in ast.walk(trees["reduction"]):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            assert node.slice.value not in FIXTURE_KEYS or id(node) in inside, f"reduction: line {node.lineno}"
    loads = sum(len(_calls_to(tree, "load_fixtures")) for tree in trees.values())
    assert len(reader) == len(names) and loads == len(_calls_to(reader["_fixture"], "load_fixtures")) == 1
