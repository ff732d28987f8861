"""The package's layers: the numeric kernel ``ball`` and ``ratfunc`` at the
bottom, each module above them importing only modules below it, no module
importing ``mpmath``, and one subtraction for every ring type."""

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


def test_no_runtime_dependency():
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert not project.get("dependencies")


def test_ball_imports_no_package_module():
    assert not _package_imports("ball") and _imports("ball") <= {"__future__", "fractions", "math"}


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
