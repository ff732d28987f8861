"""What importing the package costs, and the public surface it keeps.

The import-boundary tests run in fresh interpreters, since this process
has long since loaded every module.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sasano_galois
from sasano_galois import algnum, galois, reduction, report, weyl
from sasano_galois.algnum import AlgNum, canonical_tower
from sasano_galois.diffsys import DiffSystem
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.ratfunc import Poly, RatFunc
from sasano_galois.sasano import PolyExpr

SRC = Path(sasano_galois.__file__).resolve().parents[1]
README = SRC.parent / "README.md"


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports this source tree; the
    JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_LOADED = "print(json.dumps([m for m in sorted(sys.modules) if m.startswith('sasano_galois.') or m == 'mpmath']))"


def test_package_root_loads_no_submodule():
    assert _fresh(f"import json, sys\nimport sasano_galois\n{_LOADED}") == []


def test_orbit_runs_without_mpmath(tmp_path):
    loaded = _fresh(
        "import json, sys\n"
        "from sasano_galois import cli, reduction\n"
        "imported = 'mpmath' in sys.modules\n"
        f"code = cli.main(['--report-dir', {str(tmp_path)!r}, 'orbit', '--depth', '2'])\n"
        "print(json.dumps([imported, code, 'mpmath' in sys.modules]))"
    )
    assert loaded == [False, 0, False]


def test_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    added = _fresh(
        "import json, sys\n"
        "at_start = set(sys.modules)\n"
        "from sasano_galois import cli, reduction\n"
        "reduction.canonical_config()\n"
        f"cli.main(['--report-dir', {str(tmp_path)!r}, 'orbit', '--depth', '2'])\n"
        f"cli.main(['--report-dir', {str(tmp_path)!r}, 'prove'])\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - at_start))))"
    )
    assert added == []


def test_orbit_does_not_load_the_ball_kernel(tmp_path):
    loaded = _fresh(
        "import json, sys\n"
        "from sasano_galois import cli, reduction\n"
        f"code = cli.main(['--report-dir', {str(tmp_path)!r}, 'orbit', '--depth', '2'])\n"
        "print(json.dumps([code, 'sasano_galois.ball' in sys.modules]))"
    )
    assert loaded == [0, False]


@pytest.mark.parametrize("wasow", [False, True], ids=["canonical", "wasow"])
def test_configuration_load_and_prove_run_without_mpmath(tmp_path, wasow):
    flags = ["--alpha-wasow"] if wasow else []
    loaded = _fresh(
        "import json, sys\nfrom sasano_galois import cli\nfrom sasano_galois.reduction import canonical_config\n"
        f"canonical_config()\nassert cli.main(['--report-dir', {str(tmp_path)!r}, 'prove', *{flags!r}]) == 0\n{_LOADED}"
    )
    assert "mpmath" not in loaded and "sasano_galois.ball" in loaded


def test_every_export_resolves():
    assert sasano_galois.__all__ == sorted(set(sasano_galois.__all__))
    for name in sasano_galois.__all__:
        assert getattr(sasano_galois, name).__name__ == name
    with pytest.raises(AttributeError):
        sasano_galois.no_such_name


def test_readme_library_snippet(capsys):
    text = README.read_text()
    snippet = re.search(r"## Library\s+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["NotIntegrable", "NotIntegrable"]


# -- records ----------------------------------------------------------------------

RECORDS = (
    algnum.TowerLevel, algnum.ChainConstants,
    galois.ScalarODE2, galois.ApparentCertificate, galois.WhittakerData, galois.StokesFlags,
    galois.BlockClassification, galois.GaloisOutcome,
    reduction.ChainConfig, reduction.ConstantGauge, reduction.Shear, reduction.Substitution,
    reduction.GaugeStep, reduction.ReductionTrace, reduction.ConsistencyReport,
    report.CertificateStep, report.ReportSection, report.ProofReport,
    weyl.ParamTriple, weyl.SolutionState, weyl.MatsudaResult,
    weyl.OrbitNode, weyl.ParamCollision, weyl.OrbitResult,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_assignment(cls):
    record = cls(*[None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)


VALUE_TYPES = (AlgNum, Poly, RatFunc, PuiseuxPoly, DiffSystem, PolyExpr)

# Each call builds a new value, equal to the last one built.
SAMPLES = {
    AlgNum: lambda: AlgNum.generator(canonical_tower(), 1),
    Poly: lambda: Poly((1, 2), 3),
    RatFunc: lambda: RatFunc.make(Poly.variable(), Poly((1, 1), 1)),
    PuiseuxPoly: lambda: PuiseuxPoly.monomial(canonical_tower(), 2, Fraction(1, 2)),
    DiffSystem: lambda: DiffSystem("x", ((PuiseuxPoly.const(canonical_tower(), 3),),)),
    PolyExpr: lambda: PolyExpr.var("y"),
}


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_is_not_a_tuple(cls):
    assert not issubclass(cls, tuple)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_rejects_assignment_and_deletion(cls):
    value = SAMPLES[cls]()
    assert not hasattr(value, "__dict__")
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert SAMPLES[cls]() == value


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_equal_values_hash_equal(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and {a: 1}[b] == 1


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_equals_no_tuple_and_no_other_type(cls):
    value = SAMPLES[cls]()
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    assert value != fields and fields != value
    for other in VALUE_TYPES:
        if other is not cls:
            assert value != SAMPLES[other]() and SAMPLES[other]() != value


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_survives_copy_and_pickle(cls):
    value = SAMPLES[cls]()
    assert copy.copy(value) == value
    for restored in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(restored) is cls and repr(restored) == repr(value)
        # A copied tower is a new tower, and values over different towers never compare.
        if cls in (Poly, RatFunc, PolyExpr):
            assert restored == value and hash(restored) == hash(value)


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_repr_names_the_type(cls):
    assert repr(SAMPLES[cls]()).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_uses_the_constructor_frozen_builds(cls):
    assert cls.__init__.__qualname__ == "Frozen.__init_subclass__.<locals>.__init__"
    assert "__init__" in cls.__dict__


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_built_with_wrong_field_count_raises(cls):
    fields = SAMPLES[cls]().__reduce__()[1]
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(ValueError):
            cls(*wrong)


def test_value_field_comparison_examples():
    assert Poly((1,), 1) != ((1,), 1)
    assert Poly((1,), 1) == Poly.const(1)
    assert repr(Poly((1, 2), 3)) == "Poly((1, 2), 3)" and repr(PolyExpr((), 1)) == "PolyExpr((), 1)"
    tower = canonical_tower()
    assert PuiseuxPoly.zero(tower) == 0 and PuiseuxPoly.const(tower, Fraction(3, 4)) == Fraction(3, 4)
    assert AlgNum.from_rational(tower, 1) == 1 and AlgNum.from_rational(tower, 1) != 2
    assert PuiseuxPoly.const(tower, 5) == AlgNum.from_rational(tower, 5)


def test_equal_param_triples_hash_equal():
    a = weyl.ParamTriple.make(("2/5", "1/5", "1/10"))
    b = weyl.ParamTriple.make((Fraction(4, 10), Fraction(1, 5), Fraction(1, 10)))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
