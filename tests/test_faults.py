"""Fault injection: a corrupted fixture, tower or square-root search ends the
canonical pipeline in a named fail section, never in a traceback."""

from __future__ import annotations

import copy
import functools
import json
import sys
from fractions import Fraction

import pytest

from sasano_galois import algnum, galois, reduction, report, weyl
from sasano_galois.algnum import AlgNum, TowerError, rational_recognize
from sasano_galois.cli import main
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.ratfunc import Poly, RatFunc
from sasano_galois.report import build_proof, report_to_markdown

STAGES = [stage["name"] for stage in reduction.load_fixtures()["stages"]]
GAUGES = ["t1", "t1_inv", "t2", "t2_inv", "t3", "t3_inv"]

# (table, name, change, value): one entry of data/fixtures.json changed.
CASES = (
    [("stage", n, "entry", v) for n in STAGES for v in ("1/3", "", 7, None)]
    + [("stage", n, "prefactor", "x") for n in STAGES]
    + [("stage", n, "var", "q") for n in STAGES]
    + [("stage", n, "drop", None) for n in STAGES]
    + [("gauge", k, "entry", v) for k in GAUGES for v in ("1/3", "", 7, "tau")]
    + [("gauge", k, "short row", None) for k in GAUGES]
    + [("gauge", k, "drop", None) for k in GAUGES]
    + [("leading_unit_shear", None, "entry", v) for v in ("1/3", 7)]
)


def corrupt(fixtures: dict, table: str, name: str | None, change: str, value) -> None:
    if table == "stage":
        stage = next(s for s in fixtures["stages"] if s["name"] == name)
        if change == "drop":
            fixtures["stages"].remove(stage)
        elif change == "entry":
            stage["rows"][0][0] = value
        else:
            stage[change] = value
    elif table == "gauge":
        if change == "drop":
            del fixtures["gauges"][name]
        elif change == "entry":
            fixtures["gauges"][name][0][0] = value
        else:
            fixtures["gauges"][name][0].pop()
    else:
        fixtures[table][0][0] = value


def case_id(case) -> str:
    table, name, change, value = case
    label = "-".join(x.replace(" ", "-") for x in (table, name, change) if x)
    return label if change in ("drop", "short row") else f"{label}={value if value != '' else 'empty'}"


@pytest.fixture
def corrupted(monkeypatch):
    def install(*case):
        fixtures = copy.deepcopy(reduction.load_fixtures())
        corrupt(fixtures, *case)
        monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)

    return install


def test_every_fixture_table_is_covered():
    fixtures = reduction.load_fixtures()
    assert len(STAGES) == 7 and sorted(fixtures["gauges"]) == sorted(GAUGES)
    assert len(CASES) == 87


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_corrupt_fixture_ends_in_reduction_fail_section(corrupted, case):
    corrupted(*case)
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    last = proof.sections[-1]
    assert last.name == "reduction trace"
    assert dict(last.steps[0].values)["error"]
    assert proof.verdict is None and proof.tower is not None


@pytest.mark.parametrize(
    "case",
    [
        ("stage", "ramified_time", "entry", 7),
        ("gauge", "t2", "short row", None),
        ("gauge", "t3", "drop", None),
    ],
    ids=case_id,
)
def test_corrupt_fixture_exits_1_through_cli(tmp_path, capsys, corrupted, case):
    corrupted(*case)
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1
    data = json.loads((tmp_path / "proof.json").read_text())
    last = data["sections"][-1]
    assert (last["name"], last["status"]) == ("reduction trace", "fail")
    assert "reduction trace: fail" in capsys.readouterr().out


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on integer string conversion")
def test_overlong_integer_literal_ends_in_reduction_fail_section(tmp_path, corrupted):
    corrupted("stage", STAGES[0], "entry", "1" * (sys.get_int_max_str_digits() + 1))
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    assert proof.sections[-1].name == "reduction trace"
    assert "too long" in dict(proof.sections[-1].steps[0].values)["error"]
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1


def test_missing_square_root_ends_in_apparent_fail_section(tmp_path, monkeypatch):
    def no_root(a):
        raise TowerError(f"the monomial search found no square root of {a}")

    monkeypatch.setattr(galois, "sqrt_in_tower", no_root)
    proof = build_proof()
    assert proof.sections[-1].name == "apparent singularity"
    assert "## apparent singularity [fail]" in report_to_markdown(proof)
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1


def test_corrupt_tower_approximation_ends_in_nve_fail_section(tmp_path, monkeypatch):
    # Fresh caches stand in for the cached singletons while the corrupt tower
    # is in force; monkeypatch restores the originals (and their caches).
    singletons = ((algnum, "canonical_tower"), (algnum, "canonical_constants"), (reduction, "canonical_constants"))
    for module, name in singletons:
        monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))
    monkeypatch.setattr(algnum, "_GAMMA_APPROX", ("0.5", "0"))
    proof = build_proof()
    assert "## normal variational equations [fail]" in report_to_markdown(proof)
    assert "does not isolate a root" in dict(proof.sections[-1].steps[0].values)["error"]
    assert proof.normalization == "canonical" and proof.tower is None
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1


def test_zero_energy_denominator_ends_in_model_fail_section(tmp_path, monkeypatch):
    # F = 0/0 passes the equations of motion (both sides carry d = 0), so
    # only the bounded t0 search of the H + F = 0 check can reject it.
    monkeypatch.setattr(weyl, "solution_energy", lambda values: RatFunc(Poly((), 1), Poly((), 1)))
    proof = build_proof()
    assert [s.status for s in proof.sections] == ["fail"]
    assert proof.sections[0].name == "model check"
    assert "denominators vanish" in dict(proof.sections[0].steps[0].values)["error"]
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1


def test_wrong_eigenvalue_ends_in_reduction_fail_section(monkeypatch):
    c = reduction.canonical_constants()
    lam1, *rest = c.eigenvalues
    monkeypatch.setattr(reduction, "canonical_constants", lambda: c._replace(eigenvalues=(lam1 + 1, *rest)))
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    assert proof.sections[-1].name == "reduction trace"
    assert "diag(eigenvalues)" in dict(proof.sections[-1].steps[0].values)["error"]


def test_printed_gauge_not_block_scaled_ends_in_reduction_fail_section(monkeypatch):
    # Column 0 of t3 doubled and row 0 of t3_inv halved: still an inverse
    # pair that diagonalizes the leading matrix, but it rescales the two
    # columns of the first block differently.
    fixtures = copy.deepcopy(reduction.load_fixtures())
    t3, t3_inv = fixtures["gauges"]["t3"], fixtures["gauges"]["t3_inv"]
    for row in t3:
        row[0] = f"2*({row[0]})"
    t3_inv[0] = [f"({e})/2" for e in t3_inv[0]]
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    assert proof.sections[-1].name == "reduction trace"
    assert "stage decoupled (printed gauge)" in dict(proof.sections[-1].steps[0].values)["error"]


def poly_with_roots(tower, roots) -> PuiseuxPoly:
    """The monic polynomial prod (l - r) over ``roots``."""
    coeffs = [AlgNum.from_rational(tower, 1)]
    for r in roots:
        coeffs = [low - r * c for low, c in zip([0, *coeffs], [*coeffs, 0])]
    return PuiseuxPoly.from_terms(tower, 1, enumerate(coeffs))


def test_eigenvalue_off_the_characteristic_polynomial_ends_in_reduction_fail_section(tmp_path, monkeypatch):
    c = reduction.canonical_constants()
    lam1, *rest = c.eigenvalues
    monkeypatch.setattr(report, "char_poly", lambda lead: poly_with_roots(c.tower, c.eigenvalues))
    assert build_proof(stop_after="reduction").all_pass()
    monkeypatch.setattr(report, "char_poly", lambda lead: poly_with_roots(c.tower, (lam1 + 1, *rest)))
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    assert proof.sections[-1].name == "reduction trace"
    assert "is not a root of the characteristic polynomial" in dict(proof.sections[-1].steps[0].values)["error"]
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1


@pytest.mark.parametrize(
    "caller, factor, error",
    [
        # mu = sqrt(4C + 1)/3 = 1/9 in place of 1/6
        (galois.normalize_whittaker, Fraction(2, 3), "(2 mu)^2 = 4C + 1"),
        # indicial exponents 5/6 and 1/6 in place of 2/3 and 1/3: still no
        # integer difference, and integers on the 6-fold cover
        (galois.indicial_exponents, 2, "do not differ by +-2 mu"),
    ],
    ids=["whittaker-index", "indicial-exponents"],
)
def test_index_off_its_equation_ends_in_apparent_fail_section(tmp_path, monkeypatch, caller, factor, error):
    # The indicial discriminant and 4C + 1 are both 1/9, so only the calling
    # function tells their square roots apart.
    sqrt = galois.sqrt_in_tower

    def scaled(a):
        root = sqrt(a)
        if sys._getframe(1).f_code is caller.__code__ and rational_recognize(a) is not None:
            return root * factor
        return root

    monkeypatch.setattr(galois, "sqrt_in_tower", scaled)
    proof = build_proof()
    assert [s.status for s in proof.sections] == ["pass", "pass", "pass", "fail"]
    assert proof.sections[-1].name == "apparent singularity"
    assert error in dict(proof.sections[-1].steps[0].values)["error"]
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1
