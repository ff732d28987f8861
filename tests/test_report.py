"""Tests for certificate assembly, serialization, and determinism."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import algnum_from_json, assert_pair_form, components, tower_from_json
from sasano_galois import report as report_module
from sasano_galois import sasano, weyl
from sasano_galois.algnum import AlgNum, TowerSpec, canonical_constants
from sasano_galois.galois import ApparentCertificate, BlockClassification, GaloisOutcome
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.ratfunc import VerificationError
from sasano_galois.report import (
    SECTION_ORDER,
    STATUSES,
    apparent_section,
    build_proof,
    build_seed_report,
    format_numeric,
    orbit_jsonl,
    orbit_section,
    report_to_json,
    report_to_markdown,
)
from sasano_galois.weyl import (
    MatsudaResult,
    OrbitNode,
    OrbitResult,
    ParamTriple,
    enumerate_orbit,
    seed_state,
)


@pytest.fixture(scope="module")
def proof():
    return build_proof()


@pytest.fixture(scope="module")
def wasow_proof():
    return build_proof(wasow=True)


def test_section_order_and_statuses(proof):
    assert tuple(s.name for s in proof.sections) == SECTION_ORDER
    assert all(s.status in STATUSES for s in proof.sections)
    assert proof.all_pass()
    assert proof.verdict == "NotIntegrable"
    assert proof.normalization == "canonical"


def test_verdict_requires_full_pipeline(monkeypatch):
    def fail(blocks):
        raise VerificationError("classification refused")

    monkeypatch.setattr(report_module, "classify_blocks", fail)
    partial = build_proof()
    assert partial.verdict is None
    assert "final verdict" not in [s.name for s in partial.sections]
    assert partial.sections[-1].name == "apparent singularity" and partial.sections[-1].status == "fail"


def test_reports_are_deterministic(proof):
    again = build_proof()
    assert report_to_json(proof) == report_to_json(again)
    assert report_to_markdown(proof) == report_to_markdown(again)


def test_exact_value_payloads(proof):
    wh = next(s for s in proof.sections if s.name == "whittaker normal form")
    for step in wh.steps:
        values = dict(step.values)
        assert values["kappa"]["exact"] == "1/2"
        assert values["kappa"]["numeric"] == "0.5"
        assert values["mu"]["exact"] == "1/6"
        assert values["mu"]["numeric"] == "0.16666666666666666667"


@pytest.fixture(scope="module", params=[False, True], ids=["canonical", "wasow"])
def proof_json(request):
    return report_to_json(build_proof(wasow=request.param))


def exact_payloads(node):
    """Every {exact, coords, numeric} value in a decoded report."""
    if isinstance(node, dict):
        if "coords" in node:
            yield node
        else:
            for v in node.values():
                yield from exact_payloads(v)
    elif isinstance(node, list):
        for v in node:
            yield from exact_payloads(v)


def test_coords_decode_to_the_exact_strings(proof_json):
    data = json.loads(proof_json)
    tower = tower_from_json(data["tower"])
    payloads = list(exact_payloads(data["sections"]))
    assert len(payloads) == 21  # a time scale, 4 eigenvalues, 4 indicial exponents, 12 Whittaker values
    for p in payloads:
        assert_pair_form(p["coords"], tower.degrees)
        assert str(algnum_from_json(tower, p["coords"])) == p["exact"]


def test_proof_json_stays_sparse(proof_json):
    # the dense layout wrote 48 or 56 coordinates per number: 49.8 KB and 65.2 KB
    assert len(proof_json.encode()) <= 25_000


def test_json_round_trips(proof):
    data = json.loads(report_to_json(proof))
    assert data["verdict"] == "NotIntegrable"
    assert [s["name"] for s in data["sections"]] == list(SECTION_ORDER)
    assert [lv["name"] for lv in data["tower"]["levels"]] == ["g", "i", "b"]
    eig = data["sections"][2]["steps"][-2]["values"]
    assert eig["characteristic polynomial"] == "l^4 - 5*l^2 - 5"


def test_markdown_rendering(proof):
    md = report_to_markdown(proof)
    assert "- verdict: **NotIntegrable**" in md
    assert "## stokes flags [pass]" in md
    assert "- kappa: `1/2`  (= 0.5)" in md
    headers = [line for line in md.splitlines() if line.startswith("## ")]
    assert len(headers) == len(SECTION_ORDER)


def test_wasow_proof(wasow_proof):
    assert wasow_proof.verdict == "NotIntegrable"
    assert wasow_proof.normalization == "wasow"
    assert wasow_proof.all_pass()


def test_prove_verifies_the_seed_before_the_orbit_once(monkeypatch):
    calls = []
    verify = sasano.verify_solution

    def counting(*args):
        calls.append(args)
        return verify(*args)

    for module in (sasano, weyl):
        monkeypatch.setattr(module, "verify_solution", counting)
    assert build_proof().verdict == "NotIntegrable"
    # the model check's seed, which is the orbit's root, then the 8 other
    # orbit nodes to depth 2
    assert len(calls) == 9


def test_prove_stays_within_its_tower_product_budget(monkeypatch):
    calls = 0
    mul = AlgNum.__mul__

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    canonical_constants()  # cached per process: its products would make the count depend on test order
    monkeypatch.setattr(AlgNum, "__mul__", counting)
    monkeypatch.setattr(AlgNum, "__rmul__", counting)
    assert build_proof().verdict == "NotIntegrable"
    # 1,661 products; 2,491 when matrix products formed every term and each
    # power started from one.  The count repeats exactly.
    assert calls <= 1800


def test_prove_inverts_each_substitution_root_once(cold, monkeypatch):
    # A substitution takes negative powers of its root through the tower,
    # whose tables compute each inverse once.  In a cold proof each of the 7
    # roots that has a negative power to take (the root of alpha and its
    # inverse, 1 for the eta pull-backs, the four Whittaker scales) reaches
    # ``_inv_sum`` once, a monomial as its basis monomial.
    roots, inverted = [], []
    substitute, inv_sum = PuiseuxPoly.substitute_power, TowerSpec._inv_sum

    def recording(p, root, index, power):
        if p and p.valuation() < 0:
            roots.append(root.value)
        return substitute(p, root, index, power)

    monkeypatch.setattr(PuiseuxPoly, "substitute_power", recording)
    monkeypatch.setattr(TowerSpec, "_inv_sum", lambda tower, a: inverted.append(a) or inv_sum(tower, a))
    assert build_proof().verdict == "NotIntegrable"
    keys = {(((terms[0][0], 1),), 1) if len(terms) == 1 else (terms, den) for terms, den in roots}
    assert len(keys) == 7
    assert all(inverted.count(key) == 1 for key in keys)


def test_apparent_claim_names_the_certificate_exponents():
    tower = canonical_constants().tower
    rho = tuple(AlgNum.from_rational(tower, q) for q in (Fraction(5, 6), Fraction(1, 6)))
    cert = ApparentCertificate(exponents=rho, pullback=6, lifted_exponents=(5, 1), order=4, series=((), ()))
    block = BlockClassification(label="block 1", whittaker=None, stokes=None, group="SL2")
    outcome = GaloisOutcome(blocks=(block,), apparent=(cert,), lifted_diagonal=(5, 1), verdict="NotIntegrable")
    assert apparent_section(outcome, 20).steps[0].claim == "indicial exponents of block 1 are 5/6 and 1/6"


def test_format_numeric():
    cc = canonical_constants()
    tower = cc.tower
    half = AlgNum.from_rational(tower, Fraction(1, 2))
    assert format_numeric(half, 20) == "0.5"
    assert format_numeric(cc.imag_unit, 20) == "1.0*i"
    assert format_numeric(half + cc.imag_unit, 20) == "0.5 + 1.0*i"
    assert format_numeric(half - cc.imag_unit, 20) == "0.5 - 1.0*i"
    assert format_numeric(cc.sqrt5, digits=25) == "2.236067977499789696409174"


def test_seed_report_failure_section():
    seed = seed_state()
    other = ParamTriple.make((Fraction(1, 2), Fraction(1, 8), Fraction(1, 8)))
    report = build_seed_report(components(seed), other)
    assert not report.all_pass()
    assert report.sections[0].status == "fail"
    assert "not a solution" in dict(report.sections[0].steps[0].values)["error"]


def test_orbit_jsonl_schema():
    orbit = enumerate_orbit(seed_state(), depth=1)
    lines = orbit_jsonl(orbit).splitlines()
    assert len(lines) == 4
    rows = [json.loads(line) for line in lines]
    assert rows[0]["word"] == []
    assert rows[0]["params"] == ["2/5", "1/5", "1/10"]
    assert rows[0]["matsuda_row"] == 1
    for row in rows:
        assert set(row) == {"word", "params", "state", "matsuda_row"}
        assert set(row["state"]) == {"x", "y", "z", "w", "F"}


def test_orbit_section_flags_missing_row():
    base = seed_state()
    no_row = MatsudaResult(a_mod=2, b_mod=4, row=None)
    node = OrbitNode(word=(), depth=0, state=base, matsuda=no_row)
    orbit = OrbitResult(depth=0, nodes=(node,), collisions=(), skipped=())
    assert orbit_section(orbit).status == "fail"
