"""Fault injection: a corrupted fixture, tower or square-root search, a wrong
Hamiltonian or a generator that is not an involution ends the canonical
pipeline or the orbit in a named fail section, never in a traceback."""

from __future__ import annotations

import copy
import functools
import json
import re
import sys
from fractions import Fraction

import pytest

from sasano_galois import algnum, galois, reduction, report, sasano, weyl
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
    elif change == "drop":
        del fixtures[table]
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
        ("leading_unit_shear", None, "drop", None),
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


RAMIFIED = STAGES.index("ramified_time")


def ramified(fixtures: dict) -> dict:
    return fixtures["stages"][RAMIFIED]


# (id, change, error start): a table of data/fixtures.json missing or misshapen, and a
# prefactor that Fraction rejects with a ZeroDivisionError
LAYOUT_FAULTS = [
    ("drop-stages", lambda f: f.pop("stages"), "fixture stage variational: missing 'stages'"),
    ("drop-gauges", lambda f: f.pop("gauges"), "fixture gauge t1: missing 'gauges'"),
    ("drop-leading_unit_shear", lambda f: f.pop("leading_unit_shear"), "fixture leading_unit_shear: missing"),
    # every stage is found by its name, so a nameless stage stops the first lookup
    ("drop-stage-name", lambda f: ramified(f).pop("name"), "fixture stage variational: missing 'name'"),
    *[
        (f"drop-stage-{key}", lambda f, key=key: ramified(f).pop(key), f"fixture stage ramified_time: missing '{key}'")
        for key in ("var", "prefactor", "rows")
    ],
    ("stages-dict", lambda f: f.update(stages={s["name"]: s for s in f["stages"]}), "fixture stage variational: "),
    ("gauges-list", lambda f: f.update(gauges=list(f["gauges"].values())), "fixture gauge t1: "),
    # four one-letter entries in a row of length four are still not a row
    ("gauge-row-string", lambda f: f["gauges"]["t2"].__setitem__(0, "abcd"), "fixture gauge t2: not a square matrix"),
    ("stage-list", lambda f: f["stages"].__setitem__(RAMIFIED, [*ramified(f).values()]), "fixture stage variational: "),
    (
        "leading_unit_shear-row-number",
        lambda f: f["leading_unit_shear"].__setitem__(0, 7),
        "fixture leading_unit_shear: not a square matrix",
    ),
    ("prefactor-zero-denominator", lambda f: ramified(f).update(prefactor="1/0"), "fixture stage ramified_time: "),
]


@pytest.mark.parametrize("change, error", [c[1:] for c in LAYOUT_FAULTS], ids=[c[0] for c in LAYOUT_FAULTS])
def test_malformed_fixture_layout_ends_in_reduction_fail_section(monkeypatch, change, error):
    fixtures = copy.deepcopy(reduction.load_fixtures())
    change(fixtures)
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    assert proof.sections[-1].name == "reduction trace"
    assert dict(proof.sections[-1].steps[0].values)["error"].startswith(error)


@pytest.mark.parametrize(
    "entry, error",
    [
        ("al^(1/3)", "exponent 1/3 of 'al' is not a quarter integer"),
        ("sqrt5^(1/2)", "symbol 'sqrt5' does not support exponent 1/2"),
    ],
    ids=["al-third", "sqrt5-half"],
)
def test_gauge_power_outside_the_tower_ends_in_reduction_fail_section(corrupted, entry, error):
    corrupted("gauge", "t1", "entry", entry)
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    assert error in dict(proof.sections[-1].steps[0].values)["error"]


def test_stage_read_in_another_variable_ends_in_reduction_fail_section(monkeypatch):
    # every entry of ramified_time renamed from tau to u still parses, so
    # only the comparison of the variables can reject the stage
    fixtures = copy.deepcopy(reduction.load_fixtures())
    stage = next(s for s in fixtures["stages"] if s["name"] == "ramified_time")
    stage["var"] = "u"
    stage["rows"] = [[e.replace("tau", "u") for e in row] for row in stage["rows"]]
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    proof = build_proof(stop_after="reduction")
    assert [s.status for s in proof.sections] == ["pass", "pass", "fail"]
    error = dict(proof.sections[-1].steps[0].values)["error"]
    assert error == "stage ramified_time: variable is 'tau', reference uses 'u'"


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
    monkeypatch.setattr(sasano, "solution_energy", lambda values: RatFunc(Poly((), 1), Poly((), 1)))
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
    monkeypatch.setattr(reduction, "char_poly", lambda lead: poly_with_roots(c.tower, c.eigenvalues))
    assert build_proof(stop_after="reduction").all_pass()
    monkeypatch.setattr(reduction, "char_poly", lambda lead: poly_with_roots(c.tower, (lam1 + 1, *rest)))
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


# -- the model and the orbit -------------------------------------------------------


def run_orbit(tmp_path, capsys) -> str:
    """``orbit --depth 6`` must exit 1 with a written report; its Markdown."""
    assert main(["--report-dir", str(tmp_path), "orbit", "--depth", "6"]) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.err and "orbit summary: fail" in out.out
    return (tmp_path / "orbit_summary.md").read_text()


def test_failed_seed_ends_in_orbit_fail_section(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sasano, "solution_energy", lambda values: RatFunc(Poly((), 1), Poly((), 1)))
    md = run_orbit(tmp_path, capsys)
    assert "## orbit summary [fail]" in md and "denominators vanish" in md
    assert not (tmp_path / "orbit.jsonl").exists()


def test_wrong_hamiltonian_ends_in_fail_sections(tmp_path, capsys, monkeypatch):
    # 2*y*z*w -> 3*y*z*w in the one formula: the derived field is no longer the reference field
    formula = sasano._hamiltonian
    monkeypatch.setattr(sasano, "_hamiltonian", lambda x, y, z, w, *rest: formula(x, y, z, w, *rest) + y * z * w)
    for name in ("hamiltonian", "extended_hamiltonian", "_symbolic_field"):
        monkeypatch.setattr(sasano, name, functools.cache(getattr(sasano, name).__wrapped__))
    proof = build_proof()
    assert [(s.name, s.status) for s in proof.sections] == [("model check", "fail")]
    assert "not the reference field" in dict(proof.sections[0].steps[0].values)["error"]
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1
    assert "## model check [fail]" in (tmp_path / "proof.md").read_text()
    assert "not the reference field" in run_orbit(tmp_path, capsys)


def flip_s2_x(reflect):
    """s2's x-image with the sign of its 2*shift*y term flipped."""

    def mutant(name, x, y, z, w, f, shift, kept):
        if name == "s2":
            return x - 2 * shift * y - shift**2, y - shift, z + shift, w, f - shift
        return reflect(name, x, y, z, w, f, shift, kept)

    return mutant


def s2_x(image_x):
    """s2 with x's image ``image_x(kept, y1)`` in place of kept - y1^2, where
    kept = x + y^2 and y1 = y - shift."""

    def mutate(mp):
        reflect = weyl._reflect

        def mutant(name, x, y, z, w, f, shift, kept):
            image = reflect(name, x, y, z, w, f, shift, kept)
            return (image_x(kept, image[1]), *image[1:]) if name == "s2" else image

        mp.setattr(weyl, "_reflect", mutant)

    return mutate


def s2_f(image_f):
    """s2 with F's image ``image_f(f, shift)`` in place of f - shift."""

    def mutate(mp):
        reflect = weyl._reflect

        def mutant(name, x, y, z, w, f, shift, kept):
            image = reflect(name, x, y, z, w, f, shift, kept)
            return (*image[:4], image_f(f, shift)) if name == "s2" else image

        mp.setattr(weyl, "_reflect", mutant)

    return mutate


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda mp: mp.setattr(weyl, "_reflect", flip_s2_x(weyl._reflect)), "s2 does not fix its divisor"),
        # (x + y^2) + y1^2 moves the invariant x + y^2 by 2 y1^2
        (s2_x(lambda kept, y1: kept + y1**2), "s2 does not fix its divisor"),
        # F - shift^2 fixes the divisor, which does not read F, but a second step does not undo it
        (s2_f(lambda f, shift: f - shift**2), "s2 applied twice is not the identity"),
        # a0' = -a0, a1' = a0 + a2, a2' = a1 keeps a0 + 2 a1 + 2 a2 but is no involution
        (
            lambda mp: mp.setitem(weyl.PARAM_MATRICES, "s0", ((-1, 0, 0), (1, 0, 1), (0, 1, 0))),
            "the parameter matrix of s0 is not an involution",
        ),
    ],
    ids=["s2-sign-flip", "s2-invariant-plus", "s2-f-squared", "param-matrix"],
)
def test_broken_involution_ends_in_orbit_fail_section(tmp_path, capsys, monkeypatch, mutate, error):
    mutate(monkeypatch)
    monkeypatch.setattr(weyl, "verify_involutions", functools.cache(weyl.verify_involutions.__wrapped__))
    with pytest.raises(weyl.WeylError, match=error):
        weyl.verify_involutions.__wrapped__()
    assert error in run_orbit(tmp_path, capsys)


def test_parameter_matrix_off_the_affine_relation_ends_in_orbit_fail_section(tmp_path, capsys, monkeypatch):
    # a1' = 2 a0 + a1 is still an involution negating a0, but moves a0 + 2 a1 + 2 a2 by 2 a0
    monkeypatch.setitem(weyl.PARAM_MATRICES, "s0", ((-1, 0, 0), (2, 1, 0), (0, 0, 1)))
    monkeypatch.setattr(weyl, "verify_parameter_form", functools.cache(weyl.verify_parameter_form.__wrapped__))
    weyl.verify_involutions.__wrapped__()
    error = "the parameter matrix of s0 does not keep a0 + 2*a1 + 2*a2"
    with pytest.raises(weyl.WeylError, match=re.escape(error)):
        weyl.verify_parameter_form()
    assert error in run_orbit(tmp_path, capsys)
    assert main(["--report-dir", str(tmp_path), "prove"]) == 1
    md = (tmp_path / "proof.md").read_text()
    assert "## orbit summary [fail]" in md and error in md


def test_involutive_mutant_is_caught_by_the_state_check(tmp_path, capsys, monkeypatch):
    # w - 3*shift*z in s1 is still an involution that fixes its divisor, so
    # only the exact check of each image as a solution can reject it
    reflect = weyl._reflect

    def mutant(name, x, y, z, w, f, shift, kept):
        if name == "s1":
            return x, y - shift, z, w - 3 * shift * z, f
        return reflect(name, x, y, z, w, f, shift, kept)

    monkeypatch.setattr(weyl, "_reflect", mutant)
    weyl.verify_involutions.__wrapped__()
    orbit = weyl.enumerate_orbit(weyl.seed_state(), depth=6)
    assert orbit.skipped and all(reason.startswith("not a solution") for _, reason in orbit.skipped)
    md = run_orbit(tmp_path, capsys)
    assert "## orbit summary [fail]" in md and "verification failed" not in md


def test_dropped_f_shift_is_caught_only_by_the_state_check(tmp_path, capsys, monkeypatch):
    # s2 leaving F unchanged is still an involution of the extended point, so
    # the proof passes; only the F row of each s2 image's exact check rejects it
    s2_f(lambda f, shift: f)(monkeypatch)
    weyl.verify_involutions.__wrapped__()
    orbit = weyl.enumerate_orbit(weyl.seed_state(), depth=6)
    assert len(orbit.skipped) == 8
    assert {reason for _, reason in orbit.skipped} == {"not a solution: equations fail for F"}
    md = run_orbit(tmp_path, capsys)
    assert "## orbit summary [fail]" in md and "verification failed" not in md
