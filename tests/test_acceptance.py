"""Acceptance gate: eight timed end-to-end criteria, one line each.

Each test prints a single PASS line with its runtime once every assertion
inside it holds, and asserts the runtime budget itself.  Run with -v (or
-s for the timing lines) to get the per-criterion record.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import random_algnum
from relations import RELATIONS, verify_group_relations
from sasano_galois.algnum import AlgNum, canonical_constants, rational_recognize
from sasano_galois.diffsys import char_poly, leading_data
from sasano_galois.exprparse import chain_symbols, parse_puiseux
from sasano_galois.galois import (
    ScalarODE2,
    classify_blocks,
    eta_pullback,
    indicial_exponents,
    normalize_whittaker,
    stokes_triviality,
    system_to_scalar,
)
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.reduction import (
    canonical_config,
    load_fixtures,
    run_canonical_chain,
    verify_trace_consistency,
)
from sasano_galois.sasano import seed_variational_system
from sasano_galois.weyl import enumerate_orbit, matsuda_check, seed_state

NVE_ENTRIES = (
    ("0", "-8/5*t", "-4/5*t", "0"),
    ("-4", "0", "0", "-1"),
    ("1", "0", "0", "-1"),
    ("0", "4/5*t", "4/5*t", "0"),
)

STAGES = (
    "variational",
    "leading_nilpotent",
    "quarter_shear",
    "ramified_time",
    "jordan_gauge",
    "unit_shear",
    "decoupled",
)


def _finish(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    tower = m[0][0].tower
    total = AlgNum.from_rational(tower, 0)
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(len(m)) if k != j] for row in m[1:]]
        piece = entry * _cofactor_det(minor)
        total = total + piece if j % 2 == 0 else total - piece
    return total


def test_criterion_1_variational_entries():
    started = time.perf_counter()
    cfg = canonical_config()
    nve = seed_variational_system(cfg.constants.tower)
    assert nve.dim == 4 and nve.var == "t"
    rendered = tuple(tuple(e.render("t") for e in row) for row in nve.matrix)
    assert rendered == NVE_ENTRIES
    _finish(1, "normal variational equations", started, 1.0)


def test_criterion_2_reduction_chain_and_spectrum():
    started = time.perf_counter()
    cfg = canonical_config()
    cc = cfg.constants
    trace = run_canonical_chain(seed_variational_system(cc.tower), cfg)
    assert trace.matched_stages == STAGES
    assert trace.leading_exponent == Fraction(5)

    r, lead = leading_data(trace.final)
    assert r == Fraction(5)
    poly = char_poly(lead)
    tower = cc.tower
    reference = PuiseuxPoly.from_terms(tower, 1, enumerate([-5, 0, -5, 0, 1]))
    assert poly == reference
    for q in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3)):
        qn = AlgNum.from_rational(tower, q)
        shifted = [
            [
                (qn if i == j else AlgNum.from_rational(tower, 0)) - lead[i][j]
                for j in range(4)
            ]
            for i in range(4)
        ]
        assert _cofactor_det(shifted) == reference(qn)
    assert trace.eigenvalues == cc.eigenvalues
    for lam in cc.eigenvalues:
        assert reference(lam).is_zero()
    _finish(2, "reduction chain and spectrum", started, 10.0)


def test_criterion_3_apparent_point_certificate():
    started = time.perf_counter()
    cfg = canonical_config()
    trace = run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)
    targets = {Fraction(2, 3), Fraction(1, 3)}
    for block in trace.blocks:
        ode = system_to_scalar(eta_pullback(block))
        roots = indicial_exponents(ode)
        assert {rational_recognize(r) for r in roots} == targets
    outcome = classify_blocks(trace.blocks)
    assert outcome.lifted_diagonal == (4, 2, 4, 2)
    for cert in outcome.apparent:
        assert cert.order == 10
        assert cert.lifted_exponents == (4, 2)
        assert all(len(series) == cert.order + 1 for series in cert.series)
    _finish(3, "apparent singularity certificate", started, 5.0)


def test_criterion_4_whittaker_stokes_verdict():
    started = time.perf_counter()
    cfg = canonical_config()
    cc = cfg.constants
    tower = cc.tower
    trace = run_canonical_chain(seed_variational_system(tower), cfg)
    outcome = classify_blocks(trace.blocks)

    half = AlgNum.from_rational(tower, Fraction(1, 2))
    sixth = AlgNum.from_rational(tower, Fraction(1, 6))
    for block in outcome.blocks:
        assert block.whittaker.kappa == half
        assert block.whittaker.mu == sixth
        assert block.stokes.both_nontrivial()
        assert block.group == "SL2"

    resolver = chain_symbols(cc)
    fx = load_fixtures()["whittaker_cross_check"]
    a, b, c = (
        parse_puiseux(s, tower, "eta", resolver).constant_value() for s in fx["bracket"]
    )
    c0 = -(
        PuiseuxPoly.const(tower, 1).scale(a)
        + PuiseuxPoly.monomial(tower, b, -1)
        + PuiseuxPoly.monomial(tower, c, -2)
    )
    wh = normalize_whittaker(ScalarODE2("eta", PuiseuxPoly.zero(tower), c0))
    assert wh.kappa == -(cc.imag_unit) / 2
    assert wh.mu == sixth
    scale_ref = parse_puiseux(
        fx["scale_to_normal_form"], tower, "eta", resolver
    ).constant_value()
    assert wh.scale == scale_ref
    normal_ref = tuple(
        parse_puiseux(s, tower, "eta", resolver).constant_value()
        for s in fx["normal_form_bracket"]
    )
    assert wh.normal_bracket == normal_ref
    assert stokes_triviality(wh.kappa, wh.mu).both_nontrivial()

    assert outcome.verdict == "NotIntegrable"
    assert seed_state().params.as_tuple() == (
        Fraction(2, 5),
        Fraction(1, 5),
        Fraction(1, 10),
    )
    _finish(4, "whittaker data, stokes flags, verdict", started, 5.0)


def test_criterion_5_reflection_relations():
    started = time.perf_counter()
    checks = verify_group_relations(samples=50, seed=20240814)
    assert [c.name for c in checks] == [label for label, _ in RELATIONS]
    families = {
        "involution": ("s0^2", "s1^2", "s2^2"),
        "commuting": ("(s0 s2)^2", "(s2 s0)^2"),
        "braid01": ("(s0 s1)^4", "(s1 s0)^4"),
        "braid12": ("(s1 s2)^4", "(s2 s1)^4"),
    }
    by_name = {c.name: c for c in checks}
    for members in families.values():
        for name in members:
            check = by_name[name]
            assert check.matrix_identity
            assert check.points_checked >= 50
    _finish(5, "reflection group relations", started, 10.0)


def test_criterion_6_orbit_depth_six():
    started = time.perf_counter()
    orbit = enumerate_orbit(seed_state(), depth=6)
    assert orbit.node_count() == 57
    assert not orbit.skipped
    assert all(c.states_equal for c in orbit.collisions)
    for node in orbit.nodes:
        params = node.state.params
        assert params.a0 + 2 * params.a1 + 2 * params.a2 == 1
        assert node.matsuda.row is not None
    seed_row = matsuda_check(seed_state().params)
    assert (seed_row.a_mod, seed_row.b_mod, seed_row.row) == (0, 0, 1)
    _finish(6, "orbit audit to depth six", started, 60.0)


def test_criterion_7_numeric_guards():
    mpmath = pytest.importorskip("mpmath")
    started = time.perf_counter()
    cfg = canonical_config()
    trace = run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)
    report = verify_trace_consistency(trace)
    assert "numeric" in report.names()

    tower = cfg.constants.tower
    rng = random.Random(20240815)
    with mpmath.workdps(30):
        tol = mpmath.mpf("1e-12")
        for _ in range(1000):
            a = random_algnum(tower, rng)
            b = random_algnum(tower, rng)
            za, zb = a.embed(25), b.embed(25)
            zsum = (a + b).embed(25)
            zprod = (a * b).embed(25)
            assert abs(zsum - (za + zb)) <= tol * (1 + abs(zsum))
            assert abs(zprod - za * zb) <= tol * (1 + abs(zprod))
    _finish(7, "numeric spot checks and embedding", started, 10.0)


def test_criterion_8_convention_independence():
    started = time.perf_counter()
    cc = canonical_constants()
    tower = cc.tower
    half = AlgNum.from_rational(tower, Fraction(1, 2))
    sixth = AlgNum.from_rational(tower, Fraction(1, 6))
    observed = [(half, sixth), (half, sixth), (-(cc.imag_unit) / 2, sixth)]
    for kappa, mu in observed:
        with_zero = stokes_triviality(kappa, mu, include_zero=True)
        without = stokes_triviality(kappa, mu, include_zero=False)
        assert with_zero.both_nontrivial() == without.both_nontrivial()

    rng = random.Random(20240818)
    basis = (
        AlgNum.from_rational(tower, 1),
        cc.sqrt5,
        cc.imag_unit,
        cc.sqrt_minus,
    )
    def draw():
        total = AlgNum.from_rational(tower, 0)
        for unit in basis:
            if rng.random() < 0.5:
                total = total + unit * Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        return total

    for _ in range(200):
        kappa, mu = draw(), draw()
        for include_zero in (True, False):
            base = stokes_triviality(kappa, mu, include_zero)
            swapped = stokes_triviality(-kappa, mu, include_zero)
            assert base.mu1_trivial == swapped.mu2_trivial
            assert base.mu2_trivial == swapped.mu1_trivial
            assert base.both_nontrivial() == swapped.both_nontrivial()
            assert stokes_triviality(kappa, -mu, include_zero) == base
    _finish(8, "stokes convention independence", started, 5.0)
