"""Tests for the block classification: scalar form, apparent point, Whittaker data."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import system_from_entries
from sasano_galois.algnum import AlgNum, canonical_constants, rational_recognize
from sasano_galois.exprparse import chain_symbols, parse_puiseux
from sasano_galois.galois import (
    GaloisError,
    ScalarODE2,
    StokesFlags,
    certify_apparent,
    classify_blocks,
    component_from_stokes,
    eta_pullback,
    indicial_exponents,
    morales_ramis_verdict,
    normalize_whittaker,
    stokes_triviality,
    system_to_scalar,
)
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.reduction import canonical_config, load_fixtures, run_canonical_chain
from sasano_galois.sasano import seed_variational_system


@pytest.fixture(scope="module")
def trace():
    cfg = canonical_config()
    return run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)


@pytest.fixture(scope="module")
def cc():
    return canonical_constants()


def test_eta_pullback_entries(trace, cc):
    tower = cc.tower
    for bi, block in enumerate(trace.blocks):
        lam_i = cc.eigenvalues[2 * bi]
        lam_j = cc.eigenvalues[2 * bi + 1]
        pulled = eta_pullback(block)
        assert pulled.var == "eta"
        half_pole = PuiseuxPoly.monomial(tower, Fraction(1, 2), -1)
        sixth_pole = PuiseuxPoly.monomial(tower, Fraction(-1, 6), -1)
        assert pulled.entry(0, 0) == PuiseuxPoly.const(tower, 1).scale(lam_i / 6) + half_pole
        assert pulled.entry(1, 1) == PuiseuxPoly.const(tower, 1).scale(lam_j / 6) + half_pole
        assert pulled.entry(0, 1) == sixth_pole
        assert pulled.entry(1, 0) == sixth_pole


def test_scalar_form_of_blocks(trace, cc):
    for bi, block in enumerate(trace.blocks):
        lam_i = cc.eigenvalues[2 * bi]
        lam_j = cc.eigenvalues[2 * bi + 1]
        ode = system_to_scalar(eta_pullback(block))
        assert ode.c1.is_zero()
        # u'' = (-lam_i lam_j / 36 + lam_i/(6 eta) - 2/(9 eta^2)) u
        assert ode.c0.coeff_at(0) == lam_i * lam_j / 36
        assert ode.c0.coeff_at(-1) == -(lam_i / 6)
        assert ode.c0.coeff_at(-2) == Fraction(2, 9)


def test_indicial_exponents(trace):
    for block in trace.blocks:
        ode = system_to_scalar(eta_pullback(block))
        rho1, rho2 = indicial_exponents(ode)
        assert rational_recognize(rho1) == Fraction(2, 3)
        assert rational_recognize(rho2) == Fraction(1, 3)


def test_apparent_certificate(trace):
    diag = []
    for block in trace.blocks:
        ode = system_to_scalar(eta_pullback(block))
        cert = certify_apparent(ode, pullback=6, order=10)
        assert cert.lifted_exponents == (4, 2)
        assert len(cert.series[0]) == 11 and len(cert.series[1]) == 11
        assert cert.series[0][0] == 1
        diag.extend(cert.lifted_exponents)
    assert tuple(diag) == (4, 2, 4, 2)


def test_apparent_rejects_integer_difference(cc):
    tower = cc.tower
    # u'' = 0 has indicial roots 1 and 0 at the origin
    ode = ScalarODE2("eta", PuiseuxPoly.zero(tower), PuiseuxPoly.zero(tower))
    with pytest.raises(GaloisError, match="integer"):
        certify_apparent(ode, pullback=6)


def test_apparent_rejects_bad_pullback(trace):
    ode = system_to_scalar(eta_pullback(trace.blocks[0]))
    with pytest.raises(GaloisError, match="pullback"):
        certify_apparent(ode, pullback=5)


def test_irregular_coefficient_rejected(cc):
    tower = cc.tower
    bad = ScalarODE2(
        "eta", PuiseuxPoly.zero(tower), PuiseuxPoly.monomial(tower, 1, -3)
    )
    with pytest.raises(GaloisError, match="pole"):
        indicial_exponents(bad)


def test_scalar_elimination_requires_offdiagonal(cc):
    tower = cc.tower
    blk = system_from_entries(tower, "eta", [[0, 0], [1, 0]])
    with pytest.raises(GaloisError, match="upper-right"):
        system_to_scalar(blk)
    t = PuiseuxPoly.monomial(tower, 1, 1) + PuiseuxPoly.const(tower, 1)
    blk2 = system_from_entries(tower, "eta", [[0, t], [1, 0]])
    with pytest.raises(GaloisError, match="single-term"):
        system_to_scalar(blk2)


def test_whittaker_data_blocks(trace, cc):
    tower = cc.tower
    half = AlgNum.from_rational(tower, Fraction(1, 2))
    sixth = AlgNum.from_rational(tower, Fraction(1, 6))
    scales = []
    for block in trace.blocks:
        ode = system_to_scalar(eta_pullback(block))
        wh = normalize_whittaker(ode)
        assert wh.kappa == half
        assert wh.mu == sixth
        scales.append(wh.scale)
    # first block scale is -6i/b, second is 6/p with p = sqrt(6 sqrt5 + 10)
    assert scales[0] == -(cc.imag_unit * 6) / cc.sqrt_minus
    assert scales[1] == AlgNum.from_rational(tower, 6) / cc.sqrt_plus


def test_whittaker_cross_check_fixture(cc):
    """The independently printed irregular normal form matches ours exactly."""
    tower = cc.tower
    resolver = chain_symbols(cc)
    fx = load_fixtures()["whittaker_cross_check"]
    a, b, c = (parse_puiseux(s, tower, "eta", resolver).constant_value() for s in fx["bracket"])
    c0 = -(
        PuiseuxPoly.const(tower, 1).scale(a)
        + PuiseuxPoly.monomial(tower, b, -1)
        + PuiseuxPoly.monomial(tower, c, -2)
    )
    ode = ScalarODE2("eta", PuiseuxPoly.zero(tower), c0)
    wh = normalize_whittaker(ode)
    scale_ref = parse_puiseux(fx["scale_to_normal_form"], tower, "eta", resolver).constant_value()
    assert wh.scale == scale_ref
    normal_ref = tuple(
        parse_puiseux(s, tower, "eta", resolver).constant_value()
        for s in fx["normal_form_bracket"]
    )
    assert wh.normal_bracket == normal_ref
    assert wh.kappa == -(cc.imag_unit) / 2
    assert wh.mu == AlgNum.from_rational(tower, Fraction(1, 6))
    flags = stokes_triviality(wh.kappa, wh.mu)
    assert flags.both_nontrivial()


def test_whittaker_sign_variant(cc):
    """Flipping the sign of the leading coefficient only flips kappa's sign."""
    tower = cc.tower
    a = -(cc.sqrt5 * 3 + 7) / 8
    b = cc.imag_unit * (cc.sqrt5 + 3) / 4
    c = AlgNum.from_rational(tower, Fraction(-2, 9))
    c0 = -(
        PuiseuxPoly.const(tower, 1).scale(a)
        + PuiseuxPoly.monomial(tower, b, -1)
        + PuiseuxPoly.monomial(tower, c, -2)
    )
    wh = normalize_whittaker(ScalarODE2("eta", PuiseuxPoly.zero(tower), c0))
    assert rational_recognize(wh.kappa) in (Fraction(1, 2), Fraction(-1, 2))
    assert rational_recognize(wh.mu) == Fraction(1, 6)
    assert stokes_triviality(wh.kappa, wh.mu).both_nontrivial()


def test_whittaker_rejects_zero_leading(cc):
    tower = cc.tower
    c0 = PuiseuxPoly.monomial(tower, 1, -2)
    with pytest.raises(GaloisError, match="leading"):
        normalize_whittaker(ScalarODE2("eta", PuiseuxPoly.zero(tower), c0))


def test_stokes_truth_table(cc):
    tower = cc.tower

    def rat(q):
        return AlgNum.from_rational(tower, Fraction(q))

    flags = stokes_triviality(rat("1/2"), rat("1/6"))
    assert not flags.mu1_trivial and not flags.mu2_trivial
    # kappa - mu = 3/2 is in 1/2 + N under both conventions
    both = [stokes_triviality(rat("5/2"), rat(1), include_zero=z) for z in (True, False)]
    assert all(f.mu1_trivial for f in both)
    assert not any(f.mu2_trivial for f in both)
    # boundary value 1/2 distinguishes the conventions
    with_zero = stokes_triviality(rat("2/3"), rat("1/6"), include_zero=True)
    without = stokes_triviality(rat("2/3"), rat("1/6"), include_zero=False)
    assert with_zero.mu1_trivial and not without.mu1_trivial
    # irrational kappa can never hit the half-integer ladder
    flags_irr = stokes_triviality(cc.sqrt5 / 2, rat("1/6"))
    assert flags_irr.both_nontrivial()


def test_stokes_sign_flip_invariance(cc):
    tower = cc.tower
    rng = random.Random(20240817)
    basis = [
        AlgNum.from_rational(tower, 1),
        cc.sqrt5,
        cc.imag_unit,
        cc.sqrt_minus,
    ]
    for _ in range(200):
        def draw():
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in basis]
            total = AlgNum.from_rational(tower, 0)
            for q, e in zip(coeffs, basis):
                total = total + e * q
            return total

        kappa, mu = draw(), draw()
        for include_zero in (True, False):
            base = stokes_triviality(kappa, mu, include_zero)
            flipped = stokes_triviality(-kappa, mu, include_zero)
            assert base.mu1_trivial == flipped.mu2_trivial
            assert base.mu2_trivial == flipped.mu1_trivial
            assert base.both_nontrivial() == flipped.both_nontrivial()
            mu_flip = stokes_triviality(kappa, -mu, include_zero)
            assert base == mu_flip


def test_classify_blocks_outcome(trace):
    outcome = classify_blocks(trace.blocks)
    assert outcome.verdict == "NotIntegrable"
    assert outcome.lifted_diagonal == (4, 2, 4, 2)
    assert all(b.group == "SL2" for b in outcome.blocks)
    assert all(b.stokes.both_nontrivial() for b in outcome.blocks)
    assert len(outcome.apparent) == 2


def test_verdict_needs_everything(trace):
    outcome = classify_blocks(trace.blocks)
    weakened = replace(outcome.blocks[0], group="undetermined")
    assert (
        morales_ramis_verdict((weakened, outcome.blocks[1]), outcome.apparent)
        == "Inconclusive"
    )
    assert morales_ramis_verdict(outcome.blocks, outcome.apparent[:1]) == "Inconclusive"


def test_classify_block_labels(trace):
    outcome = classify_blocks(trace.blocks)
    assert [b.label for b in outcome.blocks] == ["block 1", "block 2"]
    assert [b.group for b in outcome.blocks] == ["SL2", "SL2"]


def test_component_from_stokes():
    assert component_from_stokes(StokesFlags(False, False)) == "SL2"
    assert component_from_stokes(StokesFlags(True, False)) == "undetermined"
    assert component_from_stokes(StokesFlags(False, True)) == "undetermined"
    assert component_from_stokes(StokesFlags(True, True)) == "undetermined"
