from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from sasano_galois.algnum import AUDIT_DPS, AlgNum, TowerError, TowerSpec, canonical_constants, rational_recognize
from sasano_galois.ball import Ball, bits, nth_root
from sasano_galois.diffsys import DiffSystem
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.reduction import AuditPoint


def x_pow(tower, e):
    return PuiseuxPoly.monomial(tower, 1, Fraction(e))


class TestNormalization:
    def test_ramification_reduces(self, tower):
        p = PuiseuxPoly.from_terms(tower, 4, [(2, AlgNum.from_rational(tower, 1))])
        assert p.ram == 2 and p.terms[0][0] == Fraction(1, 2)

    def test_zero_terms_dropped(self, tower):
        one = AlgNum.from_rational(tower, 1)
        p = PuiseuxPoly.from_terms(tower, 1, [(3, one), (3, -one)])
        assert p.is_zero()
        assert p.ram == 1

    def test_equality_across_constructions(self, tower):
        b = x_pow(tower, 1)
        routes = [
            x_pow(tower, Fraction(1, 2)) * x_pow(tower, Fraction(1, 2)),
            x_pow(tower, Fraction(3, 4)) * x_pow(tower, Fraction(1, 4)),
            x_pow(tower, Fraction(3, 4)).shift(Fraction(1, 4)),
            PuiseuxPoly.monomial(tower, 1, 1),
            PuiseuxPoly.from_terms(tower, 4, [(4, 1)]),
            x_pow(tower, Fraction(-1, 2)).inverse() * x_pow(tower, Fraction(1, 2)),
            x_pow(tower, Fraction(5, 4)).derivative().scale(Fraction(4, 5)).shift(Fraction(3, 4)),
        ]
        for a in routes:
            assert a == b
            assert hash(a) == hash(b)
            assert a.render() == b.render() == "x" and a.terms == b.terms
            assert type(a.terms[0][0]) is int and a.ram == 1


def rand_ref(rng: random.Random) -> dict[Fraction, Fraction]:
    """A random {exponent: coefficient} map with rational entries, zeros dropped."""
    ref: dict[Fraction, Fraction] = {}
    for _ in range(rng.randint(0, 5)):
        e = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))
        ref[e] = ref.get(e, 0) + Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return {e: c for e, c in ref.items() if c}


def from_ref(tower, ref) -> PuiseuxPoly:
    return PuiseuxPoly.from_terms(tower, 12, [(e * 12, c) for e, c in ref.items()])


def ref_sum(*refs) -> dict[Fraction, Fraction]:
    out: dict[Fraction, Fraction] = {}
    for ref in refs:
        for e, c in ref.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def assert_matches(p: PuiseuxPoly, ref) -> None:
    """p is in canonical form and equals the reference map."""
    exps = [e for e, _ in p.terms]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert all(not c.is_zero() for _, c in p.terms)
    assert all(type(e) is (int if e.denominator == 1 else Fraction) for e in exps)
    assert {e: rational_recognize(c) for e, c in p.terms} == ref
    assert p.ram == math.lcm(*(e.denominator for e in ref))


class TestExactExponents:
    """Every operation against a plain {Fraction: Fraction} reference."""

    def test_operations_match_the_reference(self, tower):
        rng = random.Random(1818)
        root = AlgNum.from_rational(tower, 2)
        for _ in range(60):
            a, b = rand_ref(rng), rand_ref(rng)
            p, q = from_ref(tower, a), from_ref(tower, b)
            assert_matches(p, a)
            assert_matches(p + q, ref_sum(a, b))
            assert_matches(p - q, ref_sum(a, {e: -c for e, c in b.items()}))
            assert_matches(p * q, ref_sum(*({ea + eb: ca * cb} for ea, ca in a.items() for eb, cb in b.items())))
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert_matches(p.scale(k), ref_sum({e: c * k for e, c in a.items()}))
            s = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4)))
            assert_matches(p.shift(s), {e + s: c for e, c in a.items()})
            assert_matches(p.derivative(), {e - 1: c * e for e, c in a.items() if e})
            index, power = p.ram * rng.choice((1, 2)), Fraction(rng.randint(1, 6), rng.randint(1, 4))
            expect = {e * power: c * Fraction(2) ** int(e * index) for e, c in a.items()}
            assert_matches(p.substitute_power(root, index, power), expect)
            if p.ram > 1:
                with pytest.raises(TowerError):
                    p.substitute_power(root, p.ram - 1, power)
            for e, c in a.items():
                assert p.coeff_at(e) == c
                assert_matches(PuiseuxPoly.monomial(tower, c, e).inverse(), {-e: 1 / c})
            assert p.coeff_at(Fraction(1, 5)).is_zero()


class TestArithmetic:
    def test_square_of_binomial(self, tower):
        p = x_pow(tower, Fraction(1, 2)) + 1
        sq = p * p
        assert sq == x_pow(tower, 1) + x_pow(tower, Fraction(1, 2)) * 2 + 1

    def test_laurent_product(self, tower):
        p = x_pow(tower, -1) * 3 + x_pow(tower, 2)
        q = x_pow(tower, 1)
        assert p * q == PuiseuxPoly.const(tower, 3) + x_pow(tower, 3)

    def test_scalar_ops(self, tower):
        g = AlgNum.generator(tower, 0)
        p = x_pow(tower, 2).scale(g) + 1
        assert p.coeff_at(2) == g
        assert (p - 1).coeff_at(0).is_zero()

    def test_shift(self, tower):
        p = x_pow(tower, Fraction(3, 4))
        assert p.shift(Fraction(1, 4)) == x_pow(tower, 1)
        assert p.shift(-1) == x_pow(tower, Fraction(-1, 4))


class TestStructure:
    def test_valuation_and_leading(self, tower):
        p = x_pow(tower, -2) + x_pow(tower, Fraction(5, 2))
        assert p.valuation() == -2
        assert p.max_exponent() == Fraction(5, 2)

    def test_zero_valuation_raises(self, tower):
        with pytest.raises(TowerError):
            PuiseuxPoly.zero(tower).valuation()

    def test_coeff_at_missing_exponent(self, tower):
        p = x_pow(tower, 1)
        assert p.coeff_at(Fraction(1, 3)).is_zero()

    def test_truth_is_nonzero(self, tower):
        half = x_pow(tower, Fraction(1, 2))
        for p in (PuiseuxPoly.zero(tower), half - half, half * 0, x_pow(tower, 0), half * -2, x_pow(tower, -3) + 1):
            assert bool(p) == (not p.is_zero())

    def test_constant_value(self, tower):
        p = PuiseuxPoly.const(tower, Fraction(7, 3))
        assert p.constant_value() == Fraction(7, 3)
        with pytest.raises(TowerError):
            (p + x_pow(tower, 1)).constant_value()


class TestCalculus:
    def test_derivative_fractional(self, tower):
        p = x_pow(tower, Fraction(3, 4))
        d = p.derivative()
        assert d == x_pow(tower, Fraction(-1, 4)).scale(Fraction(3, 4))

    def test_derivative_kills_constants(self, tower):
        p = PuiseuxPoly.const(tower, 5) + x_pow(tower, 2)
        assert p.derivative() == x_pow(tower, 1) * 2

    def test_substitute_power_quarter(self, tower):
        # t = alpha * u^4 turns t^(1/4) into gamma * u
        c = canonical_constants()
        p = x_pow(tower, Fraction(1, 4))
        q = p.substitute_power(c.alpha_quarter_root, 4, Fraction(4))
        assert q == PuiseuxPoly.monomial(tower, c.alpha_quarter_root, 1)

    def test_substitute_power_negative_exponent(self, tower):
        c = canonical_constants()
        p = x_pow(tower, -1)
        q = p.substitute_power(c.alpha_quarter_root, 4, Fraction(4))
        assert q == PuiseuxPoly.monomial(tower, (c.alpha_quarter_root**4).inverse(), -4)

    def test_substitute_round_trip(self, tower):
        c = canonical_constants()
        p = x_pow(tower, Fraction(3, 4)) * 2 + x_pow(tower, -2)
        fwd = p.substitute_power(c.alpha_quarter_root, 4, Fraction(4))
        # inverse change: u = alpha^(-1/4) * x^(1/4)
        back = fwd.substitute_power(c.alpha_quarter_root.inverse(), 1, Fraction(1, 4))
        assert back == p

    def test_substitute_inverts_the_root_once(self, tower, monkeypatch):
        # negative powers invert the root through the tower, whose table
        # computes the inverse once for every term and every later call
        fresh = TowerSpec(tower.levels)
        root = AlgNum.generator(fresh, 0)
        p = x_pow(fresh, -3) + x_pow(fresh, Fraction(-1, 2)) * 5 + x_pow(fresh, -1) + 2
        inverted = []
        inv_sum = TowerSpec._inv_sum
        monkeypatch.setattr(TowerSpec, "_inv_sum", lambda t, a: inverted.append(a) or inv_sum(t, a))
        (x_pow(fresh, 2) + 1).substitute_power(root, 4, Fraction(4))
        assert inverted == []
        whole = p.substitute_power(root, 4, Fraction(4))
        terms = [PuiseuxPoly(fresh, (t,)).substitute_power(root, 4, Fraction(4)) for t in p.terms]
        assert whole == sum(terms[1:], terms[0])
        assert inverted == [root.value]

    def test_substitute_validates_root(self, tower):
        c = canonical_constants()
        p = x_pow(tower, Fraction(1, 4))
        with pytest.raises(TowerError):
            # index 2 root cannot express quarter powers of the scale
            p.substitute_power(c.alpha_quarter_root**2, 2, Fraction(4))


class TestNumeric:
    def test_eval_matches_embedding(self, tower):
        g = AlgNum.generator(tower, 0)
        p = x_pow(tower, Fraction(1, 2)).scale(g) + 3
        prec = bits(AUDIT_DPS + 15)  # the grid of the audit's embeddings
        root = nth_root(Ball.rational(2, prec), 2, Ball.rational(Fraction("1.414"), prec))
        ((val,),) = AuditPoint(root, 2, None).system(DiffSystem("x", ((p,),)))
        expect = g.embed(AUDIT_DPS) * root + 3
        assert abs(val - expect) < 1e-22


class TestRendering:
    def test_render(self, tower):
        p = x_pow(tower, Fraction(-1, 4)).scale(Fraction(28, 5)) + 1
        assert p.render("t") == "1 + 28/5*t^(-1/4)"
        assert PuiseuxPoly.zero(tower).render() == "0"


class TestEvaluation:
    def test_eigenvalue_is_a_root(self, tower):
        p = PuiseuxPoly.from_terms(tower, 1, enumerate([-5, 0, -5, 0, 1]))
        for lam in canonical_constants().eigenvalues:
            assert p(lam).is_zero()
        assert not p(AlgNum.from_rational(tower, 1)).is_zero()

    def test_laurent_terms_at_a_tower_number(self, tower):
        s5 = canonical_constants().sqrt5
        p = x_pow(tower, -2).scale(3) + x_pow(tower, 1) - 7
        assert p(s5) == Fraction(3, 5) + s5 - 7
        assert x_pow(tower, -1)(s5) * s5 == 1
        assert (x_pow(tower, 3) + x_pow(tower, 1))(s5) == s5 * 6
        assert PuiseuxPoly.zero(tower)(s5).is_zero()

    def test_ramified_polynomial_is_not_evaluated(self, tower):
        with pytest.raises(TowerError):
            x_pow(tower, Fraction(1, 2))(canonical_constants().sqrt5)

    def test_render_matches_the_printed_characteristic_polynomial(self, tower):
        p = PuiseuxPoly.from_terms(tower, 1, enumerate([-5, 0, -5, 0, 1]))
        assert p.render("L") == "L^4 - 5*L^2 - 5"
