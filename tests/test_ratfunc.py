from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sasano_galois.exprparse import ExprError, parse_ratfunc
from sasano_galois.ratfunc import Poly, RatFunc

T = RatFunc.variable()


def rand_ratfunc(rng):
    num = Poly.make([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)])
    den = Poly.make([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)])
    if den.is_zero():
        den = Poly.make([1])
    return RatFunc.make(num, den)


class TestPoly:
    def test_divmod(self):
        p = Poly.make([-1, 0, 1])  # t^2 - 1
        d = Poly.make([-1, 1])  # t - 1
        q, r = p.divmod(d)
        assert q == Poly.make([1, 1])
        assert r.is_zero()

    def test_gcd_is_monic(self):
        a = Poly.make([0, -2, 0, 2])  # 2t^3 - 2t
        b = Poly.make([0, 4, 4])  # 4t^2 + 4t
        g = a.gcd(b)
        assert g == Poly.make([0, 1, 1])  # t^2 + t

    def test_derivative_and_eval(self):
        p = Poly.make([Fraction(2, 5), 0, 3])
        assert p.derivative() == Poly.make([0, 6])
        assert p(Fraction(1, 2)) == Fraction(2, 5) + Fraction(3, 4)

    def test_degree_of_zero(self):
        assert Poly.make([0, 0]).degree() == -1


class TestRatFunc:
    def test_auto_reduction(self):
        f = RatFunc.make(Poly.make([-1, 0, 1]), Poly.make([-1, 1]))
        assert f == RatFunc.make(Poly.make([1, 1]))

    def test_monic_denominator(self):
        f = RatFunc.make(1, Poly.make([0, 2]))  # 1/(2t)
        assert f.den == Poly.make([0, 1])
        assert f.num == Poly.make([Fraction(1, 2)])

    def test_field_axioms_random(self):
        rng = random.Random(707)
        for _ in range(20):
            a, b, c = rand_ratfunc(rng), rand_ratfunc(rng), rand_ratfunc(rng)
            assert (a + b) * c == a * c + b * c
            assert a - a == RatFunc.const(0)
            if not b.is_zero():
                assert (a / b) * b == a

    def test_derivative_quotient_rule(self):
        f = RatFunc.make(Poly.make([1, 0, 1]), Poly.make([0, 1]))  # (t^2+1)/t
        df = f.derivative()
        expect = RatFunc.const(1) - RatFunc.make(1, Poly.make([0, 0, 1]))
        assert df == expect

    def test_eval_and_pole(self):
        f = RatFunc.make(1, Poly.make([-1, 1]))  # 1/(t-1)
        assert f(3) == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            f(1)

    def test_negative_power(self):
        f = T**-2
        assert f == RatFunc.make(1, Poly.make([0, 0, 1]))

    def test_power_needs_no_reduction(self):
        rng = random.Random(4242)
        for _ in range(40):
            f = rand_ratfunc(rng)
            for n in range(-4, 5):
                if n < 0 and f.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        f**n
                    continue
                if n >= 0:
                    expect = RatFunc.make(f.num**n, f.den**n)
                else:
                    expect = RatFunc.make(f.den**-n, f.num**-n)
                assert f**n == expect

    def test_hashable(self):
        a = RatFunc.make(Poly.make([-1, 0, 1]), Poly.make([-1, 1]))
        b = RatFunc.make(Poly.make([1, 1]))
        assert hash(a) == hash(b)


class TestParser:
    def test_seed_component(self):
        f = parse_ratfunc("-2*t/5 - 1/(4*t^2)")
        expect = T * Fraction(-2, 5) - (T**2 * 4) ** -1
        assert f == expect

    def test_precedence(self):
        assert parse_ratfunc("1 + 2*t^2") == RatFunc.const(1) + 2 * T**2
        assert parse_ratfunc("-t^2") == -(T**2)
        assert parse_ratfunc("2/4") == RatFunc.const(Fraction(1, 2))

    def test_negative_exponent(self):
        assert parse_ratfunc("t^-1") == RatFunc.make(1, Poly.variable())

    def test_errors(self):
        with pytest.raises(ExprError):
            parse_ratfunc("t +")
        with pytest.raises(ExprError):
            parse_ratfunc("(1 + t")
        with pytest.raises(ExprError):
            parse_ratfunc("u + 1")
        with pytest.raises(ExprError):
            parse_ratfunc("t^t")
        with pytest.raises(ExprError):
            parse_ratfunc("1 @ 2")

    def test_round_trip_render(self):
        f = parse_ratfunc("(t^2 + 1)/(t - 1)")
        again = parse_ratfunc(f.render())
        assert f == again


class TestSympyOracle:
    """The integer kernels against sympy over QQ, on random polynomials up
    to degree 20 with coefficients of up to 17-bit numerator and denominator."""

    @staticmethod
    def rand_poly(rng, deg):
        bound = 1 << 17
        return Poly.make([Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(deg + 1)])

    @staticmethod
    def to_sympy(p):
        sp = pytest.importorskip("sympy")
        return sp.Poly(list(reversed(p.coeffs)) or [0], sp.Symbol("t"), domain="QQ")

    @staticmethod
    def from_sympy(p):
        return Poly.make([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])

    def pairs(self, seed, count=25):
        """Random pairs sharing a random common factor, plus edge cases."""
        rng = random.Random(seed)
        out = [(Poly.make([3]), self.rand_poly(rng, 4)), (Poly(()), self.rand_poly(rng, 3))]
        for _ in range(count):
            common = self.rand_poly(rng, rng.randint(0, 6))
            a = self.rand_poly(rng, rng.randint(0, 14)) * common
            b = self.rand_poly(rng, rng.randint(0, 14)) * common
            out.append((a, b))
        return out

    def test_mul(self):
        for a, b in self.pairs(11):
            assert a * b == self.from_sympy(self.to_sympy(a) * self.to_sympy(b))

    def test_divmod(self):
        sp = pytest.importorskip("sympy")
        for a, b in self.pairs(12):
            if b.is_zero():
                continue
            q, r = sp.div(self.to_sympy(a), self.to_sympy(b))
            assert a.divmod(b) == (self.from_sympy(q), self.from_sympy(r))

    def test_gcd(self):
        sp = pytest.importorskip("sympy")
        for a, b in self.pairs(13):
            g = sp.gcd(self.to_sympy(a), self.to_sympy(b))
            assert a.gcd(b) == self.from_sympy(g.monic() if not g.is_zero else g)

    def test_ratfunc_make(self):
        sp = pytest.importorskip("sympy")
        for a, b in self.pairs(14):
            if b.is_zero():
                continue
            sa, sb = self.to_sympy(a), self.to_sympy(b)
            g = sp.gcd(sa, sb)
            num, den = sp.div(sa, g)[0], sp.div(sb, g)[0]
            lead = den.LC()
            f = RatFunc.make(a, b)
            assert (f.num, f.den) == (self.from_sympy(num.quo_ground(lead)), self.from_sympy(den.monic()))
