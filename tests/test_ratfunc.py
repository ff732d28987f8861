from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from sasano_galois.exprparse import ExprError, parse_ratfunc
from sasano_galois.ratfunc import Poly, RatFunc, _derivative, _reduced, _value_at, join_terms

T = RatFunc.variable()


def rand_ratfunc(rng):
    num = Poly.make([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)])
    den = Poly.make([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)])
    if den.is_zero():
        den = Poly.make([1])
    return RatFunc.make(num, den)


def rand_poly(rng):
    return Poly.make([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(0, 5))])


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
        assert _reduced(_derivative(p.nums), p.den) == Poly.make([0, 6])
        assert Fraction(_value_at(p.nums, 2), p.den) == Fraction(2, 5) + 12

    def test_eval_matches_fraction_horner(self):
        rng = random.Random(1313)
        for _ in range(200):
            p = Poly.make([Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(rng.randint(0, 9))])
            t = rng.randint(-30, 30)
            expect = Fraction(0)
            for c in reversed(p.coeffs):
                expect = expect * t + c
            assert Fraction(_value_at(p.nums, t), p.den) == expect

    def test_degree_of_zero(self):
        assert Poly.make([0, 0]).degree() == -1

    def test_render_matches_fraction_text(self):
        # the integer rendering against str() of each Fraction coefficient
        rng = random.Random(4242)
        dens = set()
        for _ in range(300):
            p = Poly.make([Fraction(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(rng.randint(0, 8))])
            dens.add(p.den)
            terms = reversed(list(enumerate(p.coeffs)))
            expect = join_terms((str(c), "t" if k == 1 else f"t^{k}" if k else "") for k, c in terms if c)
            assert p.render() == expect
        assert len(dens) > 20


def assert_canonical(p):
    """Integer coefficients over a positive denominator coprime to their
    content, no trailing zero, and zero only as Poly((), 1)."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.nums)
    if not p.nums:
        assert p == Poly((), 1) and p.den == 1
    else:
        assert p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1


class TestCanonicalForm:
    def results(self, seed):
        """Every Poly operation on random operands, cancellations included."""
        rng = random.Random(seed)
        for _ in range(30):
            a, b = rand_poly(rng), rand_poly(rng)
            yield a
            yield from (a + b, a - b, b - b, (a + b) - b, -a, a * b, a * 0, a * Fraction(3, 4))
            yield from (a**3, a.gcd(b))
            if not b.is_zero():
                yield from a.divmod(b)
                f = RatFunc.make(a, b)
                yield from (f.num, f.den)
                if not f.is_zero():
                    yield from ((f**-2).num, (f**-2).den)

    def test_every_result_is_canonical(self):
        for p in self.results(808):
            assert_canonical(p)

    def test_make_round_trip(self):
        for p in self.results(809):
            assert Poly.make(p.coeffs) == p
            assert all(type(c) is Fraction for c in p.coeffs)

    def test_equal_values_compare_and_hash_equal(self):
        a = Poly.make([Fraction(1, 2), 1])
        b = Poly.make([2, 4]) * Fraction(1, 4)
        c = Poly.make([6, 12]).divmod(Poly.make([12]))[0]
        d = Poly.make([1, 0, 5]) + Poly.make([Fraction(-1, 2), 1, -5])
        for other in (b, c, d):
            assert other == a and hash(other) == hash(a)
            assert (other.nums, other.den) == ((1, 2), 2)
        zeros = (Poly.make([0, 0]), a - a, a * 0, Poly.make([]))
        assert all(z == Poly((), 1) and hash(z) == hash(Poly((), 1)) for z in zeros)


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

    def test_eval_and_pole(self):
        f = RatFunc.make(1, Poly.make([-1, 1]))  # 1/(t-1)
        n, d = f.num, f.den
        assert Fraction(_value_at(n.nums, 3) * d.den, n.den * _value_at(d.nums, 3)) == Fraction(1, 2)
        assert _value_at(d.nums, 1) == 0  # a pole: the denominator's numerator sum vanishes there

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


def unreduced(op, a, b):
    """The textbook pair of a op b, reduced once by RatFunc.make."""
    if op == "+":
        return RatFunc.make(a.num * b.den + b.num * a.den, a.den * b.den)
    if op == "-":
        return RatFunc.make(a.num * b.den - b.num * a.den, a.den * b.den)
    if op == "*":
        return RatFunc.make(a.num * b.num, a.den * b.den)
    return RatFunc.make(a.num * b.den, a.den * b.num)


def reduced(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b if op == "*" else a / b


def assert_reduced(f):
    """Canonical parts, coprime, a monic denominator, zero as 0/1."""
    assert_canonical(f.num)
    assert_canonical(f.den)
    assert f.den.nums and f.den.nums[-1] == f.den.den
    if f.is_zero():
        assert f.den == Poly((1,), 1)
    else:
        assert f.num.gcd(f.den) == Poly((1,), 1)


class TestReducedArithmetic:
    """Henrici sums and Knuth products against RatFunc.make of the
    unreduced pair, on operands whose denominators share factors."""

    @staticmethod
    def factor(rng, deg):
        """A random polynomial of exact degree deg, possibly not monic."""
        cs = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(deg)]
        return Poly.make(cs + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))])

    def operands(self, seed, count=40):
        """Pairs n1/(p^2 q) and n2/(p r), with shared factors and multiplicity,
        and the edge cases: constants, polynomials, negative leading terms."""
        rng = random.Random(seed)
        t = RatFunc.variable()
        out = []
        for _ in range(count):
            p, q, r = (self.factor(rng, rng.randint(1, 3)) for _ in range(3))
            n1, n2 = (self.factor(rng, rng.randint(0, 4)) for _ in range(2))
            a, b = RatFunc.make(n1, p * p * q), RatFunc.make(n2, p * r)
            out += [(a, b), (b, a), (a, a), (a, -a)]
            out += [(a, RatFunc.const(Fraction(-3, 7))), (RatFunc.const(5), b), (a, RatFunc.const(0))]
            out += [(a, RatFunc.make(n2)), (RatFunc.make(n1 * p), b), (RatFunc.make(n1), RatFunc.make(n2))]
            # a numerator with a negative leading coefficient as the divisor
            out.append((a, RatFunc.make(-(p * n2) - 1, q)))
            # a + b = 1/p + 1/q + 1/r + t over p^2 q and p^2 r: the Henrici
            # numerator keeps one factor p of g = p^2
            left = RatFunc.make(n1, p * p) + RatFunc.make(1, q)
            out.append((left, RatFunc.make(p - n1, p * p) + RatFunc.make(1, r) + t))
        return out

    def test_equal_to_make_of_the_unreduced_pair(self):
        for a, b in self.operands(2027):
            for op in "+-*/":
                if op == "/" and b.is_zero():
                    continue
                got = reduced(op, a, b)
                assert got == unreduced(op, a, b), (op, a.render(), b.render())
                assert_reduced(got)

    def test_cancellations(self):
        rng = random.Random(31)
        t = Poly.variable()
        for _ in range(20):
            p, q, r = (self.factor(rng, rng.randint(1, 3)) for _ in range(3))
            a, b = RatFunc.make(self.factor(rng, 2), p * p * q), RatFunc.make(self.factor(rng, 2), p * r)
            for zero in (a - a, a + (-a), (a + b) - b - a, a * 0, 0 * b):
                assert zero == RatFunc.const(0)
                assert_reduced(zero)
            assert (a / a) == RatFunc.const(1) and (a * b) / b == a and (a + b) - b == a
            # the shared factor p survives in the sum to multiplicity one
            total = RatFunc.make(t, p * p) + RatFunc.make(p - t, p * p)
            assert total == RatFunc.make(1, p)
            assert_reduced(total)

    def test_divisor_with_negative_leading_coefficient(self):
        d = RatFunc.make(Poly.make([1, 0, -2]), Poly.make([0, 1]))  # (1 - 2t^2)/t
        f = RatFunc.const(3) / d
        assert (f.num, f.den) == (Poly.make([0, Fraction(-3, 2)]), Poly.make([Fraction(-1, 2), 0, 1]))
        assert_reduced(f)
        assert_reduced(T / d)

    def test_sympy_cancel(self):
        to_sympy, from_sympy = TestSympyOracle.to_sympy, TestSympyOracle.from_sympy
        for a, b in self.operands(2028, count=15):
            an, ad, bn, bd = to_sympy(a.num), to_sympy(a.den), to_sympy(b.num), to_sympy(b.den)
            pairs = {"+": (an * bd + bn * ad, ad * bd), "-": (an * bd - bn * ad, ad * bd), "*": (an * bn, ad * bd)}
            if not b.is_zero():
                pairs["/"] = (an * bd, ad * bn)
            for op, (n, d) in pairs.items():
                n, d = n.cancel(d, include=True)
                got = reduced(op, a, b)
                assert (got.num, got.den) == (from_sympy(n.quo_ground(d.LC())), from_sympy(d.monic()))


def test_const_is_canonical_without_make(monkeypatch):
    cases = (0, Fraction(-7, 3), 12, -4, Fraction(5, 2**64 + 1))
    expected = [RatFunc.make(q) for q in cases]
    variable = RatFunc.make(Poly.variable())

    def no_make(*args):
        raise AssertionError("RatFunc.make called")

    monkeypatch.setattr(RatFunc, "make", staticmethod(no_make))
    for q, want in zip(cases, expected):
        got = RatFunc.const(q)
        assert got == want and got.num == Poly.const(q) and got.den == Poly.const(1)
        assert_reduced(got)
    assert RatFunc.variable() == variable
    assert_reduced(RatFunc.variable())
    assert T * 2 - Poly.make([0, 1]) == T


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
        out = [(Poly.make([3]), self.rand_poly(rng, 4)), (Poly((), 1), self.rand_poly(rng, 3))]
        for _ in range(count):
            common = self.rand_poly(rng, rng.randint(0, 6))
            a = self.rand_poly(rng, rng.randint(0, 14)) * common
            b = self.rand_poly(rng, rng.randint(0, 14)) * common
            out.append((a, b))
        return out

    def test_mul(self):
        for a, b in self.pairs(11):
            assert a * b == self.from_sympy(self.to_sympy(a) * self.to_sympy(b))

    def test_add_and_sub(self):
        for a, b in self.pairs(15):
            sa, sb = self.to_sympy(a), self.to_sympy(b)
            assert a + b == self.from_sympy(sa + sb)
            assert a - b == self.from_sympy(sa - sb)
            assert b - a == self.from_sympy(sb - sa)
            assert a - a == self.from_sympy(sa - sa)

    def test_derivative(self):
        for a, b in self.pairs(16):
            for p in (a, b):
                assert _reduced(_derivative(p.nums), p.den) == self.from_sympy(self.to_sympy(p).diff())

    def test_eval(self):
        sp = pytest.importorskip("sympy")
        rng = random.Random(17)
        bound = 1 << 17
        for a, b in self.pairs(17):
            for p in (a, b):
                x = rng.randint(-bound, bound)
                v = self.to_sympy(p).eval(sp.Integer(x))
                assert Fraction(_value_at(p.nums, x), p.den) == Fraction(int(v.p), int(v.q))
                assert Fraction(_value_at(p.nums, 0), p.den) == (p.coeffs[0] if p.coeffs else 0)

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
