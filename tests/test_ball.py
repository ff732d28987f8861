"""The numeric kernel: enclosures, exact zero parts, certified roots and
correctly rounded decimals, and the decisions the towers read off it."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest

from conftest import random_algnum
from sasano_galois.algnum import AlgNum, TowerError, TowerLevel, TowerSpec, canonical_tower, sqrt_in_tower, wasow_tower
from sasano_galois.ball import Ball, bits, nth_root
from sasano_galois.report import format_numeric

PREC = bits(30)


def contains(z: Ball, re: Fraction, im: Fraction = Fraction(0)) -> bool:
    scale = 1 << z.prec
    return abs(re * scale - z.re) <= z.rre and abs(im * scale - z.im) <= z.rim


def random_rational(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def exact_power(a: Fraction, b: Fraction, k: int):
    """(a + b*i)^k in exact rationals."""
    if k < 0:
        n = a * a + b * b
        a, b, k = a / n, -b / n, -k
    re, im = Fraction(1), Fraction(0)
    for _ in range(k):
        re, im = re * a - im * b, re * b + im * a
    return re, im


class TestEnclosure:
    def test_operations_enclose_the_exact_result(self):
        rng = random.Random(11)
        for _ in range(300):
            (a, b), (c, d) = (random_rational(rng), random_rational(rng)), (random_rational(rng), random_rational(rng))
            x, y = Ball.rational(a, PREC, b), Ball.rational(c, PREC, d)
            assert contains(x + y, a + c, b + d) and contains(x - y, a - c, b - d)
            assert contains(x * y, a * c - b * d, a * d + b * c)
            n = c * c + d * d
            assert contains(x / y, (a * c + b * d) / n, (b * c - a * d) / n)
            q = random_rational(rng) or Fraction(1)
            assert contains(x * q, a * q, b * q) and contains(x / q, a / q, b / q)
            assert contains(y.inverse() * q, q * c / n, -q * d / n)
            k = rng.randint(-5, 5)
            assert contains(x**k, *exact_power(a, b, k))

    def test_exact_zero_parts_stay_exact(self):
        real, imag = Ball.rational(Fraction(1, 3), PREC), Ball.rational(0, PREC, Fraction(2, 7))
        for z in (real * real, real + real, real**5, real.inverse(), real * Fraction(2, 3), real**-3):
            assert z.im == z.rim == 0
        for z in (imag * real, imag + imag, imag * 3, imag.inverse()):
            assert z.re == z.rre == 0
        assert (imag * imag).im == (imag * imag).rim == 0
        assert not Ball.rational(0, PREC) and not real * 0 and real and imag

    def test_mixed_grids_raise(self):
        x, y = Ball.rational(Fraction(1, 3), 40), Ball.rational(Fraction(1, 5), 90)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="grids"):
                op(x, y)

    def test_division_by_a_ball_around_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Ball(0, 0, 1, 0, PREC).inverse()
        with pytest.raises(ZeroDivisionError):
            Ball.rational(1, PREC) / 0

    def test_magnitude_bounds_and_signs(self):
        z = Ball.rational(3, PREC, -4)
        assert z.mig() <= 5 << PREC <= z.mag() and abs(abs(z) - 5) < 1e-30
        assert (z.sign(), z.sign(imag=True)) == (1, -1)
        assert Ball(0, 5, 0, 1, PREC).sign() == 0 and Ball(0, 5, 1, 1, PREC).sign() is None


class TestNthRoot:
    @pytest.mark.parametrize(
        "c, d, seed", [(Fraction(5, 64), 12, "0.8086"), (5, 2, "2.236"), (Fraction(1, 4), 7, "0.82")]
    )
    def test_real_roots_are_real(self, c, d, seed):
        root = nth_root(Ball.rational(c, PREC), d, Ball.rational(Fraction(seed), PREC))
        assert root.im == root.rim == 0 and 0 < root.rre < 64
        assert abs(root**d - c) < 1e-30

    def test_imaginary_unit_is_exact(self):
        root = nth_root(Ball.rational(-1, PREC), 2, Ball.rational(0, PREC, 1))
        assert (root.re, root.im, root.rre, root.rim) == (0, 1 << PREC, 0, 0)

    def test_approximation_midway_between_two_roots_is_rejected(self):
        # x^12 = 5/64: adjacent roots g and g*e^(i pi/6); their midpoint is
        # equally far from both, so no root is provably its nearest.
        g = 0.80859770158337408893665066179
        midway = (f"{g * (1 + math.cos(math.pi / 6)) / 2:.17f}", f"{g * math.sin(math.pi / 6) / 2:.17f}")
        seed = Ball.rational(Fraction(midway[0]), PREC, Fraction(midway[1]))
        assert nth_root(Ball.rational(Fraction(5, 64), PREC), 12, seed) is None
        with pytest.raises(TowerError, match="does not isolate a root"):
            TowerSpec((TowerLevel("g", 12, (((), Fraction(5, 64)),), midway),)).roots(30)

    def test_approximation_near_the_wrong_root_picks_that_root(self):
        root = nth_root(Ball.rational(Fraction(5, 64), PREC), 12, Ball.rational(Fraction("-0.81"), PREC))
        assert root.sign() == -1 and root.im == root.rim == 0


class TestTowerDecisions:
    def test_root_that_is_a_lower_monomial_is_rejected_exactly(self):
        # b^2 = g^2 has the roots +g and -g, both already in Q(g)
        g = TowerLevel("g", 12, (((), Fraction(5, 64)),), ("0.8086", "0"))
        with pytest.raises(TowerError, match="coincides with a lower-level element"):
            TowerSpec((g, TowerLevel("b", 2, (((2,), Fraction(1)),), ("0.6538", "0"))))

    def test_undecided_principal_branch_raises(self, monkeypatch):
        tower = canonical_tower.__wrapped__()
        monkeypatch.setattr(AlgNum, "embed", lambda self, precision=20: Ball(0, 1 << 60, 1, 0, 60))
        with pytest.raises(TowerError, match="does not decide its principal branch"):
            sqrt_in_tower(AlgNum.from_rational(tower, 4))


# -- the renderer against mpmath.nstr ------------------------------------------


def mp_format(mpmath, z, digits):
    """The rendering of the mpmath value z as reports wrote it with mpmath."""
    with mpmath.workdps(digits + 10):
        z = mpmath.mpc(z)
        re, im = mpmath.nstr(z.real, digits), mpmath.nstr(z.imag, digits)
    if im in ("0.0", "-0.0"):
        return re
    if re in ("0.0", "-0.0"):
        return f"{im}*i"
    return f"{re} - {im[1:]}*i" if im.startswith("-") else f"{re} + {im}*i"


def mp_roots(mpmath, tower):
    """The towers' level roots in mpmath, each the principal one (as the tower chooses)."""
    if tower.names() == ("g", "i", "b"):
        g = mpmath.root(mpmath.mpf(5) / 64, 12)
        return [g, mpmath.mpc(0, 1), mpmath.sqrt(48 * g**6 - 10)]
    s = mpmath.sqrt(5)
    return [mpmath.root(mpmath.mpf(1) / 4, 7), s, mpmath.mpc(0, 1), mpmath.sqrt(6 * s - 10)]


def mp_value(mpmath, a, roots):
    acc = mpmath.mpc(0)
    for e, q in a.coords().items():
        term = mpmath.mpf(q.numerator) / q.denominator
        for r, k in zip(roots, e):
            term *= r**k
        acc += term
    return acc


DIGITS = (15, 20, 40)


@pytest.mark.parametrize("make", [canonical_tower, wasow_tower], ids=["canonical", "wasow"])
def test_renderer_matches_mpmath_on_random_elements(make):
    mpmath = pytest.importorskip("mpmath")
    tower = make()
    rng = random.Random(2310)
    for _ in range(320):
        a = random_algnum(tower, rng, terms=rng.randint(1, 5), span=rng.choice((9, 10**4)))
        for digits in DIGITS:
            with mpmath.workdps(digits + 60):
                z = mp_value(mpmath, a, mp_roots(mpmath, tower))
            assert format_numeric(a, digits) == mp_format(mpmath, z, digits), (a, digits)


def edge_values(digits):
    body = "1" + "2" * (digits - 1)
    yield from (Fraction(1, 2), Fraction(1, 6), Fraction(-2, 9), Fraction(0))
    yield from (Fraction(123456789, 10**13), Fraction(-123456789, 10**14), Fraction(1, 10**5), Fraction(1, 10**6))
    yield from (Fraction(f"0.{body}4999999"), Fraction(f"0.{body}5999999"), Fraction(f"0.{body}50001"))
    yield from (Fraction(f"0.{'9' * digits}51"), Fraction(f"-9.{'9' * digits}4"), Fraction(10**digits - 1) / 3)


@pytest.mark.parametrize("digits", DIGITS)
def test_renderer_matches_mpmath_on_edge_values(digits):
    mpmath = pytest.importorskip("mpmath")
    tower = canonical_tower()
    g, i = AlgNum.generator(tower, 0), AlgNum.generator(tower, 1)
    for q in edge_values(digits):
        with mpmath.workdps(digits + 60):
            mp_g = mp_roots(mpmath, tower)[0]
            exact = mpmath.mpf(q.numerator) / q.denominator
            cases = [
                (q, exact),
                (i * q, mpmath.mpc(0, exact)),
                (g * q, mp_g * exact),
                (g * q + i * q, mpmath.mpc(mp_g * exact, exact)),
            ]
        for a, z in cases:
            a = a if isinstance(a, AlgNum) else AlgNum.from_rational(tower, a)
            assert format_numeric(a, digits) == mp_format(mpmath, z, digits), (a, digits)


def test_renderer_without_mpmath_examples():
    tower = canonical_tower()
    one = AlgNum.from_rational(tower, 1)
    assert format_numeric(one / 2, 20) == "0.5" and format_numeric(one * 0, 20) == "0.0"
    assert format_numeric(one / 10**5, 15) == "1.0e-5" and format_numeric(one / 10**5, 20) == "0.00001"
    assert format_numeric(one / 10**6, 20) == "1.0e-6" and format_numeric(one / 10**6, 40) == "0.000001"
    assert format_numeric(AlgNum.generator(tower, 1) * -3, 15) == "-3.0*i"
    assert format_numeric(one * Fraction("0.12345678901234550001"), 15) == "0.123456789012346"
    assert format_numeric(one * Fraction("0.99999999999999951"), 15) == "1.0"


def test_undecided_rendering_raises(monkeypatch):
    tower = canonical_tower()
    monkeypatch.setattr(AlgNum, "embed", lambda self, precision=20: Ball(1 << 60, 0, 1 << 59, 0, 60))
    with pytest.raises(TowerError, match="does not decide 20 digits"):
        format_numeric(AlgNum.from_rational(tower, 1), 20)
