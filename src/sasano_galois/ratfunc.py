"""Exact rational functions of one variable over the rationals.

Solutions of the Hamiltonian system and their transforms live in Q(t),
so this module keeps every operation exact.  A polynomial is stored once,
as integer coefficients over one positive integer denominator; a rational
function is a coprime pair of polynomials with a monic denominator, so
equal values have equal representations, and evaluation raises at poles
instead of returning garbage.

Arithmetic runs on the integer coefficients directly: convolution,
fraction-free pseudo-division and the primitive polynomial remainder
sequence of Brown, J. ACM 18 (1971).  Fractions enter only through
``Poly.make`` and ``RatFunc.const`` and leave only through
``Poly.coeffs``.  ``RatFunc.make`` reduces an arbitrary pair by one gcd,
and constants need none; + - * / of reduced operands take gcds only with
a factor of a denominator (Henrici's sum and Knuth's cross-cancelled
product, TAOCP vol. 2, 4.5.1), and powers need none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .algnum import Frozen, int_power, join_terms


# -- integer kernels -------------------------------------------------------------
# An integer polynomial is a sequence of ints (a Poly's nums, or a list),
# ascending, with no trailing zeros.
# Tuples, coefficient tuples and star-arguments alike, are built from lists
# here, never from generators: tuple() over a generator allocates ten slots
# and resizes, so each such tuple is freed onto another size's free list,
# and those free lists grew the peak memory of a depth-6 orbit by ~2 MiB.


def _reduced(nums: list[int], den: int = 1) -> Poly:
    """The canonical Poly of (sum nums[k] t^k) / den for den != 0."""
    while nums and nums[-1] == 0:
        nums.pop()
    if not nums:
        return Poly((), 1)
    if den < 0:
        nums, den = [-x for x in nums], -den
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
    return Poly(tuple(nums), den)


def _conv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _pdiv(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Fraction-free division: (m, q, r) with m*a = q*b + r and deg r < deg b.

    Each step scales the remainder only by the part of b's leading
    coefficient that the step needs, so m divides a power of it.
    """
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    m = 1
    lead, nb = b[-1], len(b)
    while len(r) >= nb:
        k = len(r) - nb
        g = math.gcd(r[-1], lead)
        u, c = lead // g, r[-1] // g
        if u != 1:
            r = [u * x for x in r]
            q = [u * x for x in q]
            m *= u
        q[k] = c
        r.pop()
        for i in range(nb - 1):
            r[k + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return m, q, r


def _primitive(a: Sequence[int]) -> Sequence[int]:
    """a over its content, with a positive leading coefficient."""
    if not a:
        return a
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Primitive gcd in Z[t] by the primitive remainder sequence; [] for 0, 0."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pdiv(a, b)[2])
    return a


# -- polynomials and rational functions --------------------------------------------


class Poly(Frozen):
    """Dense polynomial (sum nums[k] t^k) / den in canonical form: ascending
    integer coefficients with no trailing zeros, den > 0 and coprime to
    their content; zero is ``Poly((), 1)``, and ``den`` has no default."""

    __slots__ = ("nums", "den")

    @staticmethod
    def make(coeffs: Sequence) -> Poly:
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def const(c) -> Poly:
        return Poly.make([c])

    @staticmethod
    def variable() -> Poly:
        return Poly((0, 1), 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.nums) - 1

    def __add__(self, other) -> Poly:
        other = _as_poly(other)
        a, b = self.nums, other.nums
        den = math.lcm(self.den, other.den)
        ua, ub = den // self.den, den // other.den
        if len(a) < len(b):
            a, b, ua, ub = b, a, ub, ua
        out = [x * ua for x in a]
        for i, y in enumerate(b):
            out[i] += y * ub
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> Poly:
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> Poly:
        other = _as_poly(other)
        return _reduced(_conv(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> Poly:
        """self * c, on the integer coefficients and the denominator."""
        return _reduced([x * c.numerator for x in self.nums], self.den * c.denominator)

    def __pow__(self, n: int) -> Poly:
        return int_power(self, n, Poly((1,), 1))

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # self = a/da and other = b/db (nums over den), so m*a = q*b + r
        # gives self = (q*db/(m*da)) * other + r/(m*da).
        m, q, r = _pdiv(self.nums, other.nums)
        return _reduced([c * other.den for c in q], m * self.den), _reduced(r, m * self.den)

    def gcd(self, other: Poly) -> Poly:
        """Monic greatest common divisor; zero only for two zeros."""
        g = _int_gcd(self.nums, other.nums)
        return Poly(tuple(g), g[-1]) if g else Poly((), 1)

    def derivative(self) -> Poly:
        return _reduced([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def __call__(self, t) -> Fraction:
        # Horner's rule on the integers: with t = p/q and degree n, the
        # accumulator ends as q^n times the numerator sum and scale as q^(n+1).
        t = Fraction(t)
        p, q = t.numerator, t.denominator
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc * q, self.den * scale)

    def render(self, var: str = "t") -> str:
        return join_terms(
            (str(c), var if k == 1 else f"{var}^{k}" if k else "")
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c != 0
        )


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.const(x)


_ONE = Poly((1,), 1)


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """p and q divided by their monic gcd, which is taken only when both
    are nonconstant; a monic q stays monic."""
    if p.degree() > 0 and q.degree() > 0:
        g = p.gcd(q)
        if g.degree() > 0:
            return p.divmod(g)[0], q.divmod(g)[0]
    return p, q


class RatFunc(Frozen):
    """Reduced rational function num/den of two ``Poly``; the denominator
    is monic and coprime to the numerator."""

    __slots__ = ("num", "den")

    @staticmethod
    def make(num, den=1) -> RatFunc:
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(Poly((), 1), _ONE)
        return RatFunc._monic(*_cancel(num, den))

    @staticmethod
    def _monic(num: Poly, den: Poly) -> RatFunc:
        """num/den for a coprime pair, scaled to a monic denominator."""
        lead = den.nums[-1]  # the leading coefficient is lead / den.den
        if lead != den.den:
            num = _reduced([c * den.den for c in num.nums], num.den * lead)
            den = _reduced(list(den.nums), lead)
        return RatFunc(num, den)

    @staticmethod
    def const(c) -> RatFunc:
        # a Fraction is already coprime with a positive denominator
        c = Fraction(c)
        return RatFunc(Poly((c.numerator,), c.denominator) if c else Poly((), 1), _ONE)

    @staticmethod
    def variable() -> RatFunc:
        return RatFunc(Poly.variable(), _ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other) -> RatFunc:
        # Henrici: with g = gcd(b, d), a/b + c/d = (a (d/g) + c (b/g)) / ((b/g) (d/g) g),
        # and a common factor of that numerator and denominator divides g.
        other = _as_ratfunc(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        g = b.gcd(d) if b.degree() > 0 and d.degree() > 0 else _ONE
        if g.degree() == 0:
            return RatFunc(a * d + c * b, b * d)
        b, d = b.divmod(g)[0], d.divmod(g)[0]
        n = a * d + c * b
        if n.is_zero():
            return RatFunc(n, _ONE)
        n, g = _cancel(n, g)
        return RatFunc(n, b * d * g)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> RatFunc:
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> RatFunc:
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other) -> RatFunc:
        # Knuth: a/b * c/d = (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d)
        # and g2 = gcd(c, b), which is reduced because a/b and c/d are.
        other = _as_ratfunc(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return RatFunc(Poly((), 1), _ONE)
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return RatFunc(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc._monic(other.den, other.num)

    def __rtruediv__(self, other) -> RatFunc:
        return _as_ratfunc(other) / self

    def __pow__(self, n: int) -> RatFunc:
        # Powers of a coprime pair stay coprime, and a power of a monic
        # denominator is monic, so no gcd is needed.
        base = self
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("division by the zero rational function")
            base, n = RatFunc._monic(self.den, self.num), -n
        return RatFunc(base.num**n, base.den**n)

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        d = self.den(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.num(t) / d

    def render(self, var: str = "t") -> str:
        ns = self.num.render(var)
        if self.den.degree() == 0:
            return ns
        head = ns if self.num.degree() <= 0 else f"({ns})"
        return f"{head}/({self.den.render(var)})"


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x, _ONE)
    return RatFunc.const(x)
