"""Exact rational functions of one variable over the rationals.

Solutions of the Hamiltonian system and their transforms live in Q(t),
so this module keeps every operation exact.  A polynomial is stored once,
as integer coefficients over one positive integer denominator; a rational
function is a coprime pair of polynomials with a monic denominator, so
equal values have equal representations.  Values at integer points are
read off the integer coefficients (``_value_at``).

Arithmetic runs on the integer coefficients directly, over nonzero terms
only: convolution, fraction-free pseudo-division and the primitive
polynomial remainder sequence of Brown, J. ACM 18 (1971).  With e^3 = 1,
(t, x, y, z, w, F) -> (e t, e x, e^2 y, e^2 z, e w, e^2 F) fixes every
Backlund orbit state, so an orbit polynomial is t^r P(t^3): two in three
coefficients are zero.  Fractions enter only through ``Poly.make`` and a
Fraction given to ``RatFunc.const``, and leave only through ``Poly.coeffs``;
int constants build none.  ``RatFunc.make`` reduces an arbitrary pair by
one gcd, and constants need none; + - * / of reduced operands take gcds only
with a factor of a denominator (Henrici's sum and Knuth's cross-cancelled
product, TAOCP vol. 2, 4.5.1), and powers need none.

This bottom layer imports no other package module.  It holds what every
value type shares: the error root ``VerificationError``, the immutable base
``Frozen`` (which derives ``-`` from ``+``), ``int_power``, ``join_terms`` and
the sparse form of ``AlgNum`` and ``PolyExpr`` (``_canon``, ``_sum``); the
tower's base level inverts on ``Poly``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter
from typing import Sequence


class VerificationError(ValueError):
    """Base of every engine error: a check that failed or data that does not
    read.  Each report builder catches it once and emits a fail section."""


class Frozen:
    """Immutable base of the value types, whose two fields are the
    ``__slots__``.  Each subclass gets one ``__init__(self, *fields)`` that
    stores them through the slot descriptors; a wrong count raises ``ValueError``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = staticmethod(attrgetter(*cls.__slots__))  # the tuple of both fields
        set_a, set_b = [getattr(cls, name).__set__ for name in cls.__slots__]

        def __init__(self, *fields):
            a, b = fields
            set_a(self, a)
            set_b(self, b)

        cls.__init__ = __init__

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.__reduce__()[1]))})"


def int_power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring; ``one`` is base**0."""
    if n < 0:
        raise ValueError(f"negative power {n} of a polynomial")
    if not n:
        return one
    while not n & 1:
        base, n = base * base, n >> 1
    result = base
    while n := n >> 1:
        base = base * base
        if n & 1:
            result = result * base
    return result


def join_terms(terms) -> str:
    """Render a sum of (coefficient text, monomial text) pairs.

    A coefficient with an inner sign or sum is parenthesized, a unit
    coefficient is dropped before a monomial (an empty monomial is the
    constant term), and "+ -" folds to "- ".  No terms render as "0".
    """
    parts = []
    for coeff, mono in terms:
        if "+" in coeff or "-" in coeff[1:]:
            coeff = f"({coeff})"
        if not mono:
            parts.append(coeff)
        elif coeff in ("1", "-1"):
            parts.append(coeff[:-1] + mono)
        else:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


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
    terms = [(i, x) for i, x in enumerate(a) if x]
    for j, y in enumerate(b):
        if y:
            for i, x in terms:
                out[i + j] += x * y
    return out


def _add_into(acc: list[int], b: Sequence[int], u: int) -> list[int]:
    """acc + u*b, in place."""
    if len(acc) < len(b):
        acc.extend([0] * (len(b) - len(acc)))
    for i, x in enumerate(b):
        acc[i] += u * x
    return acc


def _derivative(a: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _value_at(a: Sequence[int], t: int) -> int:
    """sum a[k] t^k at an integer t, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _pdiv(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Fraction-free division: (m, q, r) with m*a = q*b + r and deg r < deg b.

    Each step scales the remainder only by the part of b's leading
    coefficient that the step needs, so m divides a power of it.
    """
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    m = 1
    lead, nb = b[-1], len(b)
    low = [(i, x) for i, x in enumerate(b[:-1]) if x]
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
        for i, x in low:
            r[k + i] -= c * x
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


# -- sparse values (the form of AlgNum and PolyExpr) ------------------------------
# (terms, den): sorted (exponent tuple, nonzero int) pairs over den > 0, gcd 1; zero is ((), 1).

_ZERO = ((), 1)


def _canon(items, den: int):
    """The sparse value of (exponent tuple, int) pairs, exponents distinct, over den != 0."""
    items = [item for item in items if item[1]]
    if not items:
        return _ZERO
    g = math.gcd(den, *[n for _, n in items])
    if den < 0:
        g = -g
    if g != 1:
        items = [(e, n // g) for e, n in items]
        den //= g
    items.sort()
    return tuple(items), den


def _sum(a, b):
    """a + b for sparse values, over the product of their denominators, reduced once."""
    (ta, da), (tb, db) = a, b
    if not tb:
        return a
    acc = {e: n * db for e, n in ta}
    for e, n in tb:
        acc[e] = acc[e] + n * da if e in acc else n * da
    return _canon(acc.items(), da * db)


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
        den = math.lcm(self.den, other.den)
        u = den // self.den
        return _reduced(_add_into([x * u for x in self.nums], other.nums, den // other.den), den)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple([-c for c in self.nums]), self.den)

    def __mul__(self, other) -> Poly:
        other = _as_poly(other)
        return _reduced(_conv(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

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

    def render(self, var: str = "t") -> str:
        def text(c: int) -> str:  # c / den in lowest terms, as str(Fraction) writes it
            g = math.gcd(c, self.den)
            return str(c // g) if g == self.den else f"{c // g}/{self.den // g}"

        return join_terms(
            (text(c), var if k == 1 else f"{var}^{k}" if k else "")
            for k, c in reversed(list(enumerate(self.nums)))
            if c
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
    def const(c, den: int = 1) -> RatFunc:
        """The constant c / den for an int or Fraction c and an int den != 0."""
        return RatFunc(_reduced([c.numerator], c.denominator * den), _ONE)

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

    def __pow__(self, n: int) -> RatFunc:
        # Powers of a coprime pair stay coprime, and a power of a monic
        # denominator is monic, so no gcd is needed.
        base = self
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("division by the zero rational function")
            base, n = RatFunc._monic(self.den, self.num), -n
        return RatFunc(base.num**n, base.den**n)

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
