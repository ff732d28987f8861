"""Exact rational functions of one variable over the rationals.

Solutions of the Hamiltonian system and their transforms live in Q(t),
so this module keeps every operation exact: polynomials are dense
coefficient tuples of Fractions, rational functions reduce by gcd and
carry a monic denominator, and evaluation raises at poles instead of
returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algnum import int_power


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, ascending coefficients, no trailing zeros."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: Sequence) -> Poly:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def const(c) -> Poly:
        return Poly.make([c])

    @staticmethod
    def variable() -> Poly:
        return Poly.make([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other) -> Poly:
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return Poly.make([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> Poly:
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> Poly:
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly.make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        return int_power(self, n, Poly.make([1]))

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlead = other.leading()
        dn = len(other.coeffs)
        while len(rem) >= dn:
            c = rem[-1] / dlead
            k = len(rem) - dn
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return Poly.make(q), Poly.make(rem)

    def gcd(self, other: Poly) -> Poly:
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        lead_inv = 1 / a.leading()
        return Poly.make([c * lead_inv for c in a.coeffs])

    def derivative(self) -> Poly:
        return Poly.make([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, t) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def render(self, var: str = "t") -> str:
        return join_signed(
            (c, var if k == 1 else f"{var}^{k}" if k else "")
            for k, c in reversed(list(enumerate(self.coeffs)))
            if c != 0
        )


def join_signed(terms) -> str:
    """Render a sum of (Fraction coefficient, monomial text) pairs.

    Each term shows its magnitude (a unit magnitude is dropped before a
    monomial; an empty monomial is the constant term) and the sign goes in
    front: "3*t^2 - t + 1".  No terms render as "0".
    """
    out = ""
    for c, mono in terms:
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if out:
            out += (" + " if c > 0 else " - ") + body
        else:
            out = body if c > 0 else f"-{body}"
    return out or "0"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly.make([Fraction(x)])


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function; the denominator is monic and coprime to
    the numerator."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num, den=1) -> RatFunc:
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(Poly(()), Poly.make([1]))
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead_inv = 1 / den.leading()
        num = Poly.make([c * lead_inv for c in num.coeffs])
        den = Poly.make([c * lead_inv for c in den.coeffs])
        return RatFunc(num, den)

    @staticmethod
    def const(c) -> RatFunc:
        return RatFunc.make(Poly.const(c))

    @staticmethod
    def variable() -> RatFunc:
        return RatFunc.make(Poly.variable())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return Fraction(0) if self.is_zero() else self.num.coeffs[0]

    def __add__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        return RatFunc.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> RatFunc:
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> RatFunc:
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> RatFunc:
        return _as_ratfunc(other) / self

    def __pow__(self, n: int) -> RatFunc:
        if n < 0:
            return (RatFunc.const(1) / self) ** (-n)
        return RatFunc.make(self.num**n, self.den**n)

    def derivative(self) -> RatFunc:
        return RatFunc.make(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

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
        head = ns if self.num.degree() <= 0 and len([c for c in self.num.coeffs if c]) <= 1 else f"({ns})"
        return f"{head}/({self.den.render(var)})"


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc.make(x)
    return RatFunc.const(Fraction(x))
