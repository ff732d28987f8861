"""Puiseux-Laurent polynomials with tower-element coefficients.

A value represents a finite sum  sum_k  c_k * x^(k/ram)  with integer keys
``k`` (negative allowed) and a fixed ramification index ``ram``.  Everything
in the reduction chain is such a finite sum; no power series truncation is
ever required, so arithmetic here is exact and closed.  With ``ram == 1`` a
value is a Laurent polynomial, such as a characteristic polynomial, and
calling it evaluates it at a tower number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algnum import AlgNum, TowerError, TowerSpec, join_terms


@dataclass(frozen=True)
class PuiseuxPoly:
    """Canonical form: ram minimal, exponents sorted, no zero coefficients."""

    tower: TowerSpec
    ram: int
    terms: tuple[tuple[int, AlgNum], ...]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(tower: TowerSpec, ram: int, terms) -> PuiseuxPoly:
        merged: dict[int, AlgNum] = {}
        for k, c in terms:
            if isinstance(c, (int, Fraction)):
                c = AlgNum.from_rational(tower, c)
            if k in merged:
                merged[k] = merged[k] + c
            else:
                merged[k] = c
        merged = {k: c for k, c in merged.items() if not c.is_zero()}
        if not merged:
            return PuiseuxPoly(tower, 1, ())
        g = ram
        for k in merged:
            g = math.gcd(g, abs(k))
        if g > 1:
            merged = {k // g: c for k, c in merged.items()}
            ram = ram // g
        return PuiseuxPoly(tower, ram, tuple(sorted(merged.items())))

    @staticmethod
    def zero(tower: TowerSpec) -> PuiseuxPoly:
        return PuiseuxPoly(tower, 1, ())

    @staticmethod
    def const(tower: TowerSpec, c) -> PuiseuxPoly:
        return PuiseuxPoly.from_terms(tower, 1, [(0, c)])

    @staticmethod
    def monomial(tower: TowerSpec, c, exponent: Fraction | int) -> PuiseuxPoly:
        e = Fraction(exponent)
        return PuiseuxPoly.from_terms(tower, e.denominator, [(e.numerator, c)])

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def constant_value(self) -> AlgNum:
        if not self.terms:
            return AlgNum.from_rational(self.tower, 0)
        if self.is_constant():
            return self.terms[0][1]
        raise TowerError("not a constant")

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.ram) for k, _ in self.terms)

    def valuation(self) -> Fraction:
        """Smallest exponent; undefined (raises) for the zero polynomial."""
        if not self.terms:
            raise TowerError("zero polynomial has no valuation")
        return Fraction(self.terms[0][0], self.ram)

    def max_exponent(self) -> Fraction:
        if not self.terms:
            raise TowerError("zero polynomial has no leading exponent")
        return Fraction(self.terms[-1][0], self.ram)

    def coeff_at(self, exponent: Fraction | int) -> AlgNum:
        e = Fraction(exponent)
        if self.ram % e.denominator == 0:
            k = e.numerator * (self.ram // e.denominator)
            for kk, c in self.terms:
                if kk == k:
                    return c
        return AlgNum.from_rational(self.tower, 0)

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, ram: int) -> dict[int, AlgNum]:
        f = ram // self.ram
        return {k * f: c for k, c in self.terms}

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ram = math.lcm(self.ram, other.ram)
        a = self._lift(ram)
        for k, c in other._lift(ram).items():
            if k in a:
                a[k] = a[k] + c
            else:
                a[k] = c
        return PuiseuxPoly.from_terms(self.tower, ram, a.items())

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxPoly(self.tower, self.ram, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ram = math.lcm(self.ram, other.ram)
        a = self._lift(ram)
        b = other._lift(ram)
        acc: dict[int, AlgNum] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                p = ca * cb
                if k in acc:
                    acc[k] = acc[k] + p
                else:
                    acc[k] = p
        return PuiseuxPoly.from_terms(self.tower, ram, acc.items())

    __rmul__ = __mul__

    def inverse(self) -> PuiseuxPoly:
        """Exact inverse of a single term: (c x^e)^-1 = c^-1 x^-e."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero polynomial")
        if len(self.terms) != 1:
            raise TowerError(f"only single-term values invert exactly, got {self.render()!r}")
        ((k, c),) = self.terms
        return PuiseuxPoly(self.tower, self.ram, ((-k, c.inverse()),))

    def scale(self, c) -> PuiseuxPoly:
        if isinstance(c, (int, Fraction)):
            c = AlgNum.from_rational(self.tower, c)
        return PuiseuxPoly.from_terms(self.tower, self.ram, [(k, cc * c) for k, cc in self.terms])

    def shift(self, exponent: Fraction | int) -> PuiseuxPoly:
        """Multiply by x^exponent."""
        e = Fraction(exponent)
        ram = math.lcm(self.ram, e.denominator)
        off = e.numerator * (ram // e.denominator)
        return PuiseuxPoly.from_terms(self.tower, ram, [(k + off, c) for k, c in self._lift(ram).items()])

    def _coerce(self, other):
        if isinstance(other, PuiseuxPoly):
            if other.tower is not self.tower:
                raise TowerError("cannot mix polynomials over different towers")
            return other
        if isinstance(other, (int, Fraction, AlgNum)):
            return PuiseuxPoly.const(self.tower, other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ram == other.ram and self.terms == other.terms

    def __hash__(self):
        return hash((self.ram, self.terms))

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> PuiseuxPoly:
        """d/dx, exact: x^(k/d) -> (k/d) x^(k/d - 1)."""
        out = []
        for k, c in self.terms:
            if k == 0:
                continue
            out.append((k - self.ram, c * Fraction(k, self.ram)))
        return PuiseuxPoly.from_terms(self.tower, self.ram, out)

    def substitute_power(
        self, root: AlgNum, index: int, power: Fraction, inv: AlgNum | None = None
    ) -> PuiseuxPoly:
        """Expand p(x) under x = root^index * u^power into a polynomial in u.

        ``index`` must be a multiple of every exponent denominator in p, so
        the fractional powers (root^index)^(k/ram) stay inside the tower.
        ``inv`` is 1/root, inverted here when not given and a term needs it.
        """
        power = Fraction(power)
        if power <= 0:
            raise TowerError("substitution power must be positive")
        if index <= 0:
            raise TowerError("root index must be a positive integer")
        if index % self.ram != 0:
            raise TowerError(f"need a root of index divisible by {self.ram}, got {index}")
        step = index // self.ram
        ram = self.ram * power.denominator
        if inv is None and self.terms and self.terms[0][0] < 0:  # terms ascend
            inv = root.inverse()
        out = [
            (k * power.numerator, c * (root ** (step * k) if k >= 0 else inv ** (-step * k)))
            for k, c in self.terms
        ]
        return PuiseuxPoly.from_terms(self.tower, ram, out)

    # -- evaluation / presentation -------------------------------------------

    def __call__(self, x: AlgNum) -> AlgNum:
        """Exact value at the tower number ``x`` by Horner's rule over the terms.

        Needs ``ram == 1``; negative integer exponents are powers of 1/x.
        """
        if self.ram != 1:
            raise TowerError(f"cannot evaluate exponents k/{self.ram} at a tower number")
        if not self.terms:
            return AlgNum.from_rational(self.tower, 0)
        (k, acc), *rest = reversed(self.terms)
        for j, c in rest:
            acc, k = acc * x ** (k - j) + c, j
        return acc * x**k if k else acc

    def eval_numeric(self, x_root, precision: int = 20):
        """Numeric value given a chosen numeric root x^(1/ram).

        The caller fixes the branch by supplying the root; every term is
        x_root^k, so evaluation is single-valued once the root is chosen.
        """
        total = 0
        for k, c in self.terms:
            total = total + c.embed(precision) * x_root**k
        return total

    def render(self, var: str = "x") -> str:
        def power(e: Fraction) -> str:
            if e == 1:
                return var
            return f"{var}^{e}" if e.denominator == 1 else f"{var}^({e})"

        return join_terms(
            (str(c), power(Fraction(k, self.ram)) if k else "") for k, c in reversed(self.terms)
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"PuiseuxPoly({self.render()})"

