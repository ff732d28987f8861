"""Puiseux-Laurent polynomials with tower-element coefficients.

A value represents a finite sum  sum_e  c_e * x^e  over exact rational
exponents ``e`` (negative allowed), stored as the sorted pairs ``(e, c)``:
an integral exponent is an ``int`` and any other a ``Fraction``, so
x^(3/4) * x^(1/4) and x^1 store the same pair ``(1, 1)``.  Everything in
the reduction chain is such a finite sum; no power series truncation is
ever required, so arithmetic here is exact and closed.  The ramification
index ``ram`` is derived, the lcm of the exponent denominators; with
``ram == 1`` a value is a Laurent polynomial, such as a characteristic
polynomial, and calling it evaluates it at a tower number.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algnum import AlgNum, Frozen, TowerError, TowerSpec, join_terms


def _merge(tower: TowerSpec, terms) -> PuiseuxPoly:
    """The value sum c * x^e over the (e, c) pairs, in canonical form:
    equal exponents summed, zero coefficients dropped, exponents ascending,
    integral exponents stored as ``int``."""
    merged: dict = {}
    for e, c in terms:
        if isinstance(c, (int, Fraction)):
            c = AlgNum.from_rational(tower, c)
        old = merged.get(e)
        merged[e] = c if old is None else old + c
    return PuiseuxPoly(
        tower,
        tuple(sorted(
            (e.numerator if e.denominator == 1 else e, c) for e, c in merged.items() if not c.is_zero()
        )),
    )


class PuiseuxPoly(Frozen):
    """Canonical form: exponents ascending, no zero coefficients."""

    __slots__ = ("tower", "terms")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(tower: TowerSpec, ram: int, terms) -> PuiseuxPoly:
        """The value sum c * x^(k/ram) over the (k, c) pairs."""
        return _merge(tower, ((Fraction(k, ram), c) for k, c in terms))

    @staticmethod
    def zero(tower: TowerSpec) -> PuiseuxPoly:
        return _merge(tower, ())

    @staticmethod
    def const(tower: TowerSpec, c) -> PuiseuxPoly:
        return _merge(tower, [(0, c)])

    @staticmethod
    def monomial(tower: TowerSpec, c, exponent: Fraction | int) -> PuiseuxPoly:
        return _merge(tower, [(exponent, c)])

    # -- structure -------------------------------------------------------------

    @property
    def ram(self) -> int:
        """Ramification index: the lcm of the exponent denominators."""
        return math.lcm(*(e.denominator for e, _ in self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def constant_value(self) -> AlgNum:
        if not self.terms:
            return AlgNum.from_rational(self.tower, 0)
        if self.is_constant():
            return self.terms[0][1]
        raise TowerError("not a constant")

    def exponents(self) -> tuple[int | Fraction, ...]:
        return tuple(e for e, _ in self.terms)

    def valuation(self) -> int | Fraction:
        """Smallest exponent; undefined (raises) for the zero polynomial."""
        if not self.terms:
            raise TowerError("zero polynomial has no valuation")
        return self.terms[0][0]

    def max_exponent(self) -> int | Fraction:
        if not self.terms:
            raise TowerError("zero polynomial has no leading exponent")
        return self.terms[-1][0]

    def coeff_at(self, exponent: Fraction | int) -> AlgNum:
        for e, c in self.terms:
            if e == exponent:
                return c
        return AlgNum.from_rational(self.tower, 0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _merge(self.tower, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return _merge(self.tower, ((e, -c) for e, c in self.terms))

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
        return _merge(
            self.tower, ((ea + eb, ca * cb) for ea, ca in self.terms for eb, cb in other.terms)
        )

    __rmul__ = __mul__

    def inverse(self) -> PuiseuxPoly:
        """Exact inverse of a single term: (c x^e)^-1 = c^-1 x^-e."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero polynomial")
        if len(self.terms) != 1:
            raise TowerError(f"only single-term values invert exactly, got {self.render()!r}")
        ((e, c),) = self.terms
        return _merge(self.tower, [(-e, c.inverse())])

    def scale(self, c) -> PuiseuxPoly:
        if isinstance(c, (int, Fraction)):
            c = AlgNum.from_rational(self.tower, c)
        return _merge(self.tower, ((e, cc * c) for e, cc in self.terms))

    def shift(self, exponent: Fraction | int) -> PuiseuxPoly:
        """Multiply by x^exponent."""
        return _merge(self.tower, ((e + exponent, c) for e, c in self.terms))

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
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> PuiseuxPoly:
        """d/dx, exact: x^e -> e x^(e - 1)."""
        return _merge(self.tower, ((e - 1, c * e) for e, c in self.terms if e))

    def substitute_power(
        self, root: AlgNum, index: int, power: Fraction, inv: AlgNum | None = None
    ) -> PuiseuxPoly:
        """Expand p(x) under x = root^index * u^power into a polynomial in u.

        ``index`` must be a multiple of every exponent denominator in p, so
        the fractional powers (root^index)^e stay inside the tower.
        ``inv`` is 1/root, inverted here when not given and a term needs it.
        """
        power = Fraction(power)
        if power <= 0:
            raise TowerError("substitution power must be positive")
        if index <= 0:
            raise TowerError("root index must be a positive integer")
        if index % self.ram != 0:
            raise TowerError(f"need a root of index divisible by {self.ram}, got {index}")
        if inv is None and self.terms and self.terms[0][0] < 0:  # terms ascend
            inv = root.inverse()
        out = []
        for e, c in self.terms:
            n = int(e * index)
            out.append((e * power, c * (root**n if n >= 0 else inv ** (-n))))
        return _merge(self.tower, out)

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
        x_root^(e * ram), so evaluation is single-valued once the root is
        chosen.
        """
        ram = self.ram
        total = 0
        for e, c in self.terms:
            total = total + c.embed(precision) * x_root ** int(e * ram)
        return total

    def render(self, var: str = "x") -> str:
        def power(e) -> str:
            if e == 1:
                return var
            return f"{var}^{e}" if e.denominator == 1 else f"{var}^({e})"

        return join_terms((str(c), power(e) if e else "") for e, c in reversed(self.terms))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"PuiseuxPoly({self.render()})"
