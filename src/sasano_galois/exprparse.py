"""One expression parser for the exact values of two rings.

Solution files carry rational functions of ``t`` such as
``"-2*t/5 - 1/(4*t^2)"``; the frozen reference matrices carry Puiseux
polynomials over an algebraic tower such as
``"112/5*al^(5/4)*tau^(-2)"``.  Both are read by the one tokenizer and
recursive-descent parser below, which builds values through a small set of
ring callbacks: integer constant, power of the variable, named symbol,
division and integer power.

Grammar (whitespace ignored)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := ('+' | '-')* power
    power    := atom ('^' exponent)?
    atom     := INT | NAME | '(' expr ')'
    exponent := SIGNED | '(' SIGNED ('/' INT)? ')'
    SIGNED   := ('+' | '-')? INT

The variable and named symbols take rational exponents; integers and
parenthesized expressions take integer exponents only.

* :func:`parse_ratfunc` reads into Q(t): division is exact division of
  rational functions, powers of ``t`` must be integers, and every other
  name is an unknown symbol.
* :func:`parse_puiseux` reads into Puiseux polynomials over a tower:
  division and negative powers apply only to single-term operands
  (constants and monomials), which keeps every operation exact, and names
  resolve through a caller-supplied symbol table.

Every failure, including a division by zero and a value past the size
bound of ``_Parser.bounded``, raises :class:`ExprError`.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .algnum import AlgNum, ChainConstants, TowerError, TowerSpec
from .puiseux import PuiseuxPoly
from .ratfunc import RatFunc, VerificationError, int_power

SymbolResolver = Callable[[str, Fraction], AlgNum]
_MAX_DEGREE, _MAX_BITS = 256, 1 << 15  # admit a 4,300-digit literal and every depth-12 orbit state
_MAX_LITERAL, _MAX_DIGITS = 4300, _MAX_BITS * 3 // 10  # digits of a parameter, then with its exponent


class ExprError(VerificationError):
    """Raised for malformed expression text, unknown symbols or inexact operations."""


def chain_symbols(constants: ChainConstants) -> SymbolResolver:
    """Symbol resolver for the constants a reduction run carries.

    Known names: ``al`` (the time-rescaling constant, quarter powers
    allowed), ``i``, ``sqrt5``, ``rm`` = sqrt(6*sqrt5 - 10), ``rp`` =
    sqrt(6*sqrt5 + 10), and ``lam1`` .. ``lam4`` (leading eigenvalues).
    """
    plain = {
        "i": constants.imag_unit,
        "sqrt5": constants.sqrt5,
        "rm": constants.sqrt_minus,
        "rp": constants.sqrt_plus,
        "lam1": constants.eigenvalues[0],
        "lam2": constants.eigenvalues[1],
        "lam3": constants.eigenvalues[2],
        "lam4": constants.eigenvalues[3],
    }

    def resolve(name: str, exp: Fraction) -> AlgNum:
        if name == "al":
            scaled = exp * 4
            if scaled.denominator != 1:
                raise ExprError(f"exponent {exp} of 'al' is not a quarter integer")
            return constants.alpha_quarter_root ** int(scaled)
        value = plain.get(name)
        if value is None:
            raise ExprError(f"unknown symbol {name!r}")
        if exp.denominator != 1:
            raise ExprError(f"symbol {name!r} does not support exponent {exp}")
        return value ** int(exp)

    return resolve


class _Ring(NamedTuple):
    """How the parser builds values; sums and products use ``+ - *``."""

    const: Callable[[int], Any]
    var_power: Callable[[Fraction], Any]
    symbol: Callable[[str, Fraction], Any]
    divide: Callable[[Any, Any], Any]
    power: Callable[[Any, int], Any]
    size: Callable[[Any], tuple[int, int]]  # degree (Puiseux: term count less one), largest coefficient bits


_TOKEN = re.compile(r"\s*(?:(\d+|[^\W\d]\w*|[-+*/^()])|(\S))")


def _tokenize(text: str) -> list[str]:
    """Integers, names and single-character operators, then "" for the end."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(2) is not None:
            raise ExprError(f"unexpected character {m.group(2)!r} in {text!r}")
        tokens.append(m.group(1))
    tokens.append("")
    return tokens


class _Parser:
    def __init__(self, text: str, var: str, ring: _Ring):
        self.text = text
        self.var = var
        self.ring = ring
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def take(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def error(self, what: str) -> ExprError:
        return ExprError(f"{what} in {self.text!r}")

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise self.error(f"expected {tok!r} near token {got!r}")

    def integer(self) -> int:
        tok = self.take()
        if not tok[:1].isdecimal():
            raise self.error("malformed exponent")
        return self.literal(tok)

    def bounded(self, degree: int, bits: int) -> None:
        """The size bound on every value built, and on a power before it is formed."""
        if degree > _MAX_DEGREE or (degree + 1) * bits > _MAX_BITS:
            raise self.error(f"a value of degree {degree} with {bits}-bit coefficients exceeds the size bound")

    def checked(self, value):
        self.bounded(*self.ring.size(value))
        return value

    def literal(self, tok: str) -> int:
        try:
            return int(tok)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise self.error(f"integer literal of {len(tok)} digits is too long") from None

    # -- grammar -------------------------------------------------------------

    def parse(self):
        value = self.expr()
        if self.peek():
            raise self.error(f"trailing input at {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = self.checked(value + rhs if op == "+" else value - rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = self.checked(value * rhs if op == "*" else self.ring.divide(value, rhs))
        return value

    def factor(self):
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.take() == "-"
        value = self.power()
        return -value if negate else value

    def power(self):
        tok = self.take()
        if tok == "(":
            base = self.expr()
            self.expect(")")
        elif tok[:1].isdecimal():
            base = self.ring.const(self.literal(tok))
        elif not tok or tok in "+-*/^)":
            raise self.error(f"unexpected token {tok!r}")
        else:
            base = None
        exp = Fraction(1)
        if self.peek() == "^":
            self.take()
            exp = self.exponent()
        if base is None:
            self.bounded(abs(exp.numerator), 1)  # the size of t^n
            return self.ring.var_power(exp) if tok == self.var else self.checked(self.ring.symbol(tok, exp))
        if exp == 1:
            return base
        if exp.denominator != 1:
            raise self.error("fractional power of a compound expression")
        self.bounded(*[abs(exp.numerator) * k for k in self.ring.size(base)])
        return self.checked(self.ring.power(base, int(exp)))

    def exponent(self) -> Fraction:
        paren = self.peek() == "("
        if paren:
            self.take()
        sign = -1 if self.peek() == "-" else 1
        if self.peek() in ("+", "-"):
            self.take()
        value = Fraction(sign * self.integer())
        if paren:
            if self.peek() == "/":
                self.take()
                value = value / self.integer()
            self.expect(")")
        return value


def parse_param(text: str, name: str) -> Fraction:
    """``Fraction(text)`` for the parameter ``name``, refused before it is built
    past the size bound, which counts a decimal exponent as that many digits."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(c.isdigit() for c in mantissa)
    shift = exponent.strip().lstrip("+-").lstrip("0")
    if digits > _MAX_LITERAL or len(shift) > 5 or shift.isdecimal() and digits + int(shift) > _MAX_DIGITS:
        bound = f"{_MAX_LITERAL} digits, {_MAX_DIGITS} with its exponent"
        raise ExprError(f"parameter {name} exceeds the size bound of {bound}")
    return Fraction(text)


def _parse(text: str, var: str, ring: _Ring):
    if not isinstance(text, str):
        raise ExprError(f"expected expression text, got {text!r}")
    try:
        return _Parser(text, var, ring).parse()
    except (TowerError, ZeroDivisionError) as exc:
        raise ExprError(f"cannot evaluate {text!r}: {exc}") from exc
    except RecursionError as exc:
        raise ExprError(f"nesting too deep in {text!r}") from exc


# -- the two rings -------------------------------------------------------------


def _ratfunc_var_power(exp: Fraction) -> RatFunc:
    if exp.denominator != 1:
        raise ExprError(f"fractional power {exp} of the variable")
    return RatFunc.variable() ** int(exp)


def _no_symbols(name: str, exp: Fraction):
    raise ExprError(f"unknown symbol {name!r}")


def _ratfunc_size(f: RatFunc) -> tuple[int, int]:
    largest = max(map(abs, (*f.num.nums, f.num.den, *f.den.nums)))
    return max(f.num.degree(), f.den.degree()), largest.bit_length()


_RATFUNC = _Ring(RatFunc.const, _ratfunc_var_power, _no_symbols, operator.truediv, operator.pow, _ratfunc_size)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression in the variable t into a reduced rational function.

    Accepts + - * / ^ with integer exponents and parentheses, e.g.
    "-2*t/5 - 1/(4*t^2)".
    """
    return _parse(text, "t", _RATFUNC)


def _puiseux_ring(tower: TowerSpec, symbols: SymbolResolver | None) -> _Ring:
    def symbol(name: str, exp: Fraction) -> PuiseuxPoly:
        if symbols is None:
            raise ExprError(f"no symbol table supplied, cannot resolve {name!r}")
        return PuiseuxPoly.const(tower, symbols(name, exp))

    def power(p: PuiseuxPoly, e: int) -> PuiseuxPoly:
        return int_power(p.inverse() if e < 0 else p, abs(e), PuiseuxPoly.const(tower, 1))

    return _Ring(
        lambda n: PuiseuxPoly.const(tower, n),
        lambda exp: PuiseuxPoly.monomial(tower, 1, exp),
        symbol,
        lambda num, den: num * den.inverse(),
        power,
        _puiseux_size,
    )


def _puiseux_size(p: PuiseuxPoly) -> tuple[int, int]:
    largest = max([abs(n) for _, c in p.terms for _, n in c.value[0]] + [c.value[1] for _, c in p.terms], default=0)
    return len(p.terms) - 1, largest.bit_length()


def parse_puiseux(
    text: str,
    tower: TowerSpec,
    var: str = "t",
    symbols: SymbolResolver | None = None,
) -> PuiseuxPoly:
    """Parse ``text`` into an exact Puiseux polynomial in ``var``."""
    return _parse(text, var, _puiseux_ring(tower, symbols))
