"""Tests for the reference-matrix expression parser."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from sasano_galois.algnum import AlgNum, canonical_constants, wasow_constants
from sasano_galois.exprparse import ExprError, chain_symbols, parse_puiseux, parse_ratfunc
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.sasano import ratfunc_to_puiseux


@pytest.fixture(scope="module")
def cc():
    return canonical_constants()


@pytest.fixture(scope="module")
def resolver(cc):
    return chain_symbols(cc)


def test_plain_polynomial(cc):
    p = parse_puiseux("3*t^2 - 1/2*t + 7", cc.tower, "t", chain_symbols(cc))
    q = (
        PuiseuxPoly.monomial(cc.tower, 3, 2)
        + PuiseuxPoly.monomial(cc.tower, Fraction(-1, 2), 1)
        + PuiseuxPoly.const(cc.tower, 7)
    )
    assert p == q


def test_fractional_exponents(cc):
    p = parse_puiseux("28/5*t^(-3/4)", cc.tower, "t", chain_symbols(cc))
    assert p.ram == 4
    assert p.coeff_at(Fraction(-3, 4)) == Fraction(28, 5)


def test_symbols_resolve_quarter_powers(cc, resolver):
    p = parse_puiseux("al^(7/4)", cc.tower, "t", resolver)
    g = cc.alpha_quarter_root
    assert p.constant_value() == g**7
    q = parse_puiseux("al^(-7/2)", cc.tower, "t", resolver)
    assert q.constant_value() == (g**14).inverse()


def test_wasow_alpha_power_is_rational():
    wc = wasow_constants()
    p = parse_puiseux("4*al^(7/4)", wc.tower, "tau", chain_symbols(wc))
    assert p.constant_value() == AlgNum.from_rational(wc.tower, 1)


def test_symbol_products_and_division(cc, resolver):
    p = parse_puiseux("-i*sqrt5*rm/30", cc.tower, "t", resolver)
    expect = -(cc.imag_unit * cc.sqrt5 * cc.sqrt_minus) / 30
    assert p.constant_value() == expect
    q = parse_puiseux("2*i/rm", cc.tower, "t", resolver)
    assert q.constant_value() == cc.imag_unit * 2 / cc.sqrt_minus


def test_parenthesized_sums(cc, resolver):
    p = parse_puiseux("(sqrt5-3)/6", cc.tower, "t", resolver)
    assert p.constant_value() == (cc.sqrt5 - 3) / 6


def test_eigenvalue_symbols(cc, resolver):
    p = parse_puiseux("lam3 + 3*tau^(-6)", cc.tower, "tau", resolver)
    assert p.coeff_at(0) == cc.eigenvalues[2]
    assert p.coeff_at(-6) == Fraction(3)


def test_matrix_parse_shape(cc, resolver):
    rows = [["1", "0"], ["t", "-t^2"]]
    m = [[parse_puiseux(entry, cc.tower, "t", resolver) for entry in row] for row in rows]
    assert len(m) == 2 and len(m[0]) == 2
    assert m[1][1] == PuiseuxPoly.monomial(cc.tower, -1, 2)


def test_unknown_symbol_rejected(cc, resolver):
    with pytest.raises(ExprError, match="unknown symbol"):
        parse_puiseux("foo + 1", cc.tower, "t", resolver)


def test_division_by_multi_term_rejected(cc):
    with pytest.raises(ExprError):
        parse_puiseux("1/(t+1)", cc.tower, "t", chain_symbols(cc))


def test_fractional_power_of_sum_rejected(cc):
    with pytest.raises(ExprError):
        parse_puiseux("(t+1)^(1/2)", cc.tower, "t", chain_symbols(cc))


def test_trailing_garbage_rejected(cc):
    with pytest.raises(ExprError):
        parse_puiseux("1 + 2 )", cc.tower, "t", chain_symbols(cc))


def test_integer_power_of_sum(cc):
    p = parse_puiseux("(t+1)^2", cc.tower, "t", chain_symbols(cc))
    q = parse_puiseux("t^2 + 2*t + 1", cc.tower, "t", chain_symbols(cc))
    assert p == q


# Strings in the grammar both rings share: each value is a Laurent
# polynomial in t, so it has one meaning in Q(t) and among Puiseux
# polynomials.
SHARED = (
    "1 + 2*t^2",
    "2 - 3*t*4",
    "2*3^2",
    "-2^2",
    "-t^2",
    "--t + +3",
    "3 - -t",
    "2/4",
    "t^-1",
    "t^+2",
    "t^(2)",
    "t^(-3)",
    "1/t/t",
    "t*t^-1",
    "(2*t)^(-2)",
    "-2*t/5 - 1/(4*t^2)",
    "((t + 1)*(t - 1))^2",
    "-((t - 2)^3)/7 + (((1)))",
    "12 *t ^ 2- t ",
)

MALFORMED = (
    "",
    "t +",
    "*t",
    "(1 + t",
    "1 + 2 )",
    "t t",
    "t^",
    "t^t",
    "t^(1/)",
    "1 @ 2",
    "u + 1",
    "1/0",
    "(t-t)^-1",
    "t^(1/0)",
)


@pytest.mark.parametrize("text", SHARED)
def test_shared_grammar_agrees_across_rings(cc, text):
    rat = parse_ratfunc(text)
    assert ratfunc_to_puiseux(rat, cc.tower) == parse_puiseux(text, cc.tower, "t", chain_symbols(cc))


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_raises_one_error_class(cc, text):
    with pytest.raises(ExprError):
        parse_ratfunc(text)
    with pytest.raises(ExprError):
        parse_puiseux(text, cc.tower, "t", chain_symbols(cc))


def test_fractional_power_of_t_is_not_rational(cc):
    assert parse_puiseux("t^(1/2)", cc.tower, "t", chain_symbols(cc)).ram == 2
    with pytest.raises(ExprError, match="fractional power"):
        parse_ratfunc("t^(1/2)")


def test_deep_nesting_raises_expr_error():
    with pytest.raises(ExprError, match="nesting too deep"):
        parse_ratfunc("(" * 2000 + "t" + ")" * 2000)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on integer string conversion")
@pytest.mark.parametrize("prefix", ["", "t^"])
def test_integer_literal_past_the_digit_limit_raises_expr_error(cc, prefix):
    text = prefix + "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ExprError, match="too long"):
        parse_ratfunc(text)
    with pytest.raises(ExprError, match="too long"):
        parse_puiseux(text, cc.tower, "t", chain_symbols(cc))
