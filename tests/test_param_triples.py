"""Property tests of the integer parameter triples in ``weyl``.

A ``ParamTriple`` holds (a0, a1, a2) as integer numerators over one positive
denominator, gcd 1.  These tests check it against the rational definitions:
``make`` on equal rationals written in different forms, ``act_on_params``
against the matrix action on ``Fraction``s, ``matsuda_check`` against the
reduced pair (5 a2 - 1/2, 5 a1 - 1) computed on ``Fraction``s, and the error
text of a triple off the affine relation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from sasano_galois.ratfunc import VerificationError
from sasano_galois.weyl import GENERATORS, PARAM_MATRICES, ParamTriple, act_on_params, matsuda_check

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)

# denominators of a fixed bit length, so sums past make's 128-bit elision occur
rationals = st.sampled_from((1, 6, 64, 130)).flatmap(
    lambda bits: st.builds(Fraction, st.integers(-(2**bits), 2**bits), st.integers(2 ** (bits - 1), 2**bits))
)


def _on_relation(a0: Fraction, a1: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    return a0, a1, (1 - a0 - 2 * a1) / 2


# (a, b) = (5 a2 - 1/2, 5 a1 - 1) integral: the triples that reach a Matsuda row
_integral = st.builds(
    lambda a, b: _on_relation(1 - 2 * Fraction(b + 1, 5) - 2 * Fraction(2 * a + 1, 10), Fraction(b + 1, 5)),
    st.integers(-60, 60),
    st.integers(-60, 60),
)
triples = st.one_of(st.builds(_on_relation, rationals, rationals), _integral)


def _written(q: Fraction, k: int, form: int):
    """q in one of several spellings that ``Fraction`` reads to q."""
    n, d = q.numerator * k, q.denominator * k
    return (q, f"{n}/{d}", Fraction(-n, -d), q.numerator if d == k else f" {n}/{d} ")[form]


def _reference_matsuda(params: tuple[Fraction, Fraction, Fraction]):
    a = 5 * params[2] - Fraction(1, 2)
    b = 5 * params[1] - 1
    if a.denominator != 1 or b.denominator != 1:
        return False, None, None
    return True, int(a) % 5, int(b) % 5


@SETTINGS
@hypothesis.given(triples, st.lists(st.tuples(st.integers(1, 12), st.integers(0, 3)), min_size=3, max_size=3))
def test_make_is_canonical_for_any_spelling(values, spellings):
    p = ParamTriple.make(values)
    q = ParamTriple.make([_written(v, k, form) for v, (k, form) in zip(values, spellings)])
    assert p == q and hash(p) == hash(q) and {p: 1}[q] == 1
    assert p.as_tuple() == values and (p.a0, p.a1, p.a2) == values
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert all(type(n) is int for n in (*p.nums, p.den))


@SETTINGS
@hypothesis.given(triples, st.sampled_from(GENERATORS))
def test_action_is_the_fraction_matrix_action(values, name):
    image = act_on_params(name, ParamTriple.make(values))
    expect = tuple(sum(m * v for m, v in zip(row, values)) for row in PARAM_MATRICES[name])
    assert image.as_tuple() == expect
    assert image == ParamTriple.make(expect) and hash(image) == hash(ParamTriple.make(expect))
    assert image.den > 0 and math.gcd(image.den, *image.nums) == 1


@SETTINGS
@hypothesis.given(triples)
def test_matsuda_check_is_the_fraction_formula(values):
    got = matsuda_check(ParamTriple.make(values))
    assert (got.a_mod is not None, got.a_mod, got.b_mod) == _reference_matsuda(values)


@SETTINGS
@hypothesis.given(rationals, rationals, rationals)
def test_make_keeps_its_error_text(a0, a1, a2):
    total = a0 + 2 * a1 + 2 * a2
    hypothesis.assume(total != 1)
    short = max(total.numerator.bit_length(), total.denominator.bit_length()) <= 128
    message = "parameters must satisfy a0 + 2*a1 + 2*a2 = 1" + (f", got {total}" if short else "")
    with pytest.raises(VerificationError) as failed:
        ParamTriple.make((a0, str(a1), a2))
    assert str(failed.value) == message


def test_action_reduces_to_canonical_form(monkeypatch):
    # the generators' matrices are unimodular, so their images are already
    # reduced; a singular matrix that keeps a0 + 2 a1 + 2 a2 shows the gcd step
    monkeypatch.setitem(PARAM_MATRICES, "s1", ((1, 2, 2), (0, 0, 0), (0, 0, 0)))
    image = act_on_params("s1", ParamTriple.make(("2/5", "1/5", "1/10")))
    assert image == ParamTriple((1, 0, 0), 1) == ParamTriple.make((1, 0, 0))
