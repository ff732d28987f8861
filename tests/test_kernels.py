"""Property tests of the integer kernels in ``ratfunc``.

Orbit polynomials are t^r P(t^3), so most of their coefficients are zero,
and the kernels skip zero terms.  These tests draw sparse lists, lists of
that grading, all-zero lists and lists with trailing zeros, and check
``_conv`` against a dense product, ``_pdiv`` against its defining identity
and ``_int_gcd`` against sympy.

The sparse form, (exponent tuple, int) terms over one denominator, is
checked against dicts of ``Fraction``s: ``_canon`` and ``_sum``, which
``AlgNum`` and ``PolyExpr`` share, and ``PolyExpr``'s + - * ** and diff.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import pytest

from sasano_galois.ratfunc import _ZERO, _canon, _conv, _int_gcd, _pdiv, _sum
from sasano_galois.sasano import VARS, PolyExpr

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)

_coeff = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**80), 2**80))
_sparse = st.lists(_coeff, max_size=16)
# t^r P(t^3): the coefficients of P, two zeros after each, shifted by r
_graded = st.tuples(st.integers(0, 2), st.lists(_coeff, max_size=7)).map(
    lambda rp: [0] * rp[0] + [c for p in rp[1] for c in (p, 0, 0)]
)
_zeros = st.integers(0, 6).map(lambda n: [0] * n)
ints = st.tuples(st.one_of(_sparse, _graded, _zeros), st.integers(0, 3)).map(lambda lz: lz[0] + [0] * lz[1])


def strip(a: list[int]) -> list[int]:
    """``a`` without trailing zeros: the kernels' canonical form."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


canonical = ints.map(strip)
divisors = canonical.filter(bool)


def dense_conv(a, b) -> list[int]:
    """Schoolbook product over every pair of terms, zeros included."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@SETTINGS
@hypothesis.given(ints, ints)
def test_conv_is_the_dense_product(a, b):
    assert _conv(a, b) == dense_conv(a, b)
    assert _conv(tuple(b), a) == dense_conv(a, b)


@SETTINGS
@hypothesis.given(ints, divisors)
def test_pdiv_identity(a, b):
    m, q, r = _pdiv(a, b)
    assert m and b[-1] ** max(0, len(a) - len(b) + 1) % m == 0
    qb = dense_conv(q, b)
    width = max(len(a), len(qb), len(r))
    pad = lambda xs: list(xs) + [0] * (width - len(xs))
    assert [m * x for x in pad(a)] == [y + z for y, z in zip(pad(qb), pad(r))]
    assert len(strip(r)) < len(b)


@SETTINGS
@hypothesis.given(canonical, canonical, canonical)
def test_int_gcd_matches_sympy(a, b, common):
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    a, b = strip(_conv(a, common)), strip(_conv(b, common))
    g = sp.Poly(list(reversed(a)) or [0], t, domain="ZZ").gcd(sp.Poly(list(reversed(b)) or [0], t, domain="ZZ"))
    want = [] if g.is_zero else [int(c) for c in reversed(g.primitive()[1].all_coeffs())]
    if want and want[-1] < 0:
        want = [-c for c in want]
    assert list(_int_gcd(a, b)) == want


# -- the sparse form ----------------------------------------------------------------

_exps = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: e + (0,) * (len(VARS) - 3))  # in x, y, z
_items = st.dictionaries(_exps, _coeff, max_size=6)  # distinct exponents, zero numerators allowed
_dens = st.one_of(st.integers(-60, 60), st.integers(-(2**70), 2**70)).filter(bool)
sparse = st.builds(lambda items, den: _canon(list(items.items()), den), _items, _dens)
_fractions = st.builds(Fraction, st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)), st.integers(1, 12))
exprs = st.dictionaries(_exps, _fractions, max_size=5).map(
    lambda d: functools.reduce(operator.add, [PolyExpr.const(c) * monomial(e) for e, c in d.items()], PolyExpr.const(0))
)


def monomial(exps) -> PolyExpr:
    return functools.reduce(operator.mul, [PolyExpr.var(name) ** k for name, k in zip(VARS, exps)], PolyExpr.const(1))


def reference(terms, den) -> dict:
    """The value of (exponent tuple, int) pairs over den as a dict of nonzero Fractions."""
    return {e: Fraction(n, den) for e, n in terms if n}


def ref_add(a: dict, b: dict) -> dict:
    acc = dict(a)
    for e, c in b.items():
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    acc: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def ref_diff(a: dict, k: int) -> dict:
    return {e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] for e, c in a.items() if e[k]}


def assert_canonical(terms, den):
    assert type(terms) is tuple and den > 0 and math.gcd(den, *[n for _, n in terms]) == 1
    assert all(type(n) is int and n for _, n in terms)
    exps = [e for e, _ in terms]
    assert exps == sorted(set(exps))  # sorted, each exponent once


def value(expr: PolyExpr) -> dict:
    assert_canonical(expr.terms, expr.den)
    return reference(expr.terms, expr.den)


@SETTINGS
@hypothesis.given(_items, _dens)
@hypothesis.example({}, 7)
@hypothesis.example({(0,) * len(VARS): 0, (1,) + (0,) * (len(VARS) - 1): 0}, -3)
@hypothesis.example({(0,) * len(VARS): 6, (1,) + (0,) * (len(VARS) - 1): -4}, -10)
def test_canon_is_the_reduced_value(items, den):
    terms, d = v = _canon(list(items.items()), den)
    assert_canonical(terms, d)
    assert reference(terms, d) == reference(items.items(), den)
    assert (v == _ZERO) == (not any(items.values()))
    # any order of the same items gives the same pair
    again = _canon(list(reversed(items.items())), den)
    assert again == v and hash(again) == hash(v)


@SETTINGS
@hypothesis.given(sparse, sparse)
def test_sum_is_the_reduced_sum(a, b):
    total = _sum(a, b)
    assert_canonical(*total)
    assert reference(*total) == ref_add(reference(*a), reference(*b))
    assert total == _sum(b, a) and hash(total) == hash(_sum(b, a))
    minus_a = (tuple([(e, -n) for e, n in a[0]]), a[1])
    assert _sum(a, minus_a) == _ZERO and _sum(minus_a, a) == _ZERO  # a sum that cancels to zero
    assert _sum(_sum(a, b), (tuple([(e, -n) for e, n in b[0]]), b[1])) == a


@SETTINGS
@hypothesis.given(exprs, exprs, st.integers(0, 3))
def test_polyexpr_arithmetic_is_the_reference(p, q, n):
    a, b = value(p), value(q)
    assert value(p + q) == ref_add(a, b)
    assert value(p - q) == ref_add(a, {e: -c for e, c in b.items()})
    assert value(-p) == {e: -c for e, c in a.items()}
    assert value(p * q) == ref_mul(a, b)
    power = {(0,) * len(VARS): Fraction(1)}
    for _ in range(n):
        power = ref_mul(power, a)
    assert value(p**n) == power
    for k, name in enumerate(VARS[:4]):  # w does not occur: its derivative is zero
        assert value(p.diff(name)) == ref_diff(a, k)
    assert value(p - p) == {} and p - p == PolyExpr.const(0)


@SETTINGS
@hypothesis.given(st.lists(st.tuples(_exps, _fractions), max_size=6), st.randoms(use_true_random=False))
def test_polyexpr_built_in_any_order_is_equal(terms, rng):
    parts = [PolyExpr.const(c) * monomial(e) for e, c in terms]
    shuffled = list(parts)
    rng.shuffle(shuffled)
    p = functools.reduce(operator.add, parts, PolyExpr.const(0))
    q = functools.reduce(operator.add, shuffled, PolyExpr.const(0))
    assert p == q and hash(p) == hash(q)
    assert p * (p + 1) == p * p + p and hash(p * (p + 1)) == hash(p * p + p)
