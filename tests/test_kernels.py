"""Property tests of the integer polynomial kernels in ``ratfunc``.

Orbit polynomials are t^r P(t^3), so most of their coefficients are zero,
and the kernels skip zero terms.  These tests draw sparse lists, lists of
that grading, all-zero lists and lists with trailing zeros, and check
``_conv`` against a dense product, ``_pdiv`` against its defining identity
and ``_int_gcd`` against sympy.
"""

from __future__ import annotations

import pytest

from sasano_galois.ratfunc import _conv, _int_gcd, _pdiv

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
