from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    algnum_from_json, assert_pair_form, ball_fields, on_grid, random_algnum, random_nonzero_algnum, tower_from_json,
)
from sasano_galois import ball
from sasano_galois.algnum import (
    AlgNum,
    TowerError,
    TowerLevel,
    TowerSpec,
    algnum_to_json,
    canonical_constants,
    canonical_tower,
    rational_recognize,
    sqrt_in_tower,
    tower_to_json,
    wasow_constants,
    wasow_tower,
)

# Frozen oracle values (mpmath at 40 dps, computed independently before the
# tower implementation existed), read as exact decimals.
GAMMA_ORACLE = "0.80859770158337408893665066179"
BETA_ORACLE = "1.84835274366088957810426637215"
LAMBDA4_ORACLE = "2.41952515305166533096403218022"
DELTA_ORACLE = "0.82033535600763793117028468287"


def oracle(digits):
    return Fraction(digits)


def gens(tower):
    return [AlgNum.generator(tower, k) for k in range(len(tower.levels))]


TOWERS = {"canonical": canonical_tower, "wasow": wasow_tower}


def sympy_relations(sp, names):
    """The defining binomials gen^d = c of each tower, written out independently."""
    syms = sp.symbols(" ".join(names))
    if names == ("g", "i", "b"):
        g, _, _ = syms
        return syms, [(12, sp.Rational(5, 64)), (2, -1), (2, 48 * g**6 - 10)]
    _, s, _, _ = syms
    return syms, [(7, sp.Rational(1, 4)), (2, 5), (2, -1), (2, 6 * s - 10)]


def sympy_reduce(sp, expr, syms, relations):
    """Coordinates of ``expr`` after reducing gen_j^d_j = c_j, top level first."""
    for j in reversed(range(len(syms))):
        d, c = relations[j]
        reduced = 0
        for mon, coeff in sp.Poly(sp.expand(expr), *syms).terms():
            q, r = divmod(mon[j], d)
            low = mon[:j] + (r,) + mon[j + 1 :]
            reduced += coeff * sp.Mul(*(x**e for x, e in zip(syms, low))) * c**q
        expr = reduced
    terms = sp.Poly(sp.expand(expr), *syms).terms()
    return {mon: Fraction(int(c.p), int(c.q)) for mon, c in terms if c}


def assert_canonical(a):
    """Nonzero int numerators sorted by exponent tuple, exponents in range,
    one denominator den > 0 with gcd(den, *numerators) == 1; zero is ((), 1)."""
    degrees = a.tower.degrees
    terms, den = a.value
    keys = [e for e, _ in terms]
    assert all(type(n) is int and n != 0 for _, n in terms)
    assert keys == sorted(set(keys))
    assert all(len(e) == len(degrees) and all(0 <= k < d for k, d in zip(e, degrees)) for e in keys)
    assert type(den) is int and den > 0
    assert math.gcd(den, *[n for _, n in terms]) == 1
    assert terms or a.value == ((), 1)


class TestDefiningRelations:
    def test_canonical_generators(self, tower):
        g, i, b = gens(tower)
        assert g**12 == Fraction(5, 64)
        assert i * i == -1
        sqrt5 = g**6 * 8
        assert sqrt5 * sqrt5 == 5
        assert b * b == sqrt5 * 6 - 10

    def test_conjugate_surd_identity(self, tower):
        # sqrt(6 sqrt5 + 10) = 32 g^6 / b, because the surds multiply to 80
        g, i, b = gens(tower)
        sp = g**6 * 32 / b
        assert sp * sp == g**6 * 48 + 10

    def test_eigenvalues_annihilate_quartic(self):
        c = canonical_constants()
        for lam in c.eigenvalues:
            assert lam**4 - lam**2 * 5 - 5 == 0

    def test_eigenvalue_pair_structure(self):
        c = canonical_constants()
        l1, l2, l3, l4 = c.eigenvalues
        assert l1 + l2 == 0 and l3 + l4 == 0
        assert l1 * l2 == (c.sqrt5 * 6 - 10) / 4
        assert l3 * l4 == -(c.sqrt5 * 6 + 10) / 4

    def test_wasow_generators(self, alt_tower):
        d, s, i, b = gens(alt_tower)
        assert d**7 == Fraction(1, 4)
        assert s * s == 5
        assert i * i == -1
        assert b * b == s * 6 - 10

    def test_wasow_eigenvalues_annihilate_their_quartic(self):
        c = wasow_constants()
        a = c.alpha_quarter_root**12
        for lam in c.eigenvalues:
            assert lam**4 - lam**2 * (a * 64) - a * a * Fraction(4096, 5) == 0


class TestFieldArithmetic:
    def test_ring_axioms_random(self, tower):
        rng = random.Random(101)
        for _ in range(25):
            a = random_algnum(tower, rng)
            b = random_algnum(tower, rng)
            c = random_algnum(tower, rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)

    def test_inverse_random(self, tower):
        rng = random.Random(202)
        one = AlgNum.from_rational(tower, 1)
        for _ in range(15):
            a = random_nonzero_algnum(tower, rng)
            assert a * a.inverse() == one
            assert (one / a) * a == one

    def test_inverse_wasow(self, alt_tower):
        rng = random.Random(203)
        for _ in range(6):
            a = random_nonzero_algnum(alt_tower, rng)
            assert a * a.inverse() == 1

    def test_pow_negative(self, tower):
        g = AlgNum.generator(tower, 0)
        assert g**-12 == Fraction(64, 5)

    def test_division_by_zero(self, tower):
        z = AlgNum.from_rational(tower, 0)
        with pytest.raises(ZeroDivisionError):
            z.inverse()

    def test_tower_mixing_rejected(self, tower, alt_tower):
        a = AlgNum.from_rational(tower, 1)
        b = AlgNum.from_rational(alt_tower, 1)
        with pytest.raises(TowerError):
            a + b

    def test_mixed_rational_arithmetic(self, tower):
        g = AlgNum.generator(tower, 0)
        assert (g + 1) - 1 == g
        assert g * Fraction(3, 2) / Fraction(3, 2) == g
        assert AlgNum.from_rational(tower, 2) / (g * 2 / g) == 1


class TestRecognition:
    def test_rational_recognize(self, tower):
        g = AlgNum.generator(tower, 0)
        assert rational_recognize(g**4 * g**4 * g**4) == Fraction(5, 64)
        assert rational_recognize(AlgNum.from_rational(tower, 0)) == 0
        assert rational_recognize(g) is None
        assert rational_recognize(g**6) is None


class TestNumericEmbedding:
    def test_oracle_digits(self, tower):
        g, i, b = gens(tower)
        assert abs(g.embed(30) - oracle(GAMMA_ORACLE)) < 1e-28
        assert abs(b.embed(30) - oracle(BETA_ORACLE)) < 1e-28
        lam4 = canonical_constants().eigenvalues[3]
        assert abs(lam4.embed(30) - oracle(LAMBDA4_ORACLE)) < 1e-27
        d = AlgNum.generator(wasow_tower(), 0)
        assert abs(d.embed(30) - oracle(DELTA_ORACLE)) < 1e-28

    def test_embed_is_ring_homomorphism(self, tower):
        rng = random.Random(303)
        tol = 1e-20
        for _ in range(20):
            a = random_algnum(tower, rng)
            b = random_algnum(tower, rng)
            za, zb = a.embed(25), b.embed(25)
            zsum = (a + b).embed(25)
            zprod = (a * b).embed(25)
            assert abs(zsum - (za + zb)) <= tol * (1 + abs(zsum))
            assert abs(zprod - za * zb) <= tol * (1 + abs(zprod))

    def test_precision_floor(self, tower):
        g = AlgNum.generator(tower, 0)
        with pytest.raises(TowerError):
            g.embed(10)

    def test_imag_unit_embeds_upward(self, tower):
        i = AlgNum.generator(tower, 1)
        z = i.embed(20)  # exactly i: a zero real part and no radius
        assert (z.re, z.im, z.rre, z.rim) == (0, 1 << z.prec, 0, 0)


class TestSqrt:
    def test_rational_squares(self, tower):
        n = AlgNum.from_rational(tower, Fraction(9, 4))
        assert sqrt_in_tower(n) == Fraction(3, 2)
        assert sqrt_in_tower(AlgNum.from_rational(tower, Fraction(1, 9))) == Fraction(1, 3)

    def test_negative_rational(self, tower):
        i = AlgNum.generator(tower, 1)
        r = sqrt_in_tower(AlgNum.from_rational(tower, Fraction(-1, 144)))
        assert r == i / 12  # principal: positive imaginary part

    def test_golden_style_surd(self, tower):
        c = canonical_constants()
        val = (c.sqrt5 * 3 + 7) / 8
        r = sqrt_in_tower(val)
        assert r == (c.sqrt5 + 3) / 4
        assert r * r == val

    def test_imaginary_surd_principal_branch(self, tower):
        b = AlgNum.generator(tower, 2)
        i = AlgNum.generator(tower, 1)
        val = -(b * b) / 144
        r = sqrt_in_tower(val)
        assert r * r == val
        assert r == i * b / 12  # +ib/12 has positive imaginary part

    def test_plus_surd(self, tower):
        c = canonical_constants()
        val = (c.sqrt5 * 6 + 10) / 144
        r = sqrt_in_tower(val)
        assert r == c.sqrt_plus / 12
        assert r.embed(20).sign() == 1

    def test_no_root_raises(self, tower):
        g = AlgNum.generator(tower, 0)
        with pytest.raises(TowerError):
            sqrt_in_tower(g)

    def test_wasow_scaled_surd(self, alt_tower):
        # radicands with monomial prefactors from the alternate normalization
        c = wasow_constants()
        l3, l4 = c.eigenvalues[2], c.eigenvalues[3]
        val = -(l3 * l4) / 36
        r = sqrt_in_tower(val)
        assert r * r == val
        assert r.embed(20).sign() == 1


class TestSerialization:
    def test_algnum_roundtrip(self, tower):
        rng = random.Random(404)
        for _ in range(5):
            a = random_algnum(tower, rng)
            data = algnum_to_json(a)
            assert algnum_from_json(tower, data) == a

    def test_json_leaf_format(self, tower):
        assert algnum_to_json(AlgNum.from_rational(tower, Fraction(-3, 7))) == [[[0, 0, 0], "-3/7"]]
        assert algnum_to_json(AlgNum.from_rational(tower, 0)) == []

    def test_tower_roundtrip(self, tower):
        data = tower_to_json(tower)
        rebuilt = tower_from_json(data)
        assert rebuilt.names() == tower.names()
        assert rebuilt.degrees == tower.degrees
        a = AlgNum.generator(rebuilt, 2)
        assert a * a == AlgNum.generator(rebuilt, 0) ** 6 * 48 - 10

    def test_exponent_vector_per_level(self, tower):
        g, _, b = gens(tower)
        assert algnum_to_json(g**6 * 8 - Fraction(1, 2)) == [[[0, 0, 0], "-1/2"], [[6, 0, 0], "8"]]
        assert algnum_to_json(b) == [[[0, 0, 1], "1"]]
        levels = tower_to_json(tower)["levels"]
        assert [lv["c"] for lv in levels] == [[[[], "5/64"]], [[[0], "-1"]], [[[0, 0], "-10"], [[6, 0], "48"]]]


class TestPresentation:
    def test_str_forms(self, tower):
        g, i, b = gens(tower)
        assert str(AlgNum.from_rational(tower, 0)) == "0"
        assert str(g**6 * 8) == "8*g^6"
        assert str(-i * b) == "-i*b"
        assert str(g + 1) == "1 + g"

    def test_hash_consistency(self, tower):
        g = AlgNum.generator(tower, 0)
        assert hash(g * g) == hash(g**2)
        assert len({g, g**1, g + 0}) == 1


@pytest.mark.parametrize("name", sorted(TOWERS))
class TestSparseKernels:
    """The sparse kernels on both towers, against oracles and ring laws."""

    def test_products_match_sympy(self, name):
        sp = pytest.importorskip("sympy")
        tw = TOWERS[name]()
        syms, relations = sympy_relations(sp, tw.names())
        rng = random.Random(505)

        def to_sympy(a):
            return sum(
                sp.Rational(q.numerator, q.denominator) * sp.Mul(*(x**e for x, e in zip(syms, exps)))
                for exps, q in a.coords().items()
            )

        for _ in range(30):
            a = random_algnum(tw, rng, terms=rng.randint(1, 4))
            b = random_algnum(tw, rng, terms=rng.randint(1, 4))
            assert (a * b).coords() == sympy_reduce(sp, to_sympy(a) * to_sympy(b), syms, relations)

    def test_inverse(self, name):
        tw = TOWERS[name]()
        rng = random.Random(606)
        for _ in range(20):
            a = random_nonzero_algnum(tw, rng, terms=rng.randint(1, 4))
            assert a * a.inverse() == 1
            assert_canonical(a.inverse())

    def test_inverse_dense_base_level(self, name):
        # every coordinate of the rational base level set: the full Euclid path
        tw = TOWERS[name]()
        x = AlgNum.generator(tw, 0)
        a = sum((x**k * Fraction(k * k - 3, k + 1) for k in range(tw.degrees[0])), AlgNum.from_rational(tw, 0))
        assert len(a.coords()) == tw.degrees[0]
        assert a * a.inverse() == 1

    def test_ring_axioms_property(self, name):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        tw = TOWERS[name]()
        term = st.tuples(
            st.tuples(*(st.integers(0, d - 1) for d in tw.degrees)),
            st.fractions(min_value=-9, max_value=9, max_denominator=9),
        )
        zero = AlgNum.from_rational(tw, 0)
        elements = st.lists(term, max_size=4).map(
            lambda ts: sum((AlgNum(tw, tw.monomial_value(e, q)) for e, q in ts), zero)
        )

        @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @hyp.given(elements, elements, elements)
        def check(a, b, c):
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert_canonical(a * b)

        check()

    def test_embed_is_ring_homomorphism(self, name):
        tw = TOWERS[name]()
        rng = random.Random(707)
        tol = 1e-25
        for _ in range(20):
            a = random_algnum(tw, rng, terms=rng.randint(1, 4))
            b = random_algnum(tw, rng, terms=rng.randint(1, 4))
            za, zb = a.embed(30), b.embed(30)
            for exact, approx in (((a + b).embed(30), za + zb), ((a * b).embed(30), za * zb)):
                assert abs(exact - approx) <= tol * (1 + abs(exact))

    def test_canonical_form(self, name):
        tw = TOWERS[name]()
        rng = random.Random(808)
        for _ in range(20):
            a = random_algnum(tw, rng, terms=rng.randint(1, 4))
            b = random_algnum(tw, rng, terms=rng.randint(1, 4))
            for v in (a, a + b, a - a, a * b, -a, a * Fraction(-2, 3), a * 0):
                assert_canonical(v)
            assert (a + b) - b == a and hash((a + b) - b) == hash(a)
            assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (AlgNum.generator(tw, 0) * 0).value == ((), 1)
        assert tw.monomial_value((0,) * len(tw.degrees), Fraction(0)) == ((), 1)


@pytest.mark.parametrize("name", sorted(TOWERS))
class TestJsonBoundary:
    def test_pairs_sorted_and_in_range(self, name):
        tw = TOWERS[name]()
        rng = random.Random(909)
        for _ in range(5):
            a = random_algnum(tw, rng, terms=4)
            data = algnum_to_json(a)
            assert_pair_form(data, tw.degrees)
            assert {tuple(e): Fraction(q) for e, q in data} == a.coords()
            assert algnum_from_json(tw, data) == a
        for j, lv in enumerate(tower_to_json(tw)["levels"]):
            assert_pair_form(lv["c"], tw.degrees[:j])

    def test_tower_roundtrip(self, name):
        tw = TOWERS[name]()
        data = tower_to_json(tw)
        rebuilt = tower_from_json(data)
        assert tower_to_json(rebuilt) == data
        assert rebuilt.names() == tw.names() and rebuilt.degrees == tw.degrees
        rng = random.Random(1010)
        for _ in range(5):
            a, b = random_algnum(tw, rng), random_nonzero_algnum(tw, rng)
            ra, rb = (algnum_from_json(rebuilt, algnum_to_json(x)) for x in (a, b))
            assert algnum_to_json(ra * rb) == algnum_to_json(a * b)
            assert algnum_to_json(ra / rb) == algnum_to_json(a / b)


class TestTowerRejection:
    def test_zero_constant_term(self):
        with pytest.raises(TowerError):
            TowerSpec((TowerLevel("x", 2, (), ("0", "0")),))

    def test_upper_level_must_be_quadratic(self):
        x = TowerLevel("x", 2, (((), Fraction(2)),), ("1.414", "0"))
        with pytest.raises(TowerError):
            TowerSpec((x, TowerLevel("y", 3, (((0,), Fraction(3)),), ("1.442", "0"))))

    def test_non_isolating_approximation_raises_on_first_roots(self):
        g, *rest = canonical_tower().levels
        tw = TowerSpec((g._replace(approx=("0.5", "0")), *rest))
        for dps in (20, 20, 30):
            with pytest.raises(TowerError, match="does not isolate a root"):
                tw.roots(dps)


@pytest.mark.parametrize("name, root_calls", [("canonical", 3), ("wasow", 4)])
def test_cold_tower_computes_each_level_root_once(monkeypatch, name, root_calls):
    """Loading a tower chooses and proves its level roots at 30 digits in one
    pass, one ball.nth_root per level; an embedding at 30 digits reuses them."""
    calls = []
    root = ball.nth_root
    monkeypatch.setattr(ball, "nth_root", lambda *args: calls.append(args) or root(*args))
    tw = TOWERS[name].__wrapped__()
    assert len(calls) == root_calls == len(tw.levels)
    AlgNum.generator(tw, 0).embed(30)
    assert len(calls) == root_calls


class TestTables:
    """Each tower keeps the inverse of every sum, the embedding of every
    (value, precision) and the square root of every radicand it has
    computed; the tables change no result."""

    @staticmethod
    def sample(tw):
        g, b = AlgNum.generator(tw, 0), AlgNum.generator(tw, 2)
        return g + b + 1, (g**6 * 8 + 1) ** 2  # a sum, and (1 + sqrt5)^2

    def test_kept_values_equal_a_fresh_towers(self, tower):
        a, radicand = self.sample(tower)
        inv, z, root = a.inverse(), a.embed(30), sqrt_in_tower(radicand)
        assert tower._inverses[a.value] == inv.value
        assert tower._embeds[(a.value, 30)] is z is a.embed(30)
        assert tower._sqrts[radicand.value] is root is sqrt_in_tower(radicand)
        fresh = canonical_tower.__wrapped__()
        fa, fradicand = self.sample(fresh)
        assert fa.value == a.value and not fresh._inverses and not fresh._embeds
        assert fa.inverse().value == inv.value and fa * fa.inverse() == 1
        assert ball_fields(fa.embed(30)) == ball_fields(z)
        assert sqrt_in_tower(fradicand).value == root.value == (fresh._sqrts[fradicand.value]).value

    def test_each_precision_is_its_own_entry(self):
        tw = canonical_tower.__wrapped__()
        a, _ = self.sample(tw)
        z20 = a.embed(20)
        assert list(tw._embeds) == [(a.value, 20)]
        z30 = a.embed(30)
        assert list(tw._embeds) == [(a.value, 20), (a.value, 30)]
        assert z20.prec < z30.prec and abs(on_grid(z20, z30.prec) - z30) < 1e-19
        assert tw._embeds[(a.value, 20)] is z20 and tw._embeds[(a.value, 30)] is z30

    def test_radicand_without_root_raises_every_time_and_is_not_kept(self):
        tw = canonical_tower.__wrapped__()
        g = AlgNum.generator(tw, 0)
        for _ in range(3):
            with pytest.raises(TowerError, match="no square root"):
                sqrt_in_tower(g)
        assert not tw._sqrts

    def test_towers_share_no_entry(self):
        first, second, alt = canonical_tower.__wrapped__(), canonical_tower.__wrapped__(), wasow_tower.__wrapped__()
        a, radicand = self.sample(first)
        a.inverse(), a.embed(), sqrt_in_tower(radicand)
        assert first._inverses and first._embeds and first._sqrts
        for tw in (second, alt):
            assert not (tw._inverses or tw._embeds or tw._sqrts)
        b, _ = self.sample(second)
        assert b.inverse().tower is second and second._inverses.keys() == first._inverses.keys()
        assert second._inverses[b.value] is not first._inverses[a.value]
