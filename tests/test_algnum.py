from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from conftest import random_algnum, random_nonzero_algnum
from sasano_galois.algnum import (
    AlgNum,
    TowerError,
    algnum_from_json,
    algnum_to_json,
    canonical_constants,
    canonical_tower,
    rational_recognize,
    sqrt_in_tower,
    tower_from_json,
    tower_to_json,
    wasow_constants,
    wasow_tower,
)

# Frozen oracle values (mpmath at 40 dps, computed independently before the
# tower implementation existed).  Kept as strings so each test parses them
# at whatever working precision it needs.
GAMMA_ORACLE = "0.80859770158337408893665066179"
BETA_ORACLE = "1.84835274366088957810426637215"
LAMBDA4_ORACLE = "2.41952515305166533096403218022"
DELTA_ORACLE = "0.82033535600763793117028468287"


def oracle(digits):
    with mpmath.workdps(40):
        return +mpmath.mpf(digits)


def gens(tower):
    return [AlgNum.generator(tower, k) for k in range(len(tower.levels))]


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
        a = c.alpha**3
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
        assert 2 / (g * 2 / g) == 1


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
        with mpmath.workdps(40):
            assert abs(g.embed(30) - oracle(GAMMA_ORACLE)) < mpmath.mpf("1e-28")
            assert abs(b.embed(30) - oracle(BETA_ORACLE)) < mpmath.mpf("1e-28")
            lam4 = canonical_constants().eigenvalues[3]
            assert abs(lam4.embed(30) - oracle(LAMBDA4_ORACLE)) < mpmath.mpf("1e-27")
            d = AlgNum.generator(wasow_tower(), 0)
            assert abs(d.embed(30) - oracle(DELTA_ORACLE)) < mpmath.mpf("1e-28")

    def test_embed_is_ring_homomorphism(self, tower):
        rng = random.Random(303)
        with mpmath.workdps(30):
            tol = mpmath.mpf("1e-20")
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
        z = i.embed(20)
        assert abs(z - mpmath.mpc(0, 1)) < mpmath.mpf("1e-19")


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
        assert r.embed(20).real > 0

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
        assert r.embed(20).real > 0


class TestSerialization:
    def test_algnum_roundtrip(self, tower):
        rng = random.Random(404)
        for _ in range(5):
            a = random_algnum(tower, rng)
            data = algnum_to_json(a)
            assert algnum_from_json(tower, data) == a

    def test_json_leaf_format(self, tower):
        a = AlgNum.from_rational(tower, Fraction(-3, 7))
        data = algnum_to_json(a)
        # outermost index = last generator; drill to the constant leaf
        assert data[0][0][0] == "-3/7"

    def test_tower_roundtrip(self, tower):
        data = tower_to_json(tower)
        rebuilt = tower_from_json(data)
        assert rebuilt.names() == tower.names()
        assert rebuilt.degrees == tower.degrees
        a = AlgNum.generator(rebuilt, 2)
        assert a * a == AlgNum.generator(rebuilt, 0) ** 6 * 48 - 10

    def test_nesting_matches_degrees(self, tower):
        a = AlgNum.generator(tower, 0)
        data = algnum_to_json(a)
        assert len(data) == 2 and len(data[0]) == 2 and len(data[0][0]) == 12


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
