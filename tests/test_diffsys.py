from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import ball_fields, mat_from_rows, random_algnum, system_from_entries
from sasano_galois.algnum import AlgNum, TowerError, canonical_constants
from sasano_galois.ball import Ball, bits, nth_root
from sasano_galois.diffsys import (
    DiffSystem,
    block_split,
    change_variable_power,
    char_poly,
    eigen_decompose_distinct,
    gauge_constant,
    gauge_shear,
    identity_matrix,
    leading_data,
    mat_mul,
    system_numeric,
)
from sasano_galois.puiseux import PuiseuxPoly


def rand_matrix(tower, rng, n, terms=1, span=4):
    return tuple(
        tuple(random_algnum(tower, rng, terms=terms, span=span) for _ in range(n))
        for _ in range(n)
    )


# Independent characteristic polynomial oracle: cofactor expansion of
# det(L*I - A) over coefficient lists, no shared code with the library path.


def _padd(tower, p, q):
    zero = AlgNum.from_rational(tower, 0)
    n = max(len(p), len(q))
    p = p + [zero] * (n - len(p))
    q = q + [zero] * (n - len(q))
    return [a + b for a, b in zip(p, q)]


def _pmul(tower, p, q):
    zero = AlgNum.from_rational(tower, 0)
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _det_cofactor(tower, m):
    if len(m) == 1:
        return m[0][0]
    total = [AlgNum.from_rational(tower, 0)]
    sign = 1
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = _pmul(tower, m[0][j], _det_cofactor(tower, minor))
        if sign < 0:
            term = [-c for c in term]
        total = _padd(tower, total, term)
        sign = -sign
    return total


def char_poly_oracle(tower, a):
    one = AlgNum.from_rational(tower, 1)
    zero = AlgNum.from_rational(tower, 0)
    m = [
        [[-a[i][j], one] if i == j else [-a[i][j], zero] for j in range(len(a))]
        for i in range(len(a))
    ]
    return PuiseuxPoly.from_terms(tower, 1, enumerate(_det_cofactor(tower, m)))


class TestMatMul:
    # All-zero row 0 and column 1 of a, all-zero column 0 of b: some sums
    # have no product of two nonzero factors.
    A = ((0, 0, 0), (1, 0, 2), (0, 0, -3))
    B = ((0, 4, 0), (0, 5, 0), (0, -6, 7))

    @pytest.mark.parametrize("kind", ["int", "algnum", "puiseux", "ball"])
    def test_zero_rows_and_columns(self, tower, kind):
        g = AlgNum.generator(tower, 0)
        entry = {
            "int": lambda k: k,
            "algnum": lambda k: g * k,
            "puiseux": lambda k: PuiseuxPoly.monomial(tower, k, Fraction(1, 2)),
            "ball": lambda k: Ball.rational(k, 64, -k),
        }[kind]
        a, b = (tuple(tuple(entry(k) for k in row) for row in m) for m in (self.A, self.B))
        # the dense product: every term, each sum from its first product
        dense = tuple(
            tuple(sum((x * y for x, y in zip(row[1:], col[1:])), row[0] * col[0]) for col in zip(*b)) for row in a
        )
        out = mat_mul(a, b)
        assert [list(map(ball_fields, row)) for row in out] == [list(map(ball_fields, row)) for row in dense]
        assert all(type(x) is type(y) for r, s in zip(out, dense) for x, y in zip(r, s))
        assert not any(out[0])


class TestCharPoly:
    def test_matches_cofactor_oracle(self, tower):
        rng = random.Random(505)
        for n in (2, 3, 4):
            a = rand_matrix(tower, rng, n)
            assert char_poly(a) == char_poly_oracle(tower, a)

    def test_companion_style_matrix(self, tower):
        a = mat_from_rows(
            tower,
            [[0, 1, 0, 0], [-2, 0, 1, 0], [0, 0, 0, 1], [-9, 0, 7, 0]],
        )
        assert char_poly(a) == PuiseuxPoly.from_terms(tower, 1, enumerate([-5, 0, -5, 0, 1]))

    def test_eigenvalues_annihilate(self, tower):
        a = mat_from_rows(
            tower,
            [[0, 1, 0, 0], [-2, 0, 1, 0], [0, 0, 0, 1], [-9, 0, 7, 0]],
        )
        p = char_poly(a)
        for lam in canonical_constants().eigenvalues:
            assert p(lam).is_zero()


class TestEigenDecomposition:
    def test_exact_diagonalization(self, tower):
        a = mat_from_rows(
            tower,
            [[0, 1, 0, 0], [-2, 0, 1, 0], [0, 0, 0, 1], [-9, 0, 7, 0]],
        )
        lams = canonical_constants().eigenvalues
        t, t_inv = eigen_decompose_distinct(a, lams)
        one = AlgNum.from_rational(tower, 1)
        assert all(t[0][j] == one for j in range(4))
        assert mat_mul(t_inv, t) == identity_matrix(tower, 4)
        for j, lam in enumerate(lams):
            assert t[1][j] == lam
            assert t[2][j] == lam * lam + 2

    def test_shear_residue_block_structure(self, tower):
        # Conjugating diag(2, 4, 2, 4) by the eigenvector matrix produces
        # exact 2x2 blocks [[3, -1], [-1, 3]] because the eigenvalues come
        # in opposite-sign pairs (column 0 with 1, column 2 with 3).
        a = mat_from_rows(
            tower,
            [[0, 1, 0, 0], [-2, 0, 1, 0], [0, 0, 0, 1], [-9, 0, 7, 0]],
        )
        lams = canonical_constants().eigenvalues
        t, t_inv = eigen_decompose_distinct(a, lams)
        d = mat_from_rows(tower, [[2, 0, 0, 0], [0, 4, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]])
        w = mat_mul(t_inv, mat_mul(d, t))
        expect = mat_from_rows(
            tower,
            [[3, -1, 0, 0], [-1, 3, 0, 0], [0, 0, 3, -1], [0, 0, -1, 3]],
        )
        assert w == expect

    def test_companion_matrix_gives_vandermonde_columns(self, tower):
        # The companion matrix of prod (x - lam_i) has the eigenvector
        # (1, lam, lam^2, lam^3) for each root lam.
        rng = random.Random(707)
        for _ in range(3):
            lams = []
            while len(lams) < 4:
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if q not in lams:
                    lams.append(q)
            coeffs = [Fraction(1)]  # prod (x - lam_i), highest degree first
            for lam in lams:
                coeffs = [a - lam * b for a, b in zip(coeffs + [0], [0] + coeffs)]
            companion = [[int(j == i + 1) for j in range(4)] for i in range(3)]
            companion.append([-coeffs[4 - j] for j in range(4)])
            a = mat_from_rows(tower, companion)
            eigs = tuple(AlgNum.from_rational(tower, lam) for lam in lams)
            t, t_inv = eigen_decompose_distinct(a, eigs)
            for j, lam in enumerate(lams):
                assert [t[i][j] for i in range(4)] == [lam**i for i in range(4)]
            assert mat_mul(t_inv, t) == identity_matrix(tower, 4)
            assert mat_mul(t_inv, mat_mul(a, t)) == mat_from_rows(
                tower, [[lam if i == j else 0 for j, lam in enumerate(lams)] for i in range(4)]
            )

    def test_rejects_wrong_eigenvalues(self, tower):
        a = mat_from_rows(tower, [[1, 0], [0, 2]])
        two = AlgNum.from_rational(tower, 2)
        with pytest.raises(TowerError):
            eigen_decompose_distinct(a, (two, two))
        three = AlgNum.from_rational(tower, 3)
        one = AlgNum.from_rational(tower, 1)
        with pytest.raises(TowerError):
            eigen_decompose_distinct(a, (one, three))
        # the right and left "eigenvectors" for 1 pair to zero
        jordan = mat_from_rows(tower, [[0, 1], [0, 0]])
        with pytest.raises(TowerError, match="not a simple eigenvalue"):
            eigen_decompose_distinct(jordan, (AlgNum.from_rational(tower, 0), one))


def mono(tower, c, e):
    return PuiseuxPoly.monomial(tower, c, Fraction(e))


class TestGauges:
    def test_constant_gauge_round_trip(self, tower):
        rng = random.Random(606)
        t = mat_from_rows(tower, [[1, 2], [1, 3]])
        t_inv = mat_from_rows(tower, [[3, -2], [-1, 1]])
        sys = system_from_entries(
            tower,
            "x",
            [
                [mono(tower, 1, 1), mono(tower, Fraction(2, 3), -1)],
                [PuiseuxPoly.zero(tower), mono(tower, 5, 2) + 1],
            ],
        )
        out = gauge_constant(sys, t, t_inv)
        back = gauge_constant(out, t_inv, t)
        assert back == sys

    def test_shear_correction_on_zero_system(self, tower):
        zero = PuiseuxPoly.zero(tower)
        sys = DiffSystem("x", ((zero, zero), (zero, zero)))
        out = gauge_shear(sys, Fraction(1, 4))
        assert out.entry(0, 0).is_zero()
        assert out.entry(1, 1) == mono(tower, Fraction(-1, 4), -1)
        assert out.entry(0, 1).is_zero() and out.entry(1, 0).is_zero()

    def test_shear_round_trip(self, tower):
        sys = system_from_entries(
            tower,
            "x",
            [
                [mono(tower, 1, 1), mono(tower, 3, 0)],
                [mono(tower, Fraction(1, 2), -2), mono(tower, 7, 1)],
            ],
        )
        out = gauge_shear(gauge_shear(sys, Fraction(1, 4)), Fraction(-1, 4))
        assert out == sys

    def test_shear_shifts_off_diagonal(self, tower):
        sys = system_from_entries(tower, "x", [[0, 1], [1, 0]])
        out = gauge_shear(sys, Fraction(1, 2))
        assert out.entry(0, 1) == mono(tower, 1, Fraction(1, 2))
        assert out.entry(1, 0) == mono(tower, 1, Fraction(-1, 2))


class TestVariableChange:
    def test_power_four_with_scale(self, tower):
        c = canonical_constants()
        sys = system_from_entries(tower, "t", [[mono(tower, Fraction(3, 5), -1)]])
        out = change_variable_power(sys, "u", c.alpha_quarter_root, 4, Fraction(4))
        assert out.var == "u"
        assert out.entry(0, 0) == mono(tower, Fraction(12, 5), -1)

    def test_square_substitution_on_root(self, tower):
        one = AlgNum.from_rational(tower, 1)
        sys = system_from_entries(tower, "x", [[mono(tower, 1, Fraction(1, 2))]])
        out = change_variable_power(sys, "u", one, 2, Fraction(2))
        assert out.entry(0, 0) == mono(tower, 2, 2)


class TestStructure:
    def test_leading_data(self, tower):
        sys = system_from_entries(
            tower,
            "t",
            [
                [mono(tower, 2, 1) + 5, mono(tower, 1, 0)],
                [mono(tower, Fraction(28, 5), -1), mono(tower, -3, 1)],
            ],
        )
        r, lead = leading_data(sys)
        assert r == 1
        assert lead == mat_from_rows(tower, [[2, 0], [0, -3]])

    def test_leading_data_negative_exponent(self, tower):
        sys = system_from_entries(tower, "t", [[mono(tower, 3, -1)]])
        r, lead = leading_data(sys)
        assert r == -1
        assert lead == mat_from_rows(tower, [[3]])

    def test_block_split(self, tower):
        z = PuiseuxPoly.zero(tower)
        a = mono(tower, 1, 1)
        sys = DiffSystem("x", ((a, a, z, z), (a, a, z, z), (z, z, a, a), (z, z, a, a)))
        parts = block_split(sys, (2, 2))
        assert len(parts) == 2
        assert parts[0].dim == 2 and parts[1].dim == 2
        assert parts[0].entry(0, 1) == a

    def test_block_split_rejects_coupling(self, tower):
        z = PuiseuxPoly.zero(tower)
        a = mono(tower, 1, 1)
        sys = DiffSystem("x", ((a, z), (z, a)))
        with pytest.raises(TowerError):
            block_split(sys, (3,))
        bad = DiffSystem("x", ((a, a, z, z), (a, a, z, z), (z, a, a, a), (z, z, a, a)))
        with pytest.raises(TowerError):
            block_split(bad, (2, 2))

    def test_system_numeric_mixed_ramification(self, tower):
        g = AlgNum.generator(tower, 0)
        sys = system_from_entries(
            tower,
            "x",
            [
                [mono(tower, 1, Fraction(1, 2)).scale(g), mono(tower, 3, 0)],
                [mono(tower, 1, Fraction(-1, 4)), mono(tower, 2, 1)],
            ],
        )
        prec = bits(25 + 15)  # the grid of embeddings at 25 digits
        root = nth_root(Ball.rational(3, prec), 4, Ball.rational(Fraction("1.316"), prec))  # 3^(1/4)
        sqrt3 = nth_root(Ball.rational(3, prec), 2, Ball.rational(Fraction("1.732"), prec))
        vals = system_numeric(sys, root, 4, 25)
        assert abs(vals[0][0] - g.embed(25) * sqrt3) < 1e-20
        assert abs(vals[1][0] - root**-1) < 1e-20
        assert abs(vals[1][1] - 2 * 3) < 1e-20
