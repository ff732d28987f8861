from __future__ import annotations

from fractions import Fraction

import pytest

from sasano_galois.algnum import TowerError
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.exprparse import parse_ratfunc
from sasano_galois.ratfunc import RatFunc
from sasano_galois.sasano import (
    PolyExpr,
    build_extended_system,
    check_params,
    extended_hamiltonian,
    extract_nve,
    hamiltonian,
    ratfunc_to_puiseux,
    seed_solution,
    seed_variational_system,
    solution_energy,
    variational_matrix,
    verify_solution,
)

V = PolyExpr.var


class TestPolyExpr:
    def test_arithmetic(self):
        x, y = V("x"), V("y")
        p = (x + y) * (x - y)
        assert p == x**2 - y**2
        assert (p - p).is_zero()

    def test_diff(self):
        x, y = V("x"), V("y")
        p = 2 * x * y**2 + 3 * x
        assert p.diff("x") == 2 * y**2 + 3
        assert p.diff("y") == 4 * x * y
        assert p.diff("z").is_zero()

    def test_substitute(self):
        x, a1 = V("x"), V("a1")
        p = x * a1 + a1**2
        q = p.substitute({"a1": Fraction(1, 5)})
        assert q == x * Fraction(1, 5) + Fraction(1, 25)

    def test_eval_rat_requires_all_symbols(self):
        p = V("x") * V("t")
        t = RatFunc.variable()
        assert p.eval_rat({"x": t, "t": t}) == t * t
        with pytest.raises(ValueError):
            p.eval_rat({"x": t})

    def test_render(self):
        p = 2 * V("x") * V("y") ** 2 - V("w")
        assert p.render() == "-w + 2*x*y^2"


class TestHamiltonian:
    def test_decomposition_into_known_parts(self):
        # The Hamiltonian splits as twice a second-Painleve-style piece in
        # (x, y), an autonomous piece in (z, w), and the coupling terms.
        x, y, z, w, t = V("x"), V("y"), V("z"), V("w"), V("t")
        a0, a1 = V("a0"), V("a1")
        pii_part = x * y**2 + x**2 + t * x - a1 * y
        auto_part = z**2 * w - Fraction(1, 2) * w**2 + a0 * z
        coupling = x * w + 2 * y * z * w
        assert hamiltonian() == 2 * pii_part + auto_part + coupling

    def test_extended_adds_conjugate_of_time(self):
        assert extended_hamiltonian() - hamiltonian() == V("F")

    def test_param_relation(self):
        check_params((Fraction(2, 5), Fraction(1, 5), Fraction(1, 10)))
        # (1/2, 1/8, 1/8) does satisfy the affine relation
        check_params((Fraction(1, 2), Fraction(1, 8), Fraction(1, 8)))
        with pytest.raises(ValueError):
            check_params((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            check_params((1, 1))


class TestField:
    def test_symbolic_field_components(self):
        f = build_extended_system()
        x, y, z, w = V("x"), V("y"), V("z"), V("w")
        assert f[4] == PolyExpr.const(1)
        assert f[5] == -2 * x
        assert f[2] == z**2 - w + x + 2 * y * z

    def test_params_substituted(self):
        f = build_extended_system((Fraction(2, 5), Fraction(1, 5), Fraction(1, 10)))
        # a1 = 1/5 appears only in the x equation as the constant -2/5
        assert f[0] == 4 * V("x") * V("y") + 2 * V("z") * V("w") - Fraction(2, 5)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            build_extended_system((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))

    def test_seed_fails_under_other_admissible_params(self):
        sol, _ = seed_solution()
        with pytest.raises(ValueError):
            verify_solution(sol, (Fraction(1, 2), Fraction(1, 8), Fraction(1, 8)))


class TestSeedSolution:
    def test_seed_verifies(self):
        sol, params = seed_solution()
        verify_solution(sol, params)

    def test_seed_energy_matches_conjugate(self):
        sol, params = seed_solution()
        assert solution_energy(sol, params) == sol["F"]

    def test_tampered_solution_fails_with_component(self):
        sol, params = seed_solution()
        bad = dict(sol)
        bad["y"] = RatFunc.const(Fraction(1, 7))
        with pytest.raises(ValueError, match="x"):
            verify_solution(bad, params)

    def test_transformed_solution_verifies(self):
        # Image of the seed under the third reflection: poles at t = 0
        # appear but the equations still hold exactly.
        params = (Fraction(2, 5), Fraction(2, 5), Fraction(-1, 10))
        sol = {
            "x": parse_ratfunc("-2*t/5 - 1/(4*t^2)"),
            "y": parse_ratfunc("-1/(2*t)"),
            "z": parse_ratfunc("1/(2*t)"),
            "w": parse_ratfunc("-2*t/5"),
        }
        sol["F"] = solution_energy(sol, params)
        verify_solution(sol, params)


class TestVariational:
    def test_time_row_and_conjugate_column_vanish(self):
        sol, params = seed_solution()
        vm = variational_matrix(sol, params)
        assert all(e.is_zero() for e in vm[4])
        assert all(vm[i][5].is_zero() for i in range(6))

    def test_time_column_couples(self):
        sol, params = seed_solution()
        vm = variational_matrix(sol, params)
        assert vm[1][4] == RatFunc.const(-2)

    def test_conjugate_row_reads_first_equation(self):
        sol, params = seed_solution()
        vm = variational_matrix(sol, params)
        assert vm[5][0] == RatFunc.const(-2)
        assert all(vm[5][j].is_zero() for j in range(1, 6))


class TestNormalVariational:
    def test_matrix_entries(self, tower):
        sys = seed_variational_system(tower)
        t1 = PuiseuxPoly.monomial(tower, 1, 1)

        def entry(c, e):
            return PuiseuxPoly.monomial(tower, Fraction(c), e)

        assert sys.var == "t"
        assert sys.dim == 4
        assert sys.entry(0, 0).is_zero()
        assert sys.entry(0, 1) == entry("-8/5", 1)
        assert sys.entry(0, 2) == entry("-4/5", 1)
        assert sys.entry(1, 0) == entry(-4, 0)
        assert sys.entry(1, 3) == entry(-1, 0)
        assert sys.entry(2, 0) == entry(1, 0)
        assert sys.entry(2, 3) == entry(-1, 0)
        assert sys.entry(3, 1) == entry("4/5", 1)
        assert sys.entry(3, 2) == entry("4/5", 1)
        assert sys.entry(3, 3).is_zero()
        assert t1 is not None

    def test_rejects_coupled_time_row(self, tower):
        one = RatFunc.const(1)
        zero = RatFunc.const(0)
        vm = [[zero] * 6 for _ in range(6)]
        vm[4][0] = one
        with pytest.raises(TowerError):
            extract_nve(vm, tower)

    def test_rejects_conjugate_coupling(self, tower):
        one = RatFunc.const(1)
        zero = RatFunc.const(0)
        vm = [[zero] * 6 for _ in range(6)]
        vm[2][5] = one
        with pytest.raises(TowerError):
            extract_nve(vm, tower)


class TestLaurentConversion:
    def test_monomial_denominator(self, tower):
        f = parse_ratfunc("(t^2 + 1)/t")
        p = ratfunc_to_puiseux(f, tower)
        assert p == PuiseuxPoly.monomial(tower, 1, 1) + PuiseuxPoly.monomial(tower, 1, -1)

    def test_zero(self, tower):
        assert ratfunc_to_puiseux(RatFunc.const(0), tower).is_zero()

    def test_general_denominator_rejected(self, tower):
        f = parse_ratfunc("1/(t - 1)")
        with pytest.raises(TowerError):
            ratfunc_to_puiseux(f, tower)
