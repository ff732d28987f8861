from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import components
from sasano_galois import sasano
from sasano_galois.algnum import TowerError
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.exprparse import parse_ratfunc
from sasano_galois.ratfunc import Poly, RatFunc
from sasano_galois.sasano import (
    PHASE_VARS,
    VARS,
    CommonDenominator,
    PolyExpr,
    build_extended_system,
    check_params,
    extended_hamiltonian,
    extract_nve,
    hamiltonian,
    ratfunc_to_puiseux,
    scale_solution,
    seed_solution,
    seed_variational_system,
    solution_energy,
    variational_matrix,
    verify_solution,
)
from sasano_galois.weyl import enumerate_orbit, seed_state

V = PolyExpr.var


def seed_values():
    return scale_solution(*seed_solution())


def verify(sol, params):
    """verify_solution on x, y, z, w and F of ``sol``."""
    verify_solution(scale_solution(sol, params), sol["F"])


class TestPolyExpr:
    def test_arithmetic(self):
        x, y = V("x"), V("y")
        p = (x + y) * (x - y)
        assert p == x**2 - y**2
        assert p - p == PolyExpr.const(0)

    def test_diff(self):
        x, y = V("x"), V("y")
        p = 2 * x * y**2 + 3 * x
        assert p.diff("x") == 2 * y**2 + 3
        assert p.diff("y") == 4 * x * y
        assert p.diff("z") == PolyExpr.const(0)

    def test_eval_rat_requires_all_symbols(self):
        # evaluation to a RatFunc over CommonDenominator values
        p = V("x") * V("t")
        t = RatFunc.variable()
        assert CommonDenominator({"x": t, "t": t}).evaluate(p) == t * t
        with pytest.raises(ValueError):
            CommonDenominator({"x": t}).evaluate(p)


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

    def test_symbolic_hamiltonian_is_the_formula_on_the_symbols(self):
        assert hamiltonian() == sasano._hamiltonian(*map(V, sasano._H_ARGS))
        assert len(hamiltonian().terms) == 9

    def test_formula_on_rational_functions_is_minus_the_energy_lift(self):
        # the same formula over RatFunc: H along each state is -F
        t = RatFunc.variable()
        for state in depth_two_states():
            a0, a1, _ = state.params.as_tuple()
            assert sasano._hamiltonian(state.x, state.y, state.z, state.w, t, a0, a1) == -state.f

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

    def test_bad_params_rejected(self):
        sol, _ = seed_solution()
        with pytest.raises(ValueError):
            scale_solution(sol, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))

    def test_seed_fails_under_other_admissible_params(self):
        sol, _ = seed_solution()
        values = scale_solution(sol, (Fraction(1, 2), Fraction(1, 8), Fraction(1, 8)))
        with pytest.raises(ValueError):
            verify_solution(values, solution_energy(values))


class TestSeedSolution:
    def test_seed_verifies(self):
        values = seed_values()
        verify_solution(values, solution_energy(values))

    def test_seed_energy_matches_conjugate(self):
        t = RatFunc.variable()
        assert solution_energy(seed_values()) == t * t * Fraction(2, 5)

    def test_tampered_solution_fails_with_component(self):
        sol, params = seed_solution()
        bad = dict(sol, F=solution_energy(seed_values()))
        bad["y"] = RatFunc.const(Fraction(1, 7))
        with pytest.raises(ValueError, match="x"):
            verify(bad, params)

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
        values = scale_solution(sol, params)
        verify_solution(values, solution_energy(values))


class TestVariational:
    def test_time_row_and_conjugate_column_vanish(self):
        vm = variational_matrix(seed_values())
        assert all(e.is_zero() for e in vm[4])
        assert all(vm[i][5].is_zero() for i in range(6))

    def test_time_column_couples(self):
        vm = variational_matrix(seed_values())
        assert vm[1][4] == RatFunc.const(-2)

    def test_conjugate_row_reads_first_equation(self):
        vm = variational_matrix(seed_values())
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

    def test_seed_is_scaled_once(self, tower, monkeypatch):
        built = []

        class Counting(CommonDenominator):
            def __init__(self, values):
                built.append(values)
                super().__init__(values)

        monkeypatch.setattr(sasano, "CommonDenominator", Counting)
        seed_variational_system(tower)
        assert len(built) == 1

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


def depth_two_states():
    return [node.state for node in enumerate_orbit(seed_state(), depth=2).nodes]


def per_term_value(expr, assign):
    """Reference evaluation: one reduced RatFunc product per term, summed."""
    total = RatFunc.const(0)
    for exps, c in expr.terms:
        val = RatFunc.const(c)
        for k, exp in enumerate(exps):
            if exp:
                val = val * assign[VARS[k]] ** exp
        total = total + val
    return total


class TestCommonDenominator:
    def test_eval_rat_matches_per_term_products(self):
        # H, the field and its Jacobian evaluated over scale_solution, against
        # reduced per-term products with the parameters as RatFunc constants
        for state in depth_two_states():
            params = state.params.as_tuple()
            values = scale_solution(components(state), params)
            assign = dict(state.as_solution(), t=RatFunc.variable())
            assign.update(zip(("a0", "a1", "a2"), map(RatFunc.const, params)))
            field = build_extended_system()
            for expr in (hamiltonian(), *field):
                assert values.evaluate(expr) == per_term_value(expr, assign)
            vm = variational_matrix(values)
            for i, f in enumerate(field):
                for j, name in enumerate(PHASE_VARS):
                    assert vm[i][j] == per_term_value(f.diff(name), assign)
            assert solution_energy(values) == -per_term_value(hamiltonian(), assign)
            assert state.f == -per_term_value(hamiltonian(), assign)

    @pytest.mark.parametrize("kind", ["pole", "coefficient"])
    def test_verify_rejects_perturbed_states(self, kind):
        rng = random.Random(2718)
        shift = RatFunc.make(1, Poly.make([-3, 1]))  # 1/(t - 3)
        for state in depth_two_states():
            sol, params = state.as_solution(), state.params.as_tuple()
            verify(sol, params)
            for name, value in sol.items():
                if kind == "pole":
                    wrong = value + shift
                else:
                    # F enters the field only through F', so a constant
                    # shift of F is still a solution (checked below); the
                    # perturbed coefficient must move F by a nonconstant.
                    size = max(len(value.num.coeffs), 1)
                    k = rng.choice([
                        k for k in range(size)
                        if name != "F" or Poly.make([0] * k + [1]) != value.den  # t^k/den is not constant
                    ])
                    wrong = value + RatFunc.make(Poly.make([0] * k + [rng.choice((1, -1))]), value.den)
                with pytest.raises(ValueError, match="not a solution"):
                    verify(dict(sol, **{name: wrong}), params)
            verify(dict(sol, F=sol["F"] + 1), params)

    def test_verify_rejects_one_coefficient_mutants_of_a_deep_state(self):
        # the last depth-6 state, every component with a nonconstant
        # denominator: one numerator coefficient of one row changed by 1/den
        state = enumerate_orbit(seed_state(), depth=6).nodes[-1].state
        sol, params = state.as_solution(), state.params.as_tuple()
        assert all(value.den.degree() > 0 for value in sol.values())
        verify(sol, params)
        for name, value in sol.items():
            for k in (0, value.num.degree()):
                nums = list(value.num.nums)
                nums[k] += 1
                wrong = RatFunc.make(integer_poly(nums, value.num.den), value.den)
                # the field does not read F, so an F mutant fails the F row alone
                error = "not a solution: equations fail for F$" if name == "F" else "not a solution"
                with pytest.raises(ValueError, match=error):
                    verify(dict(sol, **{name: wrong}), params)


def random_polyexpr(rng, weights, symbols):
    """A random PolyExpr whose terms take every total weight in ``weights``,
    the weight of a monomial being its degree in ``symbols``."""
    expr = PolyExpr.const(0)
    while len(expr.terms) < 6 or term_weights(expr, symbols) != weights:
        exps = {name: rng.randint(0, 2) for name in ("x", "y", "z", "w", "t", "a0", "a1")}
        if sum(exps[name] for name in symbols) not in weights:
            continue
        term = PolyExpr.const(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)))
        for name, exp in exps.items():
            term = term * V(name) ** exp
        expr = expr + term
    return expr


def integer_poly(nums, scale):
    """The Poly of an integer coefficient list over one integer scale."""
    return Poly.make([Fraction(c, scale) for c in nums])


def term_weights(expr, symbols):
    return {sum(e[VARS.index(name)] for name in symbols) for e, _ in expr.terms}


class TestEvalScaled:
    # x and y carry denominators (weight 1); z, w, t and the parameters are
    # polynomials (weight 0).
    ASSIGN = {
        "x": parse_ratfunc("(t^2 - 3)/(2*t)"),
        "y": parse_ratfunc("1/(t^2 + 1)"),
        "z": parse_ratfunc("t^3/4 - 1"),
        "w": parse_ratfunc("-2*t/5"),
        "t": RatFunc.variable(),
        "a0": RatFunc.const(Fraction(2, 5)),
        "a1": RatFunc.const(Fraction(-3, 7)),
    }

    def evaluate(self, expr, assign):
        values = CommonDenominator(assign)
        num, scale, k = expr.eval_scaled(values)
        return RatFunc.make(integer_poly(num, scale), values.den_power(k)), k

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_gap(self, seed):
        # weights {0, 2} only: Horner's rule must still multiply the weight-0
        # sum by L twice
        rng = random.Random(seed)
        expr = random_polyexpr(rng, {0, 2}, ("x", "y"))
        value, k = self.evaluate(expr, self.ASSIGN)
        assert value == per_term_value(expr, self.ASSIGN)
        assert k == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_all_weight_zero(self, seed):
        rng = random.Random(100 + seed)
        expr = random_polyexpr(rng, {0}, ("x", "y"))
        value, k = self.evaluate(expr, self.ASSIGN)
        assert k == 0
        assert value == per_term_value(expr, self.ASSIGN)
        polys = {name: v for name, v in self.ASSIGN.items() if name not in ("x", "y")}
        assert self.evaluate(expr, polys) == (value, 0)

    def test_zero(self):
        num, scale, k = PolyExpr.const(0).eval_scaled(CommonDenominator(self.ASSIGN))
        assert not any(num) and k == 0
        assert CommonDenominator(self.ASSIGN).evaluate(PolyExpr.const(0)).is_zero()

    def test_shared_monomials_are_cached(self):
        values = CommonDenominator(self.ASSIGN)
        xy2 = (1, 2) + (0,) * (len(VARS) - 2)
        assert values.monomial(xy2) is values.monomial(xy2)
        expected = self.ASSIGN["x"] * self.ASSIGN["y"] ** 2
        mono, scale, weight = values.monomial(xy2)
        assert weight == 3 and RatFunc.make(integer_poly(mono, scale), values.den_power(3)) == expected
