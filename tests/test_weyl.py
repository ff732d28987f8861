"""Tests for the birational symmetries, their relations, and the orbit."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import components
from sasano_galois.algnum import VerificationError
from sasano_galois.exprparse import parse_ratfunc
from sasano_galois import sasano, weyl
from sasano_galois.ratfunc import Poly, RatFunc
from sasano_galois.report import orbit_section
from sasano_galois.sasano import (
    _H_ARGS,
    PolyExpr,
    _hamiltonian,
    scale_solution,
    solution_energy,
    verify_zero_energy,
)
from sasano_galois.weyl import (
    GENERATORS,
    ParamTriple,
    SolutionState,
    WeylError,
    act_on_params,
    apply_generator,
    enumerate_orbit,
    matsuda_check,
    seed_state,
    verify_group_relations,
    word_matrix,
)


@pytest.fixture(scope="module")
def seed():
    return seed_state()


def apply_word(word, state):
    """The generators of ``word`` applied to ``state`` left to right."""
    for name in word:
        state = apply_generator(name, state, None, act_on_params(name, state.params))
    return state


def test_param_triple_relation_enforced():
    with pytest.raises(VerificationError, match="a0"):
        ParamTriple.make((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    p = ParamTriple.make((Fraction(2, 5), Fraction(1, 5), Fraction(1, 10)))
    assert p.as_tuple() == (Fraction(2, 5), Fraction(1, 5), Fraction(1, 10))


def test_unknown_generator_is_a_weyl_error(seed):
    message = "unknown generator 's9'"
    with pytest.raises(WeylError, match=message):
        act_on_params("s9", seed.params)
    with pytest.raises(WeylError, match=message):
        word_matrix(("s0", "s9"))
    with pytest.raises(WeylError, match=message):
        apply_generator("s9", seed, None, seed.params)


def test_param_actions_on_seed_values():
    p = ParamTriple.make((Fraction(2, 5), Fraction(1, 5), Fraction(1, 10)))
    assert act_on_params("s0", p).as_tuple() == (
        Fraction(-2, 5),
        Fraction(3, 5),
        Fraction(1, 10),
    )
    assert act_on_params("s1", p).as_tuple() == (
        Fraction(4, 5),
        Fraction(-1, 5),
        Fraction(3, 10),
    )
    assert act_on_params("s2", p).as_tuple() == (
        Fraction(2, 5),
        Fraction(2, 5),
        Fraction(-1, 10),
    )


def test_param_action_fixes_degenerate_component():
    p = ParamTriple.make((Fraction(1, 3), 0, Fraction(1, 3)))
    assert act_on_params("s1", p) == p


def test_seed_state_is_verified(seed):
    t = RatFunc.variable()
    assert seed.x == t * Fraction(-2, 5)
    assert seed.w == seed.x
    assert seed.y.is_zero() and seed.z.is_zero()
    assert seed.f == t * t * Fraction(2, 5)


def test_apply_s0_on_seed(seed):
    image = apply_word(("s0",), seed)
    assert image.z == parse_ratfunc("-1/t")
    assert image.x == seed.x and image.w == seed.w and image.y == seed.y
    assert image.params.as_tuple() == (Fraction(-2, 5), Fraction(3, 5), Fraction(1, 10))


def test_apply_s1_on_seed(seed):
    image = apply_word(("s1",), seed)
    assert image.y == parse_ratfunc("1/(2*t)")
    assert image.w == seed.w  # z = 0 kills the w shift
    assert image.params.as_tuple() == (Fraction(4, 5), Fraction(-1, 5), Fraction(3, 10))


def test_apply_s2_on_seed(seed):
    image = apply_word(("s2",), seed)
    assert image.y == parse_ratfunc("-1/(2*t)")
    assert image.z == parse_ratfunc("1/(2*t)")
    assert image.x == parse_ratfunc("(-8*t^3 - 5)/(20*t^2)")
    assert image.w == seed.w
    assert image.params.as_tuple() == (Fraction(2, 5), Fraction(2, 5), Fraction(-1, 10))


def test_generators_are_involutions_on_seed(seed):
    for name in GENERATORS:
        back = apply_word((name, name), seed)
        assert components(back) == components(seed)
        assert back.params == seed.params


def test_s2_keeps_x_plus_y_squared():
    # on symbols: the invariant s2's divisor and x-image are built on is fixed
    x, y, z, w, f, t, sigma = map(PolyExpr.var, ("x", "y", "z", "w", "F", "t", "a0"))
    kept, div = weyl._divisor("s2", x, y, z, w, t)
    assert kept == x + y**2 and div == x + y**2 + w + t
    x1, y1, z1, w1, f1 = weyl._reflect("s2", x, y, z, w, f, sigma, kept)
    assert x1 + y1**2 == x + y**2
    assert (x1, y1, z1, w1, f1) == (x + 2 * sigma * y - sigma**2, y - sigma, z + sigma, w, f - sigma)


def test_zero_divisor_identity_or_error():
    # raw states built without verification isolate the divisor handling:
    # w = 0 kills the s0 divisor, so the step must be the identity when
    # a0 = 0 and an error when a0 != 0
    t = RatFunc.variable()
    zero = RatFunc.const(0)
    benign = SolutionState(t, zero, zero, zero, zero, ParamTriple.make((0, "1/4", "1/4")))
    assert apply_word(("s0",), benign) is benign
    hostile = SolutionState(t, zero, zero, zero, zero, ParamTriple.make((1, 0, 0)))
    with pytest.raises(WeylError, match="divisor"):
        apply_word(("s0",), hostile)


def test_relations_hold():
    report = verify_group_relations(samples=50, seed=20240814)
    assert len(report) == 9
    assert all(rc.matrix_identity for rc in report)
    assert all(rc.points_checked >= 50 for rc in report)


def test_word_matrix_identity_for_squares():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for name in GENERATORS:
        assert word_matrix((name, name)) == identity
    assert word_matrix(("s0", "s2", "s0", "s2")) == identity
    assert word_matrix(("s0", "s1")) != identity


def test_apply_word_round_trip(seed):
    word = ("s0", "s1", "s2", "s2", "s1", "s0")
    back = apply_word(word, seed)
    assert components(back) == components(seed)
    assert back.params == seed.params


def test_matsuda_rows():
    assert matsuda_check(ParamTriple.make(("2/5", "1/5", "1/10"))).row == 1
    r = matsuda_check(ParamTriple.make(("2/5", "2/5", "-1/10")))
    assert (r.a_mod, r.b_mod, r.row) == (4, 1, 4)
    # a non-integral pair carries no row
    off = matsuda_check(ParamTriple.make(("1/3", 0, "1/3")))
    assert not off.integral and off.row is None
    # integral but with residue a = 2, which no table row admits
    outside = matsuda_check(ParamTriple.make((0, 0, "1/2")))
    assert outside.integral and (outside.a_mod, outside.b_mod) == (2, 4)
    assert outside.row is None


def test_orbit_depth_zero_and_one(seed):
    orbit0 = enumerate_orbit(seed_state(), depth=0)
    assert orbit0.node_count() == 1
    assert orbit0.nodes[0].word == ()
    orbit1 = enumerate_orbit(seed_state(), depth=1)
    assert orbit1.node_count() == 4
    words = {n.word for n in orbit1.nodes}
    assert words == {(), ("s0",), ("s1",), ("s2",)}


def test_orbit_depth_three_all_checked(seed):
    orbit = enumerate_orbit(seed_state(), depth=3)
    assert orbit.node_count() > 4
    for node in orbit.nodes:
        # states were verified on construction; the arithmetic condition
        # must hold at every node of this seed's orbit
        assert node.matsuda.integral
        assert node.matsuda.row in (1, 2, 3, 4)
    assert not orbit.skipped
    for col in orbit.collisions:
        assert col.states_equal


def test_orbit_words_reproduce_states(seed):
    orbit = enumerate_orbit(seed_state(), depth=2)
    for node in orbit.nodes:
        again = apply_word(node.word, seed)
        assert components(again) == components(node.state)
        assert again.params == node.state.params


def test_differing_collision_is_recorded_past_the_audit_depth(monkeypatch):
    # With no audited depth, an image that differs from the kept state must
    # still be recorded: here the first collision hands back its parent.
    real = weyl.apply_generator
    wrong = []

    def parent_at_first_collision(name, state, known, params):
        if known is not None and known is not state and not wrong:
            wrong.append(name)
            return state
        return real(name, state, known, params)

    monkeypatch.setattr(weyl, "AUDIT_DEPTH", 0)
    monkeypatch.setattr(weyl, "apply_generator", parent_at_first_collision)
    orbit = enumerate_orbit(seed_state(), depth=2)
    assert wrong and [c.states_equal for c in orbit.collisions] == [False]
    assert orbit_section(orbit).status == "fail"


def test_orbit_verifies_each_state_once(monkeypatch):
    calls = []
    make = SolutionState.make

    def counting(*args):
        calls.append(args)
        return make(*args)

    checked, energies = [], []
    point_check, energy = weyl.verify_zero_energy, sasano.solution_energy
    monkeypatch.setattr(SolutionState, "make", staticmethod(counting))
    monkeypatch.setattr(weyl, "verify_zero_energy", lambda *a: checked.append(a) or point_check(*a))
    monkeypatch.setattr(sasano, "solution_energy", lambda v: energies.append(v) or energy(v))
    orbit = enumerate_orbit(seed_state(), depth=6)
    assert orbit.node_count() == 57 and len(orbit.collisions) == 24
    assert len(calls) == 57 and len(checked) == 57
    # only the root computes -H; every image carries its F over
    assert len(energies) == 1


def test_transported_energy_is_the_energy_lift():
    orbit = enumerate_orbit(seed_state(), depth=8)
    assert orbit.node_count() == 97 and not orbit.skipped
    for node in orbit.nodes:
        state = node.state
        assert state.f == solution_energy(scale_solution(components(state), state.params.as_tuple()))


def test_unshifted_energy_fails_the_f_row(seed):
    image = apply_word(("s2",), seed)
    assert image.f == seed.f - RatFunc.const(seed.params.a2) / (seed.x + seed.y**2 + seed.w + RatFunc.variable())
    with pytest.raises(VerificationError, match="not a solution: equations fail for F$"):
        SolutionState.make(image.x, image.y, image.z, image.w, image.params, seed.f)


def test_energy_off_by_a_constant_fails_the_point_check(seed):
    # F + 1 still solves F' = -2x, so only the point check can reject it
    one = RatFunc.const(1)
    with pytest.raises(VerificationError, match=r"zero-energy lift: H \+ F = 1 at t0 = 0$"):
        SolutionState.make(seed.x, seed.y, seed.z, seed.w, seed.params, seed.f + one)
    # the s2 image has poles at t = 0, so the point moves to t = 1
    image = apply_word(("s2",), seed)
    with pytest.raises(VerificationError, match=r"H \+ F = 1 at t0 = 1$"):
        SolutionState.make(image.x, image.y, image.z, image.w, image.params, image.f + one)
    # and past a pole of F itself at t = 1, to t = 2
    values = scale_solution(components(image), image.params.as_tuple())
    pole = RatFunc.make(1, Poly.make([-1, 1]))  # 1/(t - 1)
    with pytest.raises(VerificationError, match=r"H \+ F = 1 at t0 = 2$"):
        verify_zero_energy(values, image.f + pole)


def _fraction_point_check(values, f):
    """The point check on ``Fraction``s: t0 by the same rule, and H + F there,
    with ``_hamiltonian`` on the exact values of the kept numerators over L(t0)^j."""

    def at(p, t):
        return sum([Fraction(c, p.den) * t**k for k, c in enumerate(p.nums)], Fraction(0))

    tries = values.den.degree() + f.den.degree() + 1
    t0 = next(t for t in range(tries) if at(values.den, t) != 0 and at(f.den, t) != 0)
    den = at(values.den, t0)
    h = _hamiltonian(*[at(num, t0) / den**j for num, j in map(values.kept.get, _H_ARGS)])
    return t0, h + at(f.num, t0) / at(f.den, t0)


def test_point_check_matches_the_fraction_evaluation(monkeypatch):
    orbit = enumerate_orbit(seed_state(), depth=8)
    assert orbit.node_count() == 97 and orbit.nodes[0].state == seed_state()
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: built.append(1) or new(*a, **k)))
    rng = random.Random(3303)
    points = set()
    for k, node in enumerate(orbit.nodes):
        state = node.state
        values = scale_solution(components(state), state.params.as_tuple())
        t0, total = _fraction_point_check(values, state.f)
        assert total == 0
        points.add(t0)
        built.clear()
        verify_zero_energy(values, state.f)
        assert not built, "a passing check built a Fraction"
        bits = (7, 64, 129, 300)[k % 4]
        c = Fraction(rng.getrandbits(bits) | 1 << (bits - 1), rng.getrandbits(bits) | 1) * rng.choice((1, -1))
        shifted = state.f + RatFunc.const(c)
        assert _fraction_point_check(values, shifted) == (t0, c)
        built.clear()
        with pytest.raises(VerificationError) as failed:
            verify_zero_energy(values, shifted)
        assert str(failed.value) == f"F is not the zero-energy lift: H + F = {c} at t0 = {t0}"
        assert built  # the count sees the Fractions of a failing check's message
    assert points == {0, 1}


def test_orbit_parameter_work_builds_no_fraction(monkeypatch):
    # act_on_params, matsuda_check and the lookups of triples in seen and
    # reverse read ParamTriple's integers: replaying the recorded steps, whose
    # state checks are the only Fraction work, rebuilds the orbit without one
    root = seed_state()
    images = {}
    real = weyl.apply_generator

    def recording(name, state, known, params):
        images[id(state), name] = image = real(name, state, known, params)
        return image

    monkeypatch.setattr(weyl, "apply_generator", recording)
    expected = enumerate_orbit(root, depth=8)
    monkeypatch.setattr(weyl, "apply_generator", lambda name, state, known, params: images[id(state), name])
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: built.append(1) or new(*a, **k)))
    replayed = enumerate_orbit(root, depth=8)
    assert not built, "the orbit's parameter work built a Fraction"
    assert replayed == expected and replayed.node_count() == 97
    assert all(node.matsuda.row is not None for node in replayed.nodes)
    matsuda_check(ParamTriple.make(("1/3", "1/3", 0)))
    assert built  # the count sees the Fractions of make's check


def test_known_state_returned_only_when_equal(seed):
    image = apply_word(("s2",), seed)
    params = act_on_params("s2", seed.params)
    assert apply_generator("s2", seed, image, params) is image
    one = RatFunc.const(1)
    others = [
        SolutionState(image.x + one, image.y, image.z, image.w, image.f, image.params),
        SolutionState(image.x, image.y + one, image.z, image.w, image.f, image.params),
        SolutionState(image.x, image.y, image.z + one, image.w, image.f, image.params),
        SolutionState(image.x, image.y, image.z, image.w + one, image.f, image.params),
        SolutionState(image.x, image.y, image.z, image.w, image.f, seed.params),
    ]
    for known in others:
        got = apply_generator("s2", seed, known, params)
        assert got is not known
        assert got == image


def test_parameter_action_once_per_edge(monkeypatch):
    calls = []
    act = weyl.act_on_params

    def counting(name, params):
        calls.append(name)
        return act(name, params)

    monkeypatch.setattr(weyl, "act_on_params", counting)
    orbit = enumerate_orbit(seed_state(), depth=6)
    assert orbit.node_count() == 57 and len(orbit.collisions) == 24
    # 123 edges, less the 33 reverse edges past AUDIT_DEPTH, which are not built
    assert len(calls) == 90


@pytest.mark.parametrize("depth, skips", [(6, 33), (8, 81)])
def test_only_back_edges_past_the_audit_depth_are_skipped(monkeypatch, depth, skips):
    built = []
    real = weyl.apply_generator

    def recording(name, state, known, params):
        image = real(name, state, known, params)
        built.append((state, name, image))
        return image

    monkeypatch.setattr(weyl, "apply_generator", recording)
    orbit = enumerate_orbit(seed_state(), depth=depth)
    nodes = {id(node.state): node for node in orbit.nodes}
    edges = {(node.word, name) for node in orbit.nodes if node.depth < depth for name in GENERATORS}
    back = {(word, name) for word, name in edges if word[-1:] == (name,) and len(word) >= weyl.AUDIT_DEPTH}
    # s_i of a kept node K gave the kept state S, so s_i on S gives K
    target = {(nodes[id(image)].word, name): state for state, name, image in built if id(image) in nodes}
    reverse = {edge for edge in target if edge in edges and len(edge[0]) >= weyl.AUDIT_DEPTH}
    skipped = edges - {(nodes[id(state)].word, name) for state, name, _ in built}
    assert back <= reverse and skipped == reverse
    assert len(skipped) == skips and len(built) == len(edges) - skips
    # each skipped image is the kept state whose step gave its source
    kept = {node.word: node.state for node in orbit.nodes}
    for word, name in sorted(skipped):
        known = target[word, name]
        assert real(name, kept[word], known, known.params) is known


def test_involution_check_runs_once_and_only_when_a_skip_is_taken():
    weyl.verify_involutions.cache_clear()
    enumerate_orbit(seed_state(), depth=weyl.AUDIT_DEPTH)
    assert weyl.verify_involutions.cache_info().misses == 0
    enumerate_orbit(seed_state(), depth=6)
    enumerate_orbit(seed_state(), depth=6)
    info = weyl.verify_involutions.cache_info()
    assert info.misses == 1 and info.hits == 2 * 33 - 1


def reference_step(name, x, y, z, w, f, alpha):
    """The generator's image on (x, y, z, w, F) with every operation reduced by RatFunc.make."""

    def add(a, b):
        return RatFunc.make(a.num * b.den + b.num * a.den, a.den * b.den)

    def mul(a, b):
        return RatFunc.make(a.num * b.num, a.den * b.den)

    def sub(a, b):
        return add(a, -b)

    t, two = RatFunc.variable(), RatFunc.const(2)
    div = {"s0": w, "s1": add(x, mul(z, z)), "s2": add(add(add(x, mul(y, y)), w), t)}[name]
    if div.is_zero():
        return None
    shift = RatFunc.make(div.den * alpha, div.num)
    if name == "s0":
        return x, y, add(z, shift), w, f
    if name == "s1":
        return x, sub(y, shift), z, sub(w, mul(mul(two, shift), z)), f
    return sub(add(x, mul(mul(two, shift), y)), mul(shift, shift)), sub(y, shift), add(z, shift), w, sub(f, shift)


def test_backlund_steps_match_reference_arithmetic(seed):
    t = RatFunc.variable()
    steps = 0
    for node in enumerate_orbit(seed_state(), depth=3).nodes:
        s = node.state
        for name in GENERATORS:
            alpha = s.params.as_tuple()[GENERATORS.index(name)]
            expect = reference_step(name, s.x, s.y, s.z, s.w, s.f, alpha)
            kept, div = weyl._divisor(name, s.x, s.y, s.z, s.w, t)
            if expect is None:
                assert div.is_zero()
                continue
            assert weyl._reflect(name, s.x, s.y, s.z, s.w, s.f, RatFunc.const(alpha) / div, kept) == expect
            steps += 1
    assert steps == 51  # 17 nodes, no divisor vanishes
