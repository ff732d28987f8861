"""Tests for the staged reduction chain and its consistency checks."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from conftest import mat_from_rows
from sasano_galois.algnum import AlgNum, TowerError, TowerSpec, canonical_constants, wasow_constants
from sasano_galois import algnum, reduction
from sasano_galois.ball import Ball
from sasano_galois.diffsys import (
    DiffSystem,
    block_split,
    char_poly,
    leading_data,
    mat_mul,
)
from sasano_galois.exprparse import chain_symbols, parse_puiseux
from sasano_galois.puiseux import PuiseuxPoly
from sasano_galois.reduction import (
    GaugeStep,
    ReductionError,
    Substitution,
    canonical_config,
    load_fixtures,
    run_canonical_chain,
    verify_trace_consistency,
    wasow_config,
)
from sasano_galois.report import build_proof, report_to_json
from sasano_galois.sasano import seed_variational_system

STAGES = (
    "variational",
    "leading_nilpotent",
    "quarter_shear",
    "ramified_time",
    "jordan_gauge",
    "unit_shear",
    "decoupled",
)


@pytest.fixture(scope="module")
def canonical_trace():
    cfg = canonical_config()
    return run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)


@pytest.fixture(scope="module")
def wasow_trace():
    cfg = wasow_config()
    return run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)


def test_canonical_chain_matches_every_reference(canonical_trace):
    assert canonical_trace.matched_stages == STAGES
    assert canonical_trace.leading_exponent == Fraction(5)
    assert len(canonical_trace.steps) == 6
    assert [b.dim for b in canonical_trace.blocks] == [2, 2]
    kinds = [s.move.kind for s in canonical_trace.steps]
    assert kinds == ["constant", "shear", "variable", "constant", "shear", "constant"]


def test_decoupled_stage_entries(canonical_trace):
    c = canonical_trace.config.constants
    tower = c.tower
    final = canonical_trace.final
    three = PuiseuxPoly.monomial(tower, 3, Fraction(-1))
    minus_one = PuiseuxPoly.monomial(tower, -1, Fraction(-1))
    zero = PuiseuxPoly.zero(tower)
    for k in range(4):
        lam = PuiseuxPoly.monomial(tower, c.eigenvalues[k], Fraction(5))
        assert final.entry(k, k) == lam + three
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            same_block = (i < 2) == (j < 2)
            assert final.entry(i, j) == (minus_one if same_block else zero)


def _det(a) -> AlgNum:
    """Exact determinant by Gaussian elimination over the tower field."""
    m = [list(row) for row in a]
    n = len(m)
    tower = m[0][0].tower
    det = AlgNum.from_rational(tower, 1)
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return AlgNum.from_rational(tower, 0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f.is_zero():
                continue
            for cc in range(col, n):
                m[r][cc] = m[r][cc] - f * m[col][cc]
    return det


def test_leading_char_poly_and_eigenvalues(canonical_trace):
    c = canonical_trace.config.constants
    tower = c.tower
    sys6 = canonical_trace.steps[4].after
    r, lead = leading_data(sys6)
    assert r == Fraction(5)
    p = char_poly(lead)
    assert p == PuiseuxPoly.from_terms(tower, 1, enumerate([-5, 0, -5, 0, 1]))
    # independent oracle: p(q) must equal det(q I - lead) at five points
    for q in (0, 1, -1, 2, 7):
        qa = AlgNum.from_rational(tower, q)
        shifted = tuple(
            tuple(
                (qa if i == j else AlgNum.from_rational(tower, 0)) - lead[i][j]
                for j in range(4)
            )
            for i in range(4)
        )
        assert p(qa) == _det(shifted)
    for lam in c.eigenvalues:
        assert p(lam).is_zero()


def test_eigenvalue_identities(canonical_trace):
    c = canonical_trace.config.constants
    lam1, lam2, lam3, lam4 = c.eigenvalues
    zero = AlgNum.from_rational(c.tower, 0)
    assert lam1 + lam2 == zero
    assert lam3 + lam4 == zero
    assert lam1 * lam2 == (c.sqrt5 * 6 - 10) / 4
    assert lam3 * lam4 == (c.sqrt5 * 6 + 10) / (-4)
    # all four are distinct
    vals = c.eigenvalues
    assert all(vals[i] != vals[j] for i in range(4) for j in range(i + 1, 4))


def test_printed_gauge_is_column_rescaled_ours(canonical_trace):
    """The reference eigenvector matrix equals ours up to per-block column scalars."""
    from sasano_galois.reduction import fixture_constant_matrix

    c = canonical_trace.config.constants
    t3p = fixture_constant_matrix("t3", c)
    mine = canonical_trace.steps[5].move.t
    ratios = [t3p[0][j] / mine[0][j] for j in range(4)]
    for i in range(4):
        for j in range(4):
            assert t3p[i][j] == mine[i][j] * ratios[j]
    assert ratios[0] == ratios[1]
    assert ratios[2] == ratios[3]
    # and it diagonalizes the leading matrix on the nose
    t3p_inv = fixture_constant_matrix("t3_inv", c)
    _, lead = leading_data(canonical_trace.steps[4].after)
    diag = mat_mul(t3p_inv, mat_mul(lead, t3p))
    for i in range(4):
        for j in range(4):
            expect = c.eigenvalues[i] if i == j else AlgNum.from_rational(c.tower, 0)
            assert diag[i][j] == expect


def test_wasow_chain_matches_references(wasow_trace):
    assert wasow_trace.matched_stages == STAGES
    assert wasow_trace.leading_exponent == Fraction(5)
    c = wasow_trace.config.constants
    # alpha^(7/4) is rational in this normalization
    assert (c.alpha_quarter_root**7).coords() == {
        (0, 0, 0, 0): Fraction(1, 4)
    } or (c.alpha_quarter_root**7) == AlgNum.from_rational(c.tower, 1) / 4


def test_consistency_report_canonical(canonical_trace):
    report = verify_trace_consistency(canonical_trace)
    assert report.names() == ("structure", "inverse-walk", "numeric")


def test_consistency_report_wasow(wasow_trace):
    report = verify_trace_consistency(wasow_trace)
    assert report.names() == ("structure", "inverse-walk", "numeric")


def test_numeric_audit_embeds_each_constant_gauge_once(monkeypatch, canonical_trace):
    # the three 4x4 gauge pairs, the root of alpha and the substitution
    # scale once (98), and at each of the 5 sample points the 20 coefficients
    # of the first and the final system (5 * 20): 198, where embedding the
    # gauges at every point took 590 and found the same worst error; the
    # error is a proven bound, the ball's radius included
    calls = []
    embed = AlgNum.embed

    def counting(a, precision=20):
        calls.append(precision)
        return embed(a, precision)

    monkeypatch.setattr(AlgNum, "embed", counting)
    report = verify_trace_consistency(canonical_trace)
    assert report.checks[-1] == ("numeric", "5 sample points, worst relative error 1.091e-40")
    assert len(calls) == 198


def test_numeric_audit_takes_no_exact_tower_power(monkeypatch, canonical_trace):
    # the substitution scale is the embedded root raised to its index in
    # balls, once per move, not the exact tower power embedded
    powers = []
    power = AlgNum.__pow__
    monkeypatch.setattr(AlgNum, "__pow__", lambda a, n: powers.append(n) or power(a, n))
    assert reduction._numeric_composition(canonical_trace) < 1e-9
    assert powers == []


@pytest.mark.parametrize(
    "which, worst, powers, inverses",
    [("canonical", "1.0905717238270373e-40", 64, 35), ("wasow", "1.444590649830371e-41", 100, 35)],
)
def test_numeric_audit_raises_each_power_once_per_point(
    monkeypatch, which, worst, powers, inverses, canonical_trace, wasow_trace
):
    # each audit point raises x^e once and reads x^-e as 1/x^e: 273 and 309
    # Ball.__pow__ and 100 Ball.inverse calls each when every move and
    # system raised its own powers, for the same worst error to the bit
    trace = canonical_trace if which == "canonical" else wasow_trace
    calls = {"__pow__": 0, "inverse": 0}
    for name in calls:
        method = getattr(Ball, name)

        def counting(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(Ball, name, counting)
    assert repr(reduction._numeric_composition(trace)) == worst
    assert calls["__pow__"] <= powers and calls["inverse"] <= inverses


@pytest.mark.parametrize("which, worst", [("canonical", "1.0905717238270373e-40"), ("wasow", "1.444590649830371e-41")])
def test_numeric_audit_forms_each_shear_exponent_once(monkeypatch, which, worst, canonical_trace, wasow_trace):
    # the shears form each (j - i) g once per move and the point turns an
    # exponent into an integer power only on a miss: 79 Fraction products on
    # a warm audit, where every entry at every point took 415
    trace = canonical_trace if which == "canonical" else wasow_trace
    reduction._numeric_composition(trace)
    products = []
    for name in ("__mul__", "__rmul__"):
        method = getattr(Fraction, name)

        def counting(a, b, method=method):
            products.append(1)
            return method(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    assert repr(reduction._numeric_composition(trace)) == worst
    assert len(products) <= 79


def test_mismatch_error_names_stage_and_entry():
    cfg = canonical_config()
    nve = seed_variational_system(cfg.constants.tower)
    bump = PuiseuxPoly.const(cfg.constants.tower, Fraction(1, 7))
    rows = [list(r) for r in nve.matrix]
    rows[0][1] = rows[0][1] + bump
    bad = DiffSystem(nve.var, tuple(tuple(r) for r in rows))
    with pytest.raises(ReductionError, match=r"variational.*\(1,2\)"):
        run_canonical_chain(bad, cfg)


def test_perturbed_substitution_root_fails_numeric_check(canonical_trace):
    step = canonical_trace.steps[2]
    root = step.move.root + Fraction(1, 10**6)
    tweaked = step._replace(move=step.move._replace(root=root))
    steps = list(canonical_trace.steps)
    steps[2] = tweaked
    tampered = canonical_trace._replace(steps=tuple(steps))
    with pytest.raises(ReductionError):
        verify_trace_consistency(tampered)
    # the floating-point walk notices on its own, independently of the exact one
    assert reduction._numeric_composition(tampered) > 1e-9


def test_gauge_step_records_stage_and_move_only():
    assert list(GaugeStep._fields) == ["stage", "move", "before", "after"]


def test_each_move_inverts_to_its_own_kind(canonical_trace, wasow_trace):
    for step in canonical_trace.steps + wasow_trace.steps:
        back = step.move.inverse(step.before.var)
        assert type(back) is type(step.move)
        assert back.inverse(step.after.var) == step.move
        assert back.apply(step.after) == step.before


def test_substitution_inverse_needs_integral_index_over_power():
    # x = r * u^4 inverts to u = r^(-1/4) x^(1/4), a root the tower need not hold
    r = canonical_constants().alpha_quarter_root
    with pytest.raises(ReductionError, match="cannot be inverted exactly"):
        Substitution("u", r, 1, Fraction(4)).inverse("x")
    assert Substitution("u", r, 8, Fraction(4)).inverse("x") == Substitution(
        "x", r.inverse(), 2, Fraction(1, 4)
    )


def test_perturbed_final_entry_fails_exactly(canonical_trace):
    tower = canonical_trace.config.constants.tower
    bump = PuiseuxPoly.const(tower, Fraction(1, 10**6))
    rows = [list(r) for r in canonical_trace.final.matrix]
    rows[1][1] = rows[1][1] + bump
    bad_final = DiffSystem(canonical_trace.final.var, tuple(tuple(r) for r in rows))
    tampered = canonical_trace._replace(final=bad_final)
    with pytest.raises(ReductionError):
        verify_trace_consistency(tampered)


def test_truncated_trace_fails_block_invariant(canonical_trace):
    steps = canonical_trace.steps[:3]
    tampered = canonical_trace._replace(steps=steps, final=steps[-1].after)
    with pytest.raises(ReductionError, match="block"):
        verify_trace_consistency(tampered)


def test_intermediate_stage_not_block_diagonal(canonical_trace):
    sys6 = canonical_trace.steps[4].after
    with pytest.raises(TowerError):
        block_split(sys6, (2, 2))


def test_round_trip_recovers_input(canonical_trace):
    """Walking the recorded steps backwards lands exactly on the input system."""
    nve = canonical_trace.steps[0].before
    fresh = seed_variational_system(canonical_trace.config.constants.tower)
    assert fresh.matrix == nve.matrix
    assert fresh.var == nve.var


def test_constant_gauge_checks_inverse():
    tower = canonical_constants().tower
    t = mat_from_rows(tower, [[1, 2], [1, 3]])
    with pytest.raises(ReductionError, match="stage s: supplied inverse"):
        reduction._check_inverse("s", t, t)
    t_inv = mat_from_rows(tower, [[3, -2], [-1, 1]])
    assert reduction._check_inverse("s", t, t_inv) == (t, t_inv)


def test_each_gauge_inverse_checked_once(monkeypatch):
    # t1, t2, the computed eigenvector pair and the printed t3: the inverse
    # walk conjugates by the same pairs without checking them again
    checked = []
    check = reduction._check_inverse

    def counting(stage, t, t_inv):
        checked.append(stage)
        return check(stage, t, t_inv)

    monkeypatch.setattr(reduction, "_check_inverse", counting)
    cfg = canonical_config()
    verify_trace_consistency(run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg))
    assert checked == ["leading_nilpotent", "jordan_gauge", "decoupled", "decoupled (printed gauge)"]


# -- values computed once per command ------------------------------------------------

@pytest.mark.parametrize("wasow", [False, True], ids=["canonical", "wasow"])
def test_cold_and_warm_proofs_are_byte_identical(cold, wasow):
    first = report_to_json(build_proof(wasow=wasow))
    tower = (algnum.wasow_tower if wasow else algnum.canonical_tower)()
    assert tower._inverses and tower._embeds and tower._sqrts
    assert report_to_json(build_proof(wasow=wasow)) == first


@pytest.mark.parametrize("wasow", [False, True], ids=["canonical", "wasow"])
def test_cold_proof_computes_each_inverse_embedding_root_and_entry_once(cold, monkeypatch, wasow):
    seen = {"inverse": [], "embedding": [], "root": [], "entry": []}

    def record(kind, owner, name, key):
        fn = getattr(owner, name)

        def counting(*args):
            seen[kind].append(key(*args))
            return fn(*args)

        monkeypatch.setattr(owner, name, counting)

    record("inverse", TowerSpec, "_inv_sum", lambda tower, a: a)
    record("embedding", AlgNum, "embed", lambda a, dps: None if (a.value, dps) in a.tower._embeds else (a.value, dps))
    record("root", algnum, "_search_sqrt", lambda a: a.value)
    record("entry", reduction, "parse_puiseux", lambda text, tower, var, symbols: (text, var))
    build_proof(wasow=wasow)
    seen["embedding"] = [key for key in seen["embedding"] if key]  # the table's misses
    for kind, keys in seen.items():
        assert keys and len(keys) == len(set(keys)), kind


@pytest.mark.parametrize("wasow, values", [(False, 59), (True, 55)], ids=["canonical", "wasow"])
def test_cold_proof_embeds_each_value_a_bounded_number_of_times(cold, monkeypatch, wasow, values):
    # every call counts, table hits included: a caller that re-embeds one
    # number many times shows here even though the table misses stay unique
    calls = []
    embed = AlgNum.embed

    def counting(a, dps):
        calls.append((a.value, dps))
        return embed(a, dps)

    monkeypatch.setattr(AlgNum, "embed", counting)
    build_proof(wasow=wasow)
    assert len(calls) <= 222 and len(set(calls)) == values


def test_fixture_entry_is_parsed_once_per_text_constants_and_variable():
    c, w = canonical_constants(), wasow_constants()
    text = "2*i/rm"
    p = reduction._fixture_entry(text, c, "t")
    assert reduction._fixture_entry(text, c, "t") is p
    assert p == parse_puiseux(text, c.tower, "t", chain_symbols(c))
    assert reduction._fixture_entry(text, c, "tau") is not p
    assert reduction._fixture_entry(text, w, "t").tower is w.tower


def test_corrupt_fixture_entry_raises_on_every_call(monkeypatch):
    c = canonical_constants()
    stage = {"name": "s", "var": "t", "prefactor": "0", "rows": [["foo + 1"]]}
    monkeypatch.setattr(reduction, "load_fixtures", lambda: {"stages": [stage], "gauges": {"g": [["foo + 1"]]}})
    for _ in range(3):
        with pytest.raises(ReductionError, match="fixture stage s: "):
            reduction.fixture_system("s", c)
        with pytest.raises(ReductionError, match="fixture gauge g: unknown symbol 'foo'"):
            reduction.fixture_constant_matrix("g", c)


@pytest.mark.parametrize("entry", [["1"], {"1": 1}, 7, None], ids=["list", "dict", "int", "none"])
def test_fixture_entry_that_is_no_text_is_a_reduction_error(monkeypatch, entry):
    fixtures = copy.deepcopy(load_fixtures())
    fixtures["gauges"]["t1"][0][0] = entry
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    cfg = canonical_config()
    with pytest.raises(ReductionError, match="fixture gauge t1: expected expression text"):
        run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)


def _per_step_errors(trace, point=Fraction(5, 2)):
    """The audit error of each move alone: step.before at the audit point,
    acted on by the move, against step.after at the point the move hands on."""
    root_alpha = trace.config.constants.alpha_quarter_root.embed(algnum.AUDIT_DPS)
    tau0 = Ball.rational(point, root_alpha.prec)
    at = reduction.AuditPoint(root_alpha * tau0, 4, tau0)
    errors = []
    for step in trace.steps:
        value, at = step.move.audit()(at.system(step.before), at)
        errors.append(reduction._audit_error(value, at.system(step.after)))
    return errors


@pytest.mark.parametrize("which", ["canonical", "wasow"])
def test_each_move_acts_on_the_audit_walk_as_on_the_system(which, canonical_trace, wasow_trace):
    trace = canonical_trace if which == "canonical" else wasow_trace
    errors = _per_step_errors(trace)
    assert len(errors) == 6 and max(errors) < 1e-9


def test_flipped_shear_correction_fails_at_the_shear_steps(monkeypatch, canonical_trace):
    audit = reduction.Shear.audit

    def flipped(self):
        act = audit(self)

        def flipped_act(value, point):
            # the diagonal correction -i g / x turned into +i g / x
            value, point = act(value, point)
            for i in range(len(value)):
                value[i][i] = value[i][i] + 2 * i * self.g * point.power(-1)
            return value, point

        return flipped_act

    monkeypatch.setattr(reduction.Shear, "audit", flipped)
    errors = _per_step_errors(canonical_trace)
    failing = [step.stage for step, error in zip(canonical_trace.steps, errors) if error > 1e-9]
    assert failing == ["quarter_shear", "unit_shear"]
    assert reduction._numeric_composition(canonical_trace) > 1e-9
