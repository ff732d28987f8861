"""Tests for the staged reduction chain and its consistency checks."""

from __future__ import annotations

import copy
import functools
from fractions import Fraction

import pytest

from conftest import mat_from_rows
from sasano_galois.algnum import AlgNum, TowerError, TowerSpec, canonical_constants, wasow_constants
from sasano_galois import algnum, reduction
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
    fixtures = load_fixtures()
    t3p = fixture_constant_matrix(fixtures["gauges"]["t3"], c)
    mine = canonical_trace.steps[5].move.t
    ratios = [t3p[0][j] / mine[0][j] for j in range(4)]
    for i in range(4):
        for j in range(4):
            assert t3p[i][j] == mine[i][j] * ratios[j]
    assert ratios[0] == ratios[1]
    assert ratios[2] == ratios[3]
    # and it diagonalizes the leading matrix on the nose
    t3p_inv = fixture_constant_matrix(fixtures["gauges"]["t3_inv"], c)
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
    # the three 4x4 gauge pairs once (96), and at each of the 5 sample points
    # the root of alpha, the substitution scale and the 20 coefficients of
    # the first and the final system (5 * 22): 206, where embedding the
    # gauges at every point took 590 and found the same worst error; the
    # error is a proven bound, the ball's radius included
    calls = []
    embed = AlgNum.embed

    def counting(a, precision=20):
        calls.append(precision)
        return embed(a, precision)

    monkeypatch.setattr(AlgNum, "embed", counting)
    report = verify_trace_consistency(canonical_trace)
    assert report.checks[-1] == ("numeric", "5 sample points, worst relative error 1.093e-40")
    assert len(calls) == 206


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
    assert reduction._numeric_composition(tampered, 30) > 1e-9


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

SINGLETONS = (
    (algnum, "canonical_tower"),
    (algnum, "canonical_constants"),
    (reduction, "canonical_constants"),
    (algnum, "wasow_tower"),
    (algnum, "wasow_constants"),
    (reduction, "wasow_constants"),
)


@pytest.fixture
def cold(monkeypatch):
    """Fresh caches stand in for the cached towers and constants, so the
    tower tables and the fixture entries start empty, as in a new process;
    monkeypatch restores the originals."""
    for module, name in SINGLETONS:
        monkeypatch.setattr(module, name, functools.cache(getattr(module, name).__wrapped__))


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
    record("embedding", TowerSpec, "embed_value", lambda tower, coords, dps: (tuple(sorted(coords.items())), dps))
    record("root", algnum, "_search_sqrt", lambda a: a.value)
    record("entry", reduction, "parse_puiseux", lambda text, tower, var, symbols: (text, var))
    build_proof(wasow=wasow)
    seen["inverse"] = [a for a in seen["inverse"] if len(a[0]) > 1]  # monomials have their own table
    for kind, keys in seen.items():
        assert keys and len(keys) == len(set(keys)), kind


def test_fixture_entry_is_parsed_once_per_text_constants_and_variable():
    c, w = canonical_constants(), wasow_constants()
    text = "2*i/rm"
    p = reduction._fixture_entry(text, c, "t")
    assert reduction._fixture_entry(text, c, "t") is p
    assert p == parse_puiseux(text, c.tower, "t", chain_symbols(c))
    assert reduction._fixture_entry(text, c, "tau") is not p
    assert reduction._fixture_entry(text, w, "t").tower is w.tower


def test_corrupt_fixture_entry_raises_on_every_call():
    c = canonical_constants()
    stage = {"name": "s", "var": "t", "prefactor": "0", "rows": [["foo + 1"]]}
    for _ in range(3):
        with pytest.raises(ReductionError, match="fixture stage s: "):
            reduction.fixture_system(stage, c)
        with pytest.raises(ReductionError, match="fixture constant 'foo \\+ 1': "):
            reduction.fixture_constant_matrix([["foo + 1"]], c)


@pytest.mark.parametrize("entry", [["1"], {"1": 1}, 7, None], ids=["list", "dict", "int", "none"])
def test_fixture_entry_that_is_no_text_is_a_reduction_error(monkeypatch, entry):
    fixtures = copy.deepcopy(load_fixtures())
    fixtures["gauges"]["t1"][0][0] = entry
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    cfg = canonical_config()
    with pytest.raises(ReductionError, match="fixture gauge t1: expected expression text"):
        run_canonical_chain(seed_variational_system(cfg.constants.tower), cfg)
