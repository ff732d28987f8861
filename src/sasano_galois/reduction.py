"""Staged exact reduction of the variational system at its irregular point.

The pipeline applies six transformations to the fourth-order system:

1. a constant gauge bringing the leading matrix to nilpotent form,
2. a diagonal shear with step 1/4,
3. the ramified time substitution t = alpha * tau^4, with alpha = root^4,
4. a constant gauge regrouping the leading matrix into a Jordan-like block,
5. a diagonal shear with step 1,
6. an exact eigenvector gauge decoupling the system into two 2x2 blocks.

These are Wasow's constant gauges, shears and ramifications (Asymptotic
Expansions for Ordinary Differential Equations, 1965), recorded as
:class:`ConstantGauge`, :class:`Shear` and :class:`Substitution`; the
inverse of each move is a move of the same kind.  Every produced matrix is
compared entry-exactly with the frozen references in data/fixtures.json;
the run aborts on the first mismatch, naming the stage and entry.  The
trace keeps each move with the systems before and after it, so the inverse
moves replay the walk backwards exactly.

The same six-call script runs the default normalization (alpha^3 = 5/64,
the simplest final eigenvalues) and the Wasow-style normalization
alpha^(7/4) = 1/4 on another tower.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from .algnum import AlgNum, ChainConstants, TowerError, canonical_constants, wasow_constants
from .diffsys import (
    AlgMatrix,
    DiffSystem,
    block_split,
    change_variable_power,
    diagonal_matrix,
    eigen_decompose_distinct,
    gauge_constant,
    gauge_shear,
    identity_matrix,
    leading_data,
    mat_mul,
    system_numeric,
)
from .exprparse import ExprError, chain_symbols, parse_puiseux
from .puiseux import PuiseuxPoly
from .ratfunc import VerificationError


class ReductionError(VerificationError):
    """Raised when a stage disagrees with its reference or a check fails."""


# -- frozen reference data -----------------------------------------------------


@functools.cache
def load_fixtures() -> dict:
    """The frozen reference matrices, parsed from the packaged JSON file."""
    return json.loads(resources.files("sasano_galois").joinpath("data/fixtures.json").read_text())


def _fixture_table(tables: dict, key: str, what: str):
    """``tables[key]``, or a ReductionError naming the missing table."""
    if key not in tables:
        raise ReductionError(f"fixture {what} {key} is missing")
    return tables[key]


def _square(rows: list, what: str) -> list:
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ReductionError(f"fixture {what} is not a square matrix")
    for text in (text for row in rows for text in row if not isinstance(text, str)):
        raise ReductionError(f"fixture {what}: expected expression text, got {text!r}")
    return rows


@functools.cache
def _fixture_entry(text: str, constants: ChainConstants, var: str) -> PuiseuxPoly:
    """One fixture entry, parsed once per (text, constants, var)."""
    return parse_puiseux(text, constants.tower, var, chain_symbols(constants))


def fixture_system(stage: dict, constants: ChainConstants) -> DiffSystem:
    """Build the canonical-form system M = var^prefactor * printed matrix."""
    name, var = stage["name"], stage["var"]
    try:
        pref = PuiseuxPoly.monomial(constants.tower, 1, Fraction(stage["prefactor"]))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ReductionError(f"fixture stage {name}: prefactor {stage['prefactor']!r}: {exc}") from exc
    try:
        rows = tuple(
            tuple(_fixture_entry(text, constants, var) * pref for text in row)
            for row in _square(stage["rows"], f"stage {name}")
        )
    except ExprError as exc:
        raise ReductionError(f"fixture stage {name}: {exc}") from exc
    return DiffSystem(var, rows)


def fixture_constant_matrix(rows: list[list[str]], constants: ChainConstants) -> AlgMatrix:
    out = []
    for row in rows:
        parsed = []
        for text in row:
            try:
                parsed.append(_fixture_entry(text, constants, "t").constant_value())
            except (ExprError, TowerError) as exc:
                raise ReductionError(f"fixture constant {text!r}: {exc}") from exc
        out.append(tuple(parsed))
    return tuple(out)


# -- chain configuration ---------------------------------------------------------


class ChainConfig(NamedTuple):
    """One run of the reduction script: its constants and its checks.

    ``compare_decoupling_gauge`` switches on the comparisons that are
    specific to the default normalization, made once the decoupled stage
    has split into its 2x2 blocks: the printed integer leading matrix, and
    the printed eigenvector gauge as a per-block rescaling of the computed
    one.  The Wasow-style run checks the same structural facts but against
    its own exact eigenvalues.
    """

    constants: ChainConstants
    compare_decoupling_gauge: bool


def canonical_config() -> ChainConfig:
    return ChainConfig(canonical_constants(), True)


def wasow_config() -> ChainConfig:
    return ChainConfig(wasow_constants(), False)


# -- trace records ----------------------------------------------------------------


class ConstantGauge(NamedTuple):
    """X = T Y for constant T with checked inverse T^-1; undone by swapping the two."""

    kind = "constant"
    t: AlgMatrix
    t_inv: AlgMatrix

    def apply(self, system: DiffSystem) -> DiffSystem:
        return gauge_constant(system, self.t, self.t_inv)

    def inverse(self, var: str) -> ConstantGauge:
        return ConstantGauge(self.t_inv, self.t)


class Shear(NamedTuple):
    """The diagonal power gauge diag(1, x^g, x^(2g), ...); undone by -g."""

    kind = "shear"
    g: Fraction

    def apply(self, system: DiffSystem) -> DiffSystem:
        return gauge_shear(system, self.g)

    def inverse(self, var: str) -> Shear:
        return Shear(-self.g)


class Substitution(NamedTuple):
    """x = root^index * u^power with u named ``var``; undone by
    u = root^(-index/power) * x^(1/power), exact when index/power is an integer."""

    kind = "variable"
    var: str
    root: AlgNum
    index: int
    power: Fraction

    def apply(self, system: DiffSystem) -> DiffSystem:
        return change_variable_power(system, self.var, self.root, self.index, self.power)

    def inverse(self, var: str) -> Substitution:
        ratio = self.index / self.power
        if ratio.denominator != 1:
            raise ReductionError(
                f"substitution to {self.var} cannot be inverted exactly: index/power = {ratio}"
            )
        return Substitution(var, self.root.inverse(), int(ratio), 1 / self.power)


Move = ConstantGauge | Shear | Substitution


class GaugeStep(NamedTuple):
    """One recorded move: ``stage`` names the system it produces."""

    stage: str
    move: Move
    before: DiffSystem
    after: DiffSystem


class ReductionTrace(NamedTuple):
    config: ChainConfig
    steps: tuple[GaugeStep, ...]
    final: DiffSystem
    blocks: tuple[DiffSystem, ...]
    leading_exponent: Fraction
    eigenvalues: tuple[AlgNum, ...]
    matched_stages: tuple[str, ...]


# -- the script --------------------------------------------------------------------


def _compare_stage(name: str, got: DiffSystem, expected: DiffSystem) -> None:
    if got.var != expected.var:
        raise ReductionError(
            f"stage {name}: variable is {got.var!r}, reference uses {expected.var!r}"
        )
    for i in range(got.dim):
        for j in range(got.dim):
            if got.entry(i, j) != expected.entry(i, j):
                raise ReductionError(
                    f"stage {name}: entry ({i + 1},{j + 1}) is "
                    f"{got.entry(i, j).render(got.var)}, reference says "
                    f"{expected.entry(i, j).render(expected.var)}"
                )


def _check_inverse(stage: str, t: AlgMatrix, t_inv: AlgMatrix) -> tuple[AlgMatrix, AlgMatrix]:
    """(T, T^-1) once T^-1 T = I (so T T^-1 = I too), a failure naming the
    stage: each gauge pair is checked here once, as it enters the trace."""
    if mat_mul(t_inv, t) != identity_matrix(t[0][0].tower, len(t)):
        raise ReductionError(f"stage {stage}: supplied inverse does not invert the gauge matrix")
    return t, t_inv


def _fixture_gauge(stage: str, key: str, fixtures: dict, c: ChainConstants) -> tuple[AlgMatrix, AlgMatrix]:
    t, t_inv = (
        fixture_constant_matrix(_square(_fixture_table(fixtures["gauges"], k, "gauge"), f"gauge {k}"), c)
        for k in (key, f"{key}_inv")
    )
    return _check_inverse(stage, t, t_inv)


def run_canonical_chain(nve: DiffSystem, config: ChainConfig) -> ReductionTrace:
    """Run the six-step reduction script on the 4x4 variational system.

    Each produced stage is compared entry-exactly with the frozen
    reference matrix for that stage; any disagreement, or a fixture table
    that is missing or does not read, raises :class:`ReductionError`
    naming the stage and entry or the table.
    """
    c = config.constants
    if nve.tower is not c.tower:
        raise ReductionError("system tower does not match the configured constants")
    fixtures = load_fixtures()
    stage_refs = {s["name"]: s for s in fixtures["stages"]}
    matched: list[str] = []
    steps: list[GaugeStep] = []

    def check(name: str, system: DiffSystem) -> None:
        _compare_stage(name, system, fixture_system(_fixture_table(stage_refs, name, "stage"), c))
        matched.append(name)

    def advance(stage: str, move: Move) -> DiffSystem:
        before = steps[-1].after if steps else nve
        after = move.apply(before)
        check(stage, after)
        steps.append(GaugeStep(stage, move, before, after))
        return after

    check("variational", nve)
    advance("leading_nilpotent", ConstantGauge(*_fixture_gauge("leading_nilpotent", "t1", fixtures, c)))
    advance("quarter_shear", Shear(Fraction(-1, 4)))
    advance("ramified_time", Substitution("tau", c.alpha_quarter_root, 4, Fraction(4)))
    advance("jordan_gauge", ConstantGauge(*_fixture_gauge("jordan_gauge", "t2", fixtures, c)))
    sys6 = advance("unit_shear", Shear(Fraction(-1)))

    r, lead = leading_data(sys6)
    if r != 5:
        raise ReductionError(f"stage unit_shear: leading exponent is {r}, expected 5")
    t3 = _check_inverse("decoupled", *eigen_decompose_distinct(lead, c.eigenvalues))
    sys7 = advance("decoupled", ConstantGauge(*t3))
    blocks = tuple(block_split(sys7, (2, 2)))

    if config.compare_decoupling_gauge:
        if lead != fixture_constant_matrix(_square(fixtures["leading_unit_shear"], "leading_unit_shear"), c):
            raise ReductionError("stage unit_shear: leading matrix differs from reference")
        _check_printed_gauge(t3[1], fixtures, c)

    return ReductionTrace(
        config=config,
        steps=tuple(steps),
        final=sys7,
        blocks=blocks,
        leading_exponent=r,
        eigenvalues=c.eigenvalues,
        matched_stages=tuple(matched),
    )


def _check_printed_gauge(t3_inv: AlgMatrix, fixtures: dict, c: ChainConstants) -> None:
    """The printed eigenvector gauge T3' must rescale ours blockwise.

    D = T3^-1 T3' must be diag(c1, c1, c2, c2); c1 and c2 are nonzero
    because both pairs are checked inverses.  Such a D commutes with
    diag(eigenvalues) and with the 2+2 block-diagonal decoupled stage, so
    the printed pair diagonalizes the leading matrix and reproduces the
    same decoupled stage, without conjugating either again.
    """
    t3p, _ = _fixture_gauge("decoupled (printed gauge)", "t3", fixtures, c)
    d = mat_mul(t3_inv, t3p)
    if d != diagonal_matrix(c.tower, (d[0][0], d[0][0], d[2][2], d[2][2])):
        raise ReductionError(
            "stage decoupled (printed gauge): not a per-block rescaling of the computed eigenvector gauge"
        )


# -- consistency verification -------------------------------------------------------


class ConsistencyReport(NamedTuple):
    checks: tuple[tuple[str, str], ...]  # (name, detail)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.checks)


def _sample_points(precision: int):
    from .ball import Ball, bits

    points = ((2, 0), (3, 0), (1, 1), (Fraction(5, 2), 0), (4, 0))
    return tuple(Ball.rational(re, bits(precision + 15), im) for re, im in points)  # the embeddings' grid


def verify_trace_consistency(trace: ReductionTrace) -> ConsistencyReport:
    """Replay the trace backwards exactly and cross-check it numerically.

    Three independent checks, each raising :class:`ReductionError` on
    failure:

    * structural: the final system splits into 2x2 blocks and its leading
      matrix is diagonal with the configured distinct eigenvalues;
    * exact inverse walk: undoing every step recovers the stage before it,
      down to the original variational system;
    * numeric: at five sample points the composed transformation of the
      first stage, in ball arithmetic on the grid of the 30-digit
      embeddings, agrees entrywise with the exact final matrix to a
      relative error proven below 1e-9 (branches fixed by evaluating the
      quarter root of t as root(alpha) * tau).
    """
    checks: list[tuple[str, str]] = []

    try:
        block_split(trace.final, (2, 2))
    except TowerError as exc:
        raise ReductionError(f"final stage is not block-diagonal: {exc}") from exc
    r, lead = leading_data(trace.final)
    if lead != diagonal_matrix(trace.final.tower, trace.eigenvalues):
        raise ReductionError("final stage leading matrix is not the configured diagonal")
    checks.append(("structure", f"2+2 block split, diagonal leading matrix at exponent {r}"))

    _inverse_walk(trace)
    checks.append(("inverse-walk", f"{len(trace.steps)} steps undone exactly"))

    worst = _numeric_composition(trace, 30)
    if worst > 1e-9:
        raise ReductionError(f"numeric cross-check error {worst} exceeds 1e-9")
    checks.append(("numeric", f"5 sample points, worst relative error {worst:.3e}"))
    return ConsistencyReport(tuple(checks))


def _inverse_walk(trace: ReductionTrace) -> None:
    current = trace.final
    for step in reversed(trace.steps):
        _compare_stage(f"{step.stage} (forward record)", current, step.after)
        undone = step.move.inverse(step.before.var).apply(current)
        _compare_stage(f"{step.stage} (undone)", undone, step.before)
        current = step.before


def _numeric_composition(trace: ReductionTrace, precision: int) -> float:
    # The moves with each constant gauge embedded once for every point.
    moves = [
        ConstantGauge(*([[e.embed(precision) for e in row] for row in m] for m in (move.t, move.t_inv)))
        if isinstance(move, ConstantGauge)
        else move
        for move in (step.move for step in trace.steps)
    ]
    return max(_compose_at(trace, moves, tau0, precision) for tau0 in _sample_points(precision))


def _compose_at(trace: ReductionTrace, moves: list, tau0, precision: int) -> float:
    c = trace.config.constants
    root_alpha = c.alpha_quarter_root.embed(precision)
    t_quarter = root_alpha * tau0  # branch of t^(1/4) with t = alpha * tau^4
    value = system_numeric(trace.steps[0].before, t_quarter, 4, precision)
    point = t_quarter**4
    root, index = t_quarter, 4
    for move in moves:
        if isinstance(move, ConstantGauge):
            value = mat_mul(move.t_inv, mat_mul(value, move.t))
        elif isinstance(move, Shear):
            k = move.g * index  # entry (i, j) gains root^((j - i) k)
            if k.denominator != 1:
                raise ReductionError("shear exponent incompatible with branch root")
            n = len(value)
            powers = {d: root ** int(d * k) for d in range(1 - n, n)}
            value = [[value[i][j] * powers[j - i] for j in range(n)] for i in range(n)]
            for i in range(n):
                corr = i * move.g
                value[i][i] = value[i][i] - corr / point
        else:
            exp = move.power - 1
            if exp.denominator != 1:
                raise ReductionError("fractional substitution power in numeric walk")
            dphi = (move.root**move.index).embed(precision) * move.power * tau0 ** int(exp)
            value = [[e * dphi for e in row] for row in value]
            point, root, index = tau0, tau0, 1
    expected = system_numeric(trace.final, tau0, 1, precision)
    worst = 0.0
    for x, e in zip(itertools.chain(*value), itertools.chain(*expected)):
        if d := x - e:  # |d| / (1 + |e|) from above: mag(d) over 1 + mig(e), rounded up
            worst = max(worst, math.nextafter(d.mag() / ((1 << d.prec) + (e.mig() if e else 0)), math.inf))
    return worst

