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
:class:`ConstantGauge`, :class:`Shear` and :class:`Substitution`.  Each
class is the one owner of its kind: its exact action, its inverse (a move
of the same kind), its report text, and its action on a ball matrix at an
:class:`AuditPoint`, which alone reads x^e off the branch root in the
numeric audit.  Every produced matrix is compared entry-exactly with the
frozen references in data/fixtures.json, whose layout ``_fixture`` alone
reads; the run aborts on the first mismatch, naming the stage and entry, or
on a table that is missing or does not read, naming the table.  The trace
keeps each move with the systems before and after it, so the inverse moves
replay it exactly.

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
from typing import Any, Callable, NamedTuple

from .algnum import AUDIT_DPS, AlgNum, ChainConstants, TowerError, canonical_constants, wasow_constants
from .diffsys import (
    AlgMatrix,
    DiffSystem,
    block_split,
    char_poly,
    diagonal_matrix,
    eigen_decompose_distinct,
    gauge_constant,
    identity_matrix,
    leading_data,
    mat_mul,
)
from .exprparse import chain_symbols, parse_puiseux
from .puiseux import PuiseuxPoly
from .ratfunc import VerificationError


class ReductionError(VerificationError):
    """Raised when a stage disagrees with its reference or a check fails."""


# -- frozen reference data -----------------------------------------------------


@functools.cache
def load_fixtures() -> dict:
    """The frozen reference matrices, parsed from the packaged JSON file."""
    return json.loads(resources.files("sasano_galois").joinpath("data/fixtures.json").read_text())


def _fixture(what: str, read: Callable[[dict], Any]) -> Any:
    """``read(load_fixtures())``, the one reader of the file's layout: a table that
    is missing, misshapen or does not parse ends in a ReductionError naming ``what``."""
    try:
        return read(load_fixtures())
    except (LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ReductionError(f"fixture {what}: {f'missing {exc}' if isinstance(exc, KeyError) else exc}") from exc


def _matrix(rows, constants: ChainConstants, var: str, value: Callable[[PuiseuxPoly], Any]) -> tuple[tuple, ...]:
    """``value`` of each parsed entry of ``rows``, a nonempty square list of lists of expression text."""
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
        raise ValueError("not a square matrix")
    for text in (text for row in rows for text in row if not isinstance(text, str)):
        raise ValueError(f"expected expression text, got {text!r}")
    return tuple(tuple(value(_fixture_entry(t, constants, var)) for t in row) for row in rows)


@functools.cache
def _fixture_entry(text: str, constants: ChainConstants, var: str) -> PuiseuxPoly:
    """One fixture entry, parsed once per (text, constants, var)."""
    return parse_puiseux(text, constants.tower, var, chain_symbols(constants))


def fixture_system(name: str, constants: ChainConstants) -> DiffSystem:
    """The stage ``name`` in canonical form, M = var^prefactor * printed matrix."""

    def read(fixtures: dict) -> DiffSystem:
        stage = {s["name"]: s for s in fixtures["stages"]}[name]
        pref = PuiseuxPoly.monomial(constants.tower, 1, Fraction(stage["prefactor"]))
        return DiffSystem(stage["var"], _matrix(stage["rows"], constants, stage["var"], lambda p: p * pref))

    return _fixture(f"stage {name}", read)


def fixture_constant_matrix(key: str, constants: ChainConstants) -> AlgMatrix:
    """The gauge ``key``, or the table ``leading_unit_shear``, as constants of the tower."""
    unit_shear = key == "leading_unit_shear"
    return _fixture(
        key if unit_shear else f"gauge {key}",
        lambda f: _matrix(f[key] if unit_shear else f["gauges"][key], constants, "t", PuiseuxPoly.constant_value),
    )


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
    basis = "conjugation by a constant matrix with verified exact inverse"
    t: AlgMatrix
    t_inv: AlgMatrix

    def apply(self, system: DiffSystem) -> DiffSystem:
        return gauge_constant(system, self.t, self.t_inv)

    def inverse(self, var: str) -> ConstantGauge:
        return ConstantGauge(self.t_inv, self.t)

    def audit(self) -> Callable[[list, AuditPoint], tuple]:
        """The conjugation of a ball matrix, the pair embedded once for every point."""
        t, t_inv = ([[e.embed(AUDIT_DPS) for e in row] for row in m] for m in self)
        return lambda value, point: (mat_mul(t_inv, mat_mul(value, t)), point)

    def report_values(self, step: GaugeStep, payload: Callable) -> tuple:
        return ()


class Shear(NamedTuple):
    """The diagonal power gauge diag(1, x^g, x^(2g), ...); undone by -g."""

    kind = "shear"
    basis = "diagonal power gauge, exponents in arithmetic progression"
    g: Fraction

    def apply(self, system: DiffSystem) -> DiffSystem:
        """Conjugation shifts entry (i, j) by (j - i) g; the derivative of the
        gauge contributes -diag(0, g, 2g, ...) / x on the diagonal."""
        rows = [[e.shift((j - i) * self.g) for j, e in enumerate(row)] for i, row in enumerate(system.matrix)]
        for i in range(1, system.dim):
            rows[i][i] = rows[i][i] - PuiseuxPoly.monomial(system.tower, i * self.g, Fraction(-1))
        return DiffSystem(system.var, tuple(map(tuple, rows)))

    def inverse(self, var: str) -> Shear:
        return Shear(-self.g)

    def audit(self) -> Callable[[list, AuditPoint], tuple]:
        """``apply`` at the point: entry (i, j) times x^((j - i) g), less i g / x on the diagonal."""
        kg = functools.cache(lambda k: k * self.g)  # each k g formed once per move

        def act(value: list, point: AuditPoint) -> tuple[list, AuditPoint]:
            value = [[x * point.power(kg(j - i)) for j, x in enumerate(row)] for i, row in enumerate(value)]
            for i in range(1, len(value)):
                value[i][i] = value[i][i] - point.power(-1) * kg(i)
            return value, point

        return act

    def report_values(self, step: GaugeStep, payload: Callable) -> tuple:
        return ()


class Substitution(NamedTuple):
    """x = root^index * u^power with u named ``var``; undone by
    u = root^(-index/power) * x^(1/power), exact when index/power is an integer."""

    kind = "variable"
    basis = "exact change of the independent variable"
    var: str
    root: AlgNum
    index: int
    power: Fraction

    def apply(self, system: DiffSystem) -> DiffSystem:
        """dX/du = phi'(u) M(phi(u)) X for phi(u) = root^index * u^power: each entry
        is substituted and multiplied by phi'(u) = root^index * power * u^(power - 1)."""
        r, m, q = self.root, self.index, self.power
        dphi = PuiseuxPoly.monomial(system.tower, r**m * q, q - 1)
        rows = tuple(tuple(e.substitute_power(r, m, q) * dphi for e in row) for row in system.matrix)
        return DiffSystem(self.var, rows)

    def inverse(self, var: str) -> Substitution:
        ratio = self.index / self.power
        if ratio.denominator != 1:
            raise ReductionError(
                f"substitution to {self.var} cannot be inverted exactly: index/power = {ratio}"
            )
        return Substitution(var, self.root.inverse(), int(ratio), 1 / self.power)

    def audit(self) -> Callable[[list, AuditPoint], tuple]:
        """Times phi'(tau0), the scale embedded once; the new variable stands at tau0."""
        scale = self.root.embed(AUDIT_DPS) ** self.index * self.power

        def act(value: list, point: AuditPoint) -> tuple[list, AuditPoint]:
            point = AuditPoint(point.tau0, 1, point.tau0)
            dphi = scale * point.power(self.power - 1)
            return [[e * dphi for e in row] for row in value], point

        return act

    def report_values(self, step: GaugeStep, payload: Callable) -> tuple:
        """The variables, the power and the scale root^index, rendered by ``payload``."""
        return (
            ("old variable", step.before.var),
            ("new variable", step.after.var),
            ("power", str(self.power)),
            ("scale", payload(self.root**self.index)),
        )


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


def _fixture_gauge(stage: str, key: str, c: ChainConstants) -> tuple[AlgMatrix, AlgMatrix]:
    return _check_inverse(stage, fixture_constant_matrix(key, c), fixture_constant_matrix(f"{key}_inv", c))


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
    matched: list[str] = []
    steps: list[GaugeStep] = []

    def check(name: str, system: DiffSystem) -> None:
        _compare_stage(name, system, fixture_system(name, c))
        matched.append(name)

    def advance(stage: str, move: Move) -> DiffSystem:
        before = steps[-1].after if steps else nve
        after = move.apply(before)
        check(stage, after)
        steps.append(GaugeStep(stage, move, before, after))
        return after

    check("variational", nve)
    advance("leading_nilpotent", ConstantGauge(*_fixture_gauge("leading_nilpotent", "t1", c)))
    advance("quarter_shear", Shear(Fraction(-1, 4)))
    advance("ramified_time", Substitution("tau", c.alpha_quarter_root, 4, Fraction(4)))
    advance("jordan_gauge", ConstantGauge(*_fixture_gauge("jordan_gauge", "t2", c)))
    sys6 = advance("unit_shear", Shear(Fraction(-1)))

    r, lead = leading_data(sys6)
    if r != 5:
        raise ReductionError(f"stage unit_shear: leading exponent is {r}, expected 5")
    t3 = _check_inverse("decoupled", *eigen_decompose_distinct(lead, c.eigenvalues))
    sys7 = advance("decoupled", ConstantGauge(*t3))
    blocks = tuple(block_split(sys7, (2, 2)))

    if config.compare_decoupling_gauge:
        if lead != fixture_constant_matrix("leading_unit_shear", c):
            raise ReductionError("stage unit_shear: leading matrix differs from reference")
        _check_printed_gauge(t3[1], c)

    return ReductionTrace(
        config=config,
        steps=tuple(steps),
        final=sys7,
        blocks=blocks,
        leading_exponent=r,
        eigenvalues=c.eigenvalues,
        matched_stages=tuple(matched),
    )


def _check_printed_gauge(t3_inv: AlgMatrix, c: ChainConstants) -> None:
    """The printed eigenvector gauge T3' must rescale ours blockwise.

    D = T3^-1 T3' must be diag(c1, c1, c2, c2); c1 and c2 are nonzero
    because both pairs are checked inverses.  Such a D commutes with
    diag(eigenvalues) and with the 2+2 block-diagonal decoupled stage, so
    the printed pair diagonalizes the leading matrix and reproduces the
    same decoupled stage, without conjugating either again.
    """
    t3p, _ = _fixture_gauge("decoupled (printed gauge)", "t3", c)
    d = mat_mul(t3_inv, t3p)
    if d != diagonal_matrix(c.tower, (d[0][0], d[0][0], d[2][2], d[2][2])):
        raise ReductionError(
            "stage decoupled (printed gauge): not a per-block rescaling of the computed eigenvector gauge"
        )


# -- consistency verification -------------------------------------------------------


AUDIT_POINTS = ((2, 0), (3, 0), (1, 1), (Fraction(5, 2), 0), (4, 0))  # the audit's tau0, as (re, im)


class AuditPoint:
    """The audit's point x = root^index, the ball ``root`` fixing every branch
    and ``tau0`` the final variable's value: x^e is root^(e * index), raised once."""

    __slots__ = ("root", "index", "tau0", "_powers")

    def __init__(self, root, index: int, tau0):
        self.root, self.index, self.tau0, self._powers = root, index, tau0, {}

    def power(self, e: int | Fraction):
        """x^e, kept by e; a negative power is the inverse of the positive one."""
        if e not in self._powers:
            k = e * self.index
            if k.denominator != 1:
                raise ReductionError(f"x^({e}) is no integral power of the branch root of index {self.index}")
            self._powers[e] = self.root**int(k) if k >= 0 else self.power(-e).inverse()
        return self._powers[e]

    def system(self, s: DiffSystem) -> list:
        """The matrix at the point on the root's grid, coefficients embedded at ``AUDIT_DPS``."""
        zero = self.root * 0
        return [
            [sum((c.embed(AUDIT_DPS) * self.power(e) for e, c in p.terms), zero) for p in row] for row in s.matrix
        ]


class ConsistencyReport(NamedTuple):
    checks: tuple[tuple[str, str], ...]  # (name, detail)
    polynomial: PuiseuxPoly  # of the final leading matrix, each eigenvalue checked a root

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.checks)


def verify_trace_consistency(trace: ReductionTrace) -> ConsistencyReport:
    """Replay the trace backwards exactly and cross-check it numerically.

    Three independent checks, each raising :class:`ReductionError` on
    failure:

    * structural: the final system splits into 2x2 blocks and its leading matrix
      is diag(eigenvalues), each a root of its characteristic polynomial;
    * exact inverse walk: undoing every step recovers the stage before it,
      down to the original variational system;
    * numeric: at each of the ``AUDIT_POINTS`` the moves, in ball arithmetic
      at ``AUDIT_DPS`` digits, carry the first stage to the exact final matrix
      within a relative error proven below 1e-9 (see :class:`AuditPoint`).
    """
    checks: list[tuple[str, str]] = []

    try:
        block_split(trace.final, (2, 2))
    except TowerError as exc:
        raise ReductionError(f"final stage is not block-diagonal: {exc}") from exc
    r, lead = leading_data(trace.final)
    if lead != diagonal_matrix(trace.final.tower, trace.eigenvalues):
        raise ReductionError("final stage leading matrix is not the configured diagonal")
    polynomial = char_poly(lead)
    for lam in (lam for lam in trace.eigenvalues if not polynomial(lam).is_zero()):
        raise ReductionError(f"eigenvalue {lam} is not a root of the characteristic polynomial")
    checks.append(("structure", f"2+2 block split, diagonal leading matrix at exponent {r}"))

    _inverse_walk(trace)
    checks.append(("inverse-walk", f"{len(trace.steps)} steps undone exactly"))

    worst = _numeric_composition(trace)
    if worst > 1e-9:
        raise ReductionError(f"numeric cross-check error {worst} exceeds 1e-9")
    checks.append(("numeric", f"{len(AUDIT_POINTS)} sample points, worst relative error {worst:.3e}"))
    return ConsistencyReport(tuple(checks), polynomial)


def _inverse_walk(trace: ReductionTrace) -> None:
    current = trace.final
    for step in reversed(trace.steps):
        _compare_stage(f"{step.stage} (forward record)", current, step.after)
        undone = step.move.inverse(step.before.var).apply(current)
        _compare_stage(f"{step.stage} (undone)", undone, step.before)
        current = step.before


def _numeric_composition(trace: ReductionTrace) -> float:
    """The worst audit error over the ``AUDIT_POINTS`` tau0: the moves carry the first system
    along an :class:`AuditPoint` from t = root^4, root = root(alpha) * tau0 fixing every branch."""
    from .ball import Ball

    actions = [step.move.audit() for step in trace.steps]
    root_alpha = trace.config.constants.alpha_quarter_root.embed(AUDIT_DPS)
    worst = 0.0
    for re, im in AUDIT_POINTS:
        tau0 = Ball.rational(re, root_alpha.prec, im)
        point = AuditPoint(root_alpha * tau0, 4, tau0)
        value = point.system(trace.steps[0].before)
        for act in actions:
            value, point = act(value, point)
        worst = max(worst, _audit_error(value, point.system(trace.final)))
    return worst


def _audit_error(value: list, expected: list) -> float:
    """The largest |value - expected| / (1 + |expected|) over the entries, from
    above: mag(d) over 1 + mig(e) for d = value - expected, rounded up."""
    pairs = zip(itertools.chain(*value), itertools.chain(*expected))
    errors = (math.nextafter(d.mag() / ((1 << d.prec) + e.mig()), math.inf) for x, e in pairs if (d := x - e))
    return max(errors, default=0.0)
