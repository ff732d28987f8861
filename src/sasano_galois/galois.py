"""Differential Galois classification of the decoupled 2x2 blocks.

Each block of the reduced system is turned into a second-order scalar
equation, pulled back through eta = tau^6 so the origin becomes a regular
singular point, and certified apparent there by an explicit Frobenius
series.  At infinity the equation is brought to Whittaker normal form

    w'' = (1/4 - kappa/zeta + (mu^2 - 1/4)/zeta^2) w

by an exact variable scaling; the Martinet-Ramis criterion then decides
from (kappa, mu) whether either Stokes matrix is trivial.  When both are
nontrivial the local differential Galois group of the block is all of
SL(2, C), and with the apparent-point certificate in hand the
Morales-Ramis obstruction applies: the identity component of the Galois
group of the variational equations is not abelian, so no additional
meromorphic first integral exists.

Everything here is exact tower arithmetic; numbers never leave the field
until a report asks for decimal approximations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algnum import AlgNum, TowerError, rational_recognize, sqrt_in_tower
from .diffsys import DiffSystem
from .puiseux import PuiseuxPoly
from .ratfunc import VerificationError
from .reduction import Substitution

# The cover eta = tau^COVER that turns the origin into an apparent singularity.
COVER = 6


class GaloisError(VerificationError):
    """Raised when a block falls outside the supported normal forms."""


# -- scalar reduction ----------------------------------------------------------


class ScalarODE2(NamedTuple):
    """u'' + c1 u' + c0 u = 0 with Laurent-Puiseux coefficients."""

    var: str
    c1: PuiseuxPoly
    c0: PuiseuxPoly


def system_to_scalar(system: DiffSystem) -> ScalarODE2:
    """Eliminate the second component of a 2x2 first-order system.

    For u' = n00 u + n01 v, v' = n10 u + n11 v with n01 a nonzero
    monomial, v = (u' - n00 u)/n01 closes a second-order equation in u
    whose coefficients stay Laurent-Puiseux polynomials.
    """
    if system.dim != 2:
        raise GaloisError("scalar reduction expects a 2x2 block")
    n00, n01 = system.entry(0, 0), system.entry(0, 1)
    n10, n11 = system.entry(1, 0), system.entry(1, 1)
    if n01.is_zero():
        raise GaloisError("upper-right entry vanishes; cannot eliminate")
    try:
        ratio = n01.derivative() * n01.inverse()
    except TowerError as exc:
        raise GaloisError(f"division only by single-term coefficients stays exact: {exc}") from exc
    p = n00 + n11 + ratio
    q = n00.derivative() + n01 * n10 - n00 * n11 - n00 * ratio
    return ScalarODE2(system.var, -p, -q)


def eta_pullback(system: DiffSystem) -> DiffSystem:
    """Substitute tau = eta^(1/COVER); exact since exponents are multiples."""
    return Substitution("eta", AlgNum.from_rational(system.tower, 1), 1, Fraction(1, COVER)).apply(system)


# -- the regular singular point ------------------------------------------------


def indicial_exponents(ode: ScalarODE2) -> tuple[AlgNum, AlgNum]:
    """Roots of rho(rho-1) + a0 rho + b0 = 0 at a regular singular origin.

    a0 and b0 are the residues lim eta*c1 and lim eta^2*c0; the equation
    must be at most regular singular there (Fuchs condition), otherwise
    this raises.  Roots come back (plus branch, minus branch) and satisfy
    rho1 + rho2 = 1 - a0 exactly.
    """
    tower = ode.c0.tower
    if not ode.c1.is_zero() and ode.c1.valuation() < -1:
        raise GaloisError("first-order coefficient has a pole of order > 1")
    if not ode.c0.is_zero() and ode.c0.valuation() < -2:
        raise GaloisError("zeroth-order coefficient has a pole of order > 2")
    a0 = ode.c1.coeff_at(Fraction(-1))
    b0 = ode.c0.coeff_at(Fraction(-2))
    one = AlgNum.from_rational(tower, 1)
    disc = (one - a0) ** 2 - b0 * 4
    root = sqrt_in_tower(disc)
    rho1 = (one - a0 + root) / 2
    rho2 = (one - a0 - root) / 2
    return rho1, rho2


class ApparentCertificate(NamedTuple):
    """Witness that a regular singular point lifts to an apparent one.

    ``exponents`` are the indicial roots in the base variable;
    ``lifted_exponents`` are their integer multiples in the covering
    variable (ramification ``pullback``); ``series`` holds, per root, the
    first Frobenius coefficients, whose denominators I(rho+m) were checked
    nonzero term by term.
    """

    exponents: tuple[AlgNum, AlgNum]
    pullback: int
    lifted_exponents: tuple[int, int]
    order: int
    series: tuple[tuple[AlgNum, ...], tuple[AlgNum, ...]]


def _bracket(ode: ScalarODE2) -> tuple[AlgNum, AlgNum, AlgNum]:
    """Coefficients (A, B, C) of u'' = (A + B/x + C/x^2) u."""
    if not ode.c1.is_zero():
        raise GaloisError("expected no first-order term")
    allowed = {Fraction(0), Fraction(-1), Fraction(-2)}
    if not set(ode.c0.exponents()) <= allowed:
        raise GaloisError("coefficient is not of the form A + B/x + C/x^2")
    a = -ode.c0.coeff_at(Fraction(0))
    b = -ode.c0.coeff_at(Fraction(-1))
    c = -ode.c0.coeff_at(Fraction(-2))
    return a, b, c


def certify_apparent(ode: ScalarODE2, pullback: int = COVER, order: int = 10) -> ApparentCertificate:
    """Prove the origin apparent after the pullback x = y^pullback.

    Three facts are established exactly:

    * the indicial roots do not differ by an integer, so both Frobenius
      series exist with no logarithm;
    * each root times ``pullback`` is an integer, so the lifted local
      solutions are single-valued with integer leading exponents;
    * the recursion denominators I(rho+m) for m = 1..order are nonzero,
      and the series coefficients are computed as a witness.
    """
    a, b, c = _bracket(ode)
    rho1, rho2 = indicial_exponents(ode)
    tower = ode.c0.tower
    diff = rational_recognize(rho1 - rho2)
    if diff is not None and diff.denominator == 1:
        raise GaloisError(f"indicial roots differ by the integer {diff}")
    lifted = []
    for rho in (rho1, rho2):
        scaled = rational_recognize(rho * pullback)
        if scaled is None or scaled.denominator != 1:
            raise GaloisError(
                f"exponent times {pullback} is not an integer; the pullback does not uniformize"
            )
        lifted.append(int(scaled))
    series = []
    zero = AlgNum.from_rational(tower, 0)
    one = AlgNum.from_rational(tower, 1)
    for rho in (rho1, rho2):
        f = [one]
        for m in range(1, order + 1):
            denom = (rho * 2 + (m - 1)) * m  # I(rho + m) = m (2 rho - 1 + m)
            if denom.is_zero():
                raise GaloisError(f"resonant recursion at order {m}")
            prev2 = f[m - 2] if m >= 2 else zero
            f.append((b * f[m - 1] + a * prev2) / denom)
        series.append(tuple(f))
    return ApparentCertificate(
        exponents=(rho1, rho2),
        pullback=pullback,
        lifted_exponents=tuple(lifted),
        order=order,
        series=tuple(series),
    )


# -- the irregular point -------------------------------------------------------


class WhittakerData(NamedTuple):
    """Exact normal form data: x = scale * zeta turns the input into

    w'' = (1/4 - kappa/zeta + (mu^2 - 1/4)/zeta^2) w.
    """

    kappa: AlgNum
    mu: AlgNum
    scale: AlgNum
    bracket: tuple[AlgNum, AlgNum, AlgNum]
    normal_bracket: tuple[AlgNum, AlgNum, AlgNum]


def rescale_variable(ode: ScalarODE2, scale: AlgNum, new_var: str) -> ScalarODE2:
    """Substitute x = scale * y exactly: c1 -> scale*c1(scale y), c0 -> scale^2*c0(scale y)."""
    c1 = ode.c1.substitute_power(scale, 1, Fraction(1)).scale(scale)
    c0 = ode.c0.substitute_power(scale, 1, Fraction(1)).scale(scale * scale)
    return ScalarODE2(new_var, c1, c0)


def normalize_whittaker(ode: ScalarODE2) -> WhittakerData:
    """Scale u'' = (A + B/x + C/x^2) u into Whittaker form, exactly.

    The scale is s = 1/(2 sqrt(A)) with the principal square root taken
    inside the tower; then kappa = -B s and mu = sqrt(4C + 1)/2.  Raises
    when A = 0 (no irregular part), when ``sqrt_in_tower`` finds no
    needed square root in the tower, or when (2 mu)^2 != 4C + 1.
    """
    a, b, c = _bracket(ode)
    tower = ode.c0.tower
    if a.is_zero():
        raise GaloisError("leading coefficient vanishes; not an irregular point of this type")
    try:
        root_a = sqrt_in_tower(a)
    except TowerError as exc:
        raise GaloisError(f"no sqrt of the leading coefficient found in the tower: {exc}") from exc
    scale = (root_a * 2).inverse()
    kappa = -(b * scale)
    four_c = c * 4 + 1
    try:
        mu = sqrt_in_tower(four_c) / 2
    except TowerError as exc:
        raise GaloisError(f"no sqrt for the index found in the tower: {exc}") from exc
    if (mu * 2) ** 2 != four_c:
        raise GaloisError(f"the index mu = {mu} does not satisfy (2 mu)^2 = 4C + 1 = {four_c}")
    quarter = AlgNum.from_rational(tower, Fraction(1, 4))
    normal = (quarter, -kappa, c)
    rescaled = rescale_variable(ode, scale, "zeta")
    check = _bracket(rescaled)
    if check != normal:
        raise GaloisError("scaling self-check failed to land on the normal form")
    undone = rescale_variable(rescaled, scale.inverse(), ode.var)
    if undone.c1 != ode.c1 or undone.c0 != ode.c0:
        raise GaloisError("inverse scaling failed to recover the input equation")
    return WhittakerData(kappa=kappa, mu=mu, scale=scale, bracket=(a, b, c), normal_bracket=normal)


# -- Stokes data and the verdict -------------------------------------------------


class StokesFlags(NamedTuple):
    """Triviality of the two Stokes matrices by the Martinet-Ramis test."""

    mu1_trivial: bool
    mu2_trivial: bool

    def both_nontrivial(self) -> bool:
        return not (self.mu1_trivial or self.mu2_trivial)


def _in_half_plus_naturals(x: AlgNum, include_zero: bool) -> bool:
    r = rational_recognize(x)
    if r is None:
        return False
    shifted = r - Fraction(1, 2)
    if shifted.denominator != 1:
        return False
    return shifted >= 0 if include_zero else shifted > 0


def stokes_triviality(kappa: AlgNum, mu: AlgNum, include_zero: bool = True) -> StokesFlags:
    """Martinet-Ramis: which Stokes multipliers vanish for given (kappa, mu).

    The first multiplier vanishes iff kappa - mu or kappa + mu lies in
    1/2 + N, the second iff -kappa - mu or -kappa + mu does.  The flag
    ``include_zero`` picks the convention for whether N contains 0; the
    final classification must not depend on it.
    """
    mu1 = _in_half_plus_naturals(kappa - mu, include_zero) or _in_half_plus_naturals(
        kappa + mu, include_zero
    )
    mu2 = _in_half_plus_naturals(-kappa - mu, include_zero) or _in_half_plus_naturals(
        -kappa + mu, include_zero
    )
    return StokesFlags(mu1_trivial=mu1, mu2_trivial=mu2)


class BlockClassification(NamedTuple):
    label: str
    whittaker: WhittakerData
    stokes: StokesFlags
    group: str  # "SL2" | "undetermined"


def component_from_stokes(flags: StokesFlags) -> str:
    """Identity component implied by the Stokes flags.

    Two nontrivial Stokes matrices generate all of SL2 together with the
    exponential torus; if either is trivial this test alone decides
    nothing, so the component is reported as undetermined rather than
    guessed.
    """
    return "SL2" if flags.both_nontrivial() else "undetermined"


def _classify_scalar(ode: ScalarODE2, label: str, exponents: tuple[AlgNum, AlgNum]) -> BlockClassification:
    """Normalize and classify the scalar equation of one pulled-back block.

    The group is reported as SL2 exactly when both Stokes matrices are
    nontrivial (the exponential torus already forces the diagonal, and a
    nontrivial unipotent in both triangles generates everything).  The
    two natural-number conventions must agree, otherwise the input sits
    on a boundary this test cannot decide and an error is raised.  The
    indicial ``exponents`` at the apparent point belong to the same
    equation, so an error is raised too unless (rho1 - rho2)^2 = (2 mu)^2.
    """
    wh = normalize_whittaker(ode)
    rho1, rho2 = exponents
    if (rho1 - rho2) ** 2 != (wh.mu * 2) ** 2:
        raise GaloisError(f"{label}: indicial exponents {rho1}, {rho2} do not differ by +-2 mu = +-{wh.mu * 2}")
    flags_a = stokes_triviality(wh.kappa, wh.mu, include_zero=True)
    flags_b = stokes_triviality(wh.kappa, wh.mu, include_zero=False)
    if flags_a.both_nontrivial() != flags_b.both_nontrivial():
        raise GaloisError("Stokes test sits on a convention boundary; cannot classify")
    return BlockClassification(label, wh, flags_a, component_from_stokes(flags_a))


class GaloisOutcome(NamedTuple):
    blocks: tuple[BlockClassification, ...]
    apparent: tuple[ApparentCertificate, ...]
    lifted_diagonal: tuple[int, ...]
    verdict: str  # "NotIntegrable" | "Inconclusive"


def morales_ramis_verdict(
    blocks: tuple[BlockClassification, ...],
    apparent: tuple[ApparentCertificate, ...],
) -> str:
    """NotIntegrable only when every prerequisite is established.

    Both blocks must have full SL2 groups and both must carry an
    apparent-point certificate; anything less is reported Inconclusive
    rather than as a proof.
    """
    if len(blocks) == 2 and len(apparent) == 2 and all(b.group == "SL2" for b in blocks):
        return "NotIntegrable"
    return "Inconclusive"


def classify_blocks(blocks) -> GaloisOutcome:
    """Classify each decoupled block on the ``COVER``-fold cover (apparent through order 10)."""
    results = []
    certs = []
    diag: list[int] = []
    for idx, block in enumerate(blocks, start=1):
        ode = system_to_scalar(eta_pullback(block))
        cert = certify_apparent(ode)
        certs.append(cert)
        diag.extend(cert.lifted_exponents)
        results.append(_classify_scalar(ode, f"block {idx}", cert.exponents))
    outcome = morales_ramis_verdict(tuple(results), tuple(certs))
    return GaloisOutcome(
        blocks=tuple(results),
        apparent=tuple(certs),
        lifted_diagonal=tuple(diag),
        verdict=outcome,
    )
