"""A four-variable Hamiltonian system with two parameters and its
variational data along rational solutions.

The Hamiltonian is polynomial in the phase variables (x, y) and (z, w),
the time t, and the parameters a0, a1 (a2 enters through the affine
relation a0 + 2 a1 + 2 a2 = 1).  Adding the conjugate F of t makes the
extended system autonomous, with equations of motion

    x' =  dH/dy,   y' = -dH/dx,
    z' =  dH/dw,   w' = -dH/dz,
    t' =  dH/dF,   F' = -dH/dt.

Everything here is exact: polynomials carry Fraction coefficients and
solutions are rational functions of t.  A solution reaches H, the field
and its Jacobian one way only, as the values :func:`scale_solution` puts
over one common denominator, and the normal variational system comes out
with algebraic-number entries ready for the reduction chain.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping, Sequence

from .algnum import AlgNum, TowerError, TowerSpec
from .diffsys import DiffSystem
from .puiseux import PuiseuxPoly
from .ratfunc import Frozen, Poly, RatFunc, VerificationError, int_power
from .ratfunc import _add_into, _conv, _derivative, _reduced, _value_at  # the integer kernels

VARS = ("x", "y", "z", "w", "t", "F", "a0", "a1", "a2")
_INDEX = {name: k for k, name in enumerate(VARS)}
PHASE_VARS = ("x", "y", "z", "w", "t", "F")


class ModelError(VerificationError):
    """Raised when the Hamiltonian does not give the reference equations of motion."""


class PolyExpr(Frozen):
    """Sparse polynomial in the nine model symbols: sorted (exponent tuple, Fraction) terms."""

    __slots__ = ("terms",)

    @staticmethod
    def _from_dict(d: dict[tuple[int, ...], Fraction]) -> PolyExpr:
        items = tuple(sorted((e, c) for e, c in d.items() if c != 0))
        return PolyExpr(items)

    @staticmethod
    def const(c) -> PolyExpr:
        c = Fraction(c)
        if c == 0:
            return PolyExpr(())
        return PolyExpr((((0,) * len(VARS), c),))

    @staticmethod
    def var(name: str) -> PolyExpr:
        exps = [0] * len(VARS)
        exps[_INDEX[name]] = 1
        return PolyExpr(((tuple(exps), Fraction(1)),))

    def __add__(self, other) -> PolyExpr:
        other = _as_polyexpr(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return PolyExpr._from_dict(acc)

    __radd__ = __add__

    def __neg__(self) -> PolyExpr:
        return PolyExpr(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other) -> PolyExpr:
        other = _as_polyexpr(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return PolyExpr._from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PolyExpr:
        return int_power(self, n, PolyExpr.const(1))

    def diff(self, name: str) -> PolyExpr:
        k = _INDEX[name]
        acc: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms:
            if e[k] == 0:
                continue
            ne = list(e)
            ne[k] -= 1
            acc[tuple(ne)] = acc.get(tuple(ne), Fraction(0)) + c * e[k]
        return PolyExpr._from_dict(acc)

    def eval_scaled(self, values: CommonDenominator) -> tuple[list[int], int, int]:
        """Evaluate over a common denominator L, unreduced and on the
        integers: (N, S, k) with value N / (S L^k), k the largest weight of
        a term and S the lcm of the terms' scales.  Cached monomials are
        summed per weight with integer multipliers, and the sums are brought
        to L^k by Horner's rule, one product by L per weight."""
        terms = [(values.monomial(e), c) for e, c in self.terms]
        scale = math.lcm(*[s * c.denominator for (_, s, _), c in terms])
        sums: dict[int, list[int]] = {}
        for (mono, s, weight), c in terms:
            _add_into(sums.setdefault(weight, []), mono, c.numerator * (scale // (s * c.denominator)))
        top = max(sums, default=0)
        total = sums.get(0, [])
        for weight in range(1, top + 1):
            total = _add_into(_conv(total, values.den.nums), sums.get(weight, ()), 1)
        return total, scale, top


class CommonDenominator:
    """Rational-function values of some symbols over one common denominator.

    L is the lcm of the values' denominators, kept primitive on the
    integers.  A polynomial value p is kept as p with weight 0, any other
    value n/d as n*(L/d) with weight 1.  A product of values of total
    weight k is an integer coefficient list over one integer scale, over
    L^k; those products, one per exponent vector, and the powers of L are
    cached and shared by every expression evaluated over the same values.
    """

    def __init__(self, values: Mapping[str, RatFunc]):
        den = Poly.const(1)
        for v in values.values():
            if v.den.degree() > 0:
                den = v.den if den.degree() == 0 else den * v.den.divmod(den.gcd(v.den))[0]
        den = self.den = Poly(den.nums, 1)  # a monic Poly's numerators have content 1
        self.kept = {  # symbol: (kept numerator, weight)
            name: (v.num * den.divmod(v.den)[0], 1) if v.den.degree() > 0 else (v.num, 0)
            for name, v in values.items()
        }
        self._monomials = {(0,) * len(VARS): ((1,), 1, 0)}
        self._den_powers = [Poly.const(1), den]

    def monomial(self, exps: tuple[int, ...]) -> tuple[Sequence[int], int, int]:
        """Product of kept numerators over ``exps`` (indexed like VARS) as
        (integer coefficients, scale, weight): the monomial with one factor
        of the last symbol fewer, times that symbol's value."""
        out = self._monomials.get(exps)
        if out is None:
            k = max(i for i, e in enumerate(exps) if e)
            if VARS[k] not in self.kept:
                raise VerificationError(f"no value supplied for symbol {VARS[k]!r}")
            nums, scale, weight = self.monomial(exps[:k] + (exps[k] - 1,) + exps[k + 1 :])
            p, w = self.kept[VARS[k]]
            out = self._monomials[exps] = (_conv(nums, p.nums), scale * p.den, weight + w)
        return out

    def den_power(self, k: int) -> Poly:
        while len(self._den_powers) <= k:
            self._den_powers.append(self._den_powers[-1] * self.den)
        return self._den_powers[k]

    def evaluate(self, expr: PolyExpr) -> RatFunc:
        """The value of ``expr``, reduced once: N / (S L^k) by one gcd."""
        num, scale, k = expr.eval_scaled(self)
        return RatFunc.make(_reduced(num, scale), self.den_power(k))


def _as_polyexpr(x) -> PolyExpr:
    return x if isinstance(x, PolyExpr) else PolyExpr.const(x)


_v = PolyExpr.var


def _hamiltonian(x, y, z, w, t, a0, a1):
    """The time-dependent Hamiltonian, the one statement of its terms, over
    any ring that holds the arguments: symbols, exact numbers, or images."""
    return (
        2 * x * y**2
        + 2 * x**2
        + 2 * t * x
        - 2 * a1 * y
        + z**2 * w
        - Fraction(1, 2) * w**2
        + a0 * z
        + x * w
        + 2 * y * z * w
    )


_H_ARGS = ("x", "y", "z", "w", "t", "a0", "a1")  # the arguments of _hamiltonian, in order


@functools.cache
def hamiltonian() -> PolyExpr:
    """The time-dependent Hamiltonian in the phase variables and parameters."""
    return _hamiltonian(*map(_v, _H_ARGS))


@functools.cache
def extended_hamiltonian() -> PolyExpr:
    """Autonomous form on the extended phase space: H + F."""
    return hamiltonian() + _v("F")


def check_params(params: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """Validate the affine parameter relation a0 + 2 a1 + 2 a2 = 1."""
    if len(params) != 3:
        raise VerificationError("expected three parameters (a0, a1, a2)")
    a0, a1, a2 = (Fraction(p) for p in params)
    total = a0 + 2 * a1 + 2 * a2
    if total != 1:
        short = max(total.numerator.bit_length(), total.denominator.bit_length()) <= 128
        got = f", got {total}" if short else ""  # a long sum would flood the message
        raise VerificationError(f"parameters must satisfy a0 + 2*a1 + 2*a2 = 1{got}")
    return a0, a1, a2


def _reference_field() -> tuple[PolyExpr, ...]:
    # Hand-expanded equations of motion, kept as an independent cross-check
    # on the symplectic derivation below.
    x, y, z, w, t = _v("x"), _v("y"), _v("z"), _v("w"), _v("t")
    a0, a1 = _v("a0"), _v("a1")
    return (
        4 * x * y - 2 * a1 + 2 * z * w,
        -2 * y**2 - 4 * x - 2 * t - w,
        z**2 - w + x + 2 * y * z,
        -2 * z * w - a0 - 2 * y * w,
        PolyExpr.const(1),
        -2 * x,
    )


@functools.cache
def _symbolic_field() -> tuple[PolyExpr, ...]:
    # Derived once per process: the symplectic pairing of the extended
    # Hamiltonian, checked against the hand-expanded reference.
    h = extended_hamiltonian()
    field = (
        h.diff("y"),
        -h.diff("x"),
        h.diff("w"),
        -h.diff("z"),
        h.diff("F"),
        -h.diff("t"),
    )
    if field != _reference_field():
        raise ModelError("the symplectic pairing of the Hamiltonian is not the reference field")
    return field


def build_extended_system() -> tuple[PolyExpr, ...]:
    """Equations of motion on (x, y, z, w, t, F), symbolic in the parameters."""
    return _symbolic_field()


def seed_solution() -> tuple[dict[str, RatFunc], tuple[Fraction, Fraction, Fraction]]:
    """The rational seed x = w = -2t/5, y = z = 0 at (a0, a1, a2) = (2/5, 1/5, 1/10);
    its F is the energy lift (:func:`solution_energy`), 2t^2/5."""
    x = RatFunc.variable() * Fraction(-2, 5)
    zero = RatFunc.const(0)
    return {"x": x, "y": zero, "z": zero, "w": x}, (Fraction(2, 5), Fraction(1, 5), Fraction(1, 10))


def scale_solution(sol: Mapping[str, RatFunc], params: Sequence) -> CommonDenominator:
    """The solution, t and the parameters over one common denominator.

    These are all the symbols the Hamiltonian, the symbolic equations of
    motion and their Jacobian read, so one instance serves
    :func:`solution_energy`, :func:`verify_solution` and
    :func:`variational_matrix`, and nothing is substituted.
    """
    values = {name: sol[name] for name in ("x", "y", "z", "w")}
    values["t"] = RatFunc.variable()
    for name, a in zip(("a0", "a1", "a2"), check_params(params)):
        values[name] = RatFunc.const(a)
    return CommonDenominator(values)


def solution_energy(values: CommonDenominator) -> RatFunc:
    """-H along the solution held by ``values`` (:func:`scale_solution`);
    the F component of a zero-energy lift."""
    return -values.evaluate(hamiltonian())


def verify_solution(values: CommonDenominator, f: RatFunc | None = None) -> RatFunc:
    """Check that x, y, z, w held by ``values`` and F = f solve the field
    exactly, and return f; raise on failure.

    Each equation is checked without a gcd, on integer coefficient lists.
    The field row is N/(S L^k) over the common denominator L of ``values``,
    and x, y, z, w are m/(s L^j) there, j in {0, 1}.  With D = m'L - mL'
    (m' when j = 0), d/dt (m/(s L^j)) = D/(s L^2j), so the equation holds
    exactly when S D L^(k-2j) = s N, or S D = s N L^(2j-k) when k < 2j.
    F = n/d is not among the values; with n and d integer lists over the
    scales p and q, its equation is S q (n'd - nd') L^k = p N d^2.  Without
    f, F is the energy lift (:func:`solution_energy`), formed only once the
    x, y, z, w rows hold: its one gcd can cost far more than every row.
    """
    field = build_extended_system()
    den = values.den.nums
    bad = []
    for name in ("x", "y", "z", "w", "F"):  # t' = 1 holds by construction
        if name == "F" and f is None:
            if bad:
                break
            f = solution_energy(values)
        num, scale, k = field[_INDEX[name]].eval_scaled(values)
        if name == "F":
            n, d = f.num.nums, f.den.nums
            lhs = _add_into(_conv(_derivative(n), d), _conv(n, _derivative(d)), -1)
            lhs, rhs = _conv(lhs, values.den_power(k).nums), _conv(num, _conv(d, d))
            scale, s = scale * f.den.den, f.num.den
        else:
            m, j = values.kept[name]
            lhs = _derivative(m.nums)
            if j:
                lhs = _add_into(_conv(lhs, den), _conv(m.nums, _derivative(den)), -1)
            if k >= 2 * j:
                lhs, rhs = _conv(lhs, values.den_power(k - 2 * j).nums), num
            else:
                rhs = _conv(num, values.den_power(2 * j - k).nums)
            s = m.den
        if any(scale * a != s * b for a, b in zip_longest(lhs, rhs, fillvalue=0)):
            bad.append(name)
    if bad:
        raise VerificationError(f"not a solution: equations fail for {', '.join(bad)}")
    return f


def verify_zero_energy(values: CommonDenominator, f: RatFunc) -> None:
    """Check that F = f is the zero-energy lift, H + F = 0, at one point, on the integers; raise on failure.

    Along a solution that passes :func:`verify_solution`, d/dt (H + F) =
    dH/dt + F' = 2x - 2x = 0, so one point decides the constant H + F: the
    least integer t0 >= 0 where neither L nor the denominator d of f
    vanishes, one of the first deg L + deg d + 1.  Each value there is A/q,
    q = S L(t0) for S the lcm of the kept scales; the terms of
    :func:`hamiltonian` sum to h/(m q^k), m the lcm of their denominators
    and k their top degree, and with f(t0) = n/d the check is h d + n m q^k = 0.
    """
    tries = values.den.degree() + f.den.degree() + 1
    t0 = next((t for t in range(tries) if _value_at(values.den.nums, t) and _value_at(f.den.nums, t)), None)
    if t0 is None:
        raise VerificationError(f"the denominators vanish at every integer t0 < {tries}")
    lt, scale = _value_at(values.den.nums, t0), math.lcm(*[p.den for p, _ in values.kept.values()])
    point = {name: _value_at(p.nums, t0) * (scale // p.den) * lt ** (1 - j) for name, (p, j) in values.kept.items()}
    terms, q = hamiltonian().terms, scale * lt
    m, top = math.lcm(*[c.denominator for _, c in terms]), max([sum(exps) for exps, _ in terms])
    h = 0
    for exps, c in terms:
        term = c.numerator * (m // c.denominator) * q ** (top - sum(exps))
        for name, e in zip(VARS, exps):
            if e:
                term *= point[name] ** e
        h += term
    n, d = _value_at(f.num.nums, t0) * f.den.den, f.num.den * _value_at(f.den.nums, t0)
    if h * d + n * m * q**top:
        total = Fraction(h, m * q**top) + Fraction(n, d)
        raise VerificationError(f"F is not the zero-energy lift: H + F = {total} at t0 = {t0}")


def variational_matrix(values: CommonDenominator) -> tuple[tuple[RatFunc, ...], ...]:
    """Jacobian of the extended field along the solution held by ``values``
    (:func:`scale_solution`), 6 x 6 exact: each symbolic entry evaluated
    over those values.  The field does not read F, so F is not needed."""
    return tuple(
        tuple(values.evaluate(f.diff(name)) for name in PHASE_VARS) for f in build_extended_system()
    )


def ratfunc_to_puiseux(f: RatFunc, tower: TowerSpec) -> PuiseuxPoly:
    """Convert p(t)/t^k into a Laurent polynomial with tower coefficients.

    Only monomial denominators can be represented; anything else means the
    solution has finite poles and the machinery downstream does not apply.
    """
    if f.is_zero():
        return PuiseuxPoly.zero(tower)
    den = f.den
    k = den.degree()
    monomial = Poly.make([0] * k + [1])
    if den != monomial:
        raise TowerError(
            f"denominator {den.render()} is not a power of the variable"
        )
    terms = []
    for j, c in enumerate(f.num.coeffs):
        if c != 0:
            terms.append((j - k, AlgNum.from_rational(tower, c)))
    return PuiseuxPoly.from_terms(tower, 1, terms)


def extract_nve(
    vmatrix: Sequence[Sequence[RatFunc]], tower: TowerSpec
) -> DiffSystem:
    """The 4 x 4 normal variational system from the 6 x 6 variational one.

    The time row of the Jacobian must vanish identically (so the time
    variation stays zero once it starts zero) and nothing may depend on
    the F variation; then the (x, y, z, w) block closes on itself and is
    returned over the requested coefficient tower.
    """
    t_row = _INDEX["t"]
    f_col = _INDEX["F"]
    for j, entry in enumerate(vmatrix[t_row]):
        if not entry.is_zero():
            raise TowerError(f"time variation row has nonzero entry in column {j}")
    for i in range(len(vmatrix)):
        if not vmatrix[i][f_col].is_zero():
            raise TowerError(f"row {i} couples to the F variation")
    rows = []
    for i in range(4):
        rows.append(tuple(ratfunc_to_puiseux(vmatrix[i][j], tower) for j in range(4)))
    return DiffSystem("t", tuple(rows))


def seed_variational_system(tower: TowerSpec) -> DiffSystem:
    """Normal variational system along the seed, ready for reduction: the
    seed is linearized over one :func:`scale_solution`.  It is verified by
    the model check (``weyl.seed_state``), not again here."""
    return extract_nve(variational_matrix(scale_solution(*seed_solution())), tower)
