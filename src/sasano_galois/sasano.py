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
from typing import Mapping, Sequence

from .algnum import AlgNum, Frozen, TowerError, TowerSpec, VerificationError, int_power, join_terms
from .diffsys import DiffSystem
from .puiseux import PuiseuxPoly
from .ratfunc import Poly, RatFunc

VARS = ("x", "y", "z", "w", "t", "F", "a0", "a1", "a2")
_INDEX = {name: k for k, name in enumerate(VARS)}
PHASE_VARS = ("x", "y", "z", "w", "t", "F")


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

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> PolyExpr:
        other = _as_polyexpr(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return PolyExpr._from_dict(acc)

    __radd__ = __add__

    def __neg__(self) -> PolyExpr:
        return PolyExpr(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> PolyExpr:
        return self + (-_as_polyexpr(other))

    def __rsub__(self, other) -> PolyExpr:
        return _as_polyexpr(other) + (-self)

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

    def eval_scaled(self, values: CommonDenominator) -> tuple[Poly, int]:
        """Evaluate over a common denominator L, unreduced: (N, k) with value
        N / L^k, k the largest weight of a term.  Cached monomials are scaled
        by each coefficient, and the sums of equal weight are brought to L^k
        by Horner's rule, one product by L per weight."""
        sums: dict[int, Poly] = {}
        for e, c in self.terms:
            mono, weight = values.monomial(e)
            sums[weight] = sums.get(weight, Poly((), 1)) + mono.scale(c)
        top = max(sums, default=0)
        total = sums.get(0, Poly((), 1))
        for weight in range(1, top + 1):
            total = total * values.den + sums.get(weight, Poly((), 1))
        return total, top

    def eval_at(self, point: Sequence[Fraction]) -> Fraction:
        """The exact value at a point, one number per symbol of VARS.

        The point is brought to one integer denominator q and the
        coefficients to their lcm m; the terms of each degree are summed
        on the integers and brought to q^top by Horner's rule, and one
        Fraction is built at the end."""
        q = math.lcm(*[v.denominator for v in point])
        nums = [v.numerator * (q // v.denominator) for v in point]
        m = math.lcm(*[c.denominator for _, c in self.terms])
        sums: dict[int, int] = {}
        for e, c in self.terms:
            acc = c.numerator * (m // c.denominator)
            for v, k in zip(nums, e):
                if k:
                    acc *= v**k
            degree = sum(e)
            sums[degree] = sums.get(degree, 0) + acc
        top = max(sums, default=0)
        total = 0
        for degree in range(top + 1):
            total = total * q + sums.get(degree, 0)
        return Fraction(total, m * q**top)

    def render(self) -> str:
        return join_terms(
            (str(c), "*".join(VARS[k] if exp == 1 else f"{VARS[k]}^{exp}" for k, exp in enumerate(e) if exp))
            for e, c in self.terms
        )


class CommonDenominator:
    """Rational-function values of some symbols over one common denominator.

    L is the monic lcm of the values' denominators.  A polynomial value p
    is kept as p with weight 0, any other value n/d as its scaled
    numerator n*(L/d) with weight 1, so a product of values of total
    weight k is (product of kept numerators) / L^k.  Those products, one
    per exponent vector, and the powers of L are cached and shared by
    every expression evaluated over the same values.
    """

    def __init__(self, values: Mapping[str, RatFunc]):
        den = Poly.const(1)
        for v in values.values():
            if v.den.degree() > 0:
                den = v.den if den.degree() == 0 else den * v.den.divmod(den.gcd(v.den))[0]
        self.den = den
        self._powers: dict[tuple[str, int], tuple[Poly, int]] = {}
        for name, v in values.items():
            if v.den.degree() > 0:
                self._powers[name, 1] = (v.num * den.divmod(v.den)[0], 1)
            else:
                self._powers[name, 1] = (v.num, 0)
        self._monomials = {(0,) * len(VARS): (Poly((1,), 1), 0)}
        self._den_powers = [Poly.const(1), den]

    def power(self, name: str, exp: int) -> tuple[Poly, int]:
        """(kept numerator of ``name``)^exp and its weight."""
        out = self._powers.get((name, exp))
        if out is None:
            base = self._powers.get((name, 1))
            if base is None:
                raise VerificationError(f"no value supplied for symbol {name!r}")
            out = self._powers[name, exp] = (base[0] ** exp, base[1] * exp)
        return out

    def monomial(self, exps: tuple[int, ...]) -> tuple[Poly, int]:
        """Product of kept numerators over ``exps`` (indexed like VARS) and
        its weight: the prefix without the last symbol, times one power."""
        out = self._monomials.get(exps)
        if out is None:
            k = max(i for i, e in enumerate(exps) if e)
            prefix = exps[:k] + (0,) * (len(exps) - k)
            p, w = self.power(VARS[k], exps[k])
            if any(prefix):
                head, hw = self.monomial(prefix)
                p, w = head * p, hw + w
            out = self._monomials[exps] = (p, w)
        return out

    def den_power(self, k: int) -> Poly:
        while len(self._den_powers) <= k:
            self._den_powers.append(self._den_powers[-1] * self.den)
        return self._den_powers[k]

    def evaluate(self, expr: PolyExpr) -> RatFunc:
        """The value of ``expr``, reduced once: N / L^k by one gcd."""
        num, k = expr.eval_scaled(self)
        return RatFunc.make(num, self.den_power(k))


def _as_polyexpr(x) -> PolyExpr:
    return x if isinstance(x, PolyExpr) else PolyExpr.const(x)


_v = PolyExpr.var


@functools.cache
def hamiltonian() -> PolyExpr:
    """The time-dependent Hamiltonian in the phase variables and parameters."""
    x, y, z, w, t = _v("x"), _v("y"), _v("z"), _v("w"), _v("t")
    a0, a1 = _v("a0"), _v("a1")
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


@functools.cache
def extended_hamiltonian() -> PolyExpr:
    """Autonomous form on the extended phase space: H + F."""
    return hamiltonian() + _v("F")


def check_params(params: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """Validate the affine parameter relation a0 + 2 a1 + 2 a2 = 1."""
    if len(params) != 3:
        raise VerificationError("expected three parameters (a0, a1, a2)")
    a0, a1, a2 = (Fraction(p) for p in params)
    if a0 + 2 * a1 + 2 * a2 != 1:
        raise VerificationError(
            f"parameters must satisfy a0 + 2*a1 + 2*a2 = 1, got {a0 + 2 * a1 + 2 * a2}"
        )
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
        raise AssertionError("symplectic pairing produced an unexpected field")
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


def verify_solution(values: CommonDenominator, f: RatFunc) -> None:
    """Check that x, y, z, w held by ``values`` and F = f solve the field
    exactly; raise on failure.

    Each equation is checked without a gcd.  The field row is N/L^k over
    the common denominator L of ``values``, and x, y, z, w are m/L^j there,
    j in {0, 1}.  With D = m'L - mL' (m' when j = 0), d/dt (m/L^j) = D/L^2j,
    so the equation holds exactly when D L^(k-2j) = N, or D = N L^(2j-k)
    when k < 2j.  F = n/d is not among the values; its equation is
    (n'd - nd') L^k = N d^2.
    """
    field = build_extended_system()
    bad = []
    for name in ("x", "y", "z", "w", "F"):  # t' = 1 holds by construction
        num, k = field[_INDEX[name]].eval_scaled(values)
        if name == "F":
            n, d = f.num, f.den
            lhs, rhs = (n.derivative() * d - n * d.derivative()) * values.den_power(k), num * (d * d)
        else:
            m, j = values.power(name, 1)
            lhs = m.derivative() * values.den - m * values.den.derivative() if j else m.derivative()
            if k >= 2 * j:
                lhs, rhs = lhs * values.den_power(k - 2 * j), num
            else:
                rhs = num * values.den_power(2 * j - k)
        if lhs != rhs:
            bad.append(name)
    if bad:
        raise VerificationError(f"not a solution: equations fail for {', '.join(bad)}")


def verify_zero_energy(values: CommonDenominator, f: RatFunc) -> None:
    """Check that F = f is the zero-energy lift, H + F = 0, at one exact
    point; raise on failure.

    Along a solution that passes :func:`verify_solution`, d/dt (H + F) is
    dH/dt + F' = 2x - 2x = 0, so H + F is a constant and its value at one
    point decides it.  That point t0 is the least integer >= 0 at which
    neither L nor the denominator d of f vanishes; H + F is evaluated there
    at the kept numerators' values over L(t0)^j and at f(t0).  A nonzero
    L*d vanishes at no more than deg L + deg d integers, so the search
    stops after one more.
    """
    tries = values.den.degree() + f.den.degree() + 1
    t0 = next((t for t in range(tries) if values.den(t) != 0 and f.den(t) != 0), None)
    if t0 is None:
        raise VerificationError(f"the denominators vanish at every integer t0 < {tries}")
    den = values.den(t0)
    point = []
    for name in VARS:
        if name == "F":
            point.append(f(t0))
        else:
            num, j = values.power(name, 1)
            point.append(num(t0) / den**j)
    total = extended_hamiltonian().eval_at(point)
    if total != 0:
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
