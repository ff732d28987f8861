"""Exact arithmetic in a fixed tower of algebraic field extensions.

Every number that appears in the verification pipeline lives in one of two
explicit towers over the rationals:

* the canonical tower  Q(g)(i)(b)  with  g^12 = 5/64  (real positive root,
  so sqrt(5) = 8*g^6),  i^2 = -1,  and  b^2 = 48*g^6 - 10 = 6*sqrt(5) - 10
  (real positive root); total degree 48;
* an alternate tower  Q(d)(s)(i)(b)  with  d^7 = 1/4,  s^2 = 5, used by the
  Wasow-style time normalization; total degree 56.

Elements are dense nested coefficient vectors of exact rationals with
respect to the tower basis, reduced canonically modulo the defining
polynomials, so equality of values is equality of representations.  No
general number-field machinery is attempted here: irreducibility of the
defining polynomials is asserted by the fixed tower data (and was checked
by hand); a numeric startup self-check guards against accidental
degeneracies that would corrupt equality testing.

Numbers are immutable and safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp


class TowerError(ValueError):
    """Raised for structurally invalid tower operations."""


# A value is a Fraction at level -1 and a tuple of lower-level values at
# level k >= 0.  Values are always full-length and canonically reduced.


@dataclass(frozen=True)
class TowerLevel:
    """One extension step: a monic defining polynomial and a root choice.

    ``poly`` holds the coefficients of x^0 .. x^(deg-1) as values of the
    *previous* level (the leading coefficient 1 is implicit).  ``approx``
    is a decimal isolating approximation of the chosen root, used only to
    seed numeric root polishing and branch selection.
    """

    name: str
    degree: int
    poly: tuple
    approx: tuple  # (real_str, imag_str)


class TowerSpec:
    """A fixed tower of field extensions of Q.

    The tower object owns all value-level arithmetic; ``AlgNum`` is a thin
    immutable wrapper.  Instances are meant to be process-wide singletons;
    numbers from different instances never mix.
    """

    def __init__(self, levels: tuple[TowerLevel, ...]):
        if not levels:
            raise TowerError("tower needs at least one level")
        self.levels = tuple(levels)
        self.degrees = tuple(lv.degree for lv in levels)
        self.dimension = 1
        for d in self.degrees:
            self.dimension *= d
        self.top = len(levels) - 1
        self._root_cache: dict[int, list] = {}
        self._checked = False

    # -- construction of values ------------------------------------------

    def zero_value(self, lvl: int):
        if lvl < 0:
            return Fraction(0)
        z = self.zero_value(lvl - 1)
        return tuple(z for _ in range(self.degrees[lvl]))

    def rat_value(self, lvl: int, q: Fraction):
        if lvl < 0:
            return q
        lower = self.rat_value(lvl - 1, q)
        zero = self.zero_value(lvl - 1)
        return tuple(lower if k == 0 else zero for k in range(self.degrees[lvl]))

    def monomial_value(self, exps: tuple[int, ...], coeff: Fraction = Fraction(1)):
        """Value of coeff * prod(gen_j ** exps[j]); each exps[j] < degree_j."""
        v = coeff
        for lvl, e in enumerate(exps):
            d = self.degrees[lvl]
            if not 0 <= e < d:
                raise TowerError(f"monomial exponent {e} out of range at level {lvl}")
            zero = self.zero_value(lvl - 1)
            v = tuple(v if k == e else zero for k in range(d))
        return v

    # -- ring operations ---------------------------------------------------

    def is_zero(self, lvl: int, v) -> bool:
        if lvl < 0:
            return v == 0
        return all(self.is_zero(lvl - 1, c) for c in v)

    def add(self, lvl: int, a, b):
        if lvl < 0:
            return a + b
        return tuple(self.add(lvl - 1, x, y) for x, y in zip(a, b))

    def neg(self, lvl: int, a):
        if lvl < 0:
            return -a
        return tuple(self.neg(lvl - 1, x) for x in a)

    def sub(self, lvl: int, a, b):
        if lvl < 0:
            return a - b
        return tuple(self.sub(lvl - 1, x, y) for x, y in zip(a, b))

    def mul(self, lvl: int, a, b):
        if lvl < 0:
            return a * b
        return self._reduce(lvl, self._pmul(lvl - 1, a, b))

    def _reduce(self, lvl: int, acc: list):
        # fold x^e for e >= d via x^d = -(p_0 + p_1 x + ... + p_{d-1} x^{d-1})
        d = self.degrees[lvl]
        poly = self.levels[lvl].poly
        for e in range(len(acc) - 1, d - 1, -1):
            c = acc[e]
            if self.is_zero(lvl - 1, c):
                continue
            base = e - d
            for j, pj in enumerate(poly):
                if self.is_zero(lvl - 1, pj):
                    continue
                acc[base + j] = self.sub(lvl - 1, acc[base + j], self.mul(lvl - 1, pj, c))
            acc[e] = self.zero_value(lvl - 1)
        return tuple(acc[:d])

    def rat_scale(self, lvl: int, q: Fraction, a):
        if lvl < 0:
            return q * a
        return tuple(self.rat_scale(lvl - 1, q, c) for c in a)

    def inv(self, lvl: int, a):
        """Multiplicative inverse via extended Euclid over the sublevel."""
        if lvl < 0:
            if a == 0:
                raise ZeroDivisionError("division by zero in tower field")
            return Fraction(1) / a
        if self.is_zero(lvl, a):
            raise ZeroDivisionError("division by zero in tower field")
        sub = lvl - 1
        one = self.rat_value(sub, Fraction(1)) if sub >= 0 else Fraction(1)
        zero = self.zero_value(sub)

        def trim(p):
            p = list(p)
            while p and self.is_zero(sub, p[-1]):
                p.pop()
            return p

        def pmulc(p, c):
            return [self.mul(sub, x, c) for x in p]

        def psub(p, q):
            n = max(len(p), len(q))
            p = p + [zero] * (n - len(p))
            q = q + [zero] * (n - len(q))
            return trim([self.sub(sub, x, y) for x, y in zip(p, q)])

        def pdivmod(num, den):
            num = list(num)
            dl = len(den) - 1
            lead_inv = self.inv(sub, den[-1])
            quot = [zero] * max(0, len(num) - dl)
            while len(num) - 1 >= dl and num:
                shift = len(num) - 1 - dl
                factor = self.mul(sub, num[-1], lead_inv)
                quot[shift] = factor
                for j, dj in enumerate(den):
                    num[shift + j] = self.sub(sub, num[shift + j], self.mul(sub, dj, factor))
                num = trim(num)
                if not num:
                    break
            return trim(quot), trim(num)

        modulus = list(self.levels[lvl].poly) + [one]
        r0, r1 = modulus, trim(a)
        t0, t1 = [], [one]
        while len(r1) > 1:
            q, r = pdivmod(r0, r1)
            r0, r1 = r1, r
            qt1 = trim(self._pmul(sub, q, t1))
            t0, t1 = t1, psub(t0, qt1)
        if not r1:
            raise TowerError("zero divisor encountered; tower data is corrupt")
        c_inv = self.inv(sub, r1[0])
        inv_poly = pmulc(t1, c_inv)
        if len(inv_poly) < self.degrees[lvl]:
            inv_poly = inv_poly + [zero] * (self.degrees[lvl] - len(inv_poly))
        return self._reduce(lvl, list(inv_poly))

    def _pmul(self, sub: int, p: list, q: list) -> list:
        zero = self.zero_value(sub)
        if not p or not q:
            return []
        acc = [zero] * (len(p) + len(q) - 1)
        for i, ci in enumerate(p):
            if self.is_zero(sub, ci):
                continue
            for j, cj in enumerate(q):
                if self.is_zero(sub, cj):
                    continue
                acc[i + j] = self.add(sub, acc[i + j], self.mul(sub, ci, cj))
        return acc

    # -- coordinates -------------------------------------------------------

    def coords(self, v) -> dict[tuple[int, ...], Fraction]:
        """Nonzero coordinates of a top-level value, keyed by exponent tuple."""
        out: dict[tuple[int, ...], Fraction] = {}

        def walk(lvl: int, val, exps: tuple[int, ...]):
            if lvl < 0:
                if val != 0:
                    out[exps] = val
                return
            for e, c in enumerate(val):
                walk(lvl - 1, c, (e,) + exps)

        walk(self.top, v, ())
        return out

    def basis_exponents(self):
        return itertools.product(*(range(d) for d in self.degrees))

    # -- numerics ----------------------------------------------------------

    def roots(self, dps: int) -> list:
        """Polished numeric roots of every level at the given precision."""
        cached = self._root_cache.get(dps)
        if cached is not None:
            return cached
        with mp.workdps(dps + 15):
            roots: list = []
            for lvl, level in enumerate(self.levels):
                coeffs = [self._eval_numeric(lvl - 1, c, roots) for c in level.poly]
                coeffs = coeffs + [mpmath.mpc(1)]

                def f(x, cs=tuple(coeffs)):
                    acc = mpmath.mpc(0)
                    for c in reversed(cs):
                        acc = acc * x + c
                    return acc

                seed = mpmath.mpc(mpmath.mpf(level.approx[0]), mpmath.mpf(level.approx[1]))
                root = mpmath.findroot(f, seed)
                roots.append(root)
        self._root_cache[dps] = roots
        return roots

    def _eval_numeric(self, lvl: int, v, roots: list):
        if lvl < 0:
            return mpmath.mpf(v.numerator) / v.denominator
        acc = mpmath.mpc(0)
        for c in reversed(v):
            acc = acc * roots[lvl] + self._eval_numeric(lvl - 1, c, roots)
        return acc

    def embed_value(self, v, precision: int = 20):
        if precision < 15:
            raise TowerError("numeric embedding needs precision >= 15 digits")
        self.self_check()
        roots = self.roots(precision)
        with mp.workdps(precision + 15):
            return self._eval_numeric(self.top, v, roots)

    def self_check(self) -> None:
        """Numeric guard run once per tower before any embedding.

        Confirms each defining polynomial is squarefree, that the stored
        approximation isolates exactly one of its roots, and that no root
        coincides with a lower-level basis monomial (which would signal an
        accidentally reducible extension and corrupt equality testing).
        """
        if self._checked:
            return
        dps = 40
        with mp.workdps(dps):
            roots_so_far: list = []
            probe_degrees: list[int] = []
            for lvl, level in enumerate(self.levels):
                coeffs = [self._eval_numeric(lvl - 1, c, roots_so_far) for c in level.poly]
                coeffs = coeffs + [mpmath.mpc(1)]
                all_roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=80)
                for ra, rb in itertools.combinations(all_roots, 2):
                    if abs(ra - rb) < mpmath.mpf("1e-20"):
                        raise TowerError(f"defining polynomial of level {level.name!r} is not squarefree")
                seed = mpmath.mpc(mpmath.mpf(level.approx[0]), mpmath.mpf(level.approx[1]))
                dists = sorted(abs(r - seed) for r in all_roots)
                if dists[0] > mpmath.mpf("1e-3") or (len(dists) > 1 and dists[1] < 1000 * (dists[0] + mpmath.mpf("1e-35"))):
                    raise TowerError(f"approximation for level {level.name!r} does not isolate a root")
                for exps in itertools.product(*(range(d) for d in probe_degrees)):
                    probe = mpmath.mpc(1)
                    for j, e in enumerate(exps):
                        probe *= roots_so_far[j] ** e
                    for r in all_roots:
                        if abs(r - probe) < mpmath.mpf("1e-20"):
                            raise TowerError(
                                f"root of level {level.name!r} coincides with a lower-level element"
                            )
                root = mpmath.findroot(
                    lambda x, cs=tuple(coeffs): sum(c * x**k for k, c in enumerate(cs)), seed
                )
                roots_so_far.append(root)
                probe_degrees.append(level.degree)
        self._checked = True

    # -- misc ----------------------------------------------------------------

    def extend(self, name: str, poly_coeffs: list[AlgNum], degree: int, approx: tuple[str, str]) -> TowerSpec:
        """New tower with one more level; coefficients are numbers of *this* tower."""
        for c in poly_coeffs:
            if c.tower is not self:
                raise TowerError("defining coefficients must belong to the base tower")
        level = TowerLevel(name=name, degree=degree, poly=tuple(c.value for c in poly_coeffs), approx=approx)
        return TowerSpec(self.levels + (level,))

    def names(self) -> tuple[str, ...]:
        return tuple(lv.name for lv in self.levels)


def base_tower(name: str, degree: int, low_coeffs: list[Fraction], approx: tuple[str, str]) -> TowerSpec:
    """Tower with a single level x^degree + ... defined by rational coefficients."""
    if len(low_coeffs) != degree:
        raise TowerError("need exactly `degree` coefficients (monic leading 1 implicit)")
    level = TowerLevel(name=name, degree=degree, poly=tuple(Fraction(c) for c in low_coeffs), approx=approx)
    return TowerSpec((level,))


class AlgNum:
    """An exact element of a fixed extension tower.

    Thin immutable wrapper around a canonical nested coefficient vector.
    Arithmetic is exact; ``==`` means equality of numbers.  Mixed
    arithmetic with ``int`` and ``Fraction`` coerces into the tower.
    """

    __slots__ = ("tower", "value", "_hash")

    def __init__(self, tower: TowerSpec, value):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("AlgNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(tower: TowerSpec, q) -> AlgNum:
        return AlgNum(tower, tower.rat_value(tower.top, Fraction(q)))

    @staticmethod
    def generator(tower: TowerSpec, level: int) -> AlgNum:
        exps = tuple(1 if j == level else 0 for j in range(len(tower.levels)))
        return AlgNum(tower, tower.monomial_value(exps))

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgNum):
            if other.tower is not self.tower:
                raise TowerError("cannot mix numbers from different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return AlgNum.from_rational(self.tower, other)
        return None

    def is_zero(self) -> bool:
        return self.tower.is_zero(self.tower.top, self.value)

    def coords(self) -> dict[tuple[int, ...], Fraction]:
        return self.tower.coords(self.value)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return AlgNum(t, t.add(t.top, self.value, o.value))

    __radd__ = __add__

    def __neg__(self):
        t = self.tower
        return AlgNum(t, t.neg(t.top, self.value))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return AlgNum(t, t.sub(t.top, self.value, o.value))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            t = self.tower
            return AlgNum(t, t.rat_scale(t.top, Fraction(other), self.value))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return AlgNum(t, t.mul(t.top, self.value, o.value))

    __rmul__ = __mul__

    def inverse(self) -> AlgNum:
        t = self.tower
        return AlgNum(t, t.inv(t.top, self.value))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return int_power(self, n, AlgNum.from_rational(self.tower, 1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((id(self.tower), self.value))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return not self.is_zero()

    # -- presentation --------------------------------------------------------

    def __str__(self):
        names = self.tower.names()
        return join_terms(
            (str(q), "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e))
            for exps, q in sorted(self.coords().items())
        )

    def __repr__(self):
        return f"AlgNum({self})"

    def embed(self, precision: int = 20):
        """Numeric value as an mpmath complex number (ring homomorphism)."""
        return self.tower.embed_value(self.value, precision)


def int_power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring, starting from ``one``."""
    if n < 0:
        raise ValueError(f"negative power {n} of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def join_terms(terms) -> str:
    """Render a sum of (coefficient text, monomial text) pairs.

    A coefficient with an inner sign or sum is parenthesized, a unit
    coefficient is dropped before a monomial (an empty monomial is the
    constant term), and "+ -" folds to "- ".  No terms render as "0".
    """
    parts = []
    for coeff, mono in terms:
        if "+" in coeff or "-" in coeff[1:]:
            coeff = f"({coeff})"
        if not mono:
            parts.append(coeff)
        elif coeff in ("1", "-1"):
            parts.append(coeff[:-1] + mono)
        else:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def rational_recognize(a: AlgNum) -> Fraction | None:
    """The exact rational value of ``a``, or None if it is irrational."""
    coords = a.coords()
    if not coords:
        return Fraction(0)
    zero_key = tuple(0 for _ in a.tower.degrees)
    if set(coords) == {zero_key}:
        return coords[zero_key]
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_in_tower(a: AlgNum) -> AlgNum:
    """An exact square root of ``a`` within its tower, principal branch.

    Searches for a representation sqrt(a) = m * (x + y*m2) where m, m2 are
    tower basis monomials with m2^2 rational and x, y rational.  This covers
    every radicand the pipeline produces.  Raises TowerError when no such
    root exists (the caller then knows a tower extension would be needed).
    The branch is fixed numerically: nonnegative real part, and nonnegative
    imaginary part on the imaginary axis.
    """
    tower = a.tower
    if a.is_zero():
        return a
    one_key = tuple(0 for _ in tower.degrees)
    for exps in tower.basis_exponents():
        m = AlgNum(tower, tower.monomial_value(exps))
        try:
            c = a / (m * m)
        except ZeroDivisionError:  # pragma: no cover - monomials are units
            continue
        coords = c.coords()
        keys = set(coords)
        if not keys:
            continue
        nontrivial = keys - {one_key}
        if len(nontrivial) > 1:
            continue
        p = coords.get(one_key, Fraction(0))
        if not nontrivial:
            x = _rational_sqrt(p)
            if x is None:
                continue
            root = m * x
            return _principal_branch(root)
        (m2_key,) = nontrivial
        q = coords[m2_key]
        m2 = AlgNum(tower, tower.monomial_value(m2_key))
        r = rational_recognize(m2 * m2)
        if r is None:
            continue
        # (x + y*m2)^2 = p + q*m2  =>  x^2 + r*y^2 = p,  2*x*y = q
        disc = _rational_sqrt(p * p - r * q * q)
        if disc is None:
            continue
        for u in ((p + disc) / 2, (p - disc) / 2):
            x = _rational_sqrt(u)
            if x is None or x == 0:
                continue
            y = q / (2 * x)
            cand = m * (AlgNum.from_rational(tower, x) + m2 * y)
            if cand * cand == a:
                return _principal_branch(cand)
    raise TowerError(f"no square root of {a} in tower {tower.names()}; an extension would be required")


def _principal_branch(root: AlgNum) -> AlgNum:
    z = root.embed(30)
    tol = mpmath.mpf("1e-25")
    if z.real < -tol:
        return -root
    if abs(z.real) <= tol and z.imag < 0:
        return -root
    return root


# ---------------------------------------------------------------------------
# JSON encoding: nested arrays of "p/q" strings, outermost index = last
# tower generator; the tower itself serializes alongside.


def _value_to_json(lvl: int, v):
    if lvl < 0:
        return str(v)
    return [_value_to_json(lvl - 1, c) for c in v]


def _value_from_json(tower: TowerSpec, lvl: int, data):
    if lvl < 0:
        return Fraction(data)
    if len(data) != tower.degrees[lvl]:
        raise TowerError("coefficient vector length does not match tower degree")
    return tuple(_value_from_json(tower, lvl - 1, c) for c in data)


def algnum_to_json(a: AlgNum):
    return _value_to_json(a.tower.top, a.value)


def algnum_from_json(tower: TowerSpec, data) -> AlgNum:
    return AlgNum(tower, _value_from_json(tower, tower.top, data))


def tower_to_json(tower: TowerSpec):
    return {
        "levels": [
            {
                "name": lv.name,
                "degree": lv.degree,
                "poly": [_value_to_json(idx - 1, c) for c in lv.poly],
                "approx": [lv.approx[0], lv.approx[1]],
            }
            for idx, lv in enumerate(tower.levels)
        ]
    }


def tower_from_json(data) -> TowerSpec:
    levels: list[TowerLevel] = []
    spec: TowerSpec | None = None
    for idx, lv in enumerate(data["levels"]):
        if idx == 0:
            coeffs = tuple(Fraction(c) for c in lv["poly"])
        else:
            assert spec is not None
            coeffs = tuple(_value_from_json(spec, idx - 1, c) for c in lv["poly"])
        levels.append(
            TowerLevel(name=lv["name"], degree=lv["degree"], poly=coeffs, approx=(lv["approx"][0], lv["approx"][1]))
        )
        spec = TowerSpec(tuple(levels))
    assert spec is not None
    return spec


# ---------------------------------------------------------------------------
# The two towers used by the pipeline.

_GAMMA_APPROX = ("0.80859770158337408893665066179", "0")
_BETA_APPROX = ("1.84835274366088957810426637215", "0")
_DELTA_APPROX = ("0.82033535600763793117028468287", "0")
_SQRT5_APPROX = ("2.23606797749978969640917366873", "0")

_canonical: TowerSpec | None = None
_wasow: TowerSpec | None = None


def canonical_tower() -> TowerSpec:
    """Q(g)(i)(b): g^12 = 5/64, i^2 = -1, b^2 = 48 g^6 - 10; degree 48."""
    global _canonical
    if _canonical is None:
        t0 = base_tower("g", 12, [Fraction(-5, 64)] + [Fraction(0)] * 11, _GAMMA_APPROX)
        t1 = t0.extend("i", [AlgNum.from_rational(t0, 1), AlgNum.from_rational(t0, 0)], 2, ("0", "1"))
        g1 = AlgNum.generator(t1, 0)
        c0 = AlgNum.from_rational(t1, 10) - g1**6 * 48
        t2 = t1.extend("b", [c0, AlgNum.from_rational(t1, 0)], 2, _BETA_APPROX)
        t2.self_check()
        _canonical = t2
    return _canonical


def wasow_tower() -> TowerSpec:
    """Q(d)(s)(i)(b): d^7 = 1/4, s^2 = 5, i^2 = -1, b^2 = 6s - 10; degree 56."""
    global _wasow
    if _wasow is None:
        t0 = base_tower("d", 7, [Fraction(-1, 4)] + [Fraction(0)] * 6, _DELTA_APPROX)
        t1 = t0.extend("s", [AlgNum.from_rational(t0, -5), AlgNum.from_rational(t0, 0)], 2, _SQRT5_APPROX)
        t2 = t1.extend("i", [AlgNum.from_rational(t1, 1), AlgNum.from_rational(t1, 0)], 2, ("0", "1"))
        s = AlgNum.generator(t2, 1)
        c0 = AlgNum.from_rational(t2, 10) - s * 6
        t3 = t2.extend("b", [c0, AlgNum.from_rational(t2, 0)], 2, _BETA_APPROX)
        t3.self_check()
        _wasow = t3
    return _wasow


@dataclass(frozen=True)
class ChainConstants:
    """The exact numbers a reduction run needs, tied to one tower.

    ``alpha`` is the time-rescaling constant with alpha^3 rational;
    ``alpha_quarter_root`` is its exact fourth root (the substitution
    t = alpha * tau^4 produces quarter powers of alpha).  ``eigenvalues``
    are the four leading eigenvalues of the decoupled stage in the fixed
    order (-i*m, +i*m, -p, +p).
    """

    tower: TowerSpec
    alpha: AlgNum
    alpha_quarter_root: AlgNum
    sqrt5: AlgNum
    imag_unit: AlgNum
    sqrt_minus: AlgNum  # sqrt(6*sqrt5 - 10)
    sqrt_plus: AlgNum  # sqrt(6*sqrt5 + 10)
    eigenvalues: tuple[AlgNum, AlgNum, AlgNum, AlgNum]


_canonical_constants: ChainConstants | None = None
_wasow_constants: ChainConstants | None = None


def canonical_constants() -> ChainConstants:
    global _canonical_constants
    if _canonical_constants is None:
        t = canonical_tower()
        g = AlgNum.generator(t, 0)
        i = AlgNum.generator(t, 1)
        b = AlgNum.generator(t, 2)
        sqrt5 = g**6 * 8
        sqrt_plus = g**6 * 32 / b
        lam2 = i * b / 2
        lam4 = sqrt_plus / 2
        _canonical_constants = ChainConstants(
            tower=t,
            alpha=g**4,
            alpha_quarter_root=g,
            sqrt5=sqrt5,
            imag_unit=i,
            sqrt_minus=b,
            sqrt_plus=sqrt_plus,
            eigenvalues=(-lam2, lam2, -lam4, lam4),
        )
    return _canonical_constants


def wasow_constants() -> ChainConstants:
    global _wasow_constants
    if _wasow_constants is None:
        t = wasow_tower()
        d = AlgNum.generator(t, 0)
        s = AlgNum.generator(t, 1)
        i = AlgNum.generator(t, 2)
        b = AlgNum.generator(t, 3)
        sqrt_plus = s * 4 / b  # sqrt(6 sqrt5 + 10) = sqrt(80)/b
        lam2 = i * b * d**6 * 4 / s
        lam4 = d**6 * 16 / b
        _wasow_constants = ChainConstants(
            tower=t,
            alpha=d**4,
            alpha_quarter_root=d,
            sqrt5=s,
            imag_unit=i,
            sqrt_minus=b,
            sqrt_plus=sqrt_plus,
            eigenvalues=(-lam2, lam2, -lam4, lam4),
        )
    return _wasow_constants
