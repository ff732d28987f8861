"""Exact arithmetic in a fixed tower of binomial field extensions.

Every number that appears in the verification pipeline lives in one of two
explicit towers over the rationals:

* the canonical tower  Q(g)(i)(b)  with  g^12 = 5/64  (real positive root,
  so sqrt(5) = 8*g^6),  i^2 = -1,  and  b^2 = 48*g^6 - 10 = 6*sqrt(5) - 10
  (real positive root); total degree 48;
* an alternate tower  Q(d)(s)(i)(b)  with  d^7 = 1/4,  s^2 = 5, used by the
  Wasow-style time normalization; total degree 56.

Every level is a binomial  x^d = c  over the level below it, and every
level above the rational base is quadratic.  An ``AlgNum`` is stored
sparsely, as its nonzero coordinates in the tower basis  prod gen_j^e_j
(0 <= e_j < d_j): a sorted tuple of (exponent tuple, Fraction) pairs.  The
tower's product kernel folds each exponent overflow through  gen_j^d_j =
c_j,  so every value is reduced canonically and equality of values is
equality of representations -- given that each defining binomial is
irreducible.  That is not certified in code: the only guard that runs is
the numeric ``TowerSpec.self_check``.  The dense nested coefficient layout
survives only in the JSON encoding.

Numbers are immutable and safe to share between threads.  The numeric
functions import mpmath on first use, so exact work never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add as _add
from typing import NamedTuple


class VerificationError(ValueError):
    """Base of every engine error: a check that failed or data that does not
    read.  Each report builder catches it once and emits a fail section."""


class TowerError(VerificationError):
    """Raised for structurally invalid tower operations."""


# A value is a sorted tuple of (exponent tuple, nonzero Fraction) pairs with
# one exponent per level of its tower; () is zero.  The constant c of a
# level's binomial is a value of the tower below it, so over Q it is ((), q).

_ONE = Fraction(1)


class TowerLevel(NamedTuple):
    """One extension step x^degree = c and a root choice.

    ``c`` is a nonzero value of the *previous* level.  ``approx`` is a
    decimal isolating approximation of the chosen root, used for branch
    selection.
    """

    name: str
    degree: int
    c: tuple
    approx: tuple  # (real_str, imag_str)


class TowerSpec:
    """A fixed tower of binomial field extensions of Q.

    It holds the levels, the fold table, the raw ``mul`` and ``inv``
    kernels on bare values and the numerics; ``AlgNum`` does the rest.
    Instances are meant to be process-wide singletons; numbers from
    different instances never mix.
    """

    def __init__(self, levels: tuple[TowerLevel, ...]):
        if not levels:
            raise TowerError("tower needs at least one level")
        self.levels = tuple(levels)
        self.degrees = tuple(lv.degree for lv in levels)
        n = len(levels)
        self._unit = (0,) * n
        self._rel = []  # gen_j^d_j as a value of this tower
        for j, lv in enumerate(self.levels):
            if lv.degree < 1 or not lv.c:
                raise TowerError(f"level {lv.name!r} is not a binomial x^{lv.degree} = c with c != 0")
            if j and lv.degree != 2:
                raise TowerError(f"level {lv.name!r} above the rational base must be quadratic")
            pad = (0,) * (n - j)
            self._rel.append(tuple([(e + pad, q) for e, q in lv.c]))
        # Raw exponent sum -> reduced value; two threads filling one key store equal values.
        self._fold: dict[tuple[int, ...], tuple] = {}
        self._root_cache: dict[int, list] = {}
        self._monomials: dict = {}  # (precision, exponents) -> mpmath.mpc
        self._checked = False

    # -- values and their product and inverse kernels ---------------------

    def monomial_value(self, exps: tuple[int, ...], coeff: Fraction = _ONE):
        """Value of coeff * prod(gen_j ** exps[j]); each exps[j] < degree_j."""
        if len(exps) != len(self.degrees):
            raise TowerError(f"monomial needs {len(self.degrees)} exponents, got {len(exps)}")
        for lvl, (e, d) in enumerate(zip(exps, self.degrees)):
            if not 0 <= e < d:
                raise TowerError(f"monomial exponent {e} out of range at level {lvl}")
        coeff = Fraction(coeff)
        return ((tuple(exps), coeff),) if coeff else ()

    def mul(self, a, b):
        if not a or not b:
            return ()
        fold = self._fold
        acc: dict = {}
        for ea, qa in a:
            for eb, qb in b:
                key = tuple(map(_add, ea, eb))
                q = qa * qb
                for e, c in fold.get(key) or self._fold_monomial(key):
                    t = q * c
                    acc[e] = acc[e] + t if e in acc else t
        return _collect(acc)

    def _fold_monomial(self, key: tuple[int, ...]):
        """prod gen_j^key[j] with every exponent below its degree (cached)."""
        for j in reversed(range(len(key))):
            d = self.degrees[j]
            if key[j] >= d:
                low = key[:j] + (key[j] - d,) + key[j + 1 :]
                folded = self.mul(((low, _ONE),), self._rel[j])
                break
        else:
            folded = ((key, _ONE),)
        self._fold[key] = folded
        return folded

    def inv(self, a):
        """Multiplicative inverse.

        On each quadratic level, a = a0 + a1*x has the inverse
        (a0 - a1*x) / N with the norm N = a0^2 - c*a1^2 one level down;
        the rational base level runs extended Euclid over Q.
        """
        if not a:
            raise ZeroDivisionError("division by zero in tower field")
        conjugates = []
        for lvl in reversed(range(1, len(self.levels))):
            if any(e[lvl] for e, _ in a):
                conj = tuple([(e, -q) if e[lvl] else (e, q) for e, q in a])
                conjugates.append(conj)
                a = self.mul(a, conj)
        d, c = self.degrees[0], self._rel[0][0][1]
        p = [Fraction(0)] * d
        for e, q in a:
            p[e[0]] = q
        rest = self._unit[1:]
        out = tuple([((k,) + rest, q) for k, q in enumerate(_inv_mod_binomial(p, d, c)) if q])
        for conj in conjugates:
            out = self.mul(out, conj)
        return out

    def basis_exponents(self):
        return itertools.product(*(range(d) for d in self.degrees))

    # -- numerics ----------------------------------------------------------

    def _level_roots(self, lvl: int, below: list):
        """Every root of level ``lvl``'s binomial over the chosen roots ``below``, and its seed."""
        import mpmath

        level = self.levels[lvl]
        c = _evaluate(self._rel[lvl], below)
        seed = mpmath.mpc(mpmath.mpf(level.approx[0]), mpmath.mpf(level.approx[1]))
        return [mpmath.root(c, level.degree, k) for k in range(level.degree)], seed

    def roots(self, dps: int) -> list:
        """Numeric roots of every level at the given precision."""
        roots = self._root_cache.get(dps)
        if roots is None:
            import mpmath

            roots = []
            with mpmath.mp.workdps(dps + 15):
                for lvl in range(len(self.levels)):
                    cands, seed = self._level_roots(lvl, roots)
                    roots.append(min(cands, key=lambda r: abs(r - seed)))
            self._root_cache[dps] = roots
        return roots

    def embed_value(self, v, precision: int = 20):
        if precision < 15:
            raise TowerError("numeric embedding needs precision >= 15 digits")
        import mpmath

        self.self_check()
        roots = self.roots(precision)
        cache = self._monomials
        with mpmath.mp.workdps(precision + 15):
            acc = mpmath.mpc(0)
            for e, q in v:
                mono = cache.get((precision, e))
                if mono is None:
                    mono = cache[(precision, e)] = _evaluate(((e, _ONE),), roots)
                acc += mpmath.mpf(q.numerator) / q.denominator * mono
            return acc

    def self_check(self) -> None:
        """Numeric guard run once per tower before any embedding.

        Each binomial x^d - c has c != 0 (checked at construction), so it
        is squarefree.  This confirms that the stored approximation
        isolates exactly one of its roots, and that no root coincides with
        a lower-level basis monomial (which would signal an accidentally
        reducible extension and corrupt equality testing).  It does not
        prove irreducibility.
        """
        if self._checked:
            return
        import mpmath

        with mpmath.mp.workdps(40):
            below: list = []
            for lvl, level in enumerate(self.levels):
                cands, seed = self._level_roots(lvl, below)
                dists = sorted(abs(r - seed) for r in cands)
                if dists[0] > mpmath.mpf("1e-3") or (len(dists) > 1 and dists[1] < 1000 * (dists[0] + mpmath.mpf("1e-35"))):
                    raise TowerError(f"approximation for level {level.name!r} does not isolate a root")
                for exps in itertools.product(*(range(d) for d in self.degrees[:lvl])):
                    probe = _evaluate(((exps, _ONE),), below)
                    if any(abs(r - probe) < mpmath.mpf("1e-20") for r in cands):
                        raise TowerError(f"root of level {level.name!r} coincides with a lower-level element")
                below.append(min(cands, key=lambda r: abs(r - seed)))
        self._checked = True

    # -- misc ----------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(lv.name for lv in self.levels)


def _collect(acc: dict):
    return tuple(sorted([item for item in acc.items() if item[1]]))


def _evaluate(value, roots: list):
    """Numeric value of a tower value at the given level roots."""
    import mpmath

    acc = mpmath.mpc(0)
    for e, q in value:
        term = mpmath.mpf(q.numerator) / q.denominator
        for r, k in zip(roots, e):
            if k:
                term *= r**k
        acc += term
    return acc


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _inv_mod_binomial(p: list, d: int, c: Fraction) -> list:
    """Coefficients of p^-1 modulo x^d - c over Q, by extended Euclid.

    The invariant s_k * p = r_k (mod x^d - c) holds throughout; the loop
    stops at a constant remainder, so s_k / r_k is the inverse.
    """
    r0, r1 = [-c] + [Fraction(0)] * (d - 1) + [_ONE], _trim(list(p))
    s0, s1 = [], [_ONE]
    while len(r1) > 1:
        rem, quot = list(r0), [Fraction(0)] * (len(r0) - len(r1) + 1)
        for k in reversed(range(len(quot))):
            f = quot[k] = rem[k + len(r1) - 1] / r1[-1]
            for j, y in enumerate(r1):
                if f and y:
                    rem[k + j] -= f * y
        s = s0 + [Fraction(0)] * (len(quot) + len(s1) - 1 - len(s0))
        for i, x in enumerate(quot):
            for j, y in enumerate(s1):
                if x and y:
                    s[i + j] -= x * y
        r0, r1, s0, s1 = r1, _trim(rem[: len(r1) - 1]), s1, _trim(s)
    if not r1:
        raise TowerError("zero divisor encountered; tower data is corrupt")
    return [x / r1[0] for x in s1]


class AlgNum:
    """An exact element of a fixed extension tower.

    An immutable canonical sparse coordinate tuple; sums and rational
    scaling act on it here, products and inverses in the tower's kernels.
    Arithmetic is exact; ``==`` means equality of numbers.  Mixed
    arithmetic with ``int`` and ``Fraction`` coerces into the tower.
    """

    __slots__ = ("tower", "value")

    def __init__(self, tower: TowerSpec, value):
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("AlgNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(tower: TowerSpec, q) -> AlgNum:
        q = Fraction(q)
        return AlgNum(tower, ((tower._unit, q),) if q else ())

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
        return not self.value

    def coords(self) -> dict[tuple[int, ...], Fraction]:
        """Nonzero coordinates, keyed by exponent tuple."""
        return dict(self.value)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.value:
            return self
        acc = dict(self.value)
        for e, q in o.value:
            acc[e] = acc[e] + q if e in acc else q
        return AlgNum(self.tower, _collect(acc))

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.tower, tuple([(e, -q) for e, q in self.value]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return AlgNum(self.tower, tuple([(e, q * c) for e, c in self.value]) if q else ())
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.tower, self.tower.mul(self.value, o.value))

    __rmul__ = __mul__

    def inverse(self) -> AlgNum:
        return AlgNum(self.tower, self.tower.inv(self.value))

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
        return hash((id(self.tower), self.value))

    def __bool__(self):
        return bool(self.value)

    # -- presentation --------------------------------------------------------

    def __str__(self):
        names = self.tower.names()
        return join_terms(
            (str(q), "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e))
            for exps, q in self.value
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
    v = a.value
    if not v:
        return Fraction(0)
    if len(v) == 1 and not any(v[0][0]):
        return v[0][1]
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
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_in_tower(a: AlgNum) -> AlgNum:
    """An exact square root of ``a`` within its tower, principal branch.

    Searches for a representation sqrt(a) = m * (x + y*m2) where m, m2 are
    tower basis monomials with m2^2 rational and x, y rational.  This covers
    every radicand the pipeline produces.  Raises TowerError when the search
    finds no such root; that does not show that the tower has none.  The
    branch is fixed numerically: nonnegative real part, and nonnegative
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
    raise TowerError(f"the monomial search found no square root of {a} in tower {tower.names()}")


def _principal_branch(root: AlgNum) -> AlgNum:
    import mpmath

    z = root.embed(30)
    tol = mpmath.mpf("1e-25")
    if z.real < -tol:
        return -root
    if abs(z.real) <= tol and z.imag < 0:
        return -root
    return root


# ---------------------------------------------------------------------------
# JSON encoding: dense nested arrays of "p/q" strings, outermost index = last
# tower generator; the tower itself serializes alongside.


def _to_dense(degrees: tuple[int, ...], value):
    coords = dict(value)

    def build(lvl: int, suffix: tuple[int, ...]):
        if lvl < 0:
            return str(coords.get(suffix, 0))
        return [build(lvl - 1, (e,) + suffix) for e in range(degrees[lvl])]

    return build(len(degrees) - 1, ())


def algnum_to_json(a: AlgNum):
    return _to_dense(a.tower.degrees, a.value)


def _binomial_coeffs(level: TowerLevel):
    """The coefficients of x^0 .. x^(degree-1) in x^degree - c."""
    return [tuple([(e, -q) for e, q in level.c])] + [()] * (level.degree - 1)


def tower_to_json(tower: TowerSpec):
    return {
        "levels": [
            {
                "name": lv.name,
                "degree": lv.degree,
                "poly": [_to_dense(tower.degrees[:idx], c) for c in _binomial_coeffs(lv)],
                "approx": [lv.approx[0], lv.approx[1]],
            }
            for idx, lv in enumerate(tower.levels)
        ]
    }


# ---------------------------------------------------------------------------
# The two towers used by the pipeline.

_GAMMA_APPROX = ("0.80859770158337408893665066179", "0")
_BETA_APPROX = ("1.84835274366088957810426637215", "0")
_DELTA_APPROX = ("0.82033535600763793117028468287", "0")
_SQRT5_APPROX = ("2.23606797749978969640917366873", "0")


def _checked_tower(*levels: TowerLevel) -> TowerSpec:
    tower = TowerSpec(levels)
    tower.self_check()
    return tower


@functools.cache
def canonical_tower() -> TowerSpec:
    """Q(g)(i)(b): g^12 = 5/64, i^2 = -1, b^2 = 48 g^6 - 10; degree 48."""
    return _checked_tower(
        TowerLevel("g", 12, (((), Fraction(5, 64)),), _GAMMA_APPROX),
        TowerLevel("i", 2, (((0,), Fraction(-1)),), ("0", "1")),
        TowerLevel("b", 2, (((0, 0), Fraction(-10)), ((6, 0), Fraction(48))), _BETA_APPROX),
    )


@functools.cache
def wasow_tower() -> TowerSpec:
    """Q(d)(s)(i)(b): d^7 = 1/4, s^2 = 5, i^2 = -1, b^2 = 6s - 10; degree 56."""
    return _checked_tower(
        TowerLevel("d", 7, (((), Fraction(1, 4)),), _DELTA_APPROX),
        TowerLevel("s", 2, (((0,), Fraction(5)),), _SQRT5_APPROX),
        TowerLevel("i", 2, (((0, 0), Fraction(-1)),), ("0", "1")),
        TowerLevel("b", 2, (((0, 0, 0), Fraction(-10)), ((0, 1, 0), Fraction(6))), _BETA_APPROX),
    )


class ChainConstants(NamedTuple):
    """The exact numbers a reduction run needs, tied to one tower.

    ``alpha_quarter_root`` is the exact fourth root of the time-rescaling
    constant alpha, whose cube is rational (the substitution
    t = alpha * tau^4 produces quarter powers of alpha).  ``eigenvalues``
    are the four leading eigenvalues of the decoupled stage in the fixed
    order (-i*m, +i*m, -p, +p).
    """

    tower: TowerSpec
    alpha_quarter_root: AlgNum
    sqrt5: AlgNum
    imag_unit: AlgNum
    sqrt_minus: AlgNum  # sqrt(6*sqrt5 - 10)
    sqrt_plus: AlgNum  # sqrt(6*sqrt5 + 10)
    eigenvalues: tuple[AlgNum, AlgNum, AlgNum, AlgNum]


@functools.cache
def canonical_constants() -> ChainConstants:
    t = canonical_tower()
    g = AlgNum.generator(t, 0)
    i = AlgNum.generator(t, 1)
    b = AlgNum.generator(t, 2)
    sqrt5 = g**6 * 8
    sqrt_plus = g**6 * 32 / b
    lam2 = i * b / 2
    lam4 = sqrt_plus / 2
    return ChainConstants(
        tower=t,
        alpha_quarter_root=g,
        sqrt5=sqrt5,
        imag_unit=i,
        sqrt_minus=b,
        sqrt_plus=sqrt_plus,
        eigenvalues=(-lam2, lam2, -lam4, lam4),
    )


@functools.cache
def wasow_constants() -> ChainConstants:
    t = wasow_tower()
    d = AlgNum.generator(t, 0)
    s = AlgNum.generator(t, 1)
    i = AlgNum.generator(t, 2)
    b = AlgNum.generator(t, 3)
    sqrt_plus = s * 4 / b  # sqrt(6 sqrt5 + 10) = sqrt(80)/b
    lam2 = i * b * d**6 * 4 / s
    lam4 = d**6 * 16 / b
    return ChainConstants(
        tower=t,
        alpha_quarter_root=d,
        sqrt5=s,
        imag_unit=i,
        sqrt_minus=b,
        sqrt_plus=sqrt_plus,
        eigenvalues=(-lam2, lam2, -lam4, lam4),
    )
