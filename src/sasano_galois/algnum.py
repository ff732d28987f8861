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
(0 <= e_j < d_j), cleared of denominators: a sorted tuple of (exponent
tuple, nonzero int) pairs over one denominator den > 0, with
gcd(den, *numerators) == 1.  The kernels run on those integers.  The
tower's product kernel folds each exponent overflow through  gen_j^d_j =
c_j,  so every value is reduced canonically and equality of values is
equality of representations -- given that each defining binomial is
irreducible.  That is not certified in code: the guard that runs is the
exact check that no level's root is a basis monomial of the levels below
it.  The JSON encoding is that stored form, as a sorted list of [exponent
vector, "p/q"] pairs: 8*g^6 - 1/2 in the canonical tower is
[[[0, 0, 0], "-1/2"], [[6, 0, 0], "8"]].

Numbers are immutable and safe to share between threads.  The numeric
functions load the ball kernel (``ball``) on first use, so exact work
never compiles it.
The value base ``Frozen`` and the error root ``VerificationError`` live in
``ratfunc``, and the base level inverts by extended Euclid on its ``Poly``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add as _add
from typing import NamedTuple

from .ratfunc import Frozen, Poly, VerificationError, int_power, join_terms


class TowerError(VerificationError):
    """Raised for structurally invalid tower operations."""


# A value is a pair (terms, den): terms a sorted tuple of (exponent tuple,
# nonzero int) pairs with one exponent per level of its tower, den > 0 and
# gcd(den, *numerators) == 1; zero is ((), 1).

_ONE = Fraction(1)
_ZERO = ((), 1)

# Digits of the embeddings that fix principal branches and run the numeric
# audit; loading a tower proves its level roots at them.
AUDIT_DPS = 30


class TowerLevel(NamedTuple):
    """One extension step x^degree = c and a root choice.

    ``c`` is a nonzero number of the *previous* level, as sorted (exponent
    tuple, Fraction) pairs, so over Q it is ((), q).  ``approx`` is a
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
            self._rel.append(_value([(e + pad, q) for e, q in lv.c]))
        # Tables filled on first use: raw exponent sum -> reduced value, basis
        # monomial -> its inverse, any other value -> its inverse, (value,
        # precision) -> its embedding, radicand -> its principal square root
        # (a failed search or root check stores nothing), precision -> the
        # proven level roots, and (grid bits, exponents) -> the monomial's
        # embedding; two threads filling one key store equal values.
        self._fold: dict[tuple[int, ...], tuple] = {}
        self._unit_inv: dict[tuple[int, ...], tuple] = {}
        self._inverses: dict[tuple, tuple] = {}
        self._embeds: dict = {}
        self._sqrts: dict[tuple, AlgNum] = {}
        self._root_cache: dict[int, list] = {}
        self._monomials: dict = {}
        # An exact check: a lower basis monomial m with m^d == c would be a
        # root of the level, and equality of values would break.
        for j, lv in enumerate(self.levels):
            for exps in itertools.product(*map(range, self.degrees[:j])):
                m = (((exps + self._unit[j:], 1),), 1)
                if functools.reduce(self.mul, [m] * lv.degree) == self._rel[j]:
                    raise TowerError(f"root of level {lv.name!r} coincides with a lower-level element")

    # -- values and their product and inverse kernels ---------------------

    def monomial_value(self, exps: tuple[int, ...], coeff: Fraction = _ONE):
        """Value of coeff * prod(gen_j ** exps[j]); each exps[j] < degree_j."""
        if len(exps) != len(self.degrees):
            raise TowerError(f"monomial needs {len(self.degrees)} exponents, got {len(exps)}")
        for lvl, (e, d) in enumerate(zip(exps, self.degrees)):
            if not 0 <= e < d:
                raise TowerError(f"monomial exponent {e} out of range at level {lvl}")
        return _value([(tuple(exps), coeff)])

    def mul(self, a, b):
        (ta, da), (tb, db) = a, b
        if not ta or not tb:
            return _ZERO
        fold = self._fold
        acc: dict = {}
        den = 1  # common denominator of the folds used so far
        for ea, na in ta:
            for eb, nb in tb:
                key = tuple(map(_add, ea, eb))
                terms, fd = fold.get(key) or self._fold_monomial(key)
                if den % fd:
                    s = fd // math.gcd(den, fd)
                    den *= s
                    acc = {e: n * s for e, n in acc.items()}
                q = na * nb * (den // fd)
                for e, c in terms:
                    t = q * c
                    acc[e] = acc[e] + t if e in acc else t
        return _canon(acc.items(), da * db * den)

    def _fold_monomial(self, key: tuple[int, ...]):
        """prod gen_j^key[j] with every exponent below its degree (cached)."""
        for j in reversed(range(len(key))):
            d = self.degrees[j]
            if key[j] >= d:
                low = key[:j] + (key[j] - d,) + key[j + 1 :]
                folded = self.mul((((low, 1),), 1), self._rel[j])
                break
        else:
            folded = (((key, 1),), 1)
        self._fold[key] = folded
        return folded

    def inv(self, a):
        """Multiplicative inverse.

        A monomial n/den * m is den/n times the inverse of the basis
        monomial m, read from a table filled on first use.  A sum's inverse
        is computed once and kept: on each quadratic level a = a0 + a1*x has
        the inverse (a0 - a1*x) / N with the norm N = a0^2 - c*a1^2 one level
        down; the rational base level runs extended Euclid on ``Poly``.
        """
        terms, den = a
        if not terms:
            raise ZeroDivisionError("division by zero in tower field")
        if len(terms) == 1:
            ((e, n),) = terms
            unit = self._unit_inv.get(e)
            if unit is None:
                unit = self._unit_inv[e] = self._inv_sum((((e, 1),), 1))
            return _canon([(k, m * den) for k, m in unit[0]], unit[1] * n)
        inverse = self._inverses.get(a)
        if inverse is None:
            inverse = self._inverses[a] = self._inv_sum(a)
        return inverse

    def _inv_sum(self, a):
        conjugates = []
        for lvl in reversed(range(1, len(self.levels))):
            if any(e[lvl] for e, _ in a[0]):
                conj = (tuple([(e, -n) if e[lvl] else (e, n) for e, n in a[0]]), a[1])
                conjugates.append(conj)
                a = self.mul(a, conj)
        base = {e[0]: Fraction(n, a[1]) for e, n in a[0]}
        p = Poly.make([base.get(k, 0) for k in range(self.degrees[0])])
        inverse = _inv_mod_binomial(p, self.degrees[0], Fraction(self.levels[0].c[0][1]))
        out = _canon([((k,) + self._unit[1:], n) for k, n in enumerate(inverse.nums)], inverse.den)
        for conj in conjugates:
            out = self.mul(out, conj)
        return out

    # -- numerics ----------------------------------------------------------

    def roots(self, dps: int) -> list:
        """The chosen root of every level as a ball good to dps + 15 digits.

        Each root is the root of its binomial x^d = c nearest to the level's
        stored approximation, proven to be so by ``ball.nth_root``;
        otherwise this raises ``TowerError``.
        """
        roots = self._root_cache.get(dps)
        if roots is None:
            from .ball import Ball, bits, nth_root

            prec, roots = bits(dps + 15), []
            for level, c in zip(self.levels, self._rel):
                seed = Ball.rational(Fraction(level.approx[0]), prec, Fraction(level.approx[1]))
                root = nth_root(self.embed_value(c, roots, prec), level.degree, seed)
                if root is None:
                    raise TowerError(f"approximation for level {level.name!r} does not isolate a root")
                roots.append(root)
            self._root_cache[dps] = roots
        return roots

    def embed_value(self, value, roots: list, prec: int):
        """The ball of the value (terms, den) at the level roots, on the grid
        2^-prec: each integer coordinate times its monomial's ball, kept per
        (prec, exponents), summed and divided by den once.  The roots of the
        levels a value does not reach may be missing."""
        from .ball import Ball

        table, (terms, den) = self._monomials, value
        acc = Ball.rational(0, prec)
        for e, n in terms:
            mono = table.get((prec, e))
            if mono is None:
                mono = Ball.rational(1, prec)
                for r, k in zip(roots, e):
                    if k:
                        mono *= r**k
                table[(prec, e)] = mono
            acc += mono * n
        return acc / den

    # -- misc ----------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(lv.name for lv in self.levels)


def _canon(items, den: int):
    """The value of (exponent tuple, int) pairs, exponents distinct, over den != 0."""
    items = [item for item in items if item[1]]
    if not items:
        return _ZERO
    g = math.gcd(den, *[n for _, n in items])
    if den < 0:
        g = -g
    if g != 1:
        items = [(e, n // g) for e, n in items]
        den //= g
    items.sort()
    return tuple(items), den


def _value(items):
    """The value of (exponent tuple, rational) pairs with distinct exponents."""
    den = math.lcm(*[Fraction(q).denominator for _, q in items])
    return _canon([(e, int(q * den)) for e, q in items], den)


def _inv_mod_binomial(p: Poly, d: int, c: Fraction) -> Poly:
    """p^-1 modulo x^d - c over Q, by extended Euclid.

    The invariant s_k * p = r_k (mod x^d - c) holds throughout; the loop
    stops at a constant remainder, so s_k / r_k is the inverse.
    """
    r0, r1 = Poly.make([-c] + [0] * (d - 1) + [1]), p
    s0, s1 = Poly((), 1), Poly((1,), 1)
    while r1.degree() > 0:
        quot, rem = r0.divmod(r1)
        r0, r1, s0, s1 = r1, rem, s1, s0 - quot * s1
    if r1.is_zero():
        raise TowerError("zero divisor encountered; tower data is corrupt")
    return s1 * Fraction(r1.den, r1.nums[0])


class AlgNum(Frozen):
    """An exact element of a fixed extension tower.

    An immutable canonical value: sparse integer coordinates over one
    denominator (see the module docstring).  Sums and rational scaling
    act on it here, products and inverses in the tower's kernels.
    Arithmetic is exact; ``==`` means equality of numbers.  Mixed
    arithmetic with ``int`` and ``Fraction`` coerces into the tower.
    """

    __slots__ = ("tower", "value")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(tower: TowerSpec, q) -> AlgNum:
        q = Fraction(q)
        return AlgNum(tower, (((tower._unit, q.numerator),), q.denominator) if q else _ZERO)

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
        return not self.value[0]

    def coords(self) -> dict[tuple[int, ...], Fraction]:
        """Nonzero coordinates as Fractions, keyed by exponent tuple."""
        terms, den = self.value
        return {e: Fraction(n, den) for e, n in terms}

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (ta, da), (tb, db) = self.value, o.value
        if not tb:
            return self
        acc = {e: n * db for e, n in ta}
        for e, n in tb:
            acc[e] = acc[e] + n * da if e in acc else n * da
        return AlgNum(self.tower, _canon(acc.items(), da * db))

    __radd__ = __add__

    def __neg__(self):
        terms, den = self.value
        return AlgNum(self.tower, (tuple([(e, -n) for e, n in terms]), den))

    __sub__, __rsub__ = Frozen.__sub__, Frozen.__rsub__  # in the class dict, where perfbench/spans.py wraps them

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            terms, den = self.value
            return AlgNum(self.tower, _canon([(e, n * q.numerator) for e, n in terms], den * q.denominator))
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
        return bool(self.value[0])

    # -- presentation --------------------------------------------------------

    def __str__(self):
        names = self.tower.names()
        return join_terms(
            (str(q), "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e))
            for exps, q in self.coords().items()
        )

    def __repr__(self):
        return f"AlgNum({self})"

    def embed(self, precision: int = 20):
        """A ball enclosing the value, good to precision + 15 digits, kept per
        precision; sums and products of balls enclose the embeddings of the
        exact sums and products."""
        table, key = self.tower._embeds, (self.value, precision)
        z = table.get(key)
        if z is None:
            if precision < 15:
                raise TowerError("numeric embedding needs precision >= 15 digits")
            roots = self.tower.roots(precision)
            z = table[key] = self.tower.embed_value(self.value, roots, roots[0].prec)
        return z


def rational_recognize(a: AlgNum) -> Fraction | None:
    """The exact rational value of ``a``, or None if it is irrational."""
    terms, den = a.value
    if not terms:
        return Fraction(0)
    if len(terms) == 1 and not any(terms[0][0]):
        return Fraction(terms[0][1], den)
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The rational square root of q >= 0, or None."""
    if q < 0:
        return None
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    return root if root * root == q else None


def sqrt_in_tower(a: AlgNum) -> AlgNum:
    """An exact square root of ``a`` within its tower, principal branch.

    Searches for a representation sqrt(a) = m * (x + y*m2) where m, m2 are
    tower basis monomials with m2^2 rational and x, y rational.  This covers
    every radicand the pipeline produces.  Raises TowerError when the search
    finds no such root; that does not show that the tower has none.  The
    branch is fixed numerically: nonnegative real part, and nonnegative
    imaginary part on the imaginary axis.  A root found is kept in the
    tower's table; a failed search is not kept, so it raises on every call.
    """
    root = a.tower._sqrts.get(a.value)
    if root is None:
        root = a.tower._sqrts[a.value] = _search_sqrt(a)
    return root


def _search_sqrt(a: AlgNum) -> AlgNum:
    tower = a.tower
    if a.is_zero():
        return a
    one_key = tower._unit
    for exps in itertools.product(*map(range, tower.degrees)):
        m = AlgNum(tower, tower.monomial_value(exps))
        coords = (a / (m * m)).coords()  # nonzero: monomials are units
        nontrivial = set(coords) - {one_key}
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
    """``root`` or ``-root``, whichever has a positive real part, or a positive
    imaginary part where the real part is exactly zero; both read off the
    enclosure, never guessed."""
    z = root.embed(AUDIT_DPS)
    sign = z.sign()
    if sign == 0:
        sign = z.sign(imag=True)
    if not sign:
        raise TowerError(f"the enclosure of {root} does not decide its principal branch")
    return -root if sign < 0 else root


# ---------------------------------------------------------------------------
# JSON encoding: the stored sparse form as [exponent vector, "p/q"] pairs
# (see the module docstring), zero as [].  A tower level writes its constant
# c the same way, over the levels below it.


def _pairs_to_json(pairs) -> list:
    return [[list(e), str(q)] for e, q in pairs]


def algnum_to_json(a: AlgNum) -> list:
    return _pairs_to_json(a.coords().items())


def tower_to_json(tower: TowerSpec):
    return {
        "levels": [
            {"name": lv.name, "degree": lv.degree, "c": _pairs_to_json(lv.c), "approx": list(lv.approx)}
            for lv in tower.levels
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
    tower.roots(AUDIT_DPS)
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
