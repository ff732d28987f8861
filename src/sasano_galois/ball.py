"""Complex midpoint-radius balls on Python integers: the numeric kernel.

A ``Ball`` encloses one complex number: its real and imaginary parts lie
within ``rre`` and ``rim`` of the midpoint re + im*i, all in units of
2^-prec.  Every operation encloses its exact result for all enclosed
operands (Rump, "Verification methods", Acta Numerica 19, 2010), so a
sign or digit read off a ball is proven.  A part with zero midpoint and
radius is exactly zero and stays so under ``+`` and ``*``, as the real
and imaginary level roots of the towers need.  ``nth_root`` certifies a
root of x^d = c; ``decimal`` rounds correctly or reports the ball too
wide (Ziv, ACM TOMS 17, 1991).  It imports no package module.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, log10


def bits(dps: int) -> int:
    """Binary places that carry ``dps`` decimal digits, with guard bits."""
    return dps * 10 // 3 + 8


def _shift(m: int, r: int, s: int):
    """(m, r) times 2^-s: the midpoint floored, the radius rounded up to cover it."""
    q = m >> s
    return q, -(-r >> s) + (q << s != m)


def _div(m: int, r: int, d: int):
    """(m, r) divided by an integer d > 0, rounded as in ``_shift``."""
    q, rem = divmod(m, d)
    return q, -(-r // d) + (rem != 0)


class Ball:
    __slots__ = ("re", "im", "rre", "rim", "prec")

    def __init__(self, re: int, im: int, rre: int, rim: int, prec: int):
        self.re, self.im, self.rre, self.rim, self.prec = re, im, rre, rim, prec

    @staticmethod
    def rational(q, prec: int, imag=0) -> Ball:
        """The ball about q + imag*i on the grid 2^-prec, exact for dyadic parts."""
        (re, rre), (im, rim) = (_div(x.numerator << prec, 0, x.denominator) for x in map(Fraction, (q, imag)))
        return Ball(re, im, rre, rim, prec)

    def _pair(self, other):
        """self and other as balls on self's grid, or None for another type."""
        if type(other) is not Ball:
            return (self, Ball.rational(other, self.prec)) if isinstance(other, (int, Fraction)) else None
        if other.prec != self.prec:
            raise ValueError(f"balls on the grids 2^-{self.prec} and 2^-{other.prec}")
        return self, other

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Ball(x.re + y.re, x.im + y.im, x.rre + y.rre, x.rim + y.rim, x.prec)

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.re, -self.im, self.rre, self.rim, self.prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if type(other) is not Ball:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            n, d = other.numerator, other.denominator
            (re, rre), (im, rim) = _div(self.re * n, self.rre * abs(n), d), _div(self.im * n, self.rim * abs(n), d)
            return Ball(re, im, rre, rim, self.prec)
        x, y = self._pair(other)
        a, b, c, d, p = x.re, x.im, y.re, y.im, x.prec
        # |a'c' - ac| <= (|a| + ra)(|c| + rc) - |ac| for a' within ra of a and c' within rc of c
        A, B, C, D = abs(a) + x.rre, abs(b) + x.rim, abs(c) + y.rre, abs(d) + y.rim
        ac = a * c
        if not (B or D):  # both exactly real
            re, rre = _shift(ac, A * C - abs(ac), p)
            return Ball(re, 0, rre, 0, p)
        bd, ad, bc = b * d, a * d, b * c
        re, rre = _shift(ac - bd, A * C - abs(ac) + B * D - abs(bd), p)
        im, rim = _shift(ad + bc, A * D - abs(ad) + B * C - abs(bc), p)
        return Ball(re, im, rre, rim, p)

    __rmul__ = __mul__

    def inverse(self) -> Ball:
        """1/self: the conjugate times the reciprocal of the real ball |self|^2."""
        a, b, p = self.re, self.im, self.prec
        n = a * a + b * b
        rn = (abs(a) + self.rre) ** 2 + (abs(b) + self.rim) ** 2 - n  # |self|^2 within rn of n, units 2^-2p
        if n <= rn:
            raise ZeroDivisionError("the ball contains zero")
        # |1/n' - 1/n| <= rn / (n (n - rn)) for n' within rn of n
        m, r = _div(1 << 3 * p, -(-(rn << 3 * p) // (n - rn)), n)
        return Ball(a, -b, self.rre, self.rim, p) * Ball(m, 0, r, 0, p)

    def __truediv__(self, other):
        return self * (1 / Fraction(other) if isinstance(other, (int, Fraction)) else other.inverse())

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        out = self if n else Ball(1 << self.prec, 0, 0, 0, self.prec)
        for bit in bin(n)[3:]:  # left to right after the leading one
            out = out * out * self if bit == "1" else out * out
        return out

    def __bool__(self):
        """False only for an exact zero."""
        return bool(self.re or self.im or self.rre or self.rim)

    def mag(self) -> int:
        """An upper bound of |self|, in units of 2^-prec."""
        A, B = abs(self.re) + self.rre, abs(self.im) + self.rim
        return (A or B) and isqrt(A * A + B * B - 1) + 1

    def mig(self) -> int:
        """A lower bound of |self|, in units of 2^-prec."""
        return isqrt(max(abs(self.re) - self.rre, 0) ** 2 + max(abs(self.im) - self.rim, 0) ** 2)

    def __abs__(self) -> float:
        """An upper bound of |self|, rounded to the nearest float."""
        return self.mag() / (1 << self.prec)

    def sign(self, imag: bool = False):
        """The sign of one part, 0 only if it is exactly zero; None if undecided."""
        m, r = (self.im, self.rim) if imag else (self.re, self.rre)
        return (m > 0) - (m < 0) if abs(m) > r or not r else None

    def decimal(self, dps: int):
        """Both parts as ``mpmath.nstr`` writes them to ``dps`` digits, or None unless every digit is decided."""
        parts = (_decimal(self.re, self.rre, self.prec, dps), _decimal(self.im, self.rim, self.prec, dps))
        return None if None in parts else parts


def nth_root(c: Ball, d: int, x0: Ball):
    """The root of x^d = c nearest to x0, enclosed; None unless that is proven.

    Newton's method refines x0 to x.  The disk about x of radius
    rho = d |x^d - c| / |d x^(d-1)| holds a root, and the roots lie
    2 |c|^(1/d) sin(pi/d) >= 4 |c|^(1/d) / d apart, so |x - x0| + rho <
    2 |c|^(1/d) / d proves that root the only one in the disk and the
    nearest to x0.  For c exactly real the roots are symmetric in the
    real axis, and for even d in the imaginary axis, so a disk centred on
    such an axis holds a root on it.
    """
    x, p = x0, x0.prec
    try:
        for _ in range(64):
            power = x ** (d - 1)
            step = (power * x - c) / (power * d)
            x = Ball(x.re - step.re, x.im - step.im, 0, 0, p)
            if step.mag() < 64:
                break
        power = x ** (d - 1)
        rho = -(-((power * x - c).mag() << p) // power.mig())
    except ZeroDivisionError:
        return None
    if (((x - x0).mag() + rho) * d) ** d >= c.mig() << d + p * (d - 1):
        return None
    real = not (c.im or c.rim)
    if real and not x.im:
        return Ball(x.re, 0, rho, 0, p)
    if real and not x.re and d % 2 == 0:
        return Ball(0, x.im, 0, rho, p)
    return Ball(x.re, x.im, rho, rho, p)


def _decimal(m: int, r: int, prec: int, dps: int):
    """One part rounded half up to ``dps`` digits in ``mpmath.nstr``'s form: fixed
    point for exponents strictly between min(-(dps//3), -5) and dps, trailing
    zeros stripped, "0.0" for zero; None if undecided."""
    if not (m or r):
        return "0.0"
    lo = _round(abs(m) - r, prec, dps) if abs(m) > r else None
    if lo is None or lo != _round(abs(m) + r, prec, dps):
        return None
    n, e = lo
    fixed = min(-(dps // 3), -5) < e < dps
    digits, split = ("0" * -e + str(n), 1) if fixed and e < 0 else (str(n), e + 1 if fixed else 1)
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return ("-" if m < 0 else "") + text + ("0" if text.endswith(".") else "") + ("" if fixed else f"e{e:+d}")


def _round(n: int, prec: int, dps: int):
    """(N, e): n * 2^-prec > 0 rounded half up to N * 10^(e + 1 - dps), 10^(dps-1) <= N < 10^dps."""
    e = floor((n.bit_length() - 1 - prec) * log10(2)) - 1  # at most the decimal exponent
    while True:  # a rounding up to 10^dps (a carry) is redone one exponent higher
        k = dps - 1 - e
        num, den = (n * 10**k, 1 << prec) if k >= 0 else (n, 10**-k << prec)
        N = (2 * num + den) // (2 * den)
        if N < 10**dps:
            return N, e
        e += 1
