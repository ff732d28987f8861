"""Linear differential systems with exact matrix coefficients.

A system is dX/dx = M(x) X where M is a square matrix of Puiseux
polynomials over an algebraic number tower.  The module provides the
transformations a singularity analysis needs, each implemented so that
the output coefficients stay exact:

* constant gauges X = T Y with an algebraic matrix T,
* diagonal power gauges ("shears") T = diag(1, x^g, x^(2g), ...),
* substitutions x = r^m * u^q with positive rational q,
* leading-coefficient extraction at the growing end of the variable,
* exact eigen-decomposition for matrices with distinct known eigenvalues.

Matrices are tuples of tuples to keep the dataclasses hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algnum import AlgNum, TowerError, TowerSpec
from .puiseux import AlgPoly, PuiseuxPoly

AlgMatrix = tuple[tuple[AlgNum, ...], ...]
PolyMatrix = tuple[tuple[PuiseuxPoly, ...], ...]


# -- exact linear algebra over a tower ----------------------------------------


def diagonal_matrix(tower: TowerSpec, diag: Sequence[AlgNum]) -> AlgMatrix:
    zero = AlgNum.from_rational(tower, 0)
    return tuple(tuple(d if i == j else zero for j in range(len(diag))) for i, d in enumerate(diag))


def identity_matrix(tower: TowerSpec, n: int) -> AlgMatrix:
    return diagonal_matrix(tower, [AlgNum.from_rational(tower, 1)] * n)


def mat_add(a: AlgMatrix, b: AlgMatrix) -> AlgMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: AlgMatrix, b: AlgMatrix) -> AlgMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: AlgMatrix, c) -> AlgMatrix:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a, b):
    """Matrix product for entries with ``+`` and ``*``.

    Each sum starts from its first product, so the entries need no zero:
    tower numbers, Puiseux polynomials, integers and mpmath numbers alike.
    """
    n, inner, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_trace(a: AlgMatrix) -> AlgNum:
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def mat_rref(a: AlgMatrix) -> tuple[list[list[AlgNum]], list[int]]:
    """Reduced row echelon form with exact pivoting; returns (rows, pivot cols)."""
    rows = [list(r) for r in a]
    n, m = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pr = next((k for k in range(r, n) if not rows[k][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for k in range(n):
            if k != r and not rows[k][c].is_zero():
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def mat_inv(a: AlgMatrix) -> AlgMatrix:
    n = len(a)
    tower = a[0][0].tower
    ident = identity_matrix(tower, n)
    aug = tuple(tuple(a[i]) + tuple(ident[i]) for i in range(n))
    rows, pivots = mat_rref(aug)
    if pivots != list(range(n)):
        raise TowerError("matrix is singular, cannot invert")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def nullspace_line(a: AlgMatrix) -> tuple[AlgNum, ...]:
    """The kernel vector of a matrix with nullity exactly one.

    Scaled so the first nonzero entry is 1.  Raises if the nullity is not
    one.
    """
    tower = a[0][0].tower
    m = len(a[0])
    rows, pivots = mat_rref(a)
    free = [c for c in range(m) if c not in pivots]
    if len(free) != 1:
        raise TowerError(f"expected a one-dimensional kernel, nullity is {len(free)}")
    j0 = free[0]
    one = AlgNum.from_rational(tower, 1)
    zero = AlgNum.from_rational(tower, 0)
    v = [zero] * m
    v[j0] = one
    for r, pc in enumerate(pivots):
        v[pc] = -rows[r][j0]
    lead = next(e for e in v if not e.is_zero())
    scale = lead.inverse()
    return tuple(e * scale for e in v)


def char_poly(a: AlgMatrix) -> AlgPoly:
    """Characteristic polynomial det(L*I - a) via the trace recursion.

    The Faddeev-LeVerrier scheme needs only matrix products and exact
    division by small integers, both available in the tower.
    """
    n = len(a)
    tower = a[0][0].tower
    ident = identity_matrix(tower, n)
    mk = ident
    cs = []
    for k in range(1, n + 1):
        am = mat_mul(a, mk)
        ck = -(mat_trace(am) / k)
        cs.append(ck)
        mk = mat_add(am, mat_scale(ident, ck))
    one = AlgNum.from_rational(tower, 1)
    return AlgPoly.make(tower, list(reversed(cs)) + [one])


def eigen_decompose_distinct(
    a: AlgMatrix, eigenvalues: Sequence[AlgNum]
) -> tuple[AlgMatrix, AlgMatrix]:
    """Exact diagonalization given the full list of distinct eigenvalues.

    Each eigenvector is the one-dimensional kernel of a - lam*I, scaled so
    its first entry is 1 (the matrices this runs on are companion-like, so
    the first entry never vanishes).  Returns (T, T^-1) with
    T^-1 a T = diag(eigenvalues), verified exactly before returning.
    """
    n = len(a)
    if len(eigenvalues) != n:
        raise TowerError("need as many eigenvalues as the matrix dimension")
    for i in range(n):
        for j in range(i + 1, n):
            if eigenvalues[i] == eigenvalues[j]:
                raise TowerError("eigenvalues must be pairwise distinct")
    tower = a[0][0].tower
    p = char_poly(a)
    for lam in eigenvalues:
        if not p(lam).is_zero():
            raise TowerError(f"{lam} is not a root of the characteristic polynomial")
    ident = identity_matrix(tower, n)
    cols = []
    for lam in eigenvalues:
        v = nullspace_line(mat_sub(a, mat_scale(ident, lam)))
        if v[0].is_zero():
            raise TowerError("eigenvector has zero first entry, cannot normalize")
        scale = v[0].inverse()
        cols.append(tuple(e * scale for e in v))
    t = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    t_inv = mat_inv(t)
    if mat_mul(t_inv, mat_mul(a, t)) != diagonal_matrix(tower, eigenvalues):
        raise TowerError("conjugation by the eigenvectors does not give diag(eigenvalues)")
    return t, t_inv


# -- differential systems ------------------------------------------------------


@dataclass(frozen=True)
class DiffSystem:
    """dX/dx = matrix(x) X with Puiseux polynomial entries."""

    var: str
    matrix: PolyMatrix

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def tower(self) -> TowerSpec:
        return self.matrix[0][0].tower

    def entry(self, i: int, j: int) -> PuiseuxPoly:
        return self.matrix[i][j]

    def render(self) -> str:
        lines = []
        for row in self.matrix:
            lines.append("[" + ",  ".join(e.render(self.var) for e in row) + "]")
        return "\n".join(lines)


def lift_matrix(tower: TowerSpec, a: AlgMatrix) -> PolyMatrix:
    return tuple(tuple(PuiseuxPoly.const(tower, e) for e in row) for row in a)


def pmat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Product of two Puiseux polynomial matrices."""
    return mat_mul(a, b)


def gauge_constant(system: DiffSystem, t: AlgMatrix, t_inv: AlgMatrix) -> DiffSystem:
    """Apply X = T Y with constant invertible T and its inverse; the new
    matrix is T^-1 M T.  The caller vouches that t_inv inverts t."""
    tower = system.tower
    lifted = pmat_mul(lift_matrix(tower, t_inv), pmat_mul(system.matrix, lift_matrix(tower, t)))
    return DiffSystem(system.var, lifted)


def gauge_shear(system: DiffSystem, g: Fraction) -> DiffSystem:
    """Apply the diagonal gauge T = diag(x^(0g), x^(1g), ..., x^((n-1)g)).

    The conjugation shifts entry (i, j) by (j - i) g; the derivative of T
    contributes -diag(0, g, 2g, ...) / x on the diagonal.
    """
    g = Fraction(g)
    tower = system.tower
    n = system.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = system.matrix[i][j].shift((j - i) * g)
            if i == j and i > 0:
                e = e - PuiseuxPoly.monomial(tower, i * g, Fraction(-1))
            row.append(e)
        rows.append(tuple(row))
    return DiffSystem(system.var, tuple(rows))


def change_variable_power(
    system: DiffSystem, new_var: str, root: AlgNum, index: int, power: Fraction
) -> DiffSystem:
    """Substitute x = root^index * u^power, with the chain-rule prefactor.

    dX/du = phi'(u) M(phi(u)) X for phi(u) = scale * u^power with
    scale = root^index, so every entry is expanded by substitution and
    multiplied by the monomial scale * power * u^(power - 1).  The root is
    inverted once, for all entries, when some entry has a negative exponent.
    """
    power = Fraction(power)
    dphi = PuiseuxPoly.monomial(system.tower, root**index * power, power - 1)
    negative = any(e.terms and e.terms[0][0] < 0 for row in system.matrix for e in row)
    inv = root.inverse() if negative else None
    rows = tuple(
        tuple(e.substitute_power(root, index, power, inv) * dphi for e in row)
        for row in system.matrix
    )
    return DiffSystem(new_var, rows)


def leading_data(system: DiffSystem) -> tuple[Fraction, AlgMatrix]:
    """Top exponent r over all entries and the matrix of x^r coefficients."""
    tower = system.tower
    tops = [
        e.max_exponent() for row in system.matrix for e in row if not e.is_zero()
    ]
    if not tops:
        raise TowerError("zero system has no leading exponent")
    r = max(tops)
    zero = AlgNum.from_rational(tower, 0)
    lead = tuple(
        tuple(e.coeff_at(r) if not e.is_zero() else zero for e in row)
        for row in system.matrix
    )
    return r, lead


def block_split(system: DiffSystem, sizes: Sequence[int]) -> list[DiffSystem]:
    """Split a block-diagonal system; raises if any off-block entry is nonzero."""
    if sum(sizes) != system.dim:
        raise TowerError("block sizes must sum to the dimension")
    bounds = []
    start = 0
    for s in sizes:
        bounds.append((start, start + s))
        start += s
    for i in range(system.dim):
        for j in range(system.dim):
            inside = any(a <= i < b and a <= j < b for a, b in bounds)
            if not inside and not system.matrix[i][j].is_zero():
                raise TowerError(f"entry ({i},{j}) breaks the block structure")
    out = []
    for a, b in bounds:
        rows = tuple(tuple(system.matrix[i][j] for j in range(a, b)) for i in range(a, b))
        out.append(DiffSystem(system.var, rows))
    return out


def system_numeric(system: DiffSystem, x_root, root_index: int, precision: int = 20):
    """Entrywise numeric evaluation at x = x_root^root_index.

    x_root is a chosen numeric value of x^(1/root_index); it fixes the
    branch for every fractional power.  root_index must be a multiple of
    each entry's ramification.
    """
    out = []
    for row in system.matrix:
        vals = []
        for e in row:
            if root_index % e.ram != 0:
                raise TowerError(
                    f"root index {root_index} incompatible with ramification {e.ram}"
                )
            vals.append(e.eval_numeric(x_root ** (root_index // e.ram), precision))
        out.append(vals)
    return out
