"""Linear differential systems with exact matrix coefficients.

A system is dX/dx = M(x) X where M is a square matrix of Puiseux
polynomials over an algebraic number tower.  The module provides the
transformations a singularity analysis needs, each implemented so that
the output coefficients stay exact:

* constant gauges X = T Y with an algebraic matrix T,
* diagonal power gauges ("shears") T = diag(1, x^g, x^(2g), ...),
* substitutions x = r^m * u^q with positive rational q,
* leading-coefficient extraction at the growing end of the variable,
* characteristic polynomials by the trace recursion,
* exact eigen-decomposition for matrices with distinct known eigenvalues,
  from the spectral projectors alone (no elimination).

Matrices are tuples of tuples, so a system is immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algnum import AlgNum, TowerError, TowerSpec
from .puiseux import PuiseuxPoly
from .ratfunc import Frozen

AlgMatrix = tuple[tuple[AlgNum, ...], ...]
PolyMatrix = tuple[tuple[PuiseuxPoly, ...], ...]


# -- exact linear algebra over a tower ----------------------------------------


def diagonal_matrix(tower: TowerSpec, diag: Sequence[AlgNum]) -> AlgMatrix:
    zero = AlgNum.from_rational(tower, 0)
    return tuple(tuple(d if i == j else zero for j in range(len(diag))) for i, d in enumerate(diag))


def identity_matrix(tower: TowerSpec, n: int) -> AlgMatrix:
    return diagonal_matrix(tower, [AlgNum.from_rational(tower, 1)] * n)


def mat_mul(a, b):
    """Matrix product for entries with ``+``, ``*`` and ``bool``.

    Only products of two nonzero factors are formed, and each sum starts
    from its first one, so the entries need no zero: tower numbers, Puiseux
    polynomials, integers and numeric balls alike.  A sum with no such
    product is whichever of a[i][0], b[0][j] is zero, so both matrices
    need one entry type.
    """
    cols = tuple(zip(*b))
    out = []
    for row in a:
        nonzero = [(k, x) for k, x in enumerate(row) if x]
        sums = []
        for col in cols:
            acc = None
            for k, x in nonzero:
                if y := col[k]:
                    acc = x * y if acc is None else acc + x * y
            sums.append((col[0] if row[0] else row[0]) if acc is None else acc)
        out.append(tuple(sums))
    return tuple(out)


def char_poly(a: AlgMatrix) -> PuiseuxPoly:
    """Characteristic polynomial det(L*I - a) via the trace recursion.

    The Faddeev-LeVerrier scheme needs only matrix products and exact
    division by small integers, both available in the tower:
    M_k = a M_(k-1) + c_k I with c_k = -tr(a M_(k-1)) / k.  The result is
    a ``PuiseuxPoly`` with ``ram == 1``; calling it evaluates it.
    """
    n = len(a)
    tower = a[0][0].tower
    mk = identity_matrix(tower, n)
    cs = []
    for k in range(1, n + 1):
        mk = [list(row) for row in mat_mul(a, mk)]
        ck = -(sum((mk[i][i] for i in range(1, n)), mk[0][0]) / k)
        cs.append(ck)
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
    return PuiseuxPoly.from_terms(tower, 1, enumerate([*reversed(cs), 1]))


def _projector_times(m: AlgMatrix, others: Sequence[AlgNum], vec: tuple) -> tuple:
    """The product of (m - mu*I) over ``others``, applied to a column vector."""
    for mu in others:
        mv = mat_mul(m, tuple(zip(vec)))
        vec = tuple(r[0] - mu * x for r, x in zip(mv, vec))
    return vec


def eigen_decompose_distinct(
    a: AlgMatrix, eigenvalues: Sequence[AlgNum]
) -> tuple[AlgMatrix, AlgMatrix]:
    """Exact diagonalization given the full list of distinct eigenvalues.

    For each eigenvalue lam, P = prod_{mu != lam} (a - mu*I) is a multiple
    of the Frobenius covariant v w^T of Sylvester's formula, v and w the
    right and left eigenvectors (Horn & Johnson, Topics in Matrix
    Analysis, 1991, ch. 6).  Matrix-vector products with P give both
    without elimination: w = e0^T P, and v = P e_k for the first k with
    w_k != 0, scaled so its first entry (w_k) is 1.  A zero w means the
    eigenvector has a zero first entry (never, on the companion-like
    matrices this runs on).  Left and right eigenvectors of distinct
    eigenvalues are orthogonal, so w / (w . v) is the matching row of
    T^-1.  Returns (T, T^-1) with T^-1 a T = diag(eigenvalues), verified
    exactly before returning.
    """
    n = len(a)
    if len(eigenvalues) != n:
        raise TowerError("need as many eigenvalues as the matrix dimension")
    for i in range(n):
        for j in range(i + 1, n):
            if eigenvalues[i] == eigenvalues[j]:
                raise TowerError("eigenvalues must be pairwise distinct")
    tower = a[0][0].tower
    unit = identity_matrix(tower, n)
    a_t = tuple(zip(*a))
    cols, rows = [], []
    for i, lam in enumerate(eigenvalues):
        others = [mu for j, mu in enumerate(eigenvalues) if j != i]
        w = _projector_times(a_t, others, unit[0])
        k = next((j for j, x in enumerate(w) if not x.is_zero()), None)
        if k is None:
            raise TowerError("eigenvector has zero first entry, cannot normalize")
        v = _projector_times(a, others, unit[k])
        scale = v[0].inverse()
        v = tuple(x * scale for x in v)
        pairing = mat_mul((w,), tuple(zip(v)))[0][0]
        if pairing.is_zero():
            raise TowerError(f"{lam} is not a simple eigenvalue of the matrix")
        cols.append(v)
        rows.append(tuple(x * pairing.inverse() for x in w))
    t = tuple(zip(*cols))
    t_inv = tuple(rows)
    if mat_mul(t_inv, mat_mul(a, t)) != diagonal_matrix(tower, eigenvalues):
        raise TowerError("conjugation by the eigenvectors does not give diag(eigenvalues)")
    return t, t_inv


# -- differential systems ------------------------------------------------------


class DiffSystem(Frozen):
    """dX/d(var) = matrix X, a square tuple of rows of ``PuiseuxPoly``."""

    __slots__ = ("var", "matrix")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def tower(self) -> TowerSpec:
        return self.matrix[0][0].tower

    def entry(self, i: int, j: int) -> PuiseuxPoly:
        return self.matrix[i][j]


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
