"""Birational symmetries of the Hamiltonian system and their orbit.

Three involutions act on solutions and parameters at once:

* s0 shifts z by a0/w and flips the sign of a0;
* s1 shifts y and w using the divisor x + z^2 and flips a1;
* s2 shifts x, y, z using the divisor x + y^2 + w + t and flips a2.

Together they realize an affine Weyl group: each generator squares to
the identity, s0 and s2 commute, and both (s0 s1) and (s1 s2) have
order four.  :func:`verify_group_relations` tests the relations on the
parameter matrices exactly and on random rational points (x, y, z, w, F)
of the full action (50 per relation by default); only the tests run it.

Each generator is one map of the extended phase space, stated once by
``_reflect``: F goes to F - shift under s2 and to F under s0 and s1, so
an image's F is transported, not recomputed.  s2 keeps x + y^2, formed once
for its divisor and its x-image (x + y^2) - (y - shift)^2.  No code proves
that K = H + F is preserved; each image's own exact check certifies its F.

Orbit enumeration starts from the rational seed solution, applies every
generator breadth-first, verifies each new state as an exact solution once
(its transported F by the F row and one exact point of H + F = 0), and
checks the arithmetic condition on the parameters (an integer pair (a, b)
mod 5 falling in one of four admissible rows) at every node.  Past the
audit depth it skips s_i on a state that s_i of a kept node gave, as
:func:`verify_involutions` proves the image is that node.  Triples are
integer numerators over one denominator, moved by integer matrices that
keep the affine relation (:func:`verify_parameter_form`).
"""

from __future__ import annotations

import functools
import math
import random
from collections import deque
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .diffsys import mat_mul
from .ratfunc import RatFunc, VerificationError
from .sasano import PolyExpr, check_params, scale_solution, seed_solution, verify_solution, verify_zero_energy

GENERATORS = ("s0", "s1", "s2")


class WeylError(VerificationError):
    """An unknown generator, an undefined step or a failed proof; a failed
    check of parameters or of a state raises the checker's own error."""


# -- parameters -----------------------------------------------------------------


class ParamTriple(NamedTuple):
    """(a0, a1, a2) = nums / den with a0 + 2 a1 + 2 a2 = 1 (checked by :meth:`make`), in
    canonical form as for ``Poly``: den > 0, gcd(den, *nums) = 1, so equal triples are equal ints."""

    nums: tuple[int, int, int]
    den: int

    @staticmethod
    def make(values: Sequence) -> ParamTriple:
        qs = check_params(values)
        den = math.lcm(*[q.denominator for q in qs])
        return ParamTriple(tuple([q.numerator * (den // q.denominator) for q in qs]), den)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return tuple([Fraction(n, self.den) for n in self.nums])

    a0, a1, a2 = (property(lambda self, i=i: self.as_tuple()[i]) for i in range(3))

    def render(self) -> str:
        return "({}, {}, {})".format(*self.as_tuple())


# The parameter action is linear; rows of each matrix give the new
# (a0, a1, a2) in terms of the old ones.
PARAM_MATRICES: dict[str, tuple[tuple[int, int, int], ...]] = {
    "s0": ((-1, 0, 0), (1, 1, 0), (0, 0, 1)),
    "s1": ((1, 2, 0), (0, -1, 0), (0, 1, 1)),
    "s2": ((1, 0, 0), (0, 1, 2), (0, 0, -1)),
}
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _generator(name: str) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The index i of s_i and its parameter matrix; the one check of a generator name."""
    m = PARAM_MATRICES.get(name)
    if m is None:
        raise WeylError(f"unknown generator {name!r}")
    return GENERATORS.index(name), m


@functools.cache
def verify_parameter_form() -> None:
    """Prove once that (1, 2, 2) M = (1, 2, 2) for each parameter matrix M, so
    images of checked triples keep a0 + 2 a1 + 2 a2 = 1; else :class:`WeylError`."""
    for name, m in PARAM_MATRICES.items():
        if mat_mul(((1, 2, 2),), m) != ((1, 2, 2),):
            raise WeylError(f"the parameter matrix of {name} does not keep a0 + 2*a1 + 2*a2")


def act_on_params(name: str, params: ParamTriple) -> ParamTriple:
    """The image of a checked triple, checked by :func:`verify_parameter_form`:
    the matrix on the numerators, over the denominator, then one gcd."""
    _, m = _generator(name)
    verify_parameter_form()
    n0, n1, n2 = params.nums
    nums = [r0 * n0 + r1 * n1 + r2 * n2 for r0, r1, r2 in m]
    g = math.gcd(params.den, *nums)
    return ParamTriple(tuple([n // g for n in nums]), params.den // g)


def word_matrix(word: Iterable[str]):
    """Matrix of the parameter action of a word (applied left to right)."""
    acc = _IDENTITY
    for name in word:
        acc = mat_mul(_generator(name)[1], acc)
    return acc


# -- solution states --------------------------------------------------------------


class SolutionState(NamedTuple):
    """An exact rational solution, its parameters and the conjugate F of t.

    :meth:`make` takes the F that a generator transported, or computes
    F = -H for a root of the orbit once its x, y, z, w rows hold, and
    verifies all equations of motion, whose F row fixes F up to a
    constant, and H + F = 0 at one exact point; so a state that exists is
    always a checked zero-energy solution.
    """

    x: RatFunc
    y: RatFunc
    z: RatFunc
    w: RatFunc
    f: RatFunc
    params: ParamTriple

    @staticmethod
    def make(
        x: RatFunc, y: RatFunc, z: RatFunc, w: RatFunc, params: ParamTriple, f: RatFunc | None = None
    ) -> SolutionState:
        values = scale_solution({"x": x, "y": y, "z": z, "w": w}, params.as_tuple())
        f = verify_solution(values, f)
        verify_zero_energy(values, f)
        return SolutionState(x, y, z, w, f, params)

    def as_solution(self) -> dict[str, RatFunc]:
        return {"x": self.x, "y": self.y, "z": self.z, "w": self.w, "F": self.f}


def seed_state() -> SolutionState:
    sol, params = seed_solution()
    return SolutionState.make(sol["x"], sol["y"], sol["z"], sol["w"], ParamTriple.make(params))


# -- the generators on solutions ----------------------------------------------------


def _divisor(name: str, x, y, z, w, t):
    """The generator's invariant that its divisor is built on (w, x + z^2, x + y^2), and the divisor."""
    if name == "s0":
        return w, w
    if name == "s1":
        kept = x + z**2
        return kept, kept
    kept = x + y**2
    return kept, kept + w + t


def _reflect(name: str, x, y, z, w, f, shift, kept):
    """The generator on (x, y, z, w, F), with shift = parameter / divisor and kept its invariant."""
    if name == "s0":
        return x, y, z + shift, w, f
    if name == "s1":
        return x, y - shift, z, w - 2 * shift * z, f
    y = y - shift
    return kept - y**2, y, z + shift, w, f - shift


def apply_generator(
    name: str, state: SolutionState, known: SolutionState | None, params: ParamTriple
) -> SolutionState:
    """One Backlund step on a checked solution; the image is re-verified.

    When the divisor vanishes identically the step is only defined for a
    vanishing parameter, where it is the identity; a vanishing divisor
    with a nonzero parameter raises, as does an unknown ``name``.  The
    image's F is transported by :func:`_reflect`, not recomputed, and
    :meth:`SolutionState.make` certifies it.  An image equal in x, y, z,
    w, F and parameters to ``known``, a checked state the caller holds, is
    ``known`` itself: canonical forms make the equality exact.  ``params``
    is ``act_on_params(name, state.params)``, which the caller computes once.
    """
    i, _ = _generator(name)
    alpha = state.params.nums[i]
    x, y, z, w, f = state[:5]
    kept, div = _divisor(name, x, y, z, w, RatFunc.variable())
    if div.is_zero():
        if alpha == 0:
            return state
        alpha = state.params.as_tuple()[i]
        raise WeylError(f"divisor of {name} vanishes along the solution but its parameter is {alpha} != 0")
    x, y, z, w, f = _reflect(name, x, y, z, w, f, RatFunc.const(alpha, state.params.den) / div, kept)
    if known is not None and known.params == params and (x, y, z, w, f) == known[:5]:
        return known
    return SolutionState.make(x, y, z, w, params, f)


@functools.cache
def verify_involutions() -> None:
    """Prove once that each s_i is an involution of the extended point
    (x, y, z, w, F), on symbols and a formal shift sigma (the symbol a0, as
    no divisor or formula reads a parameter): its parameter matrix squares
    to 1 and has the row -e_i, so a second step shifts by -sigma; the image
    has the point's invariant and divisor; and ``_reflect`` with -sigma and
    that invariant takes the image, F included, back.  Raises
    :class:`WeylError` otherwise."""
    point = tuple(map(PolyExpr.var, ("x", "y", "z", "w", "F")))
    t, sigma = PolyExpr.var("t"), PolyExpr.var("a0")
    for i, name in enumerate(GENERATORS):
        if word_matrix((name, name)) != _IDENTITY or PARAM_MATRICES[name][i] != tuple(-c for c in _IDENTITY[i]):
            raise WeylError(f"the parameter matrix of {name} is not an involution negating a{i}")
        kept, div = _divisor(name, *point[:4], t)
        image = _reflect(name, *point, sigma, kept)
        if _divisor(name, *image[:4], t) != (kept, div):
            raise WeylError(f"{name} does not fix its divisor")
        if _reflect(name, *image, -sigma, kept) != point:
            raise WeylError(f"{name} applied twice is not the identity")


# -- group relations ------------------------------------------------------------------


RELATIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("s0^2", ("s0", "s0")),
    ("s1^2", ("s1", "s1")),
    ("s2^2", ("s2", "s2")),
    ("(s0 s2)^2", ("s0", "s2") * 2),
    ("(s2 s0)^2", ("s2", "s0") * 2),
    ("(s0 s1)^4", ("s0", "s1") * 4),
    ("(s1 s0)^4", ("s1", "s0") * 4),
    ("(s1 s2)^4", ("s1", "s2") * 4),
    ("(s2 s1)^4", ("s2", "s1") * 4),
)


def _point_step(name: str, point, params: ParamTriple, t_val: Fraction):
    """The generator on a plain rational point (x, y, z, w, F), no solution constraint."""
    i, _ = _generator(name)
    kept, div = _divisor(name, *point[:4], t_val)
    if div == 0:
        raise ZeroDivisionError(name)
    return _reflect(name, *point, params.as_tuple()[i] / div, kept), act_on_params(name, params)


def _random_params(rng: random.Random) -> ParamTriple:
    a0 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    a1 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    a2 = (1 - a0 - 2 * a1) / 2
    return ParamTriple.make((a0, a1, a2))


def _random_point(rng: random.Random):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5))


class RelationCheck(NamedTuple):
    name: str
    word: tuple[str, ...]
    matrix_identity: bool
    points_checked: int


def verify_group_relations(samples: int = 50, seed: int = 1105) -> tuple[RelationCheck, ...]:
    """Every defining relation, on the parameter matrices and on points.

    The matrix of each relation word must be the identity, and the full
    birational action must fix at least ``samples`` random exact rational
    ((x, y, z, w, F), parameter) pairs per relation; divisor hits are resampled.
    Raises :class:`WeylError` on any failure.
    """
    rng = random.Random(seed)
    report = []
    for label, word in RELATIONS:
        if word_matrix(word) != _IDENTITY:
            raise WeylError(f"parameter matrices fail the relation {label}")
        done = attempts = 0
        while done < samples:
            attempts += 1
            if attempts > samples * 50:
                raise WeylError(f"could not sample enough points for {label}")
            point = _random_point(rng)
            params = _random_params(rng)
            t_val = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            try:
                cur_p, cur_a = point, params
                for name in word:
                    cur_p, cur_a = _point_step(name, cur_p, cur_a, t_val)
            except ZeroDivisionError:
                continue
            if cur_p != point or cur_a != params:
                raise WeylError(
                    f"relation {label} fails at point {point}, params {params.render()}"
                )
            done += 1
        report.append(RelationCheck(label, word, True, done))
    return tuple(report)


# -- the arithmetic condition on parameters --------------------------------------------


class MatsudaResult(NamedTuple):
    """Reduced pair (a, b) = (5 a2 - 1/2, 5 a1 - 1) mod 5 and its table row."""

    integral: bool
    a_mod: int | None
    b_mod: int | None
    row: int | None


_MATSUDA_ROWS: dict[int, tuple[int, tuple[int, ...]]] = {
    1: (0, (0, 2)),
    2: (1, (2, 3)),
    3: (3, (0, 1)),
    4: (4, (1, 3)),
}


def matsuda_check(params: ParamTriple) -> MatsudaResult:
    # with a_i = n_i / d: a = (10 n2 - d) / (2 d) and b = (5 n1 - d) / d
    (_, n1, n2), d = params
    a, a_rem = divmod(10 * n2 - d, 2 * d)
    b, b_rem = divmod(5 * n1 - d, d)
    if a_rem or b_rem:
        return MatsudaResult(False, None, None, None)
    a_mod, b_mod = a % 5, b % 5
    for row, (a_req, b_set) in _MATSUDA_ROWS.items():
        if a_mod == a_req and b_mod in b_set:
            return MatsudaResult(True, a_mod, b_mod, row)
    return MatsudaResult(True, a_mod, b_mod, None)


# -- orbit enumeration ------------------------------------------------------------------


# Words up to this length that reach a kept triple with its kept state are recorded.
AUDIT_DEPTH = 4


class OrbitNode(NamedTuple):
    word: tuple[str, ...]
    depth: int
    state: SolutionState
    matsuda: MatsudaResult


class ParamCollision(NamedTuple):
    """Two distinct words reaching the same parameter triple."""

    params: ParamTriple
    kept_word: tuple[str, ...]
    other_word: tuple[str, ...]
    depth: int
    states_equal: bool


class OrbitResult(NamedTuple):
    depth: int
    nodes: tuple[OrbitNode, ...]
    collisions: tuple[ParamCollision, ...]
    skipped: tuple[tuple[tuple[str, ...], str], ...]  # (word, reason)

    def node_count(self) -> int:
        return len(self.nodes)


def enumerate_orbit(root: SolutionState, depth: int = 6) -> OrbitResult:
    """Breadth-first orbit of ``root`` (a verified state, such as
    :func:`seed_state`) under the three generators.

    Nodes are deduplicated by parameter triple (the first word reaching a
    triple is kept).  Every duplicate hit whose image differs from the kept
    state is recorded as a collision, at any depth; one whose image is the
    kept state is recorded up to ``AUDIT_DEPTH``.  Every state in the orbit
    was verified once, as an exact solution, when built (the seed's F is
    -H, every other F is transported).  Each step looks the parameter image
    up first; an image equal to the kept state is that state, and any other
    is verified (see :func:`apply_generator`), a failure landing in ``skipped``.
    Past ``AUDIT_DEPTH``, s_i is not taken on a kept state S that s_i of a
    kept node K gave: its image is K (:func:`verify_involutions`, which
    raises if that is not proven), a collision with equal states not
    recorded at that depth, so the result is the one the step would give.
    """
    if depth < 0:
        raise WeylError("depth must be nonnegative")
    seen: dict[ParamTriple, OrbitNode] = {}
    nodes: list[OrbitNode] = []
    collisions: list[ParamCollision] = []
    skipped: list[tuple[tuple[str, ...], str]] = []
    first = OrbitNode((), 0, root, matsuda_check(root.params))
    seen[root.params] = first
    nodes.append(first)
    reverse: set[tuple[ParamTriple, str]] = set()  # (S's triple, s_i): s_i of a kept node gave kept S
    queue: deque[OrbitNode] = deque([first])
    while queue:
        node = queue.popleft()
        if node.depth >= depth:
            continue
        for name in GENERATORS:
            if node.depth >= AUDIT_DEPTH and (node.state.params, name) in reverse:
                verify_involutions()
                continue
            word = node.word + (name,)
            params = act_on_params(name, node.state.params)
            known = seen.get(params)
            try:
                image = apply_generator(name, node.state, known.state if known else None, params)
            except VerificationError as exc:
                skipped.append((word, str(exc)))
                continue
            if known is None or image is known.state:
                reverse.add((params, name))
            if known is not None:
                if image is not known.state or node.depth + 1 <= AUDIT_DEPTH:
                    collisions.append(
                        ParamCollision(
                            params=image.params,
                            kept_word=known.word,
                            other_word=word,
                            depth=node.depth + 1,
                            states_equal=image is known.state,
                        )
                    )
                continue
            child = OrbitNode(word, node.depth + 1, image, matsuda_check(image.params))
            seen[params] = child
            nodes.append(child)
            queue.append(child)
    return OrbitResult(depth, tuple(nodes), tuple(collisions), tuple(skipped))
