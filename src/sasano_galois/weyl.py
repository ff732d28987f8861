"""Birational symmetries of the Hamiltonian system and their orbit.

Three involutions act on solutions and parameters at once:

* s0 shifts z by a0/w and flips the sign of a0;
* s1 shifts y and w using the divisor x + z^2 and flips a1;
* s2 shifts x, y, z using the divisor x + y^2 + w + t and flips a2.

Together they realize an affine Weyl group: each generator squares to
the identity, s0 and s2 commute, and both (s0 s1) and (s1 s2) have
order four.  :func:`verify_group_relations` tests the relations on the
parameter matrices exactly and on random rational points of the full
action (50 per relation by default); it samples, and only the tests run it.

On the extended phase space each generator also maps the conjugate F of
t, to F - shift for s2 and to F for s0 and s1, and so preserves K = H + F;
an image's F is transported that way rather than recomputed.

Orbit enumeration starts from the rational seed solution, applies every
generator breadth-first, verifies each new state as an exact solution once
(its transported F by the F row and one exact point of H + F = 0), and
checks the arithmetic condition on the parameters (an integer pair (a, b)
mod 5 falling in one of four admissible rows) at every node.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .algnum import VerificationError
from .diffsys import mat_mul
from .ratfunc import RatFunc
from .sasano import (
    check_params, scale_solution, seed_solution, solution_energy, verify_solution, verify_zero_energy,
)

GENERATORS = ("s0", "s1", "s2")


class WeylError(VerificationError):
    """Raised for invalid parameters or an undefined transformation."""


# -- parameters -----------------------------------------------------------------


class ParamTriple(NamedTuple):
    """(a0, a1, a2) with a0 + 2 a1 + 2 a2 = 1, checked on construction."""

    a0: Fraction
    a1: Fraction
    a2: Fraction

    @staticmethod
    def make(values: Sequence) -> ParamTriple:
        try:
            a0, a1, a2 = check_params(values)
        except ValueError as exc:
            raise WeylError(str(exc)) from exc
        return ParamTriple(a0, a1, a2)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2)

    def render(self) -> str:
        return f"({self.a0}, {self.a1}, {self.a2})"


# The parameter action is linear; rows of each matrix give the new
# (a0, a1, a2) in terms of the old ones.
PARAM_MATRICES: dict[str, tuple[tuple[int, int, int], ...]] = {
    "s0": ((-1, 0, 0), (1, 1, 0), (0, 0, 1)),
    "s1": ((1, 2, 0), (0, -1, 0), (0, 1, 1)),
    "s2": ((1, 0, 0), (0, 1, 2), (0, 0, -1)),
}


def act_on_params(name: str, params: ParamTriple) -> ParamTriple:
    m = PARAM_MATRICES.get(name)
    if m is None:
        raise WeylError(f"unknown generator {name!r}")
    vec = params.as_tuple()
    new = [sum([mij * vj for mij, vj in zip(row, vec) if mij]) for row in m]
    return ParamTriple.make(new)


def word_matrix(word: Iterable[str]):
    """Matrix of the parameter action of a word (applied left to right)."""
    acc = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for name in word:
        m = PARAM_MATRICES.get(name)
        if m is None:
            raise WeylError(f"unknown generator {name!r}")
        acc = mat_mul(m, acc)
    return acc


# -- solution states --------------------------------------------------------------


class SolutionState(NamedTuple):
    """An exact rational solution, its parameters and the conjugate F of t.

    :meth:`make` takes the F that a generator transported, or computes
    F = -H for a root of the orbit, and verifies all equations of motion,
    whose F row fixes F up to a constant, and H + F = 0 at one exact point;
    so a state that exists is always a checked zero-energy solution.
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
        if f is None:
            f = solution_energy(values)
        try:
            verify_solution(values, f)
            verify_zero_energy(values, f)
        except VerificationError as exc:
            raise WeylError(str(exc)) from exc
        return SolutionState(x, y, z, w, f, params)

    def as_solution(self) -> dict[str, RatFunc]:
        return {"x": self.x, "y": self.y, "z": self.z, "w": self.w, "F": self.f}

    def components(self) -> dict[str, RatFunc]:
        return {"x": self.x, "y": self.y, "z": self.z, "w": self.w}


def seed_state() -> SolutionState:
    sol, params = seed_solution()
    return SolutionState.make(sol["x"], sol["y"], sol["z"], sol["w"], ParamTriple.make(params))


# -- the generators on solutions ----------------------------------------------------


def _divisor(name: str, x, y, z, w, t):
    if name == "s0":
        return w
    if name == "s1":
        return x + z**2
    if name == "s2":
        return x + y**2 + w + t
    raise WeylError(f"unknown generator {name!r}")


def _reflect(name: str, x, y, z, w, shift):
    """The generator's formulas, with shift = parameter / divisor."""
    if name == "s0":
        return x, y, z + shift, w
    if name == "s1":
        return x, y - shift, z, w - 2 * shift * z
    return x + 2 * shift * y - shift**2, y - shift, z + shift, w


def apply_generator(
    name: str, state: SolutionState, known: SolutionState | None, params: ParamTriple
) -> SolutionState:
    """One Backlund step on a checked solution; the image is re-verified.

    When the divisor vanishes identically the step is only defined for a
    vanishing parameter, where it is the identity; a vanishing divisor
    with a nonzero parameter raises.  The image's F is transported, not
    recomputed: it is ``state.f - shift`` for s2 and ``state.f`` for s0
    and s1, as the generator preserves K = H + F, and
    :meth:`SolutionState.make` certifies it.  An image equal in x, y, z, w
    and parameters to ``known``, a checked state the caller holds, is
    ``known`` itself: canonical forms make the equality exact, and a
    solution has one zero-energy lift.  ``params`` is
    ``act_on_params(name, state.params)``, which the caller computes once.
    """
    t = RatFunc.variable()
    x, y, z, w = state.x, state.y, state.z, state.w
    alpha = (state.params.a0, state.params.a1, state.params.a2)[GENERATORS.index(name)]
    div = _divisor(name, x, y, z, w, t)
    if div.is_zero():
        if alpha == 0:
            return state
        raise WeylError(
            f"divisor of {name} vanishes along the solution but its parameter is {alpha} != 0"
        )
    shift = RatFunc.const(alpha) / div
    image = _reflect(name, x, y, z, w, shift)
    if known is not None and known.params == params and image == (known.x, known.y, known.z, known.w):
        return known
    return SolutionState.make(*image, params, state.f - shift if name == "s2" else state.f)


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
    """The generator on a plain rational point (no solution constraint)."""
    x, y, z, w = point
    alpha = (params.a0, params.a1, params.a2)[GENERATORS.index(name)]
    div = _divisor(name, x, y, z, w, t_val)
    if div == 0:
        raise ZeroDivisionError(name)
    return _reflect(name, x, y, z, w, alpha / div), act_on_params(name, params)


def _random_params(rng: random.Random) -> ParamTriple:
    a0 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    a1 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    a2 = (1 - a0 - 2 * a1) / 2
    return ParamTriple.make((a0, a1, a2))


def _random_point(rng: random.Random):
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return (q(), q(), q(), q())


class RelationCheck(NamedTuple):
    name: str
    word: tuple[str, ...]
    matrix_identity: bool
    points_checked: int


def verify_group_relations(samples: int = 50, seed: int = 1105) -> tuple[RelationCheck, ...]:
    """Every defining relation, on the parameter matrices and on points.

    The matrix of each relation word must be the identity, and the full
    birational action must fix at least ``samples`` random exact rational
    (point, parameter) pairs per relation; divisor hits are resampled.
    Raises :class:`WeylError` on any failure.
    """
    rng = random.Random(seed)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    report = []
    for label, word in RELATIONS:
        if word_matrix(word) != identity:
            raise WeylError(f"parameter matrices fail the relation {label}")
        done = 0
        attempts = 0
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
    a = 5 * params.a2 - Fraction(1, 2)
    b = 5 * params.a1 - 1
    if a.denominator != 1 or b.denominator != 1:
        return MatsudaResult(False, None, None, None)
    a_mod = int(a) % 5
    b_mod = int(b) % 5
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


def enumerate_orbit(depth: int = 6) -> OrbitResult:
    """Breadth-first orbit of :func:`seed_state` under the three generators.

    Nodes are deduplicated by parameter triple (the first word reaching a
    triple is kept).  Every duplicate hit whose image differs from the kept
    state is recorded as a collision, at any depth; one whose image is the
    kept state is recorded up to ``AUDIT_DEPTH``.  Every state in the orbit
    was verified once, as an exact solution, when built (the seed's F is
    -H, every other F is transported).  Each step looks the parameter image
    up first; an image equal to the kept state is that state, and any other
    is verified (see :func:`apply_generator`), a failure landing in ``skipped``.
    """
    if depth < 0:
        raise WeylError("depth must be nonnegative")
    root = seed_state()
    seen: dict[ParamTriple, OrbitNode] = {}
    nodes: list[OrbitNode] = []
    collisions: list[ParamCollision] = []
    skipped: list[tuple[tuple[str, ...], str]] = []
    first = OrbitNode((), 0, root, matsuda_check(root.params))
    seen[root.params] = first
    nodes.append(first)
    queue: deque[OrbitNode] = deque([first])
    while queue:
        node = queue.popleft()
        if node.depth >= depth:
            continue
        for name in GENERATORS:
            word = node.word + (name,)
            params = act_on_params(name, node.state.params)
            known = seen.get(params)
            try:
                image = apply_generator(name, node.state, known.state if known else None, params)
            except WeylError as exc:
                skipped.append((word, str(exc)))
                continue
            if known is not None:
                if image is not known.state or node.depth + 1 <= AUDIT_DEPTH:
                    collisions.append(
                        ParamCollision(
                            params=image.params,
                            kept_word=known.word,
                            other_word=word,
                            depth=node.depth + 1,
                            states_equal=known.state.components() == image.components(),
                        )
                    )
                continue
            child = OrbitNode(word, node.depth + 1, image, matsuda_check(image.params))
            seen[params] = child
            nodes.append(child)
            queue.append(child)
    return OrbitResult(depth, tuple(nodes), tuple(collisions), tuple(skipped))
