"""The defining relations of the reflection group, sampled on rational points.

Each generator squares to the identity, s0 and s2 commute, and both
(s0 s1) and (s1 s2) have order four.  :func:`verify_group_relations` tests
each relation exactly on the parameter matrices and on random exact rational
points (x, y, z, w, F) of the full birational action, through the package's
own ``_divisor`` and ``_reflect``.  No claim of the certificate rests on it;
acceptance criterion 5 and ``test_weyl`` run it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from sasano_galois.weyl import (
    _IDENTITY,
    ParamTriple,
    WeylError,
    _divisor,
    _generator,
    _reflect,
    act_on_params,
    word_matrix,
)

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


def verify_group_relations(samples: int, seed: int) -> tuple[RelationCheck, ...]:
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
                raise WeylError(f"relation {label} fails at point {point}, params {params.render()}")
            done += 1
        report.append(RelationCheck(label, word, True, done))
    return tuple(report)
