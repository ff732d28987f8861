from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sasano_galois.algnum import (
    AlgNum,
    TowerError,
    TowerLevel,
    TowerSpec,
    canonical_tower,
    wasow_tower,
)
from sasano_galois.ball import Ball
from sasano_galois.diffsys import AlgMatrix, DiffSystem
from sasano_galois.puiseux import PuiseuxPoly


@pytest.fixture(scope="session")
def tower() -> TowerSpec:
    return canonical_tower()


@pytest.fixture(scope="session")
def alt_tower() -> TowerSpec:
    return wasow_tower()


def random_algnum(tw: TowerSpec, rng: random.Random, terms: int = 3, span: int = 9) -> AlgNum:
    """Sparse random tower element with small rational coordinates."""
    total = AlgNum.from_rational(tw, 0)
    for _ in range(terms):
        exps = tuple(rng.randrange(d) for d in tw.degrees)
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        total = total + AlgNum(tw, tw.monomial_value(exps, q))
    return total


def on_grid(z: Ball, prec: int) -> Ball:
    """The ball z moved exactly onto the finer grid 2^-prec, so that balls
    embedded at different precisions can be compared."""
    s = prec - z.prec
    return Ball(z.re << s, z.im << s, z.rre << s, z.rim << s, prec)


def ball_fields(z):
    """A numeric ball as the tuple of its fields, for equality; any other value unchanged."""
    return (z.re, z.im, z.rre, z.rim, z.prec) if isinstance(z, Ball) else z


def random_nonzero_algnum(tw: TowerSpec, rng: random.Random, terms: int = 3) -> AlgNum:
    while True:
        a = random_algnum(tw, rng, terms)
        if not a.is_zero():
            return a


# -- builders and JSON decoders: test input and round-trip oracles -------------


def mat_from_rows(tower: TowerSpec, rows) -> AlgMatrix:
    """Coerce a nested sequence of ints / Fractions / AlgNums to a matrix."""
    return tuple(
        tuple(e if isinstance(e, AlgNum) else AlgNum.from_rational(tower, Fraction(e)) for e in row)
        for row in rows
    )


def system_from_entries(tower: TowerSpec, var: str, entries) -> DiffSystem:
    """Build a system from nested PuiseuxPoly / AlgNum / Fraction entries."""
    rows = []
    for row in entries:
        out = []
        for e in row:
            if isinstance(e, PuiseuxPoly):
                out.append(e)
            elif isinstance(e, AlgNum):
                out.append(PuiseuxPoly.const(tower, 1).scale(e))
            else:
                out.append(PuiseuxPoly.const(tower, Fraction(e)))
        rows.append(tuple(out))
    if any(len(r) != len(rows) for r in rows):
        raise TowerError("system matrix must be square")
    return DiffSystem(var, tuple(rows))


def assert_pair_form(data, degrees) -> None:
    """JSON pairs [exponent vector, "p/q"]: sorted, distinct, in range, no zero value."""
    keys = [tuple(e) for e, _ in data]
    assert keys == sorted(set(keys))
    assert all(len(e) == len(degrees) and all(0 <= k < d for k, d in zip(e, degrees)) for e in keys)
    assert all(isinstance(q, str) and Fraction(q) for _, q in data)


def algnum_from_json(tower: TowerSpec, data) -> AlgNum:
    """The number of ``algnum_to_json``'s [exponent vector, "p/q"] pairs."""
    monomials = (AlgNum(tower, tower.monomial_value(tuple(e), Fraction(q))) for e, q in data)
    return sum(monomials, AlgNum.from_rational(tower, 0))


def tower_from_json(data) -> TowerSpec:
    """Rebuild a tower from ``tower_to_json``."""
    levels = []
    for lv in data["levels"]:
        c = tuple((tuple(e), Fraction(q)) for e, q in lv["c"])
        levels.append(TowerLevel(lv["name"], lv["degree"], c, tuple(lv["approx"])))
    return TowerSpec(tuple(levels))
