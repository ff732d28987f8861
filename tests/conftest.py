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


def _from_dense(degrees: tuple[int, ...], data):
    """Sparse tower coordinates from the nested lists of ``algnum_to_json``."""
    terms = []

    def walk(lvl: int, node, suffix: tuple[int, ...]):
        if lvl < 0:
            q = Fraction(node)
            if q:
                terms.append((suffix, q))
            return
        if len(node) != degrees[lvl]:
            raise TowerError("coefficient vector length does not match tower degree")
        for e, c in enumerate(node):
            walk(lvl - 1, c, (e,) + suffix)

    walk(len(degrees) - 1, data, ())
    return tuple(sorted(terms))


def algnum_from_json(tower: TowerSpec, data) -> AlgNum:
    monomials = (AlgNum(tower, tower.monomial_value(e, q)) for e, q in _from_dense(tower.degrees, data))
    return sum(monomials, AlgNum.from_rational(tower, 0))


def tower_from_json(data) -> TowerSpec:
    """Rebuild a tower from ``tower_to_json``; each ``poly`` must be x^degree - c."""
    levels: list[TowerLevel] = []
    for lv in data["levels"]:
        degrees = tuple(x.degree for x in levels)
        poly = [_from_dense(degrees, c) for c in lv["poly"]]
        if len(poly) != lv["degree"] or any(poly[1:]):
            raise TowerError(f"level {lv['name']!r} is not a binomial")
        c = tuple((e, -q) for e, q in poly[0])
        approx = (lv["approx"][0], lv["approx"][1])
        levels.append(TowerLevel(name=lv["name"], degree=lv["degree"], c=c, approx=approx))
    return TowerSpec(tuple(levels))
