"""Property test of the one statement of the Hamiltonian, ``sasano._hamiltonian``.

The symbolic ``hamiltonian()`` is that formula on the model's symbols, and
``verify_zero_energy`` sums the terms of ``hamiltonian()`` at one integer
time, on integers.  At random exact points the formula must equal the value
of ``hamiltonian()`` summed term by term, so the formula, the point check and
every symbolic use read the same terms.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from sasano_galois.sasano import _H_ARGS, VARS, _hamiltonian, hamiltonian

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
numbers = st.builds(Fraction, st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12)), st.integers(1, 10**6))


def per_term(point: dict) -> Fraction:
    """Each term of ``hamiltonian()`` at ``point`` (one value per symbol of VARS), summed."""
    total = Fraction(0)
    for exps, n in hamiltonian().terms:
        c = Fraction(n, hamiltonian().den)
        for name, k in zip(VARS, exps):
            c *= point[name] ** k
        total += c
    return total


@SETTINGS
@hypothesis.given(st.tuples(*[numbers] * len(VARS)))
def test_formula_at_an_exact_point_is_the_per_term_value(values):
    point = dict(zip(VARS, values))
    value = _hamiltonian(*[point[name] for name in _H_ARGS])
    assert type(value) is Fraction
    assert value == per_term(point)
