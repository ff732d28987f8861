"""Generated command-line input: every outcome is a documented exit code.

``cli.main`` runs in-process on ``--params`` text (signs, exponents, long
numerators and junk) and on solution files (wrong JSON types, nesting,
missing keys, and rational functions of t from a small grammar, of degree
at most 8).  Whatever the input, ``main`` returns 0, 1 or 2 without an
escaping exception and within 2 s; exit 2 writes an ``input error:`` line
and exits 0 and 1 write a report of named sections.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sasano_galois.cli import main
from sasano_galois.report import SECTION_ORDER, STATUSES

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=60, derandomize=True, database=None, deadline=None)

# -- parameter text -------------------------------------------------------------

_digits = st.integers(1, 120).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))
_sign = st.sampled_from(["", "-", "+", "--"])
_number = st.one_of(
    st.builds(lambda s, n: s + n, _sign, _digits),
    st.builds(lambda s, p, q: f"{s}{p}/{q}", _sign, _digits, _digits),
    st.builds(
        lambda s, m, e: f"{s}{m}e{e}", _sign, st.sampled_from(["1", "2.5", ".5", "7."]), st.integers(-12000, 12000)
    ),
    st.sampled_from(["2/5", "1/5", "1/10", "0", "1/2", "1/8"]),
)
_junk = st.text(" ,./-+eEx0123456789abc_()*^", max_size=12)
_param = st.one_of(_number, _number, _junk)
_small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
# a triple on the relation a0 + 2*a1 + 2*a2 = 1
_related = st.builds(lambda a1, a2: [str(1 - 2 * a1 - 2 * a2), str(a1), str(a2)], _small, _small)
_params_text = st.one_of(
    st.lists(_param, min_size=3, max_size=3).map(",".join),
    st.lists(_param, min_size=0, max_size=5).map(",".join),
    _related.map(",".join),
)

# -- solution files -------------------------------------------------------------

_coefficient = st.one_of(
    st.integers(1, 40).map(str), st.builds(lambda p, q: f"({p}/{q})", st.integers(1, 9), st.integers(1, 9))
)
_term = st.builds(lambda s, c, k: f"{s}{c}*t^{k}", st.sampled_from(["", "-"]), _coefficient, st.integers(-4, 4))
_poly = st.lists(_term, min_size=1, max_size=4).map(lambda ts: " + ".join(ts))
_expr = st.one_of(  # degree at most 8 in t and in 1/t
    _poly,
    st.builds(lambda p, q: f"({p})/({q})", _poly, _poly),
    st.builds(lambda p, k: f"({p})^{k}", _poly, st.integers(-2, 2)),
)
_json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
_bad_component = st.one_of(
    st.sampled_from(["", "t^", "1/0", "(t", "s*t", "t^(1/2)", "t^t", "2^(-1)", "((t)", "t**2"]),
    _json_value,
)
_bad_params = st.one_of(st.lists(st.one_of(_number, _junk), min_size=3, max_size=3), _json_value)
KNOWN = {"params": ["-2/5", "3/5", "1/10"], "x": "-2*t/5", "y": "0", "z": "-1/t", "w": "-2*t/5"}


@st.composite
def _solution_text(draw):
    kind = draw(st.sampled_from(["object"] * 6 + ["known", "other", "nested", "garbled"]))
    if kind == "other":
        return json.dumps(draw(_json_value))
    if kind == "nested":
        depth = draw(st.integers(1, 100_000))
        return draw(st.sampled_from(["[", '{"x": '])) * depth
    if kind == "garbled":
        return draw(st.text(max_size=20))
    data = dict(KNOWN) if kind == "known" else {"params": draw(_related), **{n: draw(_expr) for n in "xyzw"}}
    change = draw(st.sampled_from(["none", "none", "component", "params", "missing"]))
    key = draw(st.sampled_from(sorted(data)))
    if change == "component":
        data[key] = draw(_bad_component)
    elif change == "params":
        data["params"] = draw(_bad_params)
    elif change == "missing":
        del data[key]
    return json.dumps(data)


# -- the property -----------------------------------------------------------------


def _run(argv: list[str], files: dict[str, str] | None = None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (files or {}).items():
            (Path(tmp) / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--report-dir", str(Path(tmp) / "reports"), *(a.format(tmp=tmp) for a in argv)])
        assert time.perf_counter() - start <= 2.0, argv
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("input error:"), err.getvalue()
        else:
            sections = json.loads((Path(tmp) / "reports" / "seed_check.json").read_text())["sections"]
            assert sections and all(s["name"] in SECTION_ORDER and s["status"] in STATUSES for s in sections)
            assert (code == 0) == all(s["status"] == "pass" for s in sections)


@SETTINGS
@hypothesis.example("1,1,1")
@hypothesis.given(_params_text)
def _params_examples(text):
    _run(["verify-seed", f"--params={text}"])


@SETTINGS
@hypothesis.example(json.dumps(KNOWN))
@hypothesis.example("[" * 100_000 + "]" * 100_000)
@hypothesis.given(_solution_text())
def _solution_examples(text):
    _run(["verify-seed", "--solution-file", "{tmp}/solution.json"], {"solution.json": text})


def test_generated_inputs_end_in_a_documented_exit():
    start = time.perf_counter()
    _params_examples()
    _solution_examples()
    assert time.perf_counter() - start <= 5.0
