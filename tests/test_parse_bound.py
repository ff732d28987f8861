"""The parser's size bound: a short text that asks for a huge value is
refused at once as bad input, and every value the engine itself writes
still reads back."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sasano_galois
from sasano_galois.algnum import canonical_constants
from sasano_galois.cli import main
from sasano_galois.exprparse import ExprError, chain_symbols, parse_puiseux, parse_ratfunc
from sasano_galois.weyl import enumerate_orbit, seed_state

S0_IMAGE = {"params": ["-2/5", "3/5", "1/10"], "x": "-2*t/5", "y": "0", "z": "-1/t", "w": "-2*t/5"}

HUGE = {
    "power-of-t": "t^300000000",
    "power-of-sum": "(1+t)^100000",
    "power-of-power": "((1+t)^1000)^1000",
    "power-of-integer": "7^100000000",
    "long-product": "*".join(["t^1000"] * 400),
}


@pytest.mark.parametrize("text", HUGE.values(), ids=HUGE.keys())
def test_huge_solution_component_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(S0_IMAGE, x=text)))
    start = time.perf_counter()
    assert main(["--report-dir", str(tmp_path / "reports"), "verify-seed", "--solution-file", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "input error" in err and "size bound" in err and "Traceback" not in err


def test_huge_solution_file_exits_2_without_traceback(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(S0_IMAGE, x=HUGE["power-of-t"])))
    env = dict(os.environ, PYTHONPATH=str(Path(sasano_galois.__file__).resolve().parents[1]))
    argv = ["--report-dir", str(tmp_path / "reports"), "verify-seed", "--solution-file", str(path)]
    out = subprocess.run([sys.executable, "-m", "sasano_galois.cli", *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("input error") and "Traceback" not in out.stderr


def test_bound_applies_to_both_rings():
    cc = canonical_constants()
    for text in ("(1+tau)^100000", "al^100000000", "(2*tau)^100000"):
        with pytest.raises(ExprError, match="size bound"):
            parse_puiseux(text, cc.tower, "tau", chain_symbols(cc))
    assert parse_puiseux("4*al^(7/4)*tau^(-7)", cc.tower, "tau", chain_symbols(cc)).exponents() == (-7,)


def test_bound_edges():
    assert parse_ratfunc("t^256").num.degree() == 256
    assert parse_ratfunc("1/t^256").den.degree() == 256
    for text in ("t^257", "t^200*t^57", "1/t^200/t^57", "1/(t-1) " + "".join(f"+ 1/(t-{k})" for k in range(2, 258))):
        with pytest.raises(ExprError, match="size bound"):
            parse_ratfunc(text)
    literal = "9" * min(4300, sys.get_int_max_str_digits() or 4300)  # the default longest literal
    assert parse_ratfunc(literal) == parse_ratfunc(f"({literal})")


def test_every_orbit_state_reads_back():
    for node in enumerate_orbit(seed_state(), depth=8).nodes:
        for value in node.state[:5]:
            assert parse_ratfunc(value.render()) == value


HUGE_PARAMS = {
    "exponent": "1e3000000",
    "negative-exponent": "1e-3000000",
    "exponent-edge": "1e9830",
    "digits-edge": "9" * 4301,
    "digits": "9" * 200001,
}


@pytest.mark.parametrize("text", HUGE_PARAMS.values(), ids=HUGE_PARAMS.keys())
@pytest.mark.parametrize("where", ["params", "solution-file"])
def test_huge_parameter_is_input_error_at_once(tmp_path, capsys, where, text):
    argv = ["--report-dir", str(tmp_path / "reports"), "verify-seed"]
    if where == "params":
        argv += ["--params", f"{text},0,0"]
    else:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dict(S0_IMAGE, params=[text, "0", "0"])))
        argv += ["--solution-file", str(path)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start <= 0.3
    err = capsys.readouterr().err
    assert err.startswith("input error: parameter a0") and "size bound" in err


def test_parameters_inside_the_bound_still_read(tmp_path):
    argv = ["--report-dir", str(tmp_path), "verify-seed", "--params"]
    assert main([*argv, " 4e-1, 0.2 ,1e-00000001"]) == 0
    assert main([*argv, f"2/5,{'0' * 4000}1/5,1/10"]) == 0
    assert main([*argv, f"4{'0' * 4000}e-4001,1/5,1/10"]) == 0
