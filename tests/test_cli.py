"""Command line behavior: exit codes, report files, input validation."""

from __future__ import annotations

import copy
import hashlib
import json
import time

import pytest

from sasano_galois import reduction, report
from sasano_galois.algnum import TowerError
from sasano_galois.cli import main

S0_IMAGE = {
    "params": ["-2/5", "3/5", "1/10"],
    "x": "-2*t/5",
    "y": "0",
    "z": "-1/t",
    "w": "-2*t/5",
}


def run(tmp_path, *argv):
    return main(["--report-dir", str(tmp_path / "reports"), *argv])


def read_json(tmp_path, stem):
    return json.loads((tmp_path / "reports" / f"{stem}.json").read_text())


def test_verify_seed_default(tmp_path, capsys):
    assert run(tmp_path, "verify-seed") == 0
    out = capsys.readouterr().out
    assert "model check: pass" in out
    assert (tmp_path / "reports" / "seed_check.json").exists()
    assert (tmp_path / "reports" / "seed_check.md").exists()


def test_verify_seed_wrong_params_fails(tmp_path):
    assert run(tmp_path, "verify-seed", "--params", "1/2,1/8,1/8") == 1
    data = read_json(tmp_path, "seed_check")
    assert data["sections"][0]["status"] == "fail"


def test_verify_seed_malformed_params(tmp_path, capsys):
    assert run(tmp_path, "verify-seed", "--params", "1/2,oops,1/8") == 2
    assert run(tmp_path, "verify-seed", "--params", "1/2,1/8") == 2
    assert run(tmp_path, "verify-seed", "--params", "1/0,0,1/2") == 2
    assert "input error" in capsys.readouterr().err
    assert run(tmp_path, "verify-seed", "--params", "1,1,1") == 2
    assert capsys.readouterr().err == "input error: parameters must satisfy a0 + 2*a1 + 2*a2 = 1, got 5\n"
    # a sum of 5,001 digits, more than Python converts to text, and one of
    # 4,001 digits, which it converts: neither is printed
    for params in ("1e5000,0,0", "2/5,2e-1,1e4000"):
        assert run(tmp_path, "verify-seed", "--params", params) == 2
        assert capsys.readouterr().err == "input error: parameters must satisfy a0 + 2*a1 + 2*a2 = 1\n"


def test_verify_seed_solution_file(tmp_path):
    path = tmp_path / "s0_image.json"
    path.write_text(json.dumps(S0_IMAGE))
    assert run(tmp_path, "verify-seed", "--solution-file", str(path)) == 0
    data = read_json(tmp_path, "seed_check")
    assert data["sections"][0]["status"] == "pass"


def test_verify_seed_solution_file_errors(tmp_path, capsys):
    missing = dict(S0_IMAGE)
    del missing["z"]
    bad_key = tmp_path / "missing.json"
    bad_key.write_text(json.dumps(missing))
    assert run(tmp_path, "verify-seed", "--solution-file", str(bad_key)) == 2

    not_json = tmp_path / "garbled.json"
    not_json.write_text("{ not json")
    assert run(tmp_path, "verify-seed", "--solution-file", str(not_json)) == 2

    assert run(tmp_path, "verify-seed", "--solution-file", str(tmp_path / "absent.json")) == 2

    for params in (5, None):
        bad_params = tmp_path / "params.json"
        bad_params.write_text(json.dumps(dict(S0_IMAGE, params=params)))
        capsys.readouterr()
        assert run(tmp_path, "verify-seed", "--solution-file", str(bad_params)) == 2
        assert "input error" in capsys.readouterr().err

    array = tmp_path / "array.json"
    array.write_text(json.dumps([S0_IMAGE]))
    assert run(tmp_path, "verify-seed", "--solution-file", str(array)) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_verify_seed_fails_a_non_solution_before_its_energy(tmp_path, capsys):
    # F = -H of these components takes a gcd of many seconds; the x, y, z, w
    # rows take none and fail first
    path = tmp_path / "slow.json"
    path.write_text(
        '{"params":["2/5","1/5","1/10"],"x":"1/(t^2+1)^20","y":"1/(t^3+2)^10","z":"1/(t-7)^10","w":"t"}'
    )
    started = time.perf_counter()
    assert run(tmp_path, "verify-seed", "--solution-file", str(path)) == 1
    assert time.perf_counter() - started < 2
    assert "model check: fail" in capsys.readouterr().out
    error = read_json(tmp_path, "seed_check")["sections"][0]["steps"][0]["values"]["error"]
    assert error == "not a solution: equations fail for x, y, z, w"


@pytest.mark.parametrize("component", ["1/0", "(t-t)^-1"])
def test_verify_seed_zero_division_is_input_error(tmp_path, capsys, component):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(dict(S0_IMAGE, x=component)))
    assert run(tmp_path, "verify-seed", "--solution-file", str(path)) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [json.dumps(dict(S0_IMAGE, x="(" * 2000 + "t" + ")" * 2000)), "[" * 100_000 + "]" * 100_000],
    ids=["nested-parentheses", "nested-json-array"],
)
def test_deeply_nested_solution_file_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "deep.json"
    path.write_text(content)
    assert run(tmp_path, "verify-seed", "--solution-file", str(path)) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "Traceback" not in err


def test_prove_full(tmp_path, capsys):
    assert run(tmp_path, "prove") == 0
    out = capsys.readouterr().out
    assert "verdict: NotIntegrable" in out
    data = read_json(tmp_path, "proof")
    assert data["verdict"] == "NotIntegrable"
    assert data["sections"][-1]["name"] == "orbit summary"


def test_prove_stop_after(tmp_path):
    assert run(tmp_path, "prove", "--stop-after", "reduction") == 0
    data = read_json(tmp_path, "proof")
    assert [s["name"] for s in data["sections"]][-1] == "reduction trace"
    assert "verdict" not in data


def test_prove_format_json_only(tmp_path):
    assert main(
        ["--report-dir", str(tmp_path / "reports"), "--format", "json", "prove",
         "--stop-after", "nve"]
    ) == 0
    assert (tmp_path / "reports" / "proof.json").exists()
    assert not (tmp_path / "reports" / "proof.md").exists()


def test_orbit_depth_one(tmp_path, capsys):
    assert run(tmp_path, "orbit", "--depth", "1", "--check-matsuda") == 0
    out = capsys.readouterr().out
    assert "orbit summary: pass" in out
    lines = (tmp_path / "reports" / "orbit.jsonl").read_text().splitlines()
    assert len(lines) == 4
    words = [tuple(json.loads(line)["word"]) for line in lines]
    assert words == [(), ("s0",), ("s1",), ("s2",)]


def test_orbit_depth_zero(tmp_path):
    assert run(tmp_path, "orbit", "--depth", "0") == 0
    lines = (tmp_path / "reports" / "orbit.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_reports_byte_stable(tmp_path):
    assert main(["--report-dir", str(tmp_path / "a"), "prove", "--stop-after", "nve"]) == 0
    assert main(["--report-dir", str(tmp_path / "b"), "prove", "--stop-after", "nve"]) == 0
    assert (tmp_path / "a" / "proof.json").read_bytes() == (
        tmp_path / "b" / "proof.json"
    ).read_bytes()
    assert (tmp_path / "a" / "proof.md").read_bytes() == (
        tmp_path / "b" / "proof.md"
    ).read_bytes()


# sha256 of the reports with --format both and, unless a row sets it, the
# default --precision 20.
# Any drift in parsing, exact arithmetic or rendering changes these bytes;
# they change only with a deliberate, documented change to the reports.
GOLDEN = (
    (
        ("prove",),
        {
            "proof.json": "5ec4d21dc799b9fbd608b751e51e3835b784be2cdd14a4ced9d08cc1efe73d45",
            "proof.md": "35026f8b5b6fc42ab857279ca51590a4512e825f4668d416c4365489cb510643",
        },
    ),
    (
        ("prove", "--alpha-wasow"),
        {
            "proof.json": "417c3d45f6e682935ae93214fd2a36ae59b7396bcd9de237bf122569b6e07e7a",
            "proof.md": "fe8dd939e3a9dffb99e7508ea1bfbdbe95dfd36283328c3b355b67d6d392c3c6",
        },
    ),
    (
        ("--precision", "40", "prove"),
        {
            "proof.json": "b158cf94e0b0d52a1230758382d9756d3109d0d497c50969c3ebdda7bd482414",
            "proof.md": "fcfb74448c43314d0460a76a4a54ffe81a0138630689b8929c6c20f0bad0ecda",
        },
    ),
    (
        ("--precision", "15", "prove", "--alpha-wasow"),
        {
            "proof.json": "0f64cca2a7e474b909523a6706fa7a9b7689dc56254ef63ed8b0493944a0afcc",
            "proof.md": "175fabaf7b134ed89c54f165ac222e217ca4ca57b4b1aa24fb43d722e94fc1a2",
        },
    ),
    (
        ("orbit", "--depth", "2", "--check-matsuda"),
        {
            "orbit.jsonl": "bc286a5e677b4ca515739dfb002b99d227c56deade8d29c466bd4cdd6f3cc5a3",
            "orbit_summary.json": "286fc14a08586a8c26441c1069a00cb352c09e77202214c519cab614c88799d2",
            "orbit_summary.md": "60a9f62d1ba62f572b0629783bfb6751f7c5c0578373be5f54f58df6817308df",
        },
    ),
    (
        ("orbit", "--depth", "6", "--check-matsuda"),
        {
            "orbit.jsonl": "a0f3d65c6ea71375e6ded69f71e26d7b42d48d6504198b0f9444494b83e489e6",
            "orbit_summary.json": "72e3f947670e6ed6720d3216d13d87cbc4ca06db66d3d523b7fc3f4e0bc1d231",
            "orbit_summary.md": "c1dc9a276339f326e273d9e7e3e83a30f5a3544cad43fb488f98e7ba8db88a13",
        },
    ),
    (
        ("orbit", "--depth", "8", "--check-matsuda"),
        {
            "orbit.jsonl": "6b654fe3db7e5119dc21bd0b2040018e1949d1f112946d0996bd2a3ed1856ae9",
            "orbit_summary.json": "4997fd0b9cdc6726a80c77b8a56498cf0dc2d8c3f416b4cd6743f410121ca49a",
            "orbit_summary.md": "96810fd87a2a55b16a7f979b61d40ed67dd0d30e3e14e8ad151a1aaeea39a141",
        },
    ),
    (
        ("orbit", "--depth", "10", "--check-matsuda"),
        {
            "orbit.jsonl": "78be57f3268d11c7153766a96a1b00465f32444900a53270ecd5bff2cdca1cef",
            "orbit_summary.json": "a45cdcd19d574c9c78f9dd81331abe6c51eac599b260b5b67c67bcaab550f395",
            "orbit_summary.md": "1e558d5f03c2095b5c1baae59b35df2e04d0d1c3b48e52df9f81595d4572977f",
        },
    ),
    (
        ("verify-seed",),
        {
            "seed_check.json": "fc2f60a3f672e99a5f3d7166fe7556c5b1032681d5df43cfc096413beef8a973",
            "seed_check.md": "8df512105fdd60ce854b7f6919eb3404a01034ceebc1aba985af1777e745a8f0",
        },
    ),
    (
        ("verify-seed", "--solution-file", S0_IMAGE),
        {
            "seed_check.json": "9794a9eb4949212169ed5778074ea68a942a032bfbdd5022354941cc5d6dc390",
            "seed_check.md": "c03f5e1062c1ae842c84fb14413436ce1493f1aa1d29bfd9f8bb391771bbf905",
        },
    ),
    (
        ("prove", "--stop-after", "nve"),
        {
            "proof.json": "53ddbef5fc60362bc2c92099969fc4d1b4e5e73917b0efaa9ee8dc8bf1a2a26c",
            "proof.md": "2d12d6355a27afac599cb36c567a7a61fae03b254f19fc1221f7206ff1110426",
        },
    ),
    (
        ("--precision", "1000", "prove"),
        {
            "proof.json": "0f881a30ae230e5ae0ba16b2636be8a28b2ce0b7705ed20619cb00703f9aff37",
            "proof.md": "d5ddcae7d71d4ecfd3eef99646b4e701cf0eef0008bb720edc90f6127834faba",
        },
    ),
    (
        ("prove", "--stop-after", "reduction"),
        {
            "proof.json": "37e4fabcc590161a208a09506af1ae92634a9581206b315f0046334ec249b82d",
            "proof.md": "5d90c898e2b49ba94d473739bbe1cdb955f1c860d213221225b1899da896ada5",
        },
    ),
    (
        ("prove", "--stop-after", "classify"),
        {
            "proof.json": "56a4bffd1b8fe915e587c4941590aaa5ce9e9c92b10867d755671bc6c10e987c",
            "proof.md": "eaec981af974d9de4d664c84b7e5e47b86c14b0885e2a38db6f26f9528f94322",
        },
    ),
    (
        ("orbit", "--depth", "6"),
        {
            "orbit.jsonl": "a0f3d65c6ea71375e6ded69f71e26d7b42d48d6504198b0f9444494b83e489e6",
            "orbit_summary.json": "0261e91559c5de6f34bee9a9ea2c619d77d2d70bfe62b85f9e30037a39463fbe",
            "orbit_summary.md": "12f5c890f0a8e9e870a1df53a4a27482d1b0cb3772fd29f6441791a79b676bf4",
        },
    ),
)


@pytest.mark.parametrize(
    "argv, digests",
    GOLDEN,
    ids=[
        "prove", "prove-wasow", "prove-precision-40", "prove-wasow-precision-15",
        "orbit-depth-2", "orbit-depth-6", "orbit-depth-8", "orbit-depth-10",
        "verify-seed", "verify-seed-file", "prove-nve",
        "prove-precision-1000", "prove-reduction", "prove-classify", "orbit-depth-6-unchecked",
    ],
)
def test_reports_match_golden_digests(tmp_path, argv, digests):
    # a dict argument is a solution file, written out and passed by path
    argv = list(argv)
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / "solution.json"
            path.write_text(json.dumps(arg))
            argv[k] = str(path)
    assert run(tmp_path, *argv) == 0
    got = {
        name: hashlib.sha256((tmp_path / "reports" / name).read_bytes()).hexdigest()
        for name in digests
    }
    assert got == digests


def test_corrupt_gauge_inverse_gives_fail_section(tmp_path, monkeypatch):
    fixtures = copy.deepcopy(reduction.load_fixtures())
    fixtures["gauges"]["t1_inv"][0][0] = "1/3"
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    assert run(tmp_path, "prove") == 1
    data = read_json(tmp_path, "proof")
    last = data["sections"][-1]
    assert (last["name"], last["status"]) == ("reduction trace", "fail")
    assert "leading_nilpotent" in last["steps"][0]["values"]["error"]


@pytest.mark.parametrize(
    "key, stage", [("t2_inv", "jordan_gauge"), ("t3_inv", "decoupled (printed gauge)")]
)
def test_corrupt_later_gauge_inverse_gives_fail_section(tmp_path, monkeypatch, key, stage):
    fixtures = copy.deepcopy(reduction.load_fixtures())
    fixtures["gauges"][key][0][0] = "1/3"
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    assert run(tmp_path, "prove") == 1
    data = read_json(tmp_path, "proof")
    last = data["sections"][-1]
    assert (last["name"], last["status"]) == ("reduction trace", "fail")
    assert f"stage {stage}: supplied inverse" in last["steps"][0]["values"]["error"]


def test_unparsable_gauge_fixture_gives_fail_section(tmp_path, monkeypatch):
    fixtures = copy.deepcopy(reduction.load_fixtures())
    fixtures["gauges"]["t2"][0][0] = "1/(t+1)"
    monkeypatch.setattr(reduction, "load_fixtures", lambda: fixtures)
    assert run(tmp_path, "prove") == 1
    data = read_json(tmp_path, "proof")
    last = data["sections"][-1]
    assert (last["name"], last["status"]) == ("reduction trace", "fail")
    assert "1/(t+1)" in last["steps"][0]["values"]["error"]


def test_nve_failure_gives_fail_section(tmp_path, monkeypatch):
    def broken(tower):
        raise TowerError("denominator t - 1 is not a power of the variable")

    monkeypatch.setattr(report, "seed_variational_system", broken)
    assert run(tmp_path, "prove") == 1
    data = read_json(tmp_path, "proof")
    last = data["sections"][-1]
    assert (last["name"], last["status"]) == ("normal variational equations", "fail")
    assert "t - 1" in last["steps"][0]["values"]["error"]


@pytest.mark.parametrize(
    "argv", [("verify-seed",), ("prove", "--stop-after", "nve"), ("orbit", "--depth", "0")]
)
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unusable_report_dir_is_input_error(tmp_path, capsys, argv, target):
    (tmp_path / "file").write_text("not a directory")
    assert main(["--report-dir", str(tmp_path / target), *argv]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name",
    [(("prove", "--stop-after", "nve"), "proof.json"), (("orbit", "--depth", "0"), "orbit.jsonl")],
)
def test_report_path_that_is_a_directory_is_input_error(tmp_path, capsys, argv, name):
    (tmp_path / "reports" / name).mkdir(parents=True)
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and name in err
    assert "Traceback" not in err


def test_precision_guard(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["--precision", "10", "prove"])
    assert err.value.code == 2


def test_precision_ceiling(tmp_path, capsys):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["--report-dir", str(tmp_path), "--precision", "100000", "prove"])
    assert err.value.code == 2 and time.perf_counter() - started < 1
    message = capsys.readouterr().err
    assert "at most 1000" in message and "Traceback" not in message
    assert main(["--report-dir", str(tmp_path), "--precision", "1000", "prove"]) == 0


def test_negative_depth_rejected(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["orbit", "--depth", "-3"])
    assert err.value.code == 2
    # prove's orbit summary has a fixed depth and no option for it
    with pytest.raises(SystemExit) as err:
        main(["prove", "--depth", "1"])
    assert err.value.code == 2
