"""Quick self-test of the benchmark harness, about 15 seconds.

    python3 perfbench/selftest.py

Run from the repository root.  It drives the harness at reduced size (the
orbit at depth 2, plus one ``prove`` command) in its own work directory
``.perfbench/selftest`` and checks:

* ``BENCHMARK.json`` and ``predictions.json`` agree with the harness;
* the output schema of an untraced and a traced run;
* the correctness gate accepts real reports and rejects altered ones;
* tracing leaves the report digests unchanged, and a digest that differs
  from an earlier run of the same source is flagged;
* a wrapper that was never called is flagged.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import spans

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def check_definitions() -> None:
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    expect(
        sorted(bench) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        "BENCHMARK.json keys",
    )
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    expect(
        [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        == list(run.END_TO_END.items()),
        "end_to_end names and units",
    )
    expect(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]), "bounds within (0, 0.25]")
    expect(bench["per_layer"] == spans.per_layer_spec(), "per_layer matches spans.per_layer_spec()")
    groups = run.load_predictions()["layers"]
    predicted = [m for g in groups for m in g["metrics"]]
    expect(sorted(predicted) == sorted(spans.per_layer_names()), "predictions cover each per-layer metric once")
    moves = {g["moves"] for g in groups if g["moves"] is not None}
    expect(moves <= set(run.END_TO_END), f"predictions name unknown end-to-end metrics {moves - set(run.END_TO_END)}")
    named = {w for g in groups for w in g["on"]}
    expect(named <= set(run.WORKLOADS), f"predictions name unknown workloads {named - set(run.WORKLOADS)}")


def check_output(result: dict, names: list[str], units: dict[str, str]) -> None:
    line = run.output_line(result, units)
    expect(sorted(line) == ["attempted", "correct", "failed", "metrics"], "output keys")
    expect(line["correct"] is True, f"run not correct: {result['problems']}")
    expect(line["attempted"] >= 1 and line["failed"] == 0, "attempted/failed counts")
    expect(list(line["metrics"]) == names, "metric names in output")
    for name, value in line["metrics"].items():
        expect(sorted(value) == ["unit", "value"], f"{name} entry keys")
        expect(isinstance(value["value"], (int, float)), f"{name} is not a number")
    json.loads(json.dumps(line, allow_nan=False))


def check_gate(wl: run.Workload, reports, scratch, edits) -> None:
    """The gate passes ``reports`` and fails each copy with one edit applied.

    Each edit replaces every occurrence of a string in one report file.
    """
    problems, _ = run.check_reports(wl, reports)
    expect(problems == [], f"{wl.name} gate rejects real reports: {problems}")
    for name, old, new in edits:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(reports, scratch)
        text = (scratch / name).read_text()
        expect(old in text, f"{name} has no {old!r} to alter")
        (scratch / name).write_text(text.replace(old, new))
        problems, _ = run.check_reports(wl, scratch)
        expect(problems != [], f"{wl.name} gate accepts {name} with {old!r} -> {new!r}")


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    check_definitions()

    orbit = run.Workload("orbit-d2", "orbit", ("orbit", "--depth", "2", "--check-matsuda"), "none", nodes=9)
    plain = run.measure(orbit, seed=0, seconds=0, trace=False, work_root=work)
    check_output(plain, list(run.END_TO_END), run.benchmark_units(False))
    expect(all(s["probes"] >= 1 and s["probe_s"] > 0 for s in plain["samples"]), "reference probe times")
    traced = run.measure(orbit, seed=1, seconds=0, trace=True, work_root=work)
    check_output(traced, spans.per_layer_names(), run.benchmark_units(True))
    layers = traced["per_layer"]
    expect(layers.get("weyl.orbit.nodes") == 9, "traced orbit node count")
    expect(layers.get("algnum.mul.calls") == 0, "algnum calls on the orbit")
    expect(layers.get("weyl.depth.2.s", 0) > 0 and layers.get("weyl.depth.3.s") == 0, "orbit depth split")
    digests = [s["digests"] for s in traced["samples"] if s["mode"] != "setup-only"]
    expect(len(digests) == 2 and all(d == plain["digests"] for d in digests), "traced digests differ")

    reports = work / "work" / orbit.name / "reports"
    check_gate(
        orbit,
        reports,
        work / "altered",
        [
            ("orbit_summary.json", '"nodes": 9', '"nodes": 8'),
            ("orbit_summary.json", '"states equal": true', '"states equal": false'),
            ("orbit_summary.json", '"status": "pass"', '"status": "fail"'),
            ("orbit.jsonl", '"matsuda_row": 1', '"matsuda_row": null'),
        ],
    )
    prove = run.WORKLOADS["prove-canonical"]
    sample = run.run_child(prove, work, "-")
    expect(sample["problems"] == [], f"prove-canonical command failed: {sample['problems']}")
    check_gate(
        prove,
        work / "reports",
        work / "altered",
        [
            ("proof.json", '"verdict": "NotIntegrable"', '"verdict": "Inconclusive"'),
            ("proof.json", '"exact": "1/6"', '"exact": "1/5"'),
            ("proof.json", '"normalization": "canonical"', '"normalization": "wasow"'),
        ],
    )

    fake = {"mode": "-", "problems": [], "digests": {"orbit.jsonl": "0" * 64}}
    flagged = run.check_digests(work, plain["environment"]["source_sha256"], orbit, [fake])
    expect(flagged != [], "a changed digest for the same source is not flagged")
    missed = dict(layers, **{"ratfunc.gcd.calls": 0})
    expect(run.check_reach("orbit", missed) != [], "a wrapper with zero calls is not flagged")

    for failure in FAILURES:
        print(f"FAIL: {failure}")
    print("selftest: " + ("ok" if not FAILURES else f"{len(FAILURES)} failure(s)"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
