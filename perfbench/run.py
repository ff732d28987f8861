"""End-to-end benchmark of the ``sasano-galois`` commands.

Run from the repository root:

    python3 perfbench/run.py --workload prove-canonical --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one CLI command with inputs fixed by the paper.  The
benchmark runs it in a closed loop with one client: every command is a
fresh child process (``child.py``), started only after the previous one
has exited.  A run first makes one untimed warm-up set-up, then runs
``SETUP_PROBES`` set-up-only children and commands until ``--seconds``
have passed (at least one command).  The seed only shuffles the order of
those children; it is recorded with the result.

Timings are reported twice: as measured, and scaled to a reference
speed.  On a shared host the speed of one CPU changes up to twofold
within seconds, so raw timings of the same code spread widely.  While a
child runs, the benchmark (pinned to the child's CPU) times a fixed
reference unit of work every ``PROBE_INTERVAL_S`` and scales each of the
child's timings by ``REF_UNIT_S`` over the mean unit time, which cancels
most of that drift and keeps the timing proportional to the work the
command does.  The JSON metrics ``*_ref_s`` and ``setup_s`` are these
scaled timings (see ``scaled_timings``).

Untraced (``--trace 0``) each workload's output ends with a JSON line
holding the end-to-end metrics; ``--workload all`` runs every workload
in turn.  Traced (``--trace 1``) every round runs the command once
untraced and once under the span tracer (``spans.py``), in a
seed-chosen order, and the JSON holds the per-layer metrics.  Every
command's reports pass a correctness gate and are hashed; runs of the
same source must produce the same digests, and a traced command must
produce the digests of the untraced one.  Each run appends its full
record (samples, digests, environment) to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src" / "sasano_galois"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 16
COMMAND_TIMEOUT_S = 150.0

PROBE_INTERVAL_S = 0.02
REF_UNIT_S = 0.001  # a reference unit takes this long at reference speed

# Timings of one child as measured: wall_s (spawn to exit), cpu_s (user +
# system time of the child), set-up and ``cli.main`` timed inside the child
# by the clock and by its own CPU time, probe_s (mean reference unit time
# while it ran) and probe_cpu_s (CPU time the probing took).
RAW_TIMINGS = ("wall_s", "cpu_s", "setup_wall_s", "setup_cpu_s", "run_wall_s", "run_cpu_s", "probe_s", "probe_cpu_s")
# The JSON metrics and their units; ``scaled_timings`` defines the timings.
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "run_ref_s": "s", "peak_rss_mib": "MiB"}
# Fields measured on every child, set-up-only ones included.
SETUP_FIELDS = ("setup_s", "setup_wall_s", "setup_cpu_s")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "prove" or "orbit"
    args: tuple[str, ...]
    setup: str  # configuration loaded during set-up: canonical, wasow or none
    normalization: str = ""  # expected report normalization (prove)
    nodes: int = 0  # expected orbit size (orbit)

    def report_files(self) -> tuple[str, ...]:
        if self.kind == "prove":
            return ("proof.json", "proof.md")
        return ("orbit.jsonl", "orbit_summary.json", "orbit_summary.md")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prove-canonical", "prove", ("prove",), "canonical", normalization="canonical"),
        Workload("prove-wasow", "prove", ("prove", "--alpha-wasow"), "wasow", normalization="wasow"),
        Workload("orbit-d6", "orbit", ("orbit", "--depth", "6", "--check-matsuda"), "none", nodes=57),
    )
}


# -- correctness gate ------------------------------------------------------------


def check_reports(wl: Workload, reports: Path) -> tuple[list[str], dict[str, str]]:
    """Problems found in one command's reports, and their sha256 digests."""
    problems: list[str] = []
    digests: dict[str, str] = {}
    for name in wl.report_files():
        path = reports / name
        if not path.is_file():
            problems.append(f"missing report {name}")
            continue
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if problems:
        return problems, digests
    summary = "proof.json" if wl.kind == "prove" else "orbit_summary.json"
    try:
        report = json.loads((reports / summary).read_text())
        sections = {s["name"]: s for s in report["sections"]}
        for s in report["sections"]:
            if s["status"] != "pass":
                problems.append(f"section {s['name']!r} is {s['status']}")
        if wl.kind == "prove":
            problems += _check_proof(wl, report, sections)
        else:
            problems += _check_orbit(wl, sections, (reports / "orbit.jsonl").read_text())
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems, digests


def _check_proof(wl: Workload, report: dict, sections: dict) -> list[str]:
    problems = []
    if report.get("normalization") != wl.normalization:
        problems.append(f"normalization is {report.get('normalization')!r}")
    if report.get("verdict") != "NotIntegrable":
        problems.append(f"verdict is {report.get('verdict')!r}")
    steps = sections["whittaker normal form"]["steps"]
    if not steps:
        problems.append("no Whittaker data")
    for step in steps:
        kappa = step["values"]["kappa"]["exact"]
        mu = step["values"]["mu"]["exact"]
        if (kappa, mu) != ("1/2", "1/6"):
            problems.append(f"{step['claim']}: kappa = {kappa}, mu = {mu}")
    return problems


def _check_orbit(wl: Workload, sections: dict, jsonl: str) -> list[str]:
    problems = []
    steps = sections["orbit summary"]["steps"]
    values = {k: v for step in steps for k, v in step["values"].items()}
    if values["nodes"] != wl.nodes:
        problems.append(f"orbit has {values['nodes']} nodes, expected {wl.nodes}")
    if values["states equal"] is not True:
        problems.append("a parameter collision carries different states")
    if values.get("nodes without a row", None) != []:
        problems.append("the Matsuda row check is missing or has nodes without a row")
    rows = [json.loads(line) for line in jsonl.splitlines()]
    if len(rows) != wl.nodes:
        problems.append(f"orbit.jsonl has {len(rows)} nodes, expected {wl.nodes}")
    if any(r["matsuda_row"] is None for r in rows):
        problems.append("orbit.jsonl has a node without a Matsuda row")
    return problems


def check_reach(kind: str, layers: dict[str, float]) -> list[str]:
    """Call counts that contradict ``predictions.json``.

    A wrapper expected to run on this kind of workload but never called
    means a patch was missed, which would otherwise read as zero cost.
    """
    problems = []
    for group in load_predictions()["layers"]:
        for metric in group["metrics"]:
            if not metric.endswith(".calls"):
                continue
            if kind in group["reached_on"] and layers[metric] == 0:
                problems.append(f"{metric} is 0 on a {kind} workload")
            if kind in group["zero_on"] and layers[metric] != 0:
                problems.append(f"{metric} is {layers[metric]} on a {kind} workload, expected 0")
    return problems


def load_predictions() -> dict:
    return json.loads((HERE / "predictions.json").read_text())


# -- reference speed ---------------------------------------------------------------


def _reference_operands() -> tuple[dict, dict]:
    rng = random.Random(2402_14351)

    def poly() -> dict:
        return {
            (rng.randrange(5), rng.randrange(5), rng.randrange(3)): Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
            for _ in range(16)
        }

    return poly(), poly()


REF_P, REF_Q = _reference_operands()


def _reference_product() -> dict:
    out: dict = {}
    for (a1, b1, c1), v1 in REF_P.items():
        for (a2, b2, c2), v2 in REF_Q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


def reference_unit() -> float:
    """CPU time of one fixed unit of reference work, in seconds.

    The unit multiplies two sparse polynomials with ``Fraction``
    coefficients, the kind of work that dominates the program's tower
    and rational-function arithmetic, so it slows down with the program
    when a neighbour loads the CPU.  Of the candidates tried (Fraction
    sums, big-integer products, list walks, larger working sets) it
    tracked the commands' own CPU time most closely.  The product runs
    once untimed first: the child evicts the unit's data from the cache
    while the probe sleeps, and a cold unit tracked the child's speed
    less well (its time grew more slowly than the child's).
    """
    _reference_product()
    start = time.process_time()
    _reference_product()
    return time.process_time() - start


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the probe sees the child's CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def wait_probing(proc: subprocess.Popen, deadline: float) -> tuple[int, os.struct_rusage, list[float], float]:
    """Wait for ``proc`` to exit, timing a reference unit every ``PROBE_INTERVAL_S``.

    Kills the child once ``deadline`` (a ``perf_counter`` time) has passed.
    Returns its wait status, its resource usage, the unit times and the
    CPU time this process spent meanwhile.
    """
    probes: list[float] = []
    cpu_start = time.process_time()
    fd = os.pidfd_open(proc.pid)
    try:
        while not select.select([fd], [], [], PROBE_INTERVAL_S)[0]:
            if time.perf_counter() > deadline:
                proc.kill()
            probes.append(reference_unit())
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    probe_cpu = time.process_time() - cpu_start
    if not probes:
        probes.append(reference_unit())
    return status, usage, probes, probe_cpu


def scaled_timings(sample: dict) -> dict[str, float]:
    """The JSON timings of one child: its timings at reference speed.

    Each is scaled by ``REF_UNIT_S / probe_s``.  Wall time leaves out the
    CPU time the probing took from the child, and set-up and run time are
    the child's own CPU time in those phases, so the probe's share, which
    changes with the CPU's speed, stays out of every metric.
    """
    scale = REF_UNIT_S / sample["probe_s"]
    out = {"wall_ref_s": (sample["wall_s"] - sample["probe_cpu_s"]) * scale, "cpu_ref_s": sample["cpu_s"] * scale}
    if "setup_cpu_s" in sample:
        out["setup_s"] = sample["setup_cpu_s"] * scale
    if "run_cpu_s" in sample:
        out["run_ref_s"] = sample["run_cpu_s"] * scale
    return out


# -- running one child -----------------------------------------------------------


def run_child(wl: Workload, work: Path, mode: str) -> dict:
    """Start one child, wait for it, and return its measured sample.

    ``mode`` is ``-`` (untraced), ``trace`` or ``setup-only``.
    """
    reports = work / "reports"
    shutil.rmtree(reports, ignore_errors=True)
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    trace_arg = str(work / "spans.json") if mode == "trace" else mode
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), wl.setup, trace_arg, "--"]
    argv += ["--report-dir", str(reports), *wl.args]
    with open(work / "child.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        status, usage, probes, probe_cpu = wait_probing(proc, start + COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "mode": mode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "probe_s": statistics.fmean(probes),
        "probe_cpu_s": probe_cpu,
        "probes": len(probes),
        "exit": proc.returncode,
    }
    try:
        sample.update(json.loads(record_path.read_text()))
    except (OSError, ValueError):
        sample["error"] = "child wrote no record"
    sample.update(scaled_timings(sample))
    if mode == "setup-only":
        return sample
    problems = []
    if sample.get("error"):
        problems.append(sample["error"])
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    found, digests = check_reports(wl, reports)
    sample["problems"] = problems + found
    sample["digests"] = digests
    return sample


# -- statistics and environment ----------------------------------------------------


def timing_summary(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) > 10:
        rank = len(xs) - 10
        out["tail"] = {"percentile": 100 * rank // len(xs), "value": xs[rank - 1]}
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SOURCE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def check_digests(work_root: Path, key: str, wl: Workload, samples: list[dict]) -> list[str]:
    """Digests must agree within the run and with earlier runs of the same source."""
    store_path = work_root / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    known = store.setdefault(key, {}).get(wl.name)
    problems = []
    for s in samples:
        if s["problems"] or s["mode"] == "setup-only":
            continue
        if known is None:
            known = s["digests"]
        elif s["digests"] != known:
            label = "traced" if s["mode"] == "trace" else "untraced"
            s["problems"].append(f"{label} report digests differ from the first ones of this source")
            problems.append(s["problems"][-1])
    if known is not None:
        store[key][wl.name] = known
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return problems


# -- one run -------------------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work_root: Path = WORK) -> dict:
    """One benchmark run of a workload; returns the full result record."""
    work = work_root / "work" / wl.name
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    env = environment(seed)
    pin_to_one_cpu()
    load_start = loadavg()
    run_child(wl, work, "setup-only")  # warm-up: byte-compile and fill the page cache
    samples: list[dict] = []
    start = time.perf_counter()
    if trace:
        while not samples or time.perf_counter() - start < seconds:
            pair = ["-", "trace"]
            rng.shuffle(pair)
            samples += [run_child(wl, work, mode) for mode in pair]
    else:
        plan = ["setup-only"] * SETUP_PROBES + ["-"]
        rng.shuffle(plan)
        samples += [run_child(wl, work, mode) for mode in plan]
        while time.perf_counter() - start < seconds:
            samples.append(run_child(wl, work, "-"))
    measured = time.perf_counter() - start

    commands = [s for s in samples if s["mode"] != "setup-only"]
    check_digests(work_root, env["source_sha256"], wl, commands)
    plain = [s for s in commands if s["mode"] == "-"]
    traced = [s for s in commands if s["mode"] == "trace"]
    failed = [s for s in commands if s["problems"]]
    good = [s for s in plain if not s["problems"]] or plain

    timings, raw = {}, {}
    for summaries, fields in ((timings, END_TO_END), (raw, RAW_TIMINGS)):
        for field in fields:
            pool = samples if field in SETUP_FIELDS else good
            values = [s[field] for s in pool if field in s]
            if values:
                summaries[field] = timing_summary(values)
    result = {
        "workload": wl.name,
        "trace": trace,
        "environment": env,
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "measured_s": measured,
        "attempted": len(commands),
        "failed": len(failed),
        "problems": sorted({p for s in commands for p in s["problems"]}),
        "end_to_end": timings,
        "as_measured": raw,
        "digests": good[0]["digests"] if good else {},
        "samples": samples,
    }
    if trace:
        layer_runs = [s["layers"] for s in traced if "layers" in s]
        layers = {}
        if layer_runs:
            for name in layer_runs[0]:
                layers[name] = statistics.median(run[name] for run in layer_runs)
            layers["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - statistics.median(
                s["wall_s"] for s in plain
            )
            reach = check_reach(wl.kind, layers)
            result["problems"] += reach
        else:
            result["problems"].append("no traced command produced layer metrics")
        result["per_layer"] = layers
    result["correct"] = not result["problems"]
    with open(work_root / "results.jsonl", "a") as fh:
        fh.write(json.dumps(result) + "\n")
    return result


def output_line(result: dict, units: dict[str, str]) -> dict:
    """The benchmark's final JSON object for one run."""
    if result["trace"]:
        values = result["per_layer"]
    else:
        values = {name: summary["median"] for name, summary in result["end_to_end"].items()}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }


def print_summary(result: dict) -> None:
    env = result["environment"]
    mode = "traced" if result["trace"] else "untraced"
    print(f"{result['workload']}: {mode}, seed {env['seed']}, {result['measured_s']:.1f} s measured")
    print("  at reference speed (setup_s too):")
    _print_timings(result["end_to_end"], END_TO_END)
    print("  as measured:")
    _print_timings(result["as_measured"], {field: "s" for field in RAW_TIMINGS})
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<13} {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(
        f"  python {env['python']}, nproc {env['nproc']}, git {env['git_sha']}, "
        f"source {env['source_sha256'][:12]}, loadavg {result['loadavg_start']} -> {result['loadavg_end']}"
    )


def _print_timings(summaries: dict, units: dict[str, str]) -> None:
    for name, summary in summaries.items():
        unit = units[name]
        line = f"    {name:<13} median {summary['median']:.6g} {unit}"
        tail = summary.get("tail")
        if tail:
            line += f", p{tail['percentile']} {tail['value']:.6g} {unit}"
        print(line + f" (n={summary['n']})")


def benchmark_units(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"no sasano_galois sources under {SOURCE}; run from the repository root", file=sys.stderr)
        return 2
    units = benchmark_units(bool(args.trace))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_summary(result)
        print(json.dumps(output_line(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
