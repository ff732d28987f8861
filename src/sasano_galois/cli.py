"""Command line front end for the verification pipeline.

Three subcommands cover the workflow: ``verify-seed`` checks one candidate
solution, ``prove`` runs the full certificate pipeline, and ``orbit``
enumerates the reflection orbit of the seed.  Reports are written under a
chosen directory as JSON and Markdown; both are deterministic, so reruns
yield byte-identical files.

Exit codes: 0 when every requested check passes, 1 when a verification
fails, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .exprparse import parse_ratfunc
from .report import (
    ProofReport,
    build_orbit_report,
    build_proof,
    build_seed_report,
    orbit_jsonl,
    report_to_json,
    report_to_markdown,
)
from .sasano import seed_solution
from .weyl import ParamTriple, enumerate_orbit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasano-galois",
        description="exact non-integrability certificates for the Sasano Hamiltonian system",
    )
    parser.add_argument(
        "--report-dir",
        default="reports",
        help="directory for the generated report files (default: ./reports)",
    )
    parser.add_argument(
        "--format",
        choices=("json", "md", "both"),
        default="both",
        help="which report renderings to write (default: both)",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=20,
        help="decimal digits for numeric renderings, at least 15 (default: 20)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed = sub.add_parser("verify-seed", help="check one exact solution of the system")
    seed.add_argument(
        "--params",
        help='parameter triple "a0,a1,a2" as fractions (default: the seed values 2/5,1/5,1/10)',
    )
    seed.add_argument(
        "--solution-file",
        help="JSON file with rational functions x, y, z, w of t and a params list",
    )

    prove = sub.add_parser("prove", help="run the full certificate pipeline")
    prove.add_argument(
        "--alpha-wasow",
        action="store_true",
        help="normalize the irregular reduction in the alternative root convention",
    )
    prove.add_argument(
        "--stop-after",
        choices=("nve", "reduction", "classify"),
        help="truncate the pipeline after the named phase",
    )
    prove.add_argument(
        "--depth",
        type=int,
        default=2,
        help="depth of the closing orbit summary (default: 2)",
    )

    orbit = sub.add_parser("orbit", help="enumerate the reflection orbit of the seed")
    orbit.add_argument("--depth", type=int, default=6, help="word length bound (default: 6)")
    orbit.add_argument(
        "--check-matsuda",
        action="store_true",
        help="require every node to match a row of the integrality table",
    )
    return parser


def _write_reports(report: ProofReport, outdir: Path, fmt: str, stem: str) -> list[Path]:
    written = []
    if fmt in ("json", "both"):
        path = outdir / f"{stem}.json"
        path.write_text(report_to_json(report))
        written.append(path)
    if fmt in ("md", "both"):
        path = outdir / f"{stem}.md"
        path.write_text(report_to_markdown(report))
        written.append(path)
    return written


def _print_outcome(report: ProofReport, written: list[Path]) -> None:
    for section in report.sections:
        print(f"{section.name}: {section.status}")
    if report.verdict is not None:
        print(f"verdict: {report.verdict}")
    for path in written:
        print(f"wrote {path}")


def _parse_params(text: str) -> ParamTriple:
    pieces = text.split(",")
    if len(pieces) != 3:
        raise ValueError(f"expected three comma-separated values, got {len(pieces)}")
    values = tuple(Fraction(p.strip()) for p in pieces)
    return ParamTriple.make(values)


def _load_solution_file(path: str) -> tuple[dict, ParamTriple]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("solution file must hold a JSON object")
    funcs = {}
    for name in ("x", "y", "z", "w"):
        if name not in data:
            raise ValueError(f"solution file is missing the component {name!r}")
        funcs[name] = parse_ratfunc(str(data[name]), var="t")
    if not isinstance(data.get("params"), list) or len(data["params"]) != 3:
        raise ValueError("solution file needs a three-element params list")
    params = ParamTriple.make(tuple(Fraction(str(q)) for q in data["params"]))
    return funcs, params


def cmd_verify_seed(args) -> int:
    try:
        if args.solution_file is not None:
            funcs, params = _load_solution_file(args.solution_file)
        else:
            funcs, values = seed_solution()
            params = ParamTriple.make(values)
        if args.params is not None:
            params = _parse_params(args.params)
    except (OSError, ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") raises the last
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    report = build_seed_report(funcs, params)
    written = _write_reports(report, Path(args.report_dir), args.format, "seed_check")
    _print_outcome(report, written)
    return 0 if report.all_pass() else 1


def cmd_prove(args) -> int:
    report = build_proof(
        wasow=args.alpha_wasow,
        stop_after=args.stop_after,
        orbit_depth=args.depth,
        digits=args.precision,
    )
    written = _write_reports(report, Path(args.report_dir), args.format, "proof")
    _print_outcome(report, written)
    return 0 if report.all_pass() else 1


def cmd_orbit(args) -> int:
    orbit = enumerate_orbit(depth=args.depth)
    report = build_orbit_report(orbit, check_rows=args.check_matsuda)
    outdir = Path(args.report_dir)
    export = outdir / "orbit.jsonl"
    export.write_text(orbit_jsonl(orbit))
    written = _write_reports(report, outdir, args.format, "orbit_summary")
    _print_outcome(report, [export] + written)
    return 0 if report.all_pass() else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 15:
        parser.error("precision must be at least 15")
    if getattr(args, "depth", 0) < 0:
        parser.error("depth must be nonnegative")
    try:
        Path(args.report_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a file on the path
        print(f"input error: report directory {args.report_dir}: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify-seed":
        return cmd_verify_seed(args)
    if args.command == "prove":
        return cmd_prove(args)
    return cmd_orbit(args)


if __name__ == "__main__":
    raise SystemExit(main())
