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
from pathlib import Path

from .exprparse import parse_param, parse_ratfunc
from .report import (
    ProofReport,
    build_proof,
    build_seed_report,
    orbit_jsonl,
    report_to_json,
    report_to_markdown,
    run_orbit,
)
from .sasano import ParamTriple, seed_solution


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
        help="decimal digits for numeric renderings, 15 to 1000 (default: 20)",
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

    orbit = sub.add_parser("orbit", help="enumerate the reflection orbit of the seed")
    orbit.add_argument("--depth", type=int, default=6, help="word length bound (default: 6)")
    orbit.add_argument(
        "--check-matsuda",
        action="store_true",
        help="require every node to match a row of the integrality table",
    )
    return parser


def _publish(report: ProofReport, args, stem: str, files: tuple[tuple[str, str], ...] = ()) -> int:
    """Write ``files`` (name, text) and the report renderings under the
    report directory, print the outcome, and return the exit code.

    A report path that cannot be written (a directory, say) is an input
    error, like an unusable report directory.
    """
    if args.format in ("json", "both"):
        files += ((f"{stem}.json", report_to_json(report)),)
    if args.format in ("md", "both"):
        files += ((f"{stem}.md", report_to_markdown(report)),)
    written = []
    try:
        for name, text in files:
            path = Path(args.report_dir) / name
            path.write_text(text)
            written.append(path)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    for section in report.sections:
        print(f"{section.name}: {section.status}")
    if report.verdict is not None:
        print(f"verdict: {report.verdict}")
    for path in written:
        print(f"wrote {path}")
    return 0 if report.all_pass() else 1


def _parse_params(text: str) -> ParamTriple:
    pieces = text.split(",")
    if len(pieces) != 3:
        raise ValueError(f"expected three comma-separated values, got {len(pieces)}")
    return ParamTriple.make([parse_param(p, f"a{i}") for i, p in enumerate(pieces)])


def _load_solution_file(path: str) -> tuple[dict, ParamTriple]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("solution file must hold a JSON object")
    funcs = {}
    for name in ("x", "y", "z", "w"):
        if name not in data:
            raise ValueError(f"solution file is missing the component {name!r}")
        funcs[name] = parse_ratfunc(str(data[name]))
    if not isinstance(data.get("params"), list) or len(data["params"]) != 3:
        raise ValueError("solution file needs a three-element params list")
    params = ParamTriple.make([parse_param(str(q), f"a{i}") for i, q in enumerate(data["params"])])
    return funcs, params


def cmd_verify_seed(args) -> int:
    try:
        if args.solution_file is not None:
            funcs, params = _load_solution_file(args.solution_file)
        else:
            funcs, params = seed_solution()
        if args.params is not None:
            params = _parse_params(args.params)
    except (OSError, ValueError, ZeroDivisionError, RecursionError) as exc:  # 1/0, deep nesting
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return _publish(build_seed_report(funcs, params), args, "seed_check")


def cmd_prove(args) -> int:
    report = build_proof(wasow=args.alpha_wasow, stop_after=args.stop_after, digits=args.precision)
    return _publish(report, args, "proof")


def cmd_orbit(args) -> int:
    report, orbit = run_orbit(args.depth, check_rows=args.check_matsuda)
    files = () if orbit is None else (("orbit.jsonl", orbit_jsonl(orbit)),)
    return _publish(report, args, "orbit_summary", files)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 15 <= args.precision <= 1000:
        parser.error("precision must be at least 15 and at most 1000")
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
