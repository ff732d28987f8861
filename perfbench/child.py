"""Run one ``sasano-galois`` command in this process and time its parts.

Usage (from the repository root; ``run.py`` starts it):

    python3 perfbench/child.py RECORD SETUP TRACE -- CLI-ARGS...

RECORD is the JSON file this writes.  SETUP is ``canonical``, ``wasow``
or ``none``: the configuration the command loads besides the import.
TRACE is ``-`` for an untraced run, ``setup-only`` to stop after
set-up, or a file that receives the span records.  The record holds
the set-up (import plus configuration load) and ``cli.main`` (including
writing the reports) phases, each timed by the clock (``setup_wall_s``,
``run_wall_s``) and by this process's CPU time (``setup_cpu_s``,
``run_cpu_s``), the exit code and, when traced, the per-layer metrics.
"""

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def _setup(kind: str) -> None:
    import sasano_galois  # noqa: F401
    from sasano_galois import cli  # noqa: F401
    from sasano_galois.reduction import canonical_config, load_fixtures, wasow_config

    if kind == "canonical":
        canonical_config()
        load_fixtures()
    elif kind == "wasow":
        wasow_config()
        load_fixtures()
    elif kind != "none":
        raise SystemExit(f"unknown set-up {kind!r}")


def main(argv: list[str]) -> int:
    record_path, setup, trace = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: child.py RECORD SETUP TRACE -- CLI-ARGS...")
    cli_args = argv[4:]
    _setup(setup)
    record: dict = {"setup_wall_s": time.perf_counter() - _T0, "setup_cpu_s": time.process_time() - _C0}
    if trace == "setup-only":
        _write(record_path, record)
        return 0
    tracer = None
    if trace != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from sasano_galois import cli

    t1, c1 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback in the engine is a failed command
        record["error"] = f"{type(exc).__name__}: {exc}"
        code = 1
    record["run_wall_s"] = time.perf_counter() - t1
    record["run_cpu_s"] = time.process_time() - c1
    record["exit"] = code
    if tracer is not None:
        from spans import summarize

        spans = tracer.finish()
        record["layers"] = summarize(spans)
        with open(trace, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counters"], "spans": spans}, fh)
    _write(record_path, record)
    return code


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
