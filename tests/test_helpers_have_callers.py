"""Every function and method the package defines runs in some command, or
``KEPT`` names it with the reason it stays.

A helper kept "for generality" that no command runs is dead weight, and a
search for its name cannot tell: a dead method hides behind a live one of
the same name in another class.  So the commands of ``COMMANDS`` run under
``sys.settrace`` (call events only), and every code object defined in a
module of the package, at module level or in a class body, must have been
entered.  Dunders are checked like any other method: an arithmetic dunder
that no command reaches goes, and a protocol dunder stays only with its
reason below.

The trace runs in a fresh interpreter, started before the package is
imported: import-time calls count, and no cache filled by an earlier test
hides a call.  All commands run in that one process through ``cli.main``.
Run this file directly, with ``src`` on the path and a scratch directory
as its argument, to print the exit codes and the never-entered names.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

S0_IMAGE = {"params": ["-2/5", "3/5", "1/10"], "x": "-2*t/5", "y": "0", "z": "-1/t", "w": "-2*t/5"}
SOLUTION_FILES = {  # name: (content, exit code of verify-seed --solution-file)
    "s0_image.json": (S0_IMAGE, 0),
    "unknown_symbol.json": (dict(S0_IMAGE, x="-2*q/5"), 2),
    "unparsable.json": (dict(S0_IMAGE, z="-1/(t"), 2),
}
COMMANDS = (  # (argv, exit code)
    (("prove",), 0),
    (("prove", "--alpha-wasow"), 0),
    (("orbit", "--depth", "5", "--check-matsuda"), 0),
    (("orbit", "--depth", "1"), 0),
    (("verify-seed", "--params", "1/2,1/8,1/8"), 1),  # the model check's fail section
)

_ACCEPTANCE = "tests/test_acceptance.py"
KEPT = {
    "ball.Ball.__abs__": f"criterion 7 of {_ACCEPTANCE} calls abs() on embeddings",
    "ratfunc.Frozen.__rsub__": "AlgNum's class-dict entry, which perfbench/spans.py wraps (test_tracer_names)",
    # protocol dunders: no command compares, hashes, copies, prints or
    # mutates these values through them, and test_startup checks each
    "ratfunc.Frozen.__hash__": "a class that defines __eq__ is unhashable without it",
    "ratfunc.Frozen.__reduce__": "copy and pickle of the immutable values",
    "ratfunc.Frozen.__repr__": "the repr of the immutable values",
    "ratfunc.Frozen.__setattr__": "the immutability guard; it raises on every assignment",
    "algnum.AlgNum.__repr__": "Frozen's repr would print the tower object",
    "puiseux.PuiseuxPoly.__repr__": "Frozen's repr would print the tower object; the pickle test compares reprs",
    "puiseux.PuiseuxPoly.__hash__": "PuiseuxPoly defines its own __eq__, and is unhashable without it",
    "__init__.__getattr__": "the package's lazy public names for library use (PEP 562)",
}


def test_every_defined_function_has_a_caller(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["exits"] == [code for _, code in COMMANDS] + [code for _, code in SOLUTION_FILES.values()]
    never = set(result["never"])
    assert not never - set(KEPT), f"no command enters these: {sorted(never - set(KEPT))}"
    assert not set(KEPT) - never, f"a command enters these, so they need no reason: {sorted(set(KEPT) - never)}"


def _defined(package) -> dict:
    """code object -> "module.qualname" for every function defined in a
    module of ``package`` (``__init__`` for the package itself), at module
    level or in a class body."""
    root = Path(package.__file__).parent
    names = [m.name for m in pkgutil.iter_modules([str(root)])]
    modules = [package, *(importlib.import_module(f"{package.__name__}.{name}") for name in names)]
    found = {}

    def add(fn):
        fn = inspect.unwrap(fn)
        if inspect.isfunction(fn) and (path := Path(fn.__code__.co_filename)).parent == root:
            found.setdefault(fn.__code__, f"{path.stem}.{fn.__qualname__}")

    for module in modules:
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr in vars(value).values():  # a property's getter; a static or class method's function
                    add(attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr))
            elif callable(value):
                add(value)
    return found


def _trace(scratch: Path) -> dict:
    """Run every command under a call tracer; the exit codes and the names
    of the functions never entered."""
    entered = set()
    sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        import sasano_galois
        from sasano_galois.cli import main

        argvs = [argv for argv, _ in COMMANDS]
        for name, (content, _) in SOLUTION_FILES.items():
            (scratch / name).write_text(json.dumps(content))
            argvs.append(("verify-seed", "--solution-file", str(scratch / name)))
        exits = []
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                exits.append(main(["--report-dir", str(scratch / "reports"), *argv]))
    finally:
        sys.settrace(None)
    never = sorted(name for code, name in _defined(sasano_galois).items() if code not in entered)
    return {"exits": exits, "never": never}


if __name__ == "__main__":
    print(json.dumps(_trace(Path(sys.argv[1]))))
