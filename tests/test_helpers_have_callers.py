"""Every function and method the package defines has a caller somewhere.

A helper kept "for generality" that nothing uses is dead weight.  The
check is by name: each non-dunder function or method defined in
``src/sasano_galois`` must occur as a whole word in ``src/``, ``tests/``
or ``perfbench/`` more often than it is defined.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sasano_galois"
SEARCHED = [path for part in ("src", "tests", "perfbench") for path in sorted((ROOT / part).rglob("*.py"))]


def _defined_names() -> Counter:
    names = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def test_every_defined_function_has_a_caller():
    defined = _defined_names()
    words = Counter(re.findall(r"\w+", "\n".join(path.read_text() for path in SEARCHED)))
    uncalled = sorted(name for name, defs in defined.items() if words[name] <= defs)
    assert not uncalled, f"defined but never used: {uncalled}"
