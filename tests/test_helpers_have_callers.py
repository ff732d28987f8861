"""Every function and method the package defines has a caller somewhere.

A helper kept "for generality" that nothing uses is dead weight.  The
search covers ``src/``, ``tests/`` and ``perfbench/``, and dunder names are
exempt.  A module-level or nested function defined in
``src/sasano_galois`` must occur there as a whole word more often than it
is defined.  A method defined in a class body must be named in an
attribute reference (``x.name``), so a dead method cannot hide behind a
function or a local variable of the same name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sasano_galois"
SEARCHED = [path for part in ("src", "tests", "perfbench") for path in sorted((ROOT / part).rglob("*.py"))]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _defined_names() -> tuple[Counter, Counter]:
    """(functions, methods): how often each non-dunder name is defined."""
    functions, methods = Counter(), Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_class = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
                (methods if id(node) in in_class else functions)[node.name] += 1
    return functions, methods


def test_every_defined_function_has_a_caller():
    functions, methods = _defined_names()
    texts = [path.read_text() for path in SEARCHED]
    words = Counter(re.findall(r"\w+", "\n".join(texts)))
    attributes = Counter(
        node.attr for text in texts for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Attribute)
    )
    uncalled = sorted(name for name, defs in functions.items() if words[name] <= defs + methods[name])
    unreferenced = sorted(name for name in methods if not attributes[name])
    assert not uncalled, f"functions defined but never used: {uncalled}"
    assert not unreferenced, f"methods never referenced as an attribute: {unreferenced}"
