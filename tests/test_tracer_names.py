"""Every name the benchmark tracer wraps still resolves in the package.

``perfbench/spans.py`` wraps functions and kernel methods by name; a
merge that moves or renames one silently zeroes its traced metric.  The
tracer is imported by path, as a plain file, without running it.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
METHOD_SPANS = {entry[3] for entry in spans.METHODS}
ORIGINALS = {span: original for original, span in spans.RENAMES.items()}
FUNCTION_SPANS = sorted(
    {*spans.CALL_METRICS, *spans.PHASES, *spans.RENDERERS, *spans.FUNCTION_PAYLOADS} - METHOD_SPANS
)


@pytest.mark.parametrize("span", FUNCTION_SPANS)
def test_traced_function_is_defined_in_its_module(span):
    short, attr = ORIGINALS.get(span, span).split(".")
    module = importlib.import_module(f"{spans.PACKAGE}.{short}")
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), f"{span}: {short}.{attr} is not a function"
    assert fn.__module__ == module.__name__, f"{span}: {short}.{attr} comes from {fn.__module__}"
    assert not attr.startswith("_")


@pytest.mark.parametrize("entry", spans.METHODS, ids=lambda entry: entry[3])
def test_traced_method_sits_in_its_class(entry):
    short, cls_name, attrs, span, _ = entry
    cls = getattr(importlib.import_module(f"{spans.PACKAGE}.{short}"), cls_name)
    for attr in attrs:
        assert attr in vars(cls), f"{span}: {cls_name}.{attr} is not in the class's own __dict__"


def test_function_spans_lie_in_traced_modules():
    # the tracer wraps functions of ``MODULES`` only
    assert {span.split(".")[0] for span in FUNCTION_SPANS} <= set(spans.MODULES)
