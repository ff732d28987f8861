"""In-memory span tracing for one benchmark command.

The tracer wraps public functions of the ``sasano_galois`` modules from
outside the package: every module-level function a module defines, plus
the class methods that carry the arithmetic kernels (see ``METHODS``).
Each wrapped call records a span ``[name, start, end, parent]`` and an
optional counter payload.  Spans stay in memory while the command runs;
``Tracer.finish`` turns the payloads into JSON counters and the caller
writes everything out once the command has ended.

A function that another module imported by name is replaced in that
module too, so ``from .reduction import run_canonical_chain`` in
``report`` calls the wrapper as well.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

PACKAGE = "sasano_galois"
MODULES = (
    "algnum",
    "puiseux",
    "ratfunc",
    "sasano",
    "diffsys",
    "reduction",
    "galois",
    "weyl",
    "report",
    "cli",
    "exprparse",
)

# Span names that differ from "<module>.<function>".
RENAMES = {"algnum.sqrt_in_tower": "algnum.sqrt"}


def _operands(args, out):
    return args[:2]


def _degree(args, out):
    return max(out.num.degree(), out.den.degree())


def _input_params(args, out):
    return args[1].params.as_tuple()


def _result(args, out):
    return out


def _text_bytes(args, out):
    return len(out.encode())


# (module, class, attributes, span name, payload): the kernels that are
# methods rather than module-level functions.
METHODS = (
    ("algnum", "AlgNum", ("__mul__", "__rmul__"), "algnum.mul", _operands),
    ("algnum", "AlgNum", ("__add__", "__radd__", "__sub__", "__rsub__"), "algnum.add", None),
    ("algnum", "AlgNum", ("inverse",), "algnum.inv", None),
    ("algnum", "AlgNum", ("embed",), "algnum.embed", None),
    ("puiseux", "PuiseuxPoly", ("__mul__", "__rmul__"), "puiseux.mul", None),
    ("ratfunc", "RatFunc", ("make",), "ratfunc.make", _degree),
    ("ratfunc", "Poly", ("gcd",), "ratfunc.gcd", None),
    ("ratfunc", "Poly", ("__mul__", "__rmul__"), "ratfunc.poly_mul", None),
)

# Payloads of module-level functions, by span name.
FUNCTION_PAYLOADS = {
    "weyl.apply_generator": _input_params,
    "weyl.enumerate_orbit": _result,
    "report.report_to_json": _text_bytes,
    "report.report_to_markdown": _text_bytes,
    "report.orbit_jsonl": _text_bytes,
}

CALL_METRICS = (
    "algnum.mul",
    "algnum.add",
    "algnum.inv",
    "algnum.embed",
    "algnum.sqrt",
    "puiseux.mul",
    "diffsys.gauge_constant",
    "diffsys.mat_mul",
    "diffsys.pmat_mul",
    "diffsys.char_poly",
    "exprparse.parse_puiseux",
    "ratfunc.make",
    "ratfunc.gcd",
    "ratfunc.poly_mul",
    "sasano.verify_solution",
    "sasano.solution_energy",
    "sasano.build_extended_system",
    "weyl.apply_generator",
    "report.format_numeric",
)
PHASES = (
    "sasano.seed_variational_system",
    "reduction.run_canonical_chain",
    "reduction.verify_trace_consistency",
    "galois.classify_blocks",
    "weyl.enumerate_orbit",
)
RENDERERS = ("report.report_to_json", "report.report_to_markdown", "report.orbit_jsonl")
MAX_DEPTH = 6


def _unit(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric == "weyl.orbit.useful_ratio":
        return "ratio"
    if metric == "report.bytes":
        return "bytes"
    return "count"


def _better(metric: str) -> str:
    return "higher" if metric in ("weyl.orbit.useful_ratio", "weyl.orbit.nodes") else "lower"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for base in CALL_METRICS:
        names += [f"{base}.calls", f"{base}.s"]
    names += ["algnum.mul.operand_terms.max", "algnum.mul.operand_terms.mean"]
    names += [f"{phase}.s" for phase in PHASES]
    names += ["ratfunc.max_degree"]
    names += ["weyl.orbit.nodes", "weyl.orbit.collisions", "weyl.orbit.useful_ratio"]
    names += [f"weyl.depth.{k}.s" for k in range(1, MAX_DEPTH + 1)]
    names += ["report.render.s", "report.bytes"]
    names += [f"layer.{m}.self_s" for m in MODULES]
    names += ["trace.overhead_s"]
    return names


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json."""
    return [{"name": n, "unit": _unit(n), "better": _better(n)} for n in per_layer_names()]


class Tracer:
    """Records spans of wrapped calls; install once per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, payload]
        self._open: list[int] = []

    def wrap(self, name: str, fn, payload=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A call that delegates to the same operation (``__rsub__`` to
            # ``__sub__``) is one operation, so it gets no span of its own.
            if open_ and spans[open_[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if payload is not None:
                rec[4] = payload(args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the package's public functions and kernel methods.

        Every module of the package that holds a wrapped function under
        any name gets the wrapper there as well.
        """
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = RENAMES.get(f"{short}.{attr}", f"{short}.{attr}")
                wrappers[obj] = self.wrap(name, obj, FUNCTION_PAYLOADS.get(name))
        for mod in list(modules.values()) + [importlib.import_module(PACKAGE)]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, attrs, name, payload in METHODS:
            cls = getattr(modules[short], cls_name)
            done = {}
            for attr in attrs:
                raw = cls.__dict__[attr]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                if fn not in done:
                    done[fn] = self.wrap(name, fn, payload)
                setattr(cls, attr, staticmethod(done[fn]) if static else done[fn])

    def finish(self) -> list[list]:
        """Replace payloads by JSON counters; returns the span list.

        ``apply_generator`` spans are mapped to the orbit depth of the
        node they produce through the input state's parameter triple,
        using the ``OrbitResult`` of the enclosing ``enumerate_orbit``.
        """
        depth_maps = {}
        for idx, rec in enumerate(self.spans):
            if rec[0] == "weyl.enumerate_orbit" and rec[4] is not None:
                orbit = rec[4]
                depth_maps[idx] = {n.state.params.as_tuple(): n.depth for n in orbit.nodes}
                rec[4] = {"nodes": len(orbit.nodes), "collisions": len(orbit.collisions)}
        for rec in self.spans:
            name, payload = rec[0], rec[4]
            if payload is None:  # the call raised, or its name has no payload
                continue
            if name == "algnum.mul":
                rec[4] = {"operand_terms": [_terms(x) for x in payload]}
            elif name == "weyl.apply_generator":
                parent = rec[3]
                while parent >= 0 and parent not in depth_maps:
                    parent = self.spans[parent][3]
                depth = depth_maps[parent].get(payload) if parent >= 0 else None
                rec[4] = {"depth": None if depth is None else depth + 1}
            elif name == "ratfunc.make":
                rec[4] = {"degree": payload}
            elif name in RENDERERS:
                rec[4] = {"bytes": payload}
        return self.spans


def _terms(x) -> int:
    coords = getattr(x, "coords", None)
    if coords is not None:
        return len(coords())
    return 0 if x == 0 else 1


def _counter(rec: list, key: str):
    return rec[4].get(key) if rec[4] else None


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of finished spans; the caller adds ``trace.overhead_s``."""
    n = len(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0.0] * n
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[idx]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for idx, rec in enumerate(spans):
        name = rec[0]
        calls[name] = calls.get(name, 0) + 1
        parent = rec[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost span of this name: count its time once
            total[name] = total.get(name, 0.0) + dur[idx]
    out: dict[str, float] = {}
    for base in CALL_METRICS:
        out[f"{base}.calls"] = calls.get(base, 0)
        out[f"{base}.s"] = total.get(base, 0.0)
    terms = [t for rec in spans if rec[0] == "algnum.mul" for t in _counter(rec, "operand_terms") or ()]
    out["algnum.mul.operand_terms.max"] = max(terms, default=0)
    out["algnum.mul.operand_terms.mean"] = statistics.fmean(terms) if terms else 0.0
    for phase in PHASES:
        out[f"{phase}.s"] = total.get(phase, 0.0)
    degrees = [rec[4]["degree"] for rec in spans if rec[0] == "ratfunc.make" and rec[4]]
    out["ratfunc.max_degree"] = max(degrees, default=0)
    orbits = [rec[4] for rec in spans if rec[0] == "weyl.enumerate_orbit" and rec[4]]
    out["weyl.orbit.nodes"] = sum(o["nodes"] for o in orbits)
    out["weyl.orbit.collisions"] = sum(o["collisions"] for o in orbits)
    steps = out["weyl.apply_generator.calls"]
    fresh = out["weyl.orbit.nodes"] - len(orbits)  # every orbit's root is not new
    out["weyl.orbit.useful_ratio"] = fresh / steps if steps else 0.0
    for k in range(1, MAX_DEPTH + 1):
        out[f"weyl.depth.{k}.s"] = sum(
            dur[i] for i, rec in enumerate(spans) if rec[0] == "weyl.apply_generator" and _counter(rec, "depth") == k
        )
    out["report.render.s"] = sum(total.get(r, 0.0) for r in RENDERERS)
    out["report.bytes"] = sum(rec[4]["bytes"] for rec in spans if rec[0] in RENDERERS and rec[4])
    for m in MODULES:
        out[f"layer.{m}.self_s"] = sum(
            dur[i] - child[i] for i, rec in enumerate(spans) if rec[0].split(".", 1)[0] == m
        )
    return out
