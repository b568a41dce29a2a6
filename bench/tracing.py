"""Per-layer tracing from outside the program.

``Tracer`` replaces every public function of the eight polyhardy layer
modules with a timing wrapper, in every polyhardy module namespace that
binds it, so a call made from inside the library (``hardy`` calling
``operator_norm``) becomes a child span of its caller.  Spans stay in
memory; per-layer sums are kept as they close, and the spans of the last
pass are written out when the run ends.  ``restore`` puts the originals
back.

Busy time of a layer counts only its outermost spans, so nested calls
within one layer are not counted twice.  Self time is a span's duration
minus the time its child spans cover.  Counting done after a call (pairs
kept, bytes read) is excluded from every enclosing span.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Metric prefix -> module.  ``_linalg`` reports as ``linalg`` because
#: metric names must start with a letter.
LAYERS = {
    "multiindex": "polyhardy.multiindex",
    "series": "polyhardy.series",
    "dirichlet": "polyhardy.dirichlet",
    "hardy": "polyhardy.hardy",
    "multiplier": "polyhardy.multiplier",
    "linalg": "polyhardy._linalg",
    "seriesio": "polyhardy.seriesio",
    "cli": "polyhardy.cli",
}
LINALG_CALLERS = ("hardy", "multiplier", "cli")
#: The verify suites the workloads run (see ``workloads``).
CLI_SUITES = ("parseval", "cole-gamelin", "dilation", "toeplitz", "dirichlet", "recover")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER_METRICS = [
    ("multiindex.calls", "count", "lower"),
    ("multiindex.busy_s", "s", "lower"),
    ("multiindex.indices", "count", "lower"),
    ("series.calls", "count", "lower"),
    ("series.busy_s", "s", "lower"),
    ("series.pairs", "count", "lower"),
    ("series.kept_ratio", "ratio", "higher"),
    ("dirichlet.calls", "count", "lower"),
    ("dirichlet.busy_s", "s", "lower"),
    ("dirichlet.pairs", "count", "lower"),
    ("dirichlet.kept_ratio", "ratio", "higher"),
    ("dirichlet.line_evals", "count", "lower"),
    ("hardy.calls", "count", "lower"),
    ("hardy.busy_s", "s", "lower"),
    ("hardy.self_s", "s", "lower"),
    ("hardy.nodes", "count", "lower"),
    ("hardy.node_terms", "count", "lower"),
    ("hardy.bytes_computed", "B", "lower"),
    ("multiplier.calls", "count", "lower"),
    ("multiplier.busy_s", "s", "lower"),
    ("multiplier.self_s", "s", "lower"),
    ("multiplier.assemble_s", "s", "lower"),
    ("multiplier.rows_assembled", "count", "lower"),
    ("multiplier.top_rows_ratio", "ratio", "higher"),
    ("linalg.calls", "count", "lower"),
    ("linalg.busy_s", "s", "lower"),
    ("linalg.rows", "count", "lower"),
    ("linalg.max_rows", "count", "lower"),
    *[
        (f"linalg.{what}.{caller}", unit, "lower")
        for caller in LINALG_CALLERS
        for what, unit in (("calls", "count"), ("busy_s", "s"), ("rows", "count"), ("max_rows", "count"))
    ],
    ("seriesio.calls", "count", "lower"),
    ("seriesio.busy_s", "s", "lower"),
    ("seriesio.bytes", "B", "lower"),
    ("cli.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.checks", "count", "higher"),
    ("cli.checks_failed", "count", "lower"),
    *[(f"cli.suite.{suite}_s", "s", "lower") for suite in CLI_SUITES],
    ("trace.overhead_s", "s", "lower"),
    ("checks.fail_share", "ratio", "lower"),
]


@dataclass(frozen=True)
class Call:
    """A finished call, as the counters see it."""

    args: tuple
    kwargs: dict
    result: object
    duration: float
    caller: str  # layer of the enclosing span, or "bench"

    def arg(self, index: int, name: str):
        return self.args[index] if len(self.args) > index else self.kwargs[name]


def _degrees_and_lengths(series) -> tuple[np.ndarray, np.ndarray]:
    alphas = list(series.terms)
    return (
        np.fromiter((a.degree for a in alphas), dtype=np.int64, count=len(alphas)),
        np.fromiter((len(a) for a in alphas), dtype=np.int64, count=len(alphas)),
    )


def _count_op_vec(call):
    F, G, trunc = (call.arg(i, n) for i, n in enumerate(("F", "G", "trunc")))
    fd, fl = _degrees_and_lengths(F)
    gd, gl = _degrees_and_lengths(G)
    kept = (fd[:, None] + gd[None, :] <= trunc.max_degree) & (
        np.maximum(fl[:, None], gl[None, :]) <= trunc.nvars
    )
    return {"series.pairs": fd.size * gd.size, "series.kept": int(kept.sum())}


def _count_dirichlet_product(call):
    D, E, max_frequency = (call.arg(i, n) for i, n in enumerate(("D", "E", "max_frequency")))
    right = E.frequencies
    kept = sum(bisect.bisect_right(right, max_frequency // k) for k in D.terms)
    return {"dirichlet.pairs": len(D.terms) * len(right), "dirichlet.kept": kept}


def _count_grids(F, grids, terms=None):
    node_terms = [g.num_nodes * (terms or F.num_terms) for g in grids]
    return {
        "hardy.nodes": sum(g.num_nodes for g in grids),
        "hardy.node_terms": sum(node_terms),
        # the complex128 node x term x nvars tensor of direct evaluation
        "hardy.bytes_computed": sum(16 * n * g.nvars for n, g in zip(node_terms, grids)),
    }


def _count_linalg(call):
    rows = int(np.shape(call.arg(0, "matrix"))[0])
    out = {"linalg.rows": rows, "linalg.max_rows": rows}
    for key, value in (("calls", 1), ("busy_s", call.duration), ("rows", rows), ("max_rows", rows)):
        out[f"linalg.{key}.{call.caller}"] = value
    return out


def _count_schedule(call):
    base = call.arg(2, "trunc_base")
    return {"multiplier.top_rows": math.comb(base.nvars + max(call.arg(1, "degrees")), base.nvars) * base.dim}


def _count_suite(call):
    checks = call.result.checks
    return {
        f"cli.suite.{call.arg(0, 'suite')}_s": call.duration,
        "cli.checks": len(checks),
        "cli.checks_failed": sum(not c.passed for c in checks),
    }


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


#: Counters per (layer, function name), called after the span closes.
#: Keys containing ``max_`` keep the largest value, all others are summed.
COUNTERS = {
    ("multiindex", "simplex"): lambda c: {"multiindex.indices": len(c.result)},
    ("multiindex", "index_to_multiindex"): lambda c: {"multiindex.indices": 1},
    ("multiindex", "multiindex_to_index"): lambda c: {"multiindex.indices": 1},
    ("series", "op_vec_product"): _count_op_vec,
    ("dirichlet", "dirichlet_product"): _count_dirichlet_product,
    ("dirichlet", "recover_coefficient"): lambda c: {
        "dirichlet.line_evals": len(c.arg(0, "D").terms) * c.arg(4, "grid_points")
    },
    ("hardy", "hp_norm"): lambda c: _count_grids(c.arg(0, "F"), [c.arg(2, "grid")]),
    ("hardy", "hinf_norm"): lambda c: _count_grids(c.arg(0, "F"), list(c.arg(1, "grid_schedule"))),
    ("hardy", "fourier_coefficient"): lambda c: _count_grids(None, [c.arg(2, "grid")], terms=1),
    ("multiplier", "assemble_compression"): lambda c: {
        "multiplier.rows_assembled": c.result.matrix.shape[0],
        "multiplier.assemble_s": c.duration,
    },
    ("multiplier", "multiplier_norm_schedule"): _count_schedule,
    ("linalg", "operator_norm"): _count_linalg,
    ("seriesio", "load_series"): lambda c: {"seriesio.bytes": _file_bytes(c.arg(0, "path"))},
    ("seriesio", "save_series"): lambda c: {"seriesio.bytes": _file_bytes(c.arg(1, "path"))},
    ("seriesio", "dump_series"): lambda c: {"seriesio.bytes": len(c.result)},
    ("cli", "run_verify"): _count_suite,
}


def public_functions():
    """(layer, name, function) for each public function defined in a layer module."""
    seen = set()
    for layer, module_name in LAYERS.items():
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module_name and id(obj) not in seen:
                seen.add(id(obj))  # aliases such as parse_series_file keep the first name
                yield layer, name, obj


class Tracer:
    """Timing wrappers around the public functions; use as a context manager."""

    def __init__(self):
        self.functions: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._excluded = 0.0
        self._next_id = 0
        self.task = -1
        self.new_pass()

    def new_pass(self) -> None:
        """Start per-pass sums and span buffers afresh."""
        self.totals: dict[str, float] = defaultdict(float)
        self.spans = {key: array(code) for key, code in
                      (("id", "q"), ("parent", "q"), ("task", "i"), ("func", "i"), ("start", "d"), ("end", "d"))}

    def _wrap(self, fn, layer: str, name: str):
        func_id = len(self.functions)
        self.functions.append(f"{layer}.{name}")
        counter = COUNTERS.get((layer, name))
        calls_key, self_key, busy_key = f"{layer}.calls", f"{layer}.self_s", f"{layer}.busy_s"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, tracer._excluded, layer, span_id]  # child time, exclusion mark
            stack.append(frame)
            outermost = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._depth[layer] -= 1
            duration = end - start - (tracer._excluded - frame[1])
            totals = tracer.totals
            totals[calls_key] += 1
            totals[self_key] += duration - frame[0]
            if outermost:
                totals[busy_key] += duration
            if parent is not None:
                parent[0] += duration
            if counter is not None:
                caller = parent[2] if parent is not None else "bench"
                for key, value in counter(Call(args, kwargs, result, duration, caller)).items():
                    totals[key] = max(totals[key], value) if "max_" in key else totals[key] + value
            spans = tracer.spans
            spans["id"].append(span_id)
            spans["parent"].append(parent[3] if parent is not None else -1)
            spans["task"].append(tracer.task)
            spans["func"].append(func_id)
            spans["start"].append(start)
            spans["end"].append(end)
            tracer._excluded += time.perf_counter() - end
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(fn, layer, name) for layer, name, fn in public_functions()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "polyhardy" and not module_name.startswith("polyhardy."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def pass_metrics(self) -> dict[str, float]:
        """Per-pass values of the per-layer metrics that come from spans."""
        t = self.totals
        out = {name: float(t.get(name, 0.0)) for name, _, _ in PER_LAYER_METRICS}
        for layer in ("series", "dirichlet"):
            pairs = t.get(f"{layer}.pairs", 0.0)
            out[f"{layer}.kept_ratio"] = t.get(f"{layer}.kept", 0.0) / pairs if pairs else 0.0
        rows = t.get("multiplier.rows_assembled", 0.0)
        out["multiplier.top_rows_ratio"] = t.get("multiplier.top_rows", 0.0) / rows if rows else 0.0
        return out

    def write_spans(self, path: Path, task_names: list[str]) -> None:
        """Write the buffered spans (the last pass) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            functions=np.array(self.functions),
            tasks=np.array(task_names),
            **{key: np.frombuffer(buf, dtype=buf.typecode) for key, buf in self.spans.items()},
        )
