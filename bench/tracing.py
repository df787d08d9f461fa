"""Spans around calls into spectral_strata's public functions.

The benchmark's traced run wraps every function in LAYERS, in every
module that binds it (strata and zonotope import classify from indegree,
matpoly imports rank from exact, ...), so calls between modules are seen
too.  Each wrapped call records one span (name, start, end, parent) in
memory; dump() writes them out when the process ends and aggregate()
turns span files into per-layer metrics: call counts and self time (a
span's duration minus the part its child spans cover).  The untraced run
never imports this module.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from importlib import import_module
from typing import Iterable

LAYERS = {
    "graphs": ("generating_subgraphs", "all_orientations"),
    "indegree": (
        "b_polynomial",
        "enumerate_indegree",
        "multiplicity",
        "is_indegree",
        "classify",
        "totally_cyclic",
    ),
    "zonotope": ("lattice_points", "zonotope_vertices"),
    "strata": (
        "enumerate_strata",
        "stratum_rows",
        "cr_strata",
        "irreducible_components",
        "local_model",
        "hasse_diagram",
        "hasse_to_dot",
        "stratum_dimension",
        "stratum_class",
    ),
    "matpoly": (
        "sample_stratum",
        "classify_polynomial",
        "gamma_of",
        "divisor_of",
        "reducibility",
        "char_poly",
    ),
    "exact": (
        "rank",
        "nullspace",
        "det",
        "poly_matrix_det",
        "poly_matrix_kernel_vector",
        "rational_roots",
    ),
}

#: Generator functions: their work count is the number of items yielded.
ITEM_COUNTED = {"graphs.all_orientations"}
#: Functions whose result length is counted (the strata a stage hands on).
RESULT_COUNTED = {"strata.enumerate_strata"}

CLI_SPAN = "cli"


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            work = ".items" if name in ITEM_COUNTED else ".calls"
            out.append((name + work, "count", "lower"))
            out.append((name + ".self_s", "s", "lower"))
    out += [
        ("cli.self_s", "s", "lower"),
        ("cli.stdout_mib", "MiB", "lower"),
        ("indegree.bpoly_cache.hits", "count", "higher"),
        ("indegree.bpoly_cache.misses", "count", "lower"),
        ("indegree.is_indegree.per_stratum", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter_ns

        def enter() -> tuple[int, int]:
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            return sid, parent

        def leave(sid: int, parent: int, start: int) -> None:
            spans[sid] = (name_id, start, clock(), parent)
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own time between
            # items is not charged to the generator
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid, parent = enter()
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(sid, parent, start)
                    counters[name + ".items"] += 1
                    yield item

            return generator

        count_result = name in RESULT_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid, parent, start)
            if count_result:
                counters[name + ".items"] += len(result)
            return result

        return wrapper

    def record_cache_info(self) -> None:
        info = import_module("spectral_strata.indegree")._bpoly_terms.cache_info()
        self.counters["indegree.bpoly_cache.hits"] += info.hits
        self.counters["indegree.bpoly_cache.misses"] += info.misses

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"names": self.names, "spans": self.spans, "counters": self.counters}, f
            )


def install(tracer: Tracer) -> None:
    """Replace each function in LAYERS by its traced wrapper in every
    loaded spectral_strata module that binds it."""
    modules = [
        m
        for key, m in list(sys.modules.items())
        if key == "spectral_strata" or key.startswith("spectral_strata.")
    ]
    for layer, funcs in LAYERS.items():
        home = import_module(f"spectral_strata.{layer}")
        for func in funcs:
            original = getattr(home, func)
            wrapped = tracer.wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def aggregate(paths: Iterable[str]) -> tuple[Counter, Counter, Counter]:
    """(calls, self seconds, counters) summed over span files."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    counters: Counter = Counter()
    for path in paths:
        with open(path) as f:
            dump = json.load(f)
        names, spans = dump["names"], dump["spans"]
        for name_id, start, end, parent in spans:
            duration = end - start
            calls[names[name_id]] += 1
            self_ns[names[name_id]] += duration
            if parent >= 0:
                self_ns[names[spans[parent][0]]] -= duration
        counters.update(dump["counters"])
    self_s = Counter({k: v / 1e9 for k, v in self_ns.items()})
    return calls, self_s, counters


def layer_metrics(paths: Iterable[str], stdout_bytes: int, overhead_s: float) -> dict:
    """Every per-layer metric of metric_names() from a traced pass."""
    calls, self_s, counters = aggregate(paths)
    strata = counters["strata.enumerate_strata.items"]
    values = {
        "cli.self_s": self_s[CLI_SPAN],
        "cli.stdout_mib": stdout_bytes / 2**20,
        "indegree.bpoly_cache.hits": counters["indegree.bpoly_cache.hits"],
        "indegree.bpoly_cache.misses": counters["indegree.bpoly_cache.misses"],
        "indegree.is_indegree.per_stratum": (
            calls["indegree.is_indegree"] / strata if strata else 0.0
        ),
        "trace.overhead_s": overhead_s,
    }
    for layer, funcs in LAYERS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            if name in ITEM_COUNTED:
                values[name + ".items"] = counters[name + ".items"]
            else:
                values[name + ".calls"] = calls[name]
            values[name + ".self_s"] = self_s[name]
    return {
        name: {"value": values[name], "unit": unit} for name, unit, _ in metric_names()
    }
