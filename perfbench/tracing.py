"""Per-layer tracing for the benchmark's --trace 1 runs.

`Tracer.install` wraps, from outside the package, every public function
of each layer module of btusearch in every module namespace where a
caller looks it up (perms' own `compose` and the `compose` that engine
imported are both replaced), plus a few named internals. Each wrapper
is a span: it counts the call and charges the thread CPU time it took,
minus that of the spans it encloses, to its own key. Thread CPU time
rather than wall time, because search-girth evaluates candidates on two
threads that share the interpreter lock, and a span's wall time would
include the other thread's turn. Spans are aggregated per key in
memory, not stored one by one: a pass makes millions of them.

A named target a later change removes is listed as absent and its
metrics read 0; installing never raises for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from types import FunctionType

LAYERS = ("perms", "btu", "searchspace", "engine", "oracle", "_kernel", "io_formats", "cli")

# Internals wrapped by name, as (module, dotted attribute).
NAMED = (
    ("perms", "Permutation.__post_init__"),  # every Permutation construction
    ("engine", "_run_stage"),  # stage wall times
    ("engine", "_evaluate_chunk"),  # the filter loop, on worker threads
)
KERNEL = "_kernel.girth_of_images"
PARSERS = ("io_formats.detect_and_parse", "io_formats.text_to_matrix", "io_formats.alist_to_matrix")
# Keys the per-layer metrics read; one that is not wrapped is absent.
COUNTED = (
    KERNEL,
    "perms.Permutation.__post_init__",
    "perms.union_cycle_partition",
    "searchspace.enumerate_candidates",
    "engine._run_stage",
    "btu.decompose_matrix",
    *PARSERS,
)

# Per-layer metrics (name -> unit), in the order BENCHMARK.json lists them.
METRICS = {
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.share": "ratio",
    "engine.candidates_attempted": "count",
    "engine.girth_per_attempt": "ratio",
    "engine.self_s": "s",
    "engine.stage3_s": "s",
    "engine.stage4_s": "s",
    "engine.stage5_s": "s",
    "perms.self_s": "s",
    "perms.permutation_new": "count",
    "perms.union_cycle_partition.calls": "count",
    "searchspace.self_s": "s",
    "searchspace.candidates_yielded": "count",
    "oracle.self_s": "s",
    "oracle.enumerated": "count",
    "io_formats.write_s": "s",
    "io_formats.parse_s": "s",
    "io_formats.bytes": "B",
    "btu.decompose_s": "s",
    "btu.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class _ThreadTable:
    """One thread's span stack and totals; merged when a pass ends."""

    def __init__(self):
        self.stack: list[float] = []  # CPU time of enclosed spans, per open span
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.wall_s: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadTable] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.absent: list[str] = []

    def _table(self) -> _ThreadTable:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _ThreadTable()
            with self._lock:
                self._tables.append(table)
        return table

    def reset(self) -> None:
        """Start a new pass: forget every total, keep the wrappers."""
        with self._lock:
            self._tables = []
        self._local = threading.local()

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        wall_s: dict[str, float] = {}
        with self._lock:
            tables = list(self._tables)
        for t in tables:
            for src, dst in ((t.self_s, self_s), (t.calls, calls), (t.wall_s, wall_s)):
                for key, value in src.items():
                    dst[key] = dst.get(key, 0) + value
        return self_s, calls, wall_s

    # -- spans ---------------------------------------------------------

    def _enter(self, key: str) -> tuple[_ThreadTable, float]:
        table = self._table()
        table.calls[key] = table.calls.get(key, 0) + 1
        table.stack.append(0.0)
        return table, time.thread_time()

    @staticmethod
    def _exit(table: _ThreadTable, key: str, started: float) -> None:
        spent = time.thread_time() - started
        stack = table.stack
        enclosed = stack.pop()
        table.self_s[key] = table.self_s.get(key, 0.0) + spent - enclosed
        if stack:
            stack[-1] += spent

    def span(self, key: str, fn):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            table, started = enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(table, key, started)

        return functools.wraps(fn)(traced)

    def span_iter(self, key: str, fn):
        """For generator functions: each next() is a span; yields are counted."""
        enter, exit_, yielded = self._enter, self._exit, key + ".yielded"

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                table, started = enter(key)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(table, key, started)
                table.calls[yielded] = table.calls.get(yielded, 0) + 1
                yield item

        return functools.wraps(fn)(traced)

    def wall(self, name_of, fn):
        """Also keep the call's inclusive wall time under name_of(args, kwargs)."""

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                name = name_of(args, kwargs)
                if name is not None:
                    table = self._table()
                    table.wall_s[name] = table.wall_s.get(name, 0.0) + time.perf_counter() - started

        return functools.wraps(fn)(timed)

    # -- installing ----------------------------------------------------

    def _wrap(self, key: str, fn):
        wrapper = self.span_iter(key, fn) if inspect.isgeneratorfunction(fn) else self.span(key, fn)
        if key == "engine._run_stage":
            wrapper = self.wall(_stage_metric, wrapper)
        elif key == "btu.decompose_matrix":
            wrapper = self.wall(lambda args, kwargs: "btu.decompose_s", wrapper)
        self.wrapped.add(key)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers; `uninstall` puts every original back."""
        package = importlib.import_module("btusearch")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"btusearch.{layer}")
            except ImportError:
                self.absent.append(f"btusearch.{layer}")
        namespaces = [package] + [
            mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith("btusearch.") and mod is not None
        ]
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(fn, FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
        for layer, dotted in NAMED:
            owner = modules.get(layer)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not isinstance(fn, FunctionType):
                self.absent.append(f"{layer}.{dotted}")
                continue
            self._patch(owner, attr, self._wrap(f"{layer}.{dotted}", fn))
        self.absent = sorted(set(self.absent) | {k for k in COUNTED if k not in self.wrapped})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _stage_metric(args, kwargs) -> str | None:
    stage = kwargs.get("stage", args[1] if len(args) > 1 else None)
    return f"engine.stage{stage}_s" if isinstance(stage, int) else None


def layer_metrics(
    self_s: dict[str, float],
    calls: dict[str, int],
    wall_s: dict[str, float],
    counts: dict[str, int],
    nbytes: int,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """One pass's per-layer metrics from the tracer's totals and the
    deterministic counts the pass's outcomes carried."""

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    kernel_calls = calls.get(KERNEL, 0)
    attempted = counts.get("engine.candidates_attempted", 0)
    parse_s = sum(self_s.get(k, 0.0) for k in PARSERS)
    return {
        "kernel.calls": kernel_calls,
        "kernel.self_s": layer_self("_kernel"),
        "kernel.share": layer_self("_kernel") / traced_wall,
        "engine.candidates_attempted": attempted,
        "engine.girth_per_attempt": kernel_calls / attempted if attempted else 0.0,
        "engine.self_s": layer_self("engine"),
        "engine.stage3_s": wall_s.get("engine.stage3_s", 0.0),
        "engine.stage4_s": wall_s.get("engine.stage4_s", 0.0),
        "engine.stage5_s": wall_s.get("engine.stage5_s", 0.0),
        "perms.self_s": layer_self("perms"),
        "perms.permutation_new": calls.get("perms.Permutation.__post_init__", 0),
        "perms.union_cycle_partition.calls": calls.get("perms.union_cycle_partition", 0),
        "searchspace.self_s": layer_self("searchspace"),
        "searchspace.candidates_yielded": calls.get("searchspace.enumerate_candidates.yielded", 0),
        "oracle.self_s": layer_self("oracle"),
        "oracle.enumerated": counts.get("oracle.enumerated", 0),
        "io_formats.write_s": layer_self("io_formats") - parse_s,
        "io_formats.parse_s": parse_s,
        "io_formats.bytes": nbytes,
        "btu.decompose_s": wall_s.get("btu.decompose_s", 0.0),
        "btu.self_s": layer_self("btu"),
        "cli.self_s": layer_self("cli"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
