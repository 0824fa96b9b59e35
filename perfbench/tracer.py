"""Outside-in span tracer for the ``omega_index`` package.

The program has no trace hook of its own, so this module wraps the public
functions of each module from the outside and records one span per call:
name, layer, start, end, and the span that caused it. Spans stay in memory
and :func:`layer_metrics` reduces them to per-layer numbers.

Three details keep the spans honest:

* Every binding of a wrapped function is replaced, not just the one in its
  defining module. ``cli`` imports ``build_q`` by name and ``bounds`` imports
  ``q_blocks_from_c``; patching only ``index`` would miss those calls.
* Each thread keeps its own span stack. The worker pools in ``index.omega``
  and ``cli.cmd_sweep`` run spans concurrently; one shared stack would give
  them the wrong parents and negative self times.
* ``ThreadPoolExecutor`` is replaced by a subclass whose tasks run inside a
  ``pool.task`` span parented to the submitting span, so work in a pool
  thread keeps its ancestry (an eigensolve in a pool thread is still "under
  ``omega``").

Only the four numerical kernels of ``linalg`` are wrapped; its small helpers
(``adjoint``, ``require_square``, ...) run thousands of times per command and
would mostly measure the tracer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "omega_index"
LAYERS = ("cli", "index", "operators", "linalg", "bounds", "calibration")
LINALG_KERNELS = ("operator_norm", "hermitian_eigen", "hpd_inverse", "hermiticity_defect")
#: spans whose allocation peak is measured with tracemalloc (which sees numpy buffers)
ALLOC_TRACKED = frozenset({"index.build_q"})

#: per-layer metric -> unit, in report order
METRIC_UNITS = {
    "operators.build_s": "s",
    "operators.gate_s": "s",
    "operators.calls": "count",
    "index.build_q_s": "s",
    "index.assembly_s": "s",
    "index.norms_s": "s",
    "index.build_q.alloc_peak_mb": "MiB",
    "index.count_s": "s",
    "index.count_gate_s": "s",
    "index.cuts": "count",
    **{
        name: unit
        for fn in LINALG_KERNELS
        for name, unit in ((f"linalg.{fn}.calls", "count"), (f"linalg.{fn}_s", "s"))
    },
    "linalg.cubic_gunits": "n3/1e9",
    "linalg.call_us": "us",
    "bounds.check_s": "s",
    "bounds.checks": "count",
    "calibration.load_record.calls": "count",
    "cli.pool_parallelism": "ratio",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}


class Span:
    __slots__ = ("name", "layer", "parent", "t0", "t1", "order", "alloc")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.order = 0
        self.alloc = 0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Context manager that patches the package while active.

    ``with Tracer() as tracer: cli.main(argv)`` leaves the finished spans in
    ``tracer.spans``. The package must already be imported.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[dict, str, object]] = []
        self._alloc_lock = threading.Lock()
        self._alloc_depth = 0

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        replacement = {id(ThreadPoolExecutor): self._pool_class()}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or (layer == "linalg" and attr not in LINALG_KERNELS)
                ):
                    continue
                replacement[id(value)] = self._wrap(layer, value)
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                new = replacement.get(id(value))
                if new is not None:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = new
        return self

    def __exit__(self, *exc_info) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _run(self, span: Span, fn, args, kwargs):
        stack = self._stack()
        stack.append(span)
        base = self._alloc_begin() if span.name in ALLOC_TRACKED else None
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            if base is not None:
                span.alloc = self._alloc_end(base)
            stack.pop()
            self.spans.append(span)

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, tracer._current())
            if layer == "linalg":
                shape = getattr(args[0] if args else None, "shape", ())
                span.order = shape[-1] if len(shape) == 2 else 0
            return tracer._run(span, fn, args, kwargs)

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                span = Span("pool.task", "pool", tracer._current())
                return super().submit(tracer._run, span, fn, args, kwargs)

        return TracedPool

    # tracemalloc costs on every Python allocation, so it runs only while some
    # tracked span is open. Overlapping tracked spans (the sweep's worker pool)
    # share one peak counter, so their figures are approximate.
    def _alloc_begin(self) -> int:
        with self._alloc_lock:
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1
            tracemalloc.reset_peak()
            return tracemalloc.get_traced_memory()[0]

    def _alloc_end(self, base: int) -> int:
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1] - base
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()
            return peak


def _ancestors(span: Span):
    span = span.parent
    while span is not None:
        yield span
        span = span.parent


def _total(spans) -> float:
    return sum(s.seconds for s in spans)


def _self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    covered, end = 0.0, span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.seconds - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one traced command's spans to the metrics in :data:`METRIC_UNITS`.

    ``trace_overhead`` needs an untraced run and is left to the caller.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def parent_is(s: Span, name: str) -> bool:
        return s.parent is not None and s.parent.name == name

    def counting(s: Span) -> bool:
        names = {a.name for a in _ancestors(s)}
        return "index.omega" in names and "index.build_q" not in names

    def caller_layer(s: Span) -> str | None:
        return next((a.layer for a in _ancestors(s) if a.layer != s.layer), None)

    m: dict[str, float] = {}
    ops = [s for s in spans if s.layer == "operators"]
    m["operators.build_s"] = _total(
        s for s in ops if all(a.layer != "operators" for a in _ancestors(s))
    )
    m["operators.gate_s"] = _total(
        s for s in by_name["linalg.hermiticity_defect"] if caller_layer(s) == "operators"
    )
    m["operators.calls"] = len(ops)

    m["index.build_q_s"] = _total(by_name["index.build_q"])
    m["index.assembly_s"] = _total(by_name["index.q_blocks_from_c"])
    m["index.norms_s"] = _total(
        s for s in by_name["linalg.operator_norm"] if parent_is(s, "index.build_q")
    )
    m["index.build_q.alloc_peak_mb"] = (
        max((s.alloc for s in by_name["index.build_q"]), default=0) / 2**20
    )
    m["index.count_s"] = _total(
        s
        for name in ("index.extract_q11", "linalg.hermitian_eigen", "index.count_upper")
        for s in by_name[name]
        if counting(s)
    )
    m["index.count_gate_s"] = _total(
        s
        for s in by_name["linalg.hermiticity_defect"]
        if parent_is(s, "linalg.hermitian_eigen") and counting(s.parent)
    )
    m["index.cuts"] = sum(1 for s in by_name["index.count_upper"] if counting(s))

    kernels = [s for s in spans if s.layer == "linalg"]
    for fn in LINALG_KERNELS:
        m[f"linalg.{fn}.calls"] = len(by_name[f"linalg.{fn}"])
        m[f"linalg.{fn}_s"] = _total(by_name[f"linalg.{fn}"])
    m["linalg.cubic_gunits"] = sum(s.order**3 for s in kernels) / 1e9
    entries = [s for s in kernels if s.parent is None or s.parent.layer != "linalg"]
    m["linalg.call_us"] = 1e6 * _total(entries) / len(entries) if entries else 0.0

    checks = [s for s in spans if s.name.startswith("bounds.check_")]
    m["bounds.check_s"] = _total(checks)
    m["bounds.checks"] = len(checks)
    m["calibration.load_record.calls"] = len(by_name["calibration.load_record"])

    command = _total(by_name["cli.main"])
    m["cli.pool_parallelism"] = _total(by_name["pool.task"]) / command if command else 0.0
    m["cli.self_s"] = sum(
        _self_seconds(s, children[id(s)]) for s in spans if s.layer == "cli"
    )
    return m
