"""Boundary tracing for the benchmark's traced run.

The traced run splits host time across the program's layers by timing
calls *into* each layer's public entry points: the functions and methods
in :data:`BOUNDARIES` are replaced by thin wrappers for the duration of
one timed region and restored afterwards, so untraced runs execute the
code under test unpatched.  Only the calls the layer above makes are
wrapped, never every function: a call into a layer that is already the
innermost open span passes straight through, so recursion inside a layer
costs one span, not one per call.

Spans (layer, entry point, start, end, parent span, workload item) are
kept in flat arrays in memory and written once, after the run.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# The thirteen layers, bottom of the stack first.  ``nn`` spans come from
# the benchmark's own calls to ``model(x)``, ``loss.backward()`` and
# ``opt.step()``; the analysis calls of the observability plane are also
# timed from the benchmark's side.  Every other layer is timed by the
# wrappers below.
LAYERS = (
    "nn",
    "bfp",
    "core",
    "arch",
    "serve.engine",
    "serve.kvcache",
    "serve.prefix",
    "serve.pool",
    "serve.runtime",
    "serve.request",
    "serve.batcher",
    "serve.telemetry",
    "serve.observability",
)

# (layer, module, target, kind).  ``target`` is a module-level name or
# ``Class.method``; a ``*`` pattern in the method part expands to the
# class's public plain methods.  Functions that serve imports from arch
# are patched in the serve module that looks them up.  ``memo`` entries
# are not spans: they count serve's pricing requests and how many of
# them reached arch (``arch.memo_hit_rate``).
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("bfp", "repro.quant.formats", "quantize_tensor", "span"),
    ("core", "repro.core.pipeline", "PhotonicExecutor.run_sequential", "span"),
    ("arch", "repro.serve.engine.scheduler", "attention_token_latency", "span"),
    ("arch", "repro.serve.engine.scheduler", "chunked_prefill_latency", "span"),
    ("arch", "repro.serve.engine.scheduler", "decode_step_latency", "span"),
    ("arch", "repro.serve.runtime", "per_request_latency", "span"),
    ("arch", "repro.serve.observability.profiler", "attention_token_components", "span"),
    ("arch", "repro.serve.observability.profiler", "chunked_prefill_components", "span"),
    ("arch", "repro.serve.observability.profiler", "inference_latency_components", "span"),
    ("arch", "repro.serve.runtime", "ServiceModel.batch_latency", "memo"),
    ("arch", "repro.serve.runtime", "ServiceModel.prewarm_latency", "memo"),
    ("arch", "repro.serve.engine.scheduler", "DecodeServiceModel.attention_latency", "memo"),
    ("arch", "repro.serve.engine.scheduler", "DecodeServiceModel.chunked_prefill", "memo"),
    ("serve.engine", "repro.serve.engine.scheduler", "TokenServingEngine.run", "span"),
    ("serve.kvcache", "repro.serve.engine.kvcache", "KVBlockManager.*", "span"),
    ("serve.prefix", "repro.serve.engine.prefix", "RadixPrefixIndex.*", "span"),
    ("serve.pool", "repro.serve.pool", "ExecutorPool.route", "span"),
    ("serve.pool", "repro.serve.pool", "PoolWorker.run_batch", "span"),
    ("serve.runtime", "repro.serve.runtime", "ServingRuntime.run", "span"),
    ("serve.request", "repro.serve.request", "AdmissionQueue.offer", "span"),
    ("serve.request", "repro.serve.request", "AdmissionQueue.drain_evicted", "span"),
    ("serve.request", "repro.serve.request", "AdmissionQueue.expire", "span"),
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.ready_model", "span"),
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.take_batch", "span"),
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.next_deadline", "span"),
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.drain_expired", "span"),
    ("serve.telemetry", "repro.serve.telemetry", "Telemetry.record_*", "span"),
    ("serve.telemetry", "repro.serve.telemetry", "EngineTelemetry.record_*", "span"),
    ("serve.observability", "repro.serve.observability.trace", "Tracer.*", "span"),
    ("serve.observability", "repro.serve.observability.metrics", "MetricsRegistry.*", "span"),
    ("serve.observability", "repro.serve.observability.slo", "SLOTracker.*", "span"),
)


class NullRecorder:
    """Recorder of untraced runs: the benchmark's own spans cost nothing."""

    item = -1

    def span(self, layer: str, entry: str):
        return contextlib.nullcontext()


class SpanRecorder:
    """Spans in flat arrays: name id, start, end, parent index, item.

    ``item`` is the workload item the benchmark is working on (a
    training step); wrappers whose entry point takes a session or
    request record that item instead.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("q")
        self.stack: List[Tuple[int, str]] = []
        self.counters: Counter = Counter()
        self.item = -1

    def name(self, layer: str, entry: str) -> int:
        key = (layer, entry)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def open(self, name_id: int, layer: str, item: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.items.append(item)
        self.end.append(0.0)
        self.stack.append((index, layer))
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, entry: str):
        if self.stack and self.stack[-1][1] == layer:
            yield
            return
        index = self.open(self.name(layer, entry), layer, self.item)
        try:
            yield
        finally:
            self.close(index)

    def layer_index(self) -> np.ndarray:
        """Layer of every span, as an index into :data:`LAYERS`."""
        by_name = np.array([LAYERS.index(layer) for layer, _ in self.names] or [0])
        return by_name[np.frombuffer(self.name_id, dtype=np.int32)]

    def save(self, path, origin: float) -> None:
        """Write every span once, times relative to ``origin``."""
        np.savez(
            path,
            names=np.array([f"{layer}:{entry}" for layer, entry in self.names]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start) - origin,
            end=np.frombuffer(self.end) - origin,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.items, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _item_getter(fn: Callable) -> Optional[Callable[[tuple], int]]:
    """Read the workload item from the entry point's first argument when
    that argument names a session or request."""
    params = list(inspect.signature(fn).parameters)
    offset = 1 if params[:1] == ["self"] else 0
    if len(params) <= offset:
        return None
    first = params[offset]
    if first in ("session_id", "request_id"):
        return lambda args: args[offset] if len(args) > offset else -1
    if first in ("session", "request"):
        attr = f"{first}_id"
        return lambda args: getattr(args[offset], attr, -1) if len(args) > offset else -1
    return None


def _linear_macs(model) -> int:
    return sum(
        layer.in_features * layer.out_features
        for layer in model
        if hasattr(layer, "in_features")
    )


def _probe(rec: SpanRecorder, layer: str) -> Optional[Callable[[tuple], None]]:
    """Work counts taken from argument shapes at the layer boundary."""
    if layer == "core":  # PhotonicExecutor.run_sequential(self, model, x)
        macs_of: Dict[int, int] = {}

        def core(args):
            model, x = args[1], args[2]
            key = id(model)
            if key not in macs_of:
                macs_of[key] = _linear_macs(model)
            rec.counters["core.rows"] += len(x)
            rec.counters["core.macs"] += len(x) * macs_of[key]

        return core
    if layer == "bfp":  # quantize_tensor(x, config, ...)
        def bfp(args):
            rec.counters["bfp.bytes_in"] += np.asarray(args[0]).nbytes

        return bfp
    return None


def _span_wrapper(fn, rec: SpanRecorder, layer: str, entry: str):
    stack = rec.stack
    name_id = rec.name(layer, entry)
    item_of = _item_getter(fn)
    probe = _probe(rec, layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        if probe is not None:
            probe(args)
        index = rec.open(name_id, layer, rec.item if item_of is None else item_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _memo_wrapper(fn, rec: SpanRecorder):
    spans = rec.start

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = len(spans)
        out = fn(*args, **kwargs)
        rec.counters["arch.memo_requests"] += 1
        if len(spans) > before:
            rec.counters["arch.memo_misses"] += 1
        return out

    return wrapper


def resolve(module: str, target: str) -> List[Tuple[object, str]]:
    """(owner, attribute) pairs a boundary target names."""
    owner: object = importlib.import_module(module)
    if "." not in target:
        return [(owner, target)]
    cls_name, pattern = target.split(".", 1)
    cls = getattr(owner, cls_name)
    if "*" not in pattern:
        return [(cls, pattern)]
    return [
        (cls, name)
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and fnmatch.fnmatchcase(name, pattern)
    ]


Patch = Tuple[object, str, object]


def install(rec: SpanRecorder) -> List[Patch]:
    """Wrap every boundary; returns what :func:`uninstall` restores."""
    patches: List[Patch] = []
    try:
        for layer, module, target, kind in BOUNDARIES:
            for owner, attr in resolve(module, target):
                original = vars(owner)[attr]
                entry = f"{getattr(owner, '__name__', module)}.{attr}"
                if kind == "memo":
                    wrapped = _memo_wrapper(original, rec)
                else:
                    wrapped = _span_wrapper(original, rec, layer, entry)
                setattr(owner, attr, wrapped)
                patches.append((owner, attr, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Boundary wrappers installed for the ``with`` body only."""
    patches = install(rec)
    try:
        yield
    finally:
        uninstall(patches)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def account(
    layer: np.ndarray, start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> Dict[int, Dict[str, float]]:
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` of a span forest.

    ``self_s`` of a span is its duration minus the durations of its child
    spans (spans whose parent it is), so self times partition the traced
    time.  ``busy_s`` is the inclusive time of a layer's spans that have
    no ancestor of the same layer, so a layer re-entered through another
    layer is not counted twice.
    """
    layer = np.asarray(layer, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(layer)
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=n
    )[:n]
    own = duration - children
    nested = np.zeros(n, dtype=bool)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        nested[live] |= layer[ancestor[live]] == layer[live]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    out: Dict[int, Dict[str, float]] = {}
    for index in np.unique(layer):
        mine = layer == index
        out[int(index)] = {
            "calls": int(mine.sum()),
            "busy_s": float(duration[mine & ~nested].sum()),
            "self_s": float(own[mine].sum()),
        }
    return out


def entry_totals(rec: SpanRecorder) -> Dict[Tuple[str, str], Dict[str, float]]:
    """Calls and inclusive seconds per (layer, entry point)."""
    name_id = np.frombuffer(rec.name_id, dtype=np.int32)
    duration = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    calls = np.bincount(name_id, minlength=len(rec.names))
    seconds = np.bincount(name_id, weights=duration, minlength=len(rec.names))
    return {
        key: {"calls": int(calls[i]), "seconds": float(seconds[i])}
        for i, key in enumerate(rec.names)
    }


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """``L.calls``, ``L.busy_s`` and ``L.self_s`` for every layer."""
    totals = account(
        rec.layer_index(),
        np.frombuffer(rec.start),
        np.frombuffer(rec.end),
        np.frombuffer(rec.parent, dtype=np.int32),
    ) if len(rec.start) else {}
    out: Dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        row = totals.get(index, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = row["calls"]
        out[f"{layer}.busy_s"] = row["busy_s"]
        out[f"{layer}.self_s"] = row["self_s"]
    return out
