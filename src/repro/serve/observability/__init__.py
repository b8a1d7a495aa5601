"""Unified observability plane for the serving stack.

Four cooperating pieces, all on the simulated clock:

* :mod:`~repro.serve.observability.trace` — a span-based
  :class:`Tracer`: event-sourced per-session timelines of the token
  engine (enqueue → queue-wait → admit → prefill/decode/stall → retire)
  plus pool dispatch/reprogram/crash spans and fleet-health
  transitions, queryable in memory and exportable as Chrome trace-event
  JSON (Perfetto-loadable);
* :mod:`~repro.serve.observability.metrics` — a typed
  :class:`MetricsRegistry` (counters/gauges/histograms with label sets)
  that :class:`~repro.serve.telemetry.Telemetry` and
  :class:`~repro.serve.telemetry.EngineTelemetry` record through, with
  a lossless Prometheus text exporter and streaming ``(t, value)``
  gauge series;
* :mod:`~repro.serve.observability.profiler` — the
  :class:`HardwareAttributionProfiler`, which splits every recorded
  busy interval into the analytic model's reprogram/stream/attention
  components and checks the reconstruction is bit-exact — the only
  repricer of a finished run, whose non-strict mode fills both serving
  reports' ``analytic_consistency``;
* :mod:`~repro.serve.observability.slo` — multi-window
  :class:`BurnRateMonitor` error-budget tracking per class/tenant over
  the engine's terminal sessions.

On top of the collection layer sits the **analysis layer**:

* :mod:`~repro.serve.observability.critical_path` — per-session latency
  breakdowns that sum *bit-exactly* to the enqueue→retire interval
  (Fraction telescoping over the gap-free span tiling), fleet rollups
  attributing TTFT/E2E p50/p99 to phases, and MAD-tagged worst-session
  blocking analysis per class;
* :mod:`~repro.serve.observability.diff` — run exports
  (:func:`export_run`) and a regression diff engine
  (:func:`diff_runs`) with a ``python -m
  repro.serve.observability.diff`` CLI whose exit code gates CI: two
  seeded replays diff to zero deltas byte-identically;
* :mod:`~repro.serve.observability.report` — deterministic "flight
  report" JSON/markdown artifacts bundling config, critical path,
  attribution, SLO attainment and outlier exemplars.

And a **bounded-memory streaming layer**, so observability cost stays
fixed while traffic scales toward the million-session benches:

* :mod:`~repro.serve.observability.quantiles` — the one shared home of
  the repo's two percentile conventions (nearest-rank for exemplars and
  gate cross-checks, numpy linear interpolation for telemetry
  summaries), both rejecting NaN explicitly;
* :mod:`~repro.serve.observability.sketch` — :class:`QuantileSketch`, a
  deterministic DDSketch-style log-bucketed summary with a provable
  relative-error bound ``alpha``, exact count/sum/min/max, lossless
  associative merge, and canonical serialization;
* :mod:`~repro.serve.observability.streaming` — fixed-budget streaming
  aggregators (:class:`SpaceSavingTopK` heavy hitters,
  :class:`WindowedSketch` zoomable time windows, :class:`ByteBudgetRing`
  exemplar rings) and the :class:`TailSampler`: Dapper-style tail-based
  trace retention that keeps *complete* span timelines for
  faulted/stalled, SLO-violating and MAD-outlier sessions plus a
  deterministic 1-in-N head sample, folding everything else into
  sketches and dropping its spans.  Histograms gain an optional sketch
  backend (``sketch_alpha=...``) that still renders valid Prometheus
  text, and :class:`~repro.serve.telemetry.EngineTelemetry` gains a
  ``streaming=True`` mode with O(1)-per-event memory — gated end to end
  by ``benchmarks/bench_obs_scale.py``.

:class:`Observability` bundles them: pass one instance to
:class:`~repro.serve.engine.TokenServingEngine` and the whole plane
wires itself through the pool, monitor and telemetry.  Construction
is cheap and recording is tuple appends + counter bumps, bounded by the
``bench_observability`` overhead gate; analysis runs strictly
after-the-fact over the recorded state.
"""

from __future__ import annotations

from typing import Optional

from .critical_path import (
    PHASE_NAMES,
    fleet_rollup,
    mad_outliers,
    session_breakdown,
)
from .diff import diff_runs, export_run, render_diff, run_to_json
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from .profiler import HardwareAttributionProfiler
from .quantiles import nearest_rank, nearest_rank_value, percentile
from .report import build_flight_report, report_to_markdown
from .sketch import MIN_INDEXABLE, QuantileSketch
from .slo import (
    BurnRateMonitor,
    BurnWindow,
    SLOSpec,
    SLOTracker,
    default_windows,
)
from .streaming import (
    ByteBudgetRing,
    SpaceSavingTopK,
    TailSampler,
    TailSamplingPolicy,
    WindowedSketch,
    head_keep,
)
from .trace import Instant, Span, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "Instant",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "parse_prometheus_text",
    "HardwareAttributionProfiler",
    "SLOSpec",
    "SLOTracker",
    "BurnRateMonitor",
    "BurnWindow",
    "default_windows",
    "PHASE_NAMES",
    "session_breakdown",
    "fleet_rollup",
    "mad_outliers",
    "export_run",
    "run_to_json",
    "diff_runs",
    "render_diff",
    "build_flight_report",
    "report_to_markdown",
    "nearest_rank",
    "nearest_rank_value",
    "percentile",
    "MIN_INDEXABLE",
    "QuantileSketch",
    "SpaceSavingTopK",
    "WindowedSketch",
    "ByteBudgetRing",
    "TailSamplingPolicy",
    "TailSampler",
    "head_keep",
]


class Observability:
    """One deployment's observability plane: tracer + registry + SLOs.

    The plane owns a fresh :class:`MetricsRegistry`.  ``tracing=False``
    keeps the registry (metrics are always on — they are how telemetry
    records) but skips span emission entirely, the
    baseline configuration the overhead gate compares against.
    ``streaming=True`` asks attached consumers (the engine's
    :class:`~repro.serve.telemetry.EngineTelemetry`) to run in
    bounded-memory mode: its scalars come from the same O(1)
    accumulators either way, but it keeps no per-event records and
    sketches its latency distributions.
    """

    def __init__(
        self,
        tracing: bool = True,
        slo: Optional[SLOTracker] = None,
        streaming: bool = False,
    ):
        self.tracer: Optional[Tracer] = Tracer() if tracing else None
        self.registry = MetricsRegistry()
        self.slo = slo
        self.streaming = bool(streaming)

    def profiler(
        self, accelerator=None, strict: bool = True
    ) -> HardwareAttributionProfiler:
        return HardwareAttributionProfiler(accelerator, strict=strict)

    def export(self, config=None, sessions=None) -> dict:
        """Snapshot this run as a diffable document (:func:`export_run`)."""
        return export_run(self, config=config, sessions=sessions)

    def flight_report(self, **kwargs) -> dict:
        """Build this run's flight report (:func:`build_flight_report`)."""
        return build_flight_report(self, **kwargs)

    def summary(self, now: Optional[float] = None) -> dict:
        out = {
            "metrics": len(self.registry.metrics()),
            "samples": len(self.registry.samples()),
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.summary()
        if self.slo is not None:
            out["slo"] = self.slo.summary(now)
        return out
