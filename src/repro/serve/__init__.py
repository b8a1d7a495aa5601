"""Photonic inference serving runtime.

Production-shaped serving on top of the paper's accelerator model:
bounded admission with class-aware load shedding, priority-ordered
dynamic micro-batching into weight-programmed batched GEMM streams,
executor pools sharding models (and replicas of hot models) across
photonic cores with SLO-driven replica autoscaling, synthetic traffic
scenarios on a deterministic simulated clock, and telemetry (including
per-priority-class SLO attainment) whose every busy interval the
attribution profiler reprices bit-for-bit from the analytic
``repro.arch`` latency model.

Architecture
------------
Two execution models share the same substrate (clock, traffic, pool,
and one repricer of their telemetry, the attribution profiler):

* **Request-level** (:class:`ServingRuntime`) — one-shot forward passes.
  Arrivals enter the bounded :class:`AdmissionQueue` (per model *and*
  priority class, shedding the lowest class first), the
  :class:`MicroBatcher` coalesces compatible requests on size/deadline
  triggers, and each micro-batch dispatches through an
  :class:`ExecutorPool` replica as one batched GEMM stream, with the
  :class:`Autoscaler` growing/draining replica sets against windowed
  p99-vs-SLO.

* **Token-level** (:mod:`repro.serve.engine`) — autoregressive decode,
  where a request is a :class:`~repro.serve.engine.DecodeSession` whose
  KV state grows with every generated token::

      decode_scenario / shared_prefix / multiturn
                              │ (per priority class waiting queues)
                              ▼ admit (KV blocks permitting)
      TokenServingEngine ── re-forms the running batch EVERY step:
          │    admit / retire / preempt-low-class-under-KV-pressure
          │
          ├─> RadixPrefixIndex  radix tree over chained token-block
          │        hashes: admission attaches the prompt's cached head
          │        (copy-on-write inside a divergent block), LRU evicts
          │        unreferenced cached prefixes, leaves first
          ├─> KVBlockManager   refcounted block tables, budget derived
          │        from MemorySystemModel / MirageConfig; sessions
          │        sharing a prompt head pin the SAME physical blocks;
          │        preemption decrefs (never frees shared state), so a
          │        resumed session re-attaches its still-cached prefix
          │        and re-prefills only the evicted private suffix
          ├─> chunked prefill  the UNCACHED suffix is sliced into
          │        prefill_chunk_tokens chunks interleaved with running
          │        decode steps (bounding TTFT jitter), each priced by
          │        arch.inference.chunked_prefill_latency over the
          │        resident context; a fully cached prompt costs zero
          │        GEMM time but still one scheduling step
          ▼
      ExecutorPool worker ── one batched GEMM stream per decode step
          (functional surrogate recurrence: per-token outputs bit-exact
          vs batch-1), clock advanced by arch.inference's
          decode-step / chunked-prefill pricing; EngineTelemetry
          scores TTFT (+jitter), TPOT, tokens/s, KV occupancy, prefix
          hit rate / cached-token fraction / prefill tokens saved, and
          per-class TTFT SLO.

The engine is why mixed-length decode traffic keeps the accelerator
busy: request-level batching would pad every batch to its slowest
member and pin worst-case KV for the whole ride (measured as the
``continuous``-vs-``static`` gap in ``benchmarks/bench_continuous.py``),
and why fleets sharing a system prompt don't re-prefill it per session
(the ``bench_prefix.py`` prefill-token-reduction and TTFT-p99 gates).

Fault plane (:mod:`repro.serve.faults`)
---------------------------------------
The token engine replays deterministic :class:`FaultPlan`\\ s — a
sorted, seeded schedule of :class:`FaultEvent`\\ s — against its
simulated clock (``TokenServingEngine.run(..., faults=plan)``)::

    FaultPlan ── replica crashes / stuck workers   (worker kinds)
        │        degraded (slow) workers
        │        RRNS transient compute faults      (session kinds)
        │        KV-block loss
        ▼ FaultInjector.due(now)  — fires each event exactly once
    ExecutorPool health plane: ground truth (``responsive``) vs the
        *detected* state (``health``), advanced by FleetMonitor's
        heartbeat sweeps per HealthPolicy — healthy → suspect → dead;
        a worker that stops responding leaves routing at once, and
        detection latency is real simulated time lost, not hindsight
        ▼ recovery at *dead*
    sessions are *homed* to a replica (KV locality); sessions homed on
        a dead replica are preempted, their KV freed, and they resume
        elsewhere re-prefilling only the suffix the shared-prefix cache
        cannot supply, while a replacement replica pays the
        weight-reprogram charge (EngineConfig.recovery; ``max_waiting``
        sheds the lowest class under capacity loss).  Uncorrectable
        RRNS verdicts (rates from ``repro.core.rrns_fault_rates``) void
        a step's commit for the victim session and recompute it
        bit-identically next step.

The request-level runtime has no fault plane; its only terminal
outcomes besides completion are shedding at admission and the
per-request deadline (``ServingRuntime(deadline_s=...)``).

``benchmarks/bench_resilience.py`` gates this end to end: a scripted
storm (two replicas killed mid-ramp plus an RRNS transient burst) must
keep goodput within 0.9x of fault-free, interactive TTFT SLO
attainment >= 0.95, decode outputs bit-exact versus the fault-free
run, and KV refcounts balanced at drain.

Observability plane (:mod:`repro.serve.observability`)
------------------------------------------------------
One :class:`Observability` instance passed to either execution model
wires the whole plane through pool, batcher, monitor and telemetry::

    Observability ──┬─ Tracer           span-based tracing on the
                    │     simulated clock: per-session/request phase
                    │     timelines (enqueue → queue_wait → admit →
                    │     prefill/decode → preempt/stall/recover →
                    │     retire), pool dispatch/reprogram spans,
                    │     crash/replace + health-transition instants,
                    │     autoscaler decisions with windowed-p99
                    │     evidence; queryable in memory (gap-free
                    │     timeline checks with exact float boundaries)
                    │     and exportable as Chrome trace-event JSON
                    │     (Perfetto-loadable)
                    ├─ MetricsRegistry  typed counters/gauges/histograms
                    │     with label sets; Telemetry/EngineTelemetry
                    │     record through it; lossless Prometheus text
                    │     export (parse(render()) == samples() exactly)
                    │     and streaming (t, value) gauge series
                    ├─ HardwareAttributionProfiler  splits every
                    │     recorded busy interval into the analytic
                    │     model's reprogram/stream/attention components
                    │     (flame-graph rollups); the only code that
                    │     reprices a finished run: strict, it asserts
                    │     bit-exactness; non-strict, it fills both
                    │     reports' analytic_consistency
                    └─ SLOTracker       multi-window error-budget
                          burn-rate monitors per class/tenant, surfaced
                          by (not acted on by) the autoscaler

An **analysis layer** sits on top of the recording plane — pure
functions of a finished run, never touched on the hot path::

    Tracer + sessions ──> session_breakdown / fleet_rollup
        per-session phase decompositions (queue_wait / dispatch_wait /
        prefill / decode / stall) whose exact-rational phase sums
        telescope to the enqueue→retire interval *bit-exactly*; fleet
        rollups attribute TTFT/E2E p50/p99 to phases and tag worst-k
        blocking sessions per class with deterministic MAD outliers
    Observability ──> export_run / diff_runs / render_diff
        a run snapshot as plain JSON (sorted keys: seeded replays are
        byte-identical) and a leaf-by-leaf comparison engine;
        ``python -m repro.serve.observability.diff a.json b.json``
        exits non-zero on regressions, so replay determinism and
        perf drift are CI-checkable
    everything ──> build_flight_report / report_to_markdown
        the one-stop deterministic post-run artifact: config, trace
        volume, critical-path rollup, bit-exact hardware attribution,
        SLO attainment — as a JSON-safe dict and as markdown

A **bounded-memory streaming layer** keeps observability cost fixed
while traffic scales (the path to million-session benches)::

    QuantileSketch      deterministic DDSketch-style log-bucketed
        quantiles with provable relative error alpha, exact count/sum,
        lossless associative merge, canonical serialization; histograms
        take ``sketch_alpha=...`` to use it as their backend while
        still rendering valid round-trippable Prometheus text
    TailSampler         Dapper-style tail-based trace retention: full
        span timelines survive only for faulted/stalled, SLO-violating
        and MAD-outlier sessions plus a deterministic 1-in-N head
        sample (session-id hash); every terminal session's phase
        durations fold into sketches first, so population quantiles
        stay answerable within alpha after the spans are gone
    SpaceSavingTopK / WindowedSketch / ByteBudgetRing
        fixed-budget heavy-hitter attribution, zoomable windowed
        sketch series, and byte-budgeted exemplar rings.  Token-engine
        telemetry keeps one O(1) accumulator per scalar in either
        mode; ``EngineTelemetry(streaming=True)`` (or
        ``Observability(streaming=True)``) also drops its per-event
        records and sketches its distributions on these — O(1) memory
        per event

``benchmarks/bench_observability.py`` gates the plane on a replayed
fault storm: gap-free span timelines for every completed session,
attribution equal to recorded busy time bit-for-bit, exact Prometheus
round-trip, byte-identical repeat-run exports, bounded tracing
overhead, per-session critical-path sums bit-exact against the
enqueue→retire interval, self-diff of two seeded replays reporting
zero deltas (CLI exit 0; perturbed config exit 1), and bounded
analysis overhead.  ``benchmarks/bench_obs_scale.py`` gates the
streaming layer: sketched quantiles within the declared alpha of exact
nearest-rank values, retained records and sketch bytes under fixed
budgets independent of session count, 100% full-fidelity retention of
faulted/SLO-violating sessions, and byte-identical seeded replays.
"""

from .batcher import BatchPolicy, MicroBatcher
from .clock import SimulatedClock, time_at_or_before, time_tolerance
from .engine import (
    DecodeModelProfile,
    DecodeServiceModel,
    DecodeSession,
    EngineConfig,
    KVBlockManager,
    RadixPrefixIndex,
    TokenServingEngine,
    build_sessions,
    next_token_input,
    sequential_decode_outputs,
)
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FleetMonitor,
    HealthPolicy,
    WorkerHealth,
)
from .observability import (
    BurnRateMonitor,
    BurnWindow,
    ByteBudgetRing,
    HardwareAttributionProfiler,
    MetricsRegistry,
    Observability,
    QuantileSketch,
    SLOSpec,
    SLOTracker,
    SpaceSavingTopK,
    TailSampler,
    TailSamplingPolicy,
    Tracer,
    WindowedSketch,
    build_flight_report,
    default_windows,
    diff_runs,
    export_run,
    fleet_rollup,
    parse_prometheus_text,
    render_diff,
    report_to_markdown,
    session_breakdown,
)
from .pool import ExecutorPool, PoolWorker, ROUTING_POLICIES
from .request import AdmissionQueue, InferenceRequest, Priority, RequestStatus
from .runtime import (
    Autoscaler,
    AutoscalerPolicy,
    ModelProfile,
    ServiceModel,
    ServingRuntime,
    infer_input_dim,
    model_layer_shapes,
)
from .telemetry import EngineTelemetry, Telemetry, percentile, summarize_latencies
from .traffic import (
    Scenario,
    bursty_scenario,
    decode_scenario,
    diurnal_scenario,
    geometric_lengths,
    lognormal_lengths,
    multi_tenant_priority_scenario,
    multi_tenant_scenario,
    multiturn_scenario,
    poisson_scenario,
    priority_scenario,
    shared_prefix_scenario,
)

__all__ = [
    "AdmissionQueue",
    "Autoscaler",
    "AutoscalerPolicy",
    "BatchPolicy",
    "BurnRateMonitor",
    "BurnWindow",
    "ByteBudgetRing",
    "DecodeModelProfile",
    "DecodeServiceModel",
    "DecodeSession",
    "EngineConfig",
    "EngineTelemetry",
    "ExecutorPool",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FleetMonitor",
    "HardwareAttributionProfiler",
    "HealthPolicy",
    "InferenceRequest",
    "KVBlockManager",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelProfile",
    "Observability",
    "PoolWorker",
    "Priority",
    "QuantileSketch",
    "RadixPrefixIndex",
    "RequestStatus",
    "ROUTING_POLICIES",
    "SLOSpec",
    "SLOTracker",
    "Scenario",
    "ServiceModel",
    "ServingRuntime",
    "SimulatedClock",
    "SpaceSavingTopK",
    "TailSampler",
    "TailSamplingPolicy",
    "Telemetry",
    "TokenServingEngine",
    "Tracer",
    "WindowedSketch",
    "WorkerHealth",
    "build_flight_report",
    "build_sessions",
    "bursty_scenario",
    "decode_scenario",
    "diff_runs",
    "default_windows",
    "diurnal_scenario",
    "export_run",
    "fleet_rollup",
    "geometric_lengths",
    "infer_input_dim",
    "lognormal_lengths",
    "model_layer_shapes",
    "multi_tenant_priority_scenario",
    "multi_tenant_scenario",
    "multiturn_scenario",
    "next_token_input",
    "parse_prometheus_text",
    "percentile",
    "poisson_scenario",
    "priority_scenario",
    "render_diff",
    "report_to_markdown",
    "sequential_decode_outputs",
    "session_breakdown",
    "shared_prefix_scenario",
    "summarize_latencies",
    "time_at_or_before",
    "time_tolerance",
]
