"""Serving telemetry: latency percentiles, throughput, batching stats.

Collects per-request records and runtime samples during a scenario and
reduces them to the numbers an SRE would page on: p50/p95/p99 latency,
sustained throughput, batch-size histogram, queue depth over time,
admission rejections, and programmed-cache hit rate.

Because service times come from the analytic hardware model
(:mod:`repro.arch.latency` via :func:`repro.arch.inference.per_request_latency`),
the records are exactly re-derivable: the serving reports hand them to
:class:`~repro.serve.observability.HardwareAttributionProfiler`, which
reprices each dispatched batch from its (model, batch-size) pair and
each engine step from its batch composition, and must reproduce the
recorded busy intervals bit-for-bit.  ``slo_attainment`` then reads as
"fraction of admitted requests that met their latency target on the
simulated hardware"; with priority-classed traffic the summary splits it
per class (``per_class``: completions, sheds — rejections *and*
evictions — attainment and p99 per priority), and the windowed
:meth:`Telemetry.latencies` filter is what the replica autoscaler's
control loop reads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .observability.metrics import MetricsRegistry
from .observability.quantiles import percentile
from .observability.sketch import QuantileSketch
from .observability.streaming import SpaceSavingTopK, WindowedSketch
from .request import InferenceRequest, RequestStatus

__all__ = [
    "EngineTelemetry",
    "Telemetry",
    "percentile",  # re-exported from observability.quantiles (shared impl)
    "summarize_latencies",
]


def summarize_latencies(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "p50_s": percentile(latencies, 50),
        "p95_s": percentile(latencies, 95),
        "p99_s": percentile(latencies, 99),
        "mean_s": float(np.mean(latencies)) if len(latencies) else 0.0,
        "max_s": float(np.max(latencies)) if len(latencies) else 0.0,
    }


@dataclass
class _BatchRecord:
    model: str
    batch_size: int
    worker_id: int
    dispatch_time: float
    service_s: float


class Telemetry:
    """Accumulates serving events; reduces to a summary dict.

    Every recording method also updates a typed
    :class:`~repro.serve.observability.metrics.MetricsRegistry` (pass
    one to share it with the tracer/SLO plane; a private registry is
    created otherwise), so any run can be exported in Prometheus text
    format and any gauge read as a streaming ``(t, value)`` series.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._m_completed = reg.counter(
            "serve_requests_completed_total",
            "Requests completed, by model and priority class",
            ("model", "priority"),
        )
        self._m_shed = reg.counter(
            "serve_requests_shed_total",
            "Requests lost before completion, by priority class and reason",
            ("priority", "reason"),
        )
        self._m_batches = reg.counter(
            "serve_batches_dispatched_total",
            "Batches dispatched, by model",
            ("model",),
        )
        self._m_batch_size = reg.histogram(
            "serve_batch_size",
            "Dispatched batch sizes, by model",
            ("model",),
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._m_latency = reg.histogram(
            "serve_request_latency_seconds",
            "End-to-end request latency, by model",
            ("model",),
        )
        self._m_queue_depth = reg.gauge(
            "serve_queue_depth", "Admission queue depth (streamed series)"
        )
        # Children of the per-request metrics, kept after their first use
        # (created lazily, so the Prometheus text shows only touched ones).
        self._completed_children: Dict[Tuple[str, int], object] = {}
        self._queue_depth_child = None
        self.completed: List[InferenceRequest] = []
        self.rejected: int = 0
        self.rejected_by_class: Counter = Counter()
        self.evicted: int = 0
        self.batches: List[_BatchRecord] = []
        self.timeouts = 0
        self.timeouts_by_class: Counter = Counter()
        # Nothing fails a request terminally, so this stays 0; perfbench's
        # request_multitenant check still adds it to its accounting.
        self.failed = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_rejection(self, request: InferenceRequest) -> None:
        """A shed request — rejected at admission or evicted by a higher
        class; both count against its class's SLO attainment."""
        self.rejected += 1
        self.rejected_by_class[request.priority] += 1
        if request.status == RequestStatus.EVICTED:
            self.evicted += 1
            self._m_shed.labels(request.priority, "evicted").inc()
        else:
            self._m_shed.labels(request.priority, "rejected").inc()

    def record_timeout(self, request: InferenceRequest) -> None:
        """A request whose per-request deadline expired before service.

        Counts as an SLO miss for its class, like a rejection."""
        self.timeouts += 1
        self.timeouts_by_class[request.priority] += 1
        self._m_shed.labels(request.priority, "timeout").inc()

    def record_batch(
        self,
        model: str,
        requests: Sequence[InferenceRequest],
        worker_id: int,
        dispatch_time: float,
        service_s: float,
    ) -> None:
        """Record one dispatched batch at index ``len(batches)``, the id
        the runtime reads before the call and stamps on the batch's
        service span."""
        self.batches.append(
            _BatchRecord(model, len(requests), worker_id, dispatch_time, service_s)
        )
        self._m_batches.labels(model).inc()
        self._m_batch_size.observe(len(requests), model)

    def record_completion(self, request: InferenceRequest) -> None:
        self.completed.append(request)
        key = (request.model, request.priority)
        child = self._completed_children.get(key)
        if child is None:
            child = self._completed_children[key] = self._m_completed.labels(*key)
        child.inc()
        if request.total_latency is not None:
            self._m_latency.observe(request.total_latency, request.model)

    def sample_queue_depth(self, now: float, depth: int) -> None:
        if self._queue_depth_child is None:
            self._queue_depth_child = self._m_queue_depth.labels()
        self._queue_depth_child.set(depth, t=now)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def latencies(
        self,
        model: Optional[str] = None,
        priority: Optional[int] = None,
        since: Optional[float] = None,
    ) -> List[float]:
        """Total latencies of completed requests, optionally filtered by
        model, priority class, and completion time (``since`` — the
        autoscaler's sliding window).

        Completions are recorded in nondecreasing ``completion_time``
        order (the event loop pops worker-free events in time order), so
        the ``since`` window starts at a bisected index instead of
        scanning the whole history — the autoscaler queries this every
        control tick.
        """
        start = 0
        if since is not None:
            start = bisect_left(
                self.completed, since, key=lambda r: r.completion_time
            )
        return [
            r.total_latency
            for r in self.completed[start:]
            if r.total_latency is not None
            and (model is None or r.model == model)
            and (priority is None or r.priority == priority)
        ]

    def classes_seen(self) -> List[int]:
        """Priority classes observed across completions and misses."""
        seen = {r.priority for r in self.completed}
        seen.update(self.rejected_by_class)
        seen.update(self.timeouts_by_class)
        return sorted(seen)

    def _misses(self, priority: Optional[int] = None) -> int:
        """Requests that never completed: shed or timed out."""
        if priority is None:
            return self.rejected + self.timeouts
        return (
            self.rejected_by_class.get(priority, 0)
            + self.timeouts_by_class.get(priority, 0)
        )

    def batch_size_histogram(self) -> Dict[int, int]:
        return dict(sorted(Counter(b.batch_size for b in self.batches).items()))

    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        total = sum(b.batch_size for b in self.batches)
        return total / len(self.batches)

    def throughput(self, horizon_s: float) -> float:
        """Completed requests per second over ``horizon_s``."""
        if horizon_s <= 0:
            return 0.0
        return len(self.completed) / horizon_s

    def makespan(self) -> float:
        """Time of the last completion (simulated seconds)."""
        if not self.completed:
            return 0.0
        return max(r.completion_time for r in self.completed)

    def queue_depth_stats(self, horizon_s: float) -> Dict[str, float]:
        """Time-weighted mean and max of the ``serve_queue_depth`` series.

        Each sample holds until the next one (the depth is zero before
        the first), and the mean integrates that step function over
        ``[0, horizon_s]``.  Samples that share a timestamp span zero
        time, so the mean measures the queue, not how often the event
        loop sampled it; by Little's law, ``mean * horizon_s`` is the
        total time requests spent queued.
        """
        series = self._m_queue_depth.series()
        if not series:
            return {"mean": 0.0, "max": 0.0}
        ends = [t for t, _ in series[1:]] + [horizon_s]
        area = math.fsum(
            depth * (min(end, horizon_s) - min(t, horizon_s))
            for (t, depth), end in zip(series, ends)
        )
        return {
            "mean": area / horizon_s if horizon_s > 0 else 0.0,
            "max": max(depth for _, depth in series),
        }

    def slo_attainment(self, slo_s: float) -> float:
        """Fraction of *admitted* requests completing within ``slo_s``.

        Rejected and timed-out requests both count against attainment —
        any request that never completes is a miss from the caller's
        point of view.
        """
        lat = self.latencies()
        total = len(lat) + self._misses()
        if total == 0:
            return 1.0
        met = sum(1 for v in lat if v <= slo_s + 1e-15)
        return met / total

    def slo_attainment_by_class(self, slo_s: float) -> Dict[int, float]:
        """Per-priority-class SLO attainment (all misses count)."""
        out: Dict[int, float] = {}
        for p in self.classes_seen():
            lat = self.latencies(priority=p)
            total = len(lat) + self._misses(p)
            if total == 0:
                out[p] = 1.0
                continue
            met = sum(1 for v in lat if v <= slo_s + 1e-15)
            out[p] = met / total
        return out

    # ------------------------------------------------------------------
    def summary(
        self,
        horizon_s: float,
        slo_s: Optional[float] = None,
        cache_stats: Optional[Dict[str, float]] = None,
    ) -> Dict[str, object]:
        """One dict with everything the benchmarks report."""
        lat = self.latencies()
        out: Dict[str, object] = {
            "completed": len(self.completed),
            "rejected": self.rejected,
            "evicted": self.evicted,
            "throughput_rps": self.throughput(horizon_s),
            "latency": summarize_latencies(lat),
            "mean_batch_size": self.mean_batch_size(),
            "batch_size_histogram": {
                str(k): v for k, v in self.batch_size_histogram().items()
            },
            "queue_depth": self.queue_depth_stats(horizon_s),
        }
        if slo_s is not None:
            out["slo_s"] = slo_s
            out["slo_attainment"] = self.slo_attainment(slo_s)
            # Single-class default-priority deployments keep the old
            # summary shape; any other class present adds the breakdown.
            classes = self.classes_seen()
            if classes != [0]:
                by_class = self.slo_attainment_by_class(slo_s)
                out["per_class"] = {
                    str(p): {
                        "completed": sum(
                            1 for r in self.completed if r.priority == p
                        ),
                        "rejected": self.rejected_by_class.get(p, 0),
                        "slo_attainment": by_class[p],
                        "p99_s": percentile(self.latencies(priority=p), 99),
                    }
                    for p in classes
                }
        if cache_stats is not None:
            out["programmed_cache"] = cache_stats
        if self.timeouts:
            out["timeouts"] = self.timeouts
        return out


# ----------------------------------------------------------------------
# Token-level telemetry (autoregressive serving engine)
# ----------------------------------------------------------------------
@dataclass
class _StepRecord:
    """One iteration-level engine step: batch shape, cost, KV pressure.

    ``prefill_chunks`` holds one ``(resident_context, chunk_len)`` pair
    per prefill slice the step absorbed — a monolithic prefill is the
    single pair ``(0, prompt_len)``; prefix-cached and chunked prefills
    carry the already-resident context their chunk attends over.
    """

    t: float
    model: str
    batch: int
    active: int
    context_lens: Tuple[int, ...]
    prefill_chunks: Tuple[Tuple[int, int], ...]
    step_s: float
    kv_blocks: int
    kv_occupancy: float
    # Extra wall time beyond the analytic step cost (degraded/slow
    # worker).  Kept separate from ``step_s`` so the analytic decode
    # cross-check stays exact through fault storms.
    stall_s: float = 0.0


class EngineTelemetry:
    """Token-serving metrics: TTFT, TPOT, tokens/s, KV and prefix reuse.

    Sessions are duck-typed (:class:`repro.serve.engine.DecodeSession`):
    anything with ``priority``/``ttft``/``tpot``/``decode_len``/
    ``finish_time``/``preemptions`` records.  Per-step records keep the
    exact batch composition (context lengths and prefill chunks), so
    :class:`~repro.serve.observability.HardwareAttributionProfiler` can
    re-derive every step's latency from ``arch.inference`` component
    pricing and prove the engine's accounting matches the analytic
    hardware model — the same check the request-level
    :class:`Telemetry` batch records get.

    Every scalar (per-class counts, tokens, TPOT, makespan, steps, mean
    batch, stall, KV occupancy, prefill priced, prefix reuse) folds into
    one O(1) accumulator as it is recorded, and every scalar reduction
    reads it, in both modes.  ``streaming=True`` changes two things
    only.  It keeps no per-event records (``sessions``, ``rejected`` and
    ``steps`` stay empty, ``ttfts()`` refuses), so telemetry memory
    stops scaling with traffic (the ``bench_obs_scale`` gate).  And it
    sketches the distributions: TTFT (overall, and per class in the
    registry's ``engine_ttft_seconds`` histogram), E2E and step time
    fold into :class:`~repro.serve.observability.sketch.QuantileSketch`
    summaries with relative error ``sketch_alpha`` (a class constant,
    0.01), KV occupancy into a fixed-budget
    :class:`~repro.serve.observability.streaming.WindowedSketch` time
    series, and per-model/class attribution into a
    :class:`~repro.serve.observability.streaming.SpaceSavingTopK`.
    Gauges keep their last value only, in both modes.
    """

    sketch_alpha = 0.01

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        streaming: bool = False,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.streaming = bool(streaming)
        reg = self.registry
        self._m_sessions = reg.counter(
            "engine_sessions_completed_total",
            "Sessions decoded to completion, by model and priority class",
            ("model", "priority"),
        )
        self._m_rejected = reg.counter(
            "engine_sessions_rejected_total",
            "Sessions rejected or shed before completion",
            ("priority",),
        )
        self._m_tokens = reg.counter(
            "engine_tokens_generated_total",
            "Tokens committed by completed sessions, by model",
            ("model",),
        )
        self._m_steps = reg.counter(
            "engine_steps_total",
            "Iteration-level engine steps dispatched, by model",
            ("model",),
        )
        self._m_preemptions = reg.counter(
            "engine_preemptions_total",
            "Sessions preempted, by priority class",
            ("priority",),
        )
        self._m_faults = reg.counter(
            "engine_faults_injected_total",
            "Injected fault events applied, by kind",
            ("kind",),
        )
        self._m_transients = reg.counter(
            "engine_transients_total",
            "RRNS-detected transient faults, by outcome",
            ("outcome",),
        )
        self._m_recovered = reg.counter(
            "engine_sessions_recovered_total", "Sessions rescued off lost KV"
        )
        self._m_failed = reg.counter(
            "engine_sessions_failed_total", "Sessions terminally failed"
        )
        self._m_kv_lost = reg.counter(
            "engine_kv_blocks_lost_total", "KV blocks destroyed by faults"
        )
        self._m_crashes = reg.counter(
            "engine_replica_crashes_total", "Replica crash events observed"
        )
        self._m_replacements = reg.counter(
            "engine_replica_replacements_total", "Dead replicas replaced"
        )
        self._m_health = reg.counter(
            "engine_health_transitions_total",
            "Fleet monitor health transitions, by target state",
            ("to",),
        )
        self._m_stall = reg.counter(
            "engine_stall_seconds_total",
            "Wall time lost to degraded workers (simulated seconds)",
        )
        self._m_ttft = reg.histogram(
            "engine_ttft_seconds",
            "Time to first token, by priority class",
            ("priority",),
            sketch_alpha=self.sketch_alpha if self.streaming else None,
        )
        self._m_kv_occupancy = reg.gauge(
            "engine_kv_occupancy",
            "KV block pool occupancy after each step (streamed series)",
        )
        self._m_batch_active = reg.gauge(
            "engine_active_decoders",
            "Active decode slots per step (streamed series)",
        )
        self.sessions: List = []
        self.rejected: List = []
        self.steps: List[_StepRecord] = []
        self.preemptions = 0
        self.preemptions_by_class: Counter = Counter()
        # Fault/recovery plane (PR 6) — all zero on fault-free runs.
        self.faults_injected: Counter = Counter()  # by FaultKind
        self.faults_corrected = 0
        self.faults_uncorrectable = 0
        self.tokens_retried = 0
        self.sessions_recovered = 0
        self.sessions_failed = 0
        self.sessions_shed = 0
        self.recovery_reprefill_tokens = 0
        self.kv_blocks_lost = 0
        self.replica_crashes = 0
        self.replicas_replaced = 0
        self.health_transitions: List[Dict] = []
        # One accumulator per scalar, in both modes.
        self._sessions_by_class: Counter = Counter()
        self._rejected_by_class: Counter = Counter()
        self._tokens_total = 0
        self._tpot_span = 0.0
        self._tpot_lanes = 0
        self._last_finish = 0.0
        self._steps_n = 0
        self._active_total = 0
        self._stall_total = 0.0
        self._kv_peak_occ = 0.0
        self._kv_occ_total = 0.0
        self._kv_peak_blocks = 0
        self._prefill_priced = 0
        self._prefix_lookups = 0
        self._prefix_hits = 0
        self._prefix_saved = 0
        # Streaming mode's distribution sketches.
        alpha = self.sketch_alpha
        self._step_sketch = QuantileSketch(alpha=alpha)
        self._kv_windows = WindowedSketch(
            window_s=1e-9, max_windows=64, alpha=alpha
        )
        self._ttft_sketch = QuantileSketch(alpha=alpha)
        self._ttft_total = 0.0
        self._ttft_sq_total = 0.0
        self._e2e_sketch = QuantileSketch(alpha=alpha)
        self._attribution = SpaceSavingTopK(16)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_step(
        self,
        t: float,
        model: str,
        context_lens: Sequence[int],
        prefill_chunks: Sequence[Tuple[int, int]],
        active: int,
        step_s: float,
        kv_blocks: int,
        kv_occupancy: float,
        stall_s: float = 0.0,
    ) -> None:
        """Record one engine step at index ``steps_count()`` (its position
        in ``steps`` in exact mode), the id the scheduler reads before the
        call and stamps on the step's phase spans, closing the
        span→telemetry causal join the critical-path analysis uses."""
        self._steps_n += 1
        self._active_total += int(active)
        self._stall_total += float(stall_s)
        occupancy = float(kv_occupancy)
        if occupancy > self._kv_peak_occ:
            self._kv_peak_occ = occupancy
        self._kv_occ_total += occupancy
        blocks = int(kv_blocks)
        if blocks > self._kv_peak_blocks:
            self._kv_peak_blocks = blocks
        for _, chunk_len in prefill_chunks:
            self._prefill_priced += int(chunk_len)
        if self.streaming:
            self._step_sketch.add(float(step_s))
            self._kv_windows.add(t, occupancy)
        else:
            self.steps.append(
                _StepRecord(
                    t,
                    model,
                    len(context_lens),
                    active,
                    tuple(context_lens),
                    tuple((int(c), int(q)) for c, q in prefill_chunks),
                    step_s,
                    kv_blocks,
                    kv_occupancy,
                    stall_s=stall_s,
                )
            )
        self._m_steps.labels(model).inc()
        self._m_kv_occupancy.labels().set(kv_occupancy)
        self._m_batch_active.labels().set(active)
        if stall_s > 0.0:
            self._m_stall.labels().inc(stall_s)

    def record_session(self, session) -> None:
        priority = int(session.priority)
        tokens = int(session.tokens_generated)
        finish = float(session.finish_time)
        self._sessions_by_class[priority] += 1
        self._tokens_total += tokens
        if finish > self._last_finish:
            self._last_finish = finish
        tpot = session.tpot
        if tpot is not None:
            lanes = session.decode_len - 1
            self._tpot_span += float(tpot) * lanes
            self._tpot_lanes += lanes
        if self.streaming:
            self._e2e_sketch.add(finish - float(session.arrival_time))
            ttft = session.ttft
            if ttft is not None:
                ttft = float(ttft)
                self._ttft_sketch.add(ttft)
                self._ttft_total += ttft
                self._ttft_sq_total += ttft * ttft
            self._attribution.add(
                f"{session.model}/class{priority}", weight=max(1, tokens)
            )
        else:
            self.sessions.append(session)
        self._m_sessions.labels(session.model, session.priority).inc()
        self._m_tokens.labels(session.model).inc(session.tokens_generated)
        if session.ttft is not None:
            self._m_ttft.observe(session.ttft, str(session.priority))

    def record_rejection(self, session) -> None:
        self._rejected_by_class[int(session.priority)] += 1
        if not self.streaming:
            self.rejected.append(session)
        self._m_rejected.labels(session.priority).inc()

    def record_preemption(self, session) -> None:
        self.preemptions += 1
        self.preemptions_by_class[session.priority] += 1
        self._m_preemptions.labels(session.priority).inc()

    def record_prefix(self, cached_tokens: int) -> None:
        """One admission's prefix-cache lookup, ``cached_tokens`` of its
        context served from cache (an engine with caching disabled
        records nothing here)."""
        self._prefix_lookups += 1
        if cached_tokens > 0:
            self._prefix_hits += 1
        self._prefix_saved += int(cached_tokens)

    def record_fault(self, kind: str) -> None:
        """One injected fault event applied to the engine."""
        self.faults_injected[kind] += 1
        self._m_faults.labels(kind).inc()

    def record_transient(self, uncorrectable: bool) -> None:
        """One RRNS-detected transient compute fault, counted when the
        residue check detects it.

        Corrected faults cost nothing (the redundant residues absorb
        them); an uncorrectable one poisons the affected session's step
        output, which is discarded and recomputed.  The scheduler adds
        that discarded work to ``tokens_retried`` when it discards it.
        """
        if uncorrectable:
            self.faults_uncorrectable += 1
            self._m_transients.labels("uncorrectable").inc()
        else:
            self.faults_corrected += 1
            self._m_transients.labels("corrected").inc()

    def record_recovery(self, session) -> None:
        """A session rescued off a dead replica (or lost KV) and
        requeued; the context it must rebuild is added to
        ``recovery_reprefill_tokens`` when it is readmitted."""
        self.sessions_recovered += 1
        self._m_recovered.labels().inc()

    def record_session_failure(self, session) -> None:
        """A session abandoned because recovery is disabled (or
        impossible) after its replica died."""
        self.sessions_failed += 1
        self._m_failed.labels().inc()

    def record_shed(self, session) -> None:
        """A waiting session shed to protect higher classes under
        capacity loss; also counts as a rejection for SLO purposes."""
        self.sessions_shed += 1
        self.record_rejection(session)

    def record_kv_loss(self, blocks: int) -> None:
        self.kv_blocks_lost += int(blocks)
        self._m_kv_lost.labels().inc(int(blocks))

    def record_crash(self, worker_id: int) -> None:
        self.replica_crashes += 1
        self._m_crashes.labels().inc()

    def record_replacement(self, dead_worker_id: int, new_worker_id: int) -> None:
        self.replicas_replaced += 1
        self._m_replacements.labels().inc()

    def record_health_transition(self, transition: Dict) -> None:
        """One monitor transition (healthy→suspect→dead) with timing —
        the unavailability-window audit trail."""
        self.health_transitions.append(dict(transition))
        self._m_health.labels(transition["to"]).inc()

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def classes_seen(self) -> List[int]:
        return sorted(set(self._sessions_by_class) | set(self._rejected_by_class))

    def sessions_count(self) -> int:
        return sum(self._sessions_by_class.values())

    def rejected_count(self) -> int:
        return sum(self._rejected_by_class.values())

    def steps_count(self) -> int:
        return self._steps_n

    def ttfts(self, priority: Optional[int] = None) -> List[float]:
        if self.streaming:
            raise ValueError(
                "streaming telemetry keeps no per-session TTFT list; "
                "query the summary's sketched percentiles instead"
            )
        return [
            s.ttft
            for s in self.sessions
            if s.ttft is not None
            and (priority is None or s.priority == priority)
        ]

    def tokens_generated(self) -> int:
        return self._tokens_total

    def tokens_per_s(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 0.0
        return self.tokens_generated() / horizon_s

    def makespan(self) -> float:
        return self._last_finish

    def mean_tpot(self) -> float:
        """Pooled time-per-output-token after the first, across sessions."""
        return self._tpot_span / self._tpot_lanes if self._tpot_lanes else 0.0

    def mean_batch_size(self) -> float:
        return self._active_total / self._steps_n if self._steps_n else 0.0

    def kv_stats(self) -> Dict[str, float]:
        steps = self._steps_n
        return {
            "peak_occupancy": self._kv_peak_occ,
            "mean_occupancy": self._kv_occ_total / steps if steps else 0.0,
            "peak_blocks": self._kv_peak_blocks,
        }

    def prefill_tokens_priced(self) -> int:
        """Prompt/context tokens whose prefill GEMMs were actually
        scheduled (sum of every step's chunk lengths) — what the prefix
        cache shrinks relative to the tokens sessions *needed* resident."""
        return self._prefill_priced

    def prefix_stats(self) -> Dict[str, float]:
        """Shared-prefix cache effectiveness at the token level.

        ``prefill_tokens_saved`` counts context tokens served from cache
        at admission; ``cached_token_fraction`` is their share of all
        context tokens admissions needed resident (saved + priced);
        ``hit_rate`` is the fraction of cache lookups that reused at
        least one token.  Engines with caching disabled report zeros.
        """
        saved = self._prefix_saved
        priced = self._prefill_priced
        lookups = self._prefix_lookups
        return {
            "lookups": lookups,
            "hit_rate": (self._prefix_hits / lookups) if lookups else 0.0,
            "prefill_tokens_saved": saved,
            "prefill_tokens_priced": priced,
            "cached_token_fraction": (
                saved / (saved + priced) if saved + priced else 0.0
            ),
        }

    def ttft_jitter(self) -> Dict[str, float]:
        """TTFT spread — what chunked prefill exists to bound.

        ``p99_minus_p50_s`` is the headline jitter number (tail latency
        over the typical first token); ``std_s`` the full-distribution
        spread.  Streaming mode derives the std from exact running sums
        and the jitter from sketched percentiles (within ``alpha``).
        """
        if self.streaming:
            n = self._ttft_sketch.count
            if not n:
                return {"std_s": 0.0, "p99_minus_p50_s": 0.0}
            mean = self._ttft_total / n
            variance = max(0.0, self._ttft_sq_total / n - mean * mean)
            return {
                "std_s": math.sqrt(variance),
                "p99_minus_p50_s": (
                    self._ttft_sketch.percentile(99.0)
                    - self._ttft_sketch.percentile(50.0)
                ),
            }
        ttfts = self.ttfts()
        if not ttfts:
            return {"std_s": 0.0, "p99_minus_p50_s": 0.0}
        return {
            "std_s": float(np.std(np.asarray(ttfts, dtype=np.float64))),
            "p99_minus_p50_s": percentile(ttfts, 99) - percentile(ttfts, 50),
        }

    def ttft_slo_attainment(
        self, slo_s: float, priority: Optional[int] = None
    ) -> float:
        """Fraction of sessions whose first token met ``slo_s``.

        Rejected sessions count as misses, mirroring request-level SLO
        accounting (shedding is a miss from the caller's side).

        Streaming mode answers from the TTFT sketch's CDF — exact up to
        bucket resolution at the threshold, i.e. only sessions whose
        TTFT is within relative ``alpha`` of ``slo_s`` itself can be
        counted on the wrong side.
        """
        if priority is None:
            shed = self.rejected_count()
        else:
            shed = self._rejected_by_class.get(int(priority), 0)
        if self.streaming:
            if priority is None:
                sketch = self._ttft_sketch
            else:
                sketch = self._class_ttft_sketch(priority)
            n = sketch.count if sketch is not None else 0
            met = sketch.cdf(slo_s) * n if n else 0.0
        else:
            ttfts = self.ttfts(priority=priority)
            n = len(ttfts)
            met = sum(1 for v in ttfts if v <= slo_s + 1e-15)
        total = n + shed
        if total == 0:
            return 1.0
        return met / total

    def stall_time(self) -> float:
        """Total wall time lost to degraded (slow) workers."""
        return self._stall_total

    def unavailability_windows(self) -> List[Dict[str, float]]:
        """Per-worker fail→dead detection windows from the transitions."""
        fail_seen: Dict[int, Dict[str, float]] = {}
        windows: List[Dict[str, float]] = []
        for tr in self.health_transitions:
            wid = tr["worker_id"]
            if tr["to"] == "suspect" and wid not in fail_seen:
                fail_seen[wid] = {
                    "worker_id": wid,
                    "failed_at_s": tr["t"] - tr["silent_for_s"],
                    "suspected_at_s": tr["t"],
                }
            elif tr["to"] == "dead":
                win = fail_seen.pop(
                    wid,
                    {
                        "worker_id": wid,
                        "failed_at_s": tr["t"] - tr["silent_for_s"],
                        "suspected_at_s": tr["t"],
                    },
                )
                win["dead_at_s"] = tr["t"]
                win["detection_s"] = win["dead_at_s"] - win["failed_at_s"]
                windows.append(win)
        # Workers suspected but never declared dead (storm ended first).
        windows.extend(fail_seen.values())
        return windows

    def fault_stats(self) -> Dict[str, object]:
        """One dict aggregating the whole fault/recovery plane."""
        return {
            "injected": {k: int(v) for k, v in sorted(self.faults_injected.items())},
            "transient_corrected": self.faults_corrected,
            "transient_uncorrectable": self.faults_uncorrectable,
            "tokens_retried": self.tokens_retried,
            "sessions_recovered": self.sessions_recovered,
            "sessions_failed": self.sessions_failed,
            "sessions_shed": self.sessions_shed,
            "recovery_reprefill_tokens": self.recovery_reprefill_tokens,
            "kv_blocks_lost": self.kv_blocks_lost,
            "replica_crashes": self.replica_crashes,
            "replicas_replaced": self.replicas_replaced,
            "health_transitions": len(self.health_transitions),
            "unavailability_windows": self.unavailability_windows(),
            "stall_s": self.stall_time(),
        }

    # ------------------------------------------------------------------
    def _sketched_latency_summary(self, sketch: QuantileSketch) -> Dict[str, float]:
        """The :func:`summarize_latencies` shape, from a sketch (p50/p95/
        p99 within ``alpha``; mean and max exact)."""
        if not sketch.count:
            return {
                "p50_s": 0.0,
                "p95_s": 0.0,
                "p99_s": 0.0,
                "mean_s": 0.0,
                "max_s": 0.0,
            }
        return {
            "p50_s": sketch.percentile(50.0),
            "p95_s": sketch.percentile(95.0),
            "p99_s": sketch.percentile(99.0),
            "mean_s": sketch.sum / sketch.count,
            "max_s": sketch.max,
        }

    def summary(
        self, horizon_s: float, ttft_slo_s: Optional[float] = None
    ) -> Dict[str, object]:
        """The numbers an LLM-serving dashboard pages on."""
        out: Dict[str, object] = {
            "sessions": self.sessions_count(),
            "rejected": self.rejected_count(),
            "tokens": self.tokens_generated(),
            "tokens_per_s": self.tokens_per_s(horizon_s),
            "ttft": (
                self._sketched_latency_summary(self._ttft_sketch)
                if self.streaming
                else summarize_latencies(self.ttfts())
            ),
            "ttft_jitter": self.ttft_jitter(),
            "tpot_s": self.mean_tpot(),
            "steps": self.steps_count(),
            "mean_batch_size": self.mean_batch_size(),
            "preemptions": self.preemptions,
            "kv": self.kv_stats(),
            "prefix": self.prefix_stats(),
        }
        if self.streaming:
            out["streaming"] = {
                "alpha": self.sketch_alpha,
                "e2e": self._sketched_latency_summary(self._e2e_sketch),
                "step": self._sketched_latency_summary(self._step_sketch),
                "sketch_bytes": (
                    self._ttft_sketch.byte_size()
                    + self._e2e_sketch.byte_size()
                    + self._step_sketch.byte_size()
                    + sum(
                        child.sketch.byte_size()
                        for child in self._m_ttft.children()
                    )
                ),
                "attribution_topk": self._attribution.to_dict(),
                "kv_occupancy_windows": {
                    "windows": len(self._kv_windows),
                    "window_s": self._kv_windows.window_s,
                    "compactions": self._kv_windows.compactions,
                    "samples": self._kv_windows.total_count(),
                },
            }
        if (
            self.faults_injected
            or self.sessions_recovered
            or self.sessions_failed
            or self.replica_crashes
            or self.health_transitions
        ):
            out["faults"] = self.fault_stats()
        if ttft_slo_s is not None:
            out["ttft_slo_s"] = ttft_slo_s
            out["ttft_slo_attainment"] = self.ttft_slo_attainment(ttft_slo_s)
            classes = self.classes_seen()
            if classes != [0]:
                out["per_class"] = {
                    str(p): {
                        "sessions": self._sessions_by_class.get(p, 0),
                        "rejected": self._rejected_by_class.get(p, 0),
                        "preemptions": self.preemptions_by_class.get(p, 0),
                        "ttft_p99_s": self._class_ttft_p99(p),
                        "ttft_slo_attainment": self.ttft_slo_attainment(
                            ttft_slo_s, priority=p
                        ),
                    }
                    for p in classes
                }
        return out

    def _class_ttft_sketch(self, priority: int) -> Optional[QuantileSketch]:
        """Streaming mode's TTFT sketch of one class: the registry
        histogram's child, looked up without ``labels()``, which would
        create an empty child (a new Prometheus line) for a class that
        has only rejections."""
        label = (str(int(priority)),)
        for child in self._m_ttft.children():
            if child.labels == label:
                return child.sketch
        return None

    def _class_ttft_p99(self, priority: int) -> float:
        if self.streaming:
            sketch = self._class_ttft_sketch(priority)
            if sketch is None or not sketch.count:
                return 0.0
            return sketch.percentile(99.0)
        return percentile(self.ttfts(priority=priority), 99)
