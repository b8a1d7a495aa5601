"""The serving runtime: admission → micro-batching → executor pool.

:class:`ServingRuntime` is a discrete-event simulator over the
:class:`~repro.serve.clock.SimulatedClock`: scenario arrivals enter the
bounded :class:`~repro.serve.request.AdmissionQueue`, the
:class:`~repro.serve.batcher.MicroBatcher` coalesces them into per-model
micro-batches, and the :class:`~repro.serve.pool.ExecutorPool` dispatches
each batch through a weight-programmed photonic executor as one batched
GEMM stream.

Two control knobs turn the batcher into a serving system:

* **priority classes** — arrivals may carry a priority (see
  :class:`~repro.serve.request.Priority`); admission sheds the lowest
  class first, and the batcher dispatches by effective priority with an
  aging term (:class:`~repro.serve.batcher.BatchPolicy`
  ``aging_rate_per_s``) so low classes cannot starve;
* **SLO-driven autoscaling** — an :class:`Autoscaler`
  (:class:`AutoscalerPolicy` knobs) watches each model's windowed p99
  latency against its SLO and its queue depth at a fixed simulated-clock
  cadence, growing the replica set ahead of a ramp (charging the
  weight-tile reprogramming latency from ``arch.latency`` to the new
  replica) and draining replicas back when the tail is comfortably
  inside the SLO.

Two notions of time coexist deliberately:

* **functional execution** — each micro-batch really runs through the
  photonic core model (outputs are exact, programmed-cache hits are
  measured);
* **simulated hardware time** — the batch's service latency comes from
  the analytic :mod:`repro.arch` model
  (:func:`repro.arch.inference.per_request_latency` over the model's
  forward GEMMs at the dispatched batch size), which is what advances
  the clock and what every latency percentile is measured in.

So the telemetry answers "what SLO would this traffic see on the
hardware", while the outputs prove the batched dataflow is the same
computation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arch.accelerator import MirageAccelerator
from ..arch.inference import per_request_latency
from ..arch.latency import mirage_gemm_components
from ..nn.conv import Conv2d
from ..nn.layers import Linear, Sequential
from .batcher import BatchPolicy, MicroBatcher
from .clock import SimulatedClock, time_at_or_before
from .observability.profiler import HardwareAttributionProfiler
from .pool import ExecutorPool
from .request import AdmissionQueue, InferenceRequest, RequestStatus
from .shapes import model_layer_shapes
from .telemetry import Telemetry, percentile, summarize_latencies
from .traffic import _check_finite

__all__ = [
    "AutoscalerPolicy",
    "Autoscaler",
    "ModelProfile",
    "ServiceModel",
    "ServingRuntime",
    "model_layer_shapes",
]


@dataclass(frozen=True)
class ModelProfile:
    """A served model: the network plus its serving parameters."""

    name: str
    model: Sequential
    replicas: int = 1
    slo_s: Optional[float] = None
    input_hw: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.slo_s is not None and not 0 < self.slo_s < math.inf:
            raise ValueError(f"slo_s must be finite and > 0, got {self.slo_s}")


class ServiceModel:
    """Analytic batch-service latencies, memoised per (model, batch).

    ``batch_latency`` / ``prewarm_latency`` are pure functions of the
    registered profile, so each (model, batch) pair and each model's
    prewarm charge is priced through ``arch`` exactly once per
    registration — hot dispatch paths (every micro-batch and every
    engine decode step) read the memos.  Re-registering a name drops
    that model's cached entries, so a swapped profile can never serve
    the old profile's latencies.
    """

    def __init__(self, accelerator: Optional[MirageAccelerator] = None):
        self.accelerator = accelerator or MirageAccelerator()
        self._profiles: Dict[str, ModelProfile] = {}
        self._cache: Dict[Tuple[str, int], float] = {}
        self._prewarm_cache: Dict[str, float] = {}

    def register(self, profile: ModelProfile) -> None:
        if profile.name in self._profiles:
            self._invalidate(profile.name)
        self._profiles[profile.name] = profile

    def _invalidate(self, model: str) -> None:
        for key in [k for k in self._cache if k[0] == model]:
            del self._cache[key]
        self._prewarm_cache.pop(model, None)

    def cache_info(self) -> Dict[str, int]:
        """Size of the batch-latency memo (observability for the memo tests)."""
        return {"entries": len(self._cache)}

    def batch_latency(self, model: str, batch: int) -> float:
        key = (model, batch)
        if key not in self._cache:
            profile = self._profiles[model]
            shapes = model_layer_shapes(
                model, profile.model, batch, profile.input_hw
            )
            self._cache[key] = per_request_latency(
                shapes, batch, self.accelerator
            )["batch_latency_s"]
        return self._cache[key]

    def prewarm_latency(self, model: str) -> float:
        """Seconds to program all of ``model``'s weight tiles on one core.

        The phase-shifter settles of every layer's stationary weight
        tiles (DF1's ``reprogram_s``) — the cost a cold replica pays
        before it can serve its first batch, charged by the autoscaler on
        scale-up.
        """
        if model not in self._prewarm_cache:
            profile = self._profiles[model]
            shapes = model_layer_shapes(
                model, profile.model, 1, profile.input_hw
            )
            total = 0.0
            for layer in shapes:
                total += mirage_gemm_components(
                    layer.gemm, self.accelerator.config, "DF1"
                )["reprogram_s"]
            self._prewarm_cache[model] = total
        return self._prewarm_cache[model]


# ----------------------------------------------------------------------
# SLO-driven replica autoscaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalerPolicy:
    """Knobs of the latency-driven replica autoscaler.

    The control loop runs every ``interval_s`` of simulated time.  Per
    model it scales **up** when the windowed p99 latency breaches
    ``slo_scale_up`` of the model's SLO or queue depth per replica
    exceeds ``queue_high_per_replica`` (sized by queue pressure, so a
    steep ramp can add several replicas in one tick), and scales **down
    one replica at a time** when the tail sits below ``slo_scale_down``
    of the SLO with a near-empty queue, after ``scale_down_cooldown_s``
    of stability — asymmetric thresholds and the cooldown prevent
    flapping.
    """

    interval_s: float = 2e-7
    window_s: float = 5e-7
    min_replicas: int = 1
    max_replicas: int = 8
    slo_scale_up: float = 0.9
    slo_scale_down: float = 0.5
    queue_high_per_replica: float = 16.0
    queue_low_per_replica: float = 2.0
    scale_down_cooldown_s: float = 4e-7

    def __post_init__(self):
        _check_finite(**vars(self))
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {self.window_s}")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"{self.min_replicas}..{self.max_replicas}"
            )
        if not 0 < self.slo_scale_down <= self.slo_scale_up:
            raise ValueError(
                "need 0 < slo_scale_down <= slo_scale_up, got "
                f"{self.slo_scale_down}/{self.slo_scale_up}"
            )
        if self.queue_high_per_replica <= 0 or self.queue_low_per_replica < 0:
            raise ValueError("queue thresholds must be positive/non-negative")


class Autoscaler:
    """Per-model replica controller over the pool, driven by telemetry.

    Reads each model's windowed p99-vs-SLO and queue depth, and asks
    :meth:`ExecutorPool.scale_to` for more or fewer replicas.  Scale-ups
    charge the model's weight-tile reprogramming latency (from
    ``arch.latency`` via :meth:`ServiceModel.prewarm_latency`) to the new
    replica's busy window; scale-downs drain before retiring.  Also keeps
    the replica-second ledger the autoscaling benchmark reports
    (provisioned capacity integrated over simulated time).
    """

    def __init__(self, runtime: "ServingRuntime", policy: AutoscalerPolicy):
        self.runtime = runtime
        self.policy = policy
        self.events: List[Dict[str, float]] = []
        self._last_change: Dict[str, float] = {}
        self._rs: Dict[str, float] = {}
        self._rs_t: Dict[str, float] = {}
        self._rs_n: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def start(self, now: float = 0.0) -> None:
        """Open the replica-second ledger at the current replica counts."""
        for name in self.runtime.pool.model_names():
            self._last_change[name] = now
            self._rs[name] = 0.0
            self._rs_t[name] = now
            self._rs_n[name] = self.runtime.pool.num_replicas(name)

    def _account(self, name: str, now: float) -> None:
        self._rs[name] += self._rs_n[name] * (now - self._rs_t[name])
        self._rs_t[name] = now
        self._rs_n[name] = self.runtime.pool.num_replicas(name)

    def finalize(self, horizon: float) -> None:
        """Close the ledger at the scenario horizon."""
        for name in list(self._rs):
            if horizon > self._rs_t[name]:
                self._account(name, horizon)

    def replica_seconds(self, model: Optional[str] = None) -> float:
        if model is not None:
            return self._rs.get(model, 0.0)
        return sum(self._rs.values())

    # ------------------------------------------------------------------
    def _decide(self, name: str, now: float) -> int:
        """The replica count ``name`` should have at ``now``."""
        rt, pol = self.runtime, self.policy
        cur = rt.pool.num_replicas(name)
        depth = rt.queue.pending(name)
        lat = rt.telemetry.latencies(model=name, since=now - pol.window_s)
        p99 = percentile(lat, 99) if lat else None
        slo = rt.profiles()[name].slo_s

        # The pool is the hard ceiling: clamping here (not just inside
        # scale_to) keeps a saturated pool from emitting no-op scale
        # events every tick and perpetually resetting the cooldown.
        ceiling = min(pol.max_replicas, len(rt.pool.workers))
        queue_pressure = depth > pol.queue_high_per_replica * cur
        slo_breach = (
            slo is not None and p99 is not None and p99 > pol.slo_scale_up * slo
        )
        if queue_pressure or slo_breach:
            by_queue = math.ceil(depth / pol.queue_high_per_replica)
            # Never *shrink* on the overload branch: if the deployment was
            # placed above the policy ceiling, retiring replicas exactly
            # when load spikes would be the opposite of the intent.
            return max(cur, min(ceiling, max(cur + 1, by_queue)))

        cooled = (
            now - self._last_change.get(name, 0.0)
            >= pol.scale_down_cooldown_s
        )
        tail_ok = slo is None or p99 is None or p99 < pol.slo_scale_down * slo
        queue_ok = depth <= pol.queue_low_per_replica * max(cur - 1, 1)
        if cur > pol.min_replicas and cooled and tail_ok and queue_ok:
            return cur - 1
        return max(cur, pol.min_replicas)

    def evaluate(self, now: float) -> List[Dict[str, float]]:
        """Run one control tick; returns the scaling actions taken."""
        actions: List[Dict[str, float]] = []
        for name in self.runtime.pool.model_names():
            cur = self.runtime.pool.num_replicas(name)
            desired = self._decide(name, now)
            if desired == cur:
                continue
            self._account(name, now)
            prewarm_s = (
                self.runtime.service.prewarm_latency(name)
                if desired > cur
                else 0.0
            )
            delta = self.runtime.pool.scale_to(
                name, desired, now, prewarm_latency_s=prewarm_s
            )
            self._rs_n[name] = self.runtime.pool.num_replicas(name)
            self._last_change[name] = now
            ready_at = now
            for wid in delta["added"]:
                ready_at = max(
                    ready_at, self.runtime.pool.workers[wid].busy_until
                )
            action = {
                "t": now,
                "model": name,
                "from": cur,
                "to": self.runtime.pool.num_replicas(name),
                "prewarm_s": prewarm_s if delta["cold"] else 0.0,
                "ready_at": ready_at,
            }
            self.events.append(action)
            actions.append(action)
        return actions

    def summary(self) -> Dict[str, object]:
        return {
            "events": [dict(e) for e in self.events],
            "num_scale_ups": sum(1 for e in self.events if e["to"] > e["from"]),
            "num_scale_downs": sum(
                1 for e in self.events if e["to"] < e["from"]
            ),
            "replica_seconds": {
                name: self._rs.get(name, 0.0) for name in sorted(self._rs)
            },
            "final_replicas": {
                name: self.runtime.pool.num_replicas(name)
                for name in self.runtime.pool.model_names()
            },
        }


# ----------------------------------------------------------------------
# The discrete-event serving loop
# ----------------------------------------------------------------------
_ARRIVAL, _WORKER_FREE, _DEADLINE, _SCALE = 0, 1, 2, 3


class ServingRuntime:
    """One serving deployment: models, pool, batcher, queue, telemetry.

    Use one runtime instance per scenario run — worker availability and
    cache state deliberately persist across requests within a run.
    ``deadline_s`` gives every request an absolute deadline of
    ``arrival + deadline_s``, after which it is dropped as timed out
    rather than served late (None: no deadline).
    """

    def __init__(
        self,
        pool: ExecutorPool,
        policy: Optional[BatchPolicy] = None,
        queue_capacity: int = 256,
        autoscaler: Optional[AutoscalerPolicy] = None,
        deadline_s: Optional[float] = None,
    ):
        if deadline_s is not None and not 0 < deadline_s < math.inf:
            raise ValueError(f"deadline_s must be finite and > 0, got {deadline_s}")
        self.pool = pool
        self.batcher = MicroBatcher(policy)
        self.queue = AdmissionQueue(queue_capacity)
        self.service = ServiceModel()
        self.clock = SimulatedClock()
        self.telemetry = Telemetry()
        self.autoscaler = (
            Autoscaler(self, autoscaler) if autoscaler is not None else None
        )
        self.deadline_s = deadline_s
        self._profiles: Dict[str, ModelProfile] = {}
        self._input_shapes: Dict[str, Tuple[int, ...]] = {}
        self._req_ids = itertools.count()

    # ------------------------------------------------------------------
    def register_model(self, profile: ModelProfile) -> List[int]:
        """Place a model on the pool (weights prewarmed) and register its
        latency profile.

        Validates the profile eagerly (GEMM layers present, ``input_hw``
        given for conv models) so a bad profile fails here, not at the
        first arrival mid-scenario, and records the model's request input
        shape: ``(in_features,)`` for a Linear-first model, ``(C_in, H,
        W)`` for a conv-first one (a stacked batch of either is what
        ``run_sequential`` expects).
        """
        model_layer_shapes(profile.name, profile.model, 1, profile.input_hw)
        first = next(
            layer for layer in profile.model if isinstance(layer, (Linear, Conv2d))
        )
        self._input_shapes[profile.name] = (
            (first.in_features,)
            if isinstance(first, Linear)
            else (first.in_channels, *profile.input_hw)
        )
        self._profiles[profile.name] = profile
        self.service.register(profile)
        return self.pool.place(profile.name, profile.model, profile.replicas)

    def profiles(self) -> Dict[str, ModelProfile]:
        return dict(self._profiles)

    # ------------------------------------------------------------------
    def run(self, scenario, seed: int = 0) -> Telemetry:
        """Drive a full scenario through the deployment; returns telemetry.

        Each request's input is drawn from ``np.random.default_rng(seed)``:
        a standard-normal row (or image, for conv-first models) matching
        the model's first GEMM layer.  Every admitted request reaches a
        terminal state, so a non-empty queue at the end is a bug.
        """
        rng = np.random.default_rng(seed)
        heap: List[Tuple[float, int, int, object]] = []
        seq = itertools.count()
        # Times with a _DEADLINE wake-up pending.  A second wake-up at an
        # armed time would only re-run a drain that dispatches nothing,
        # and every drain re-arms its timer, so duplicates would multiply.
        armed: set = set()

        def push(t: float, kind: int, payload: object) -> None:
            if kind == _DEADLINE:
                # Exact membership is intended: a duplicate wake-up carries
                # the identical float (oldest arrival + max_wait_s).
                if t in armed:
                    return
                armed.add(t)
            heapq.heappush(heap, (t, kind, next(seq), payload))

        last_arrival = 0.0
        for arrival in scenario.arrivals:
            t, model = arrival[0], arrival[1]
            priority = arrival[2] if len(arrival) > 2 else 0
            if model not in self._profiles:
                raise KeyError(
                    f"scenario names model {model!r} but it is not registered"
                )
            push(t, _ARRIVAL, (model, priority))
            last_arrival = max(last_arrival, t)

        if self.autoscaler is not None and scenario.arrivals:
            # One pending tick at a time (the handler re-arms the next)
            # keeps the heap O(1) in ticks even when the horizon spans
            # millions of control intervals.  The payload carries the tick
            # index so every tick lands at exactly k * interval_s
            # (re-accumulating `now + interval` would drift by ulps and
            # perturb threshold decisions).
            self.autoscaler.start(0.0)
            push(self.autoscaler.policy.interval_s, _SCALE, 1)

        while heap:
            t, kind, _, payload = heapq.heappop(heap)
            now = self.clock.advance_to(t)
            if kind == _ARRIVAL:
                model, priority = payload
                self._admit(model, priority, now, rng)
            elif kind == _WORKER_FREE:
                self._complete(payload)
            elif kind == _DEADLINE:
                armed.discard(t)
            elif kind == _SCALE:
                for action in self.autoscaler.evaluate(now):
                    if action["ready_at"] > now:
                        # Wake the loop when the prewarmed replica comes
                        # online so waiting batches dispatch immediately.
                        push(action["ready_at"], _DEADLINE, None)
                # Keep ticking while arrivals are still coming OR a
                # backlog is draining — a burst shorter than one interval
                # and an overhang past the last arrival both still need
                # the control loop.  Stops once the queue is empty after
                # the final arrival, so the event loop terminates.
                next_tick = (payload + 1) * self.autoscaler.policy.interval_s
                if time_at_or_before(next_tick, last_arrival) or self.queue.depth > 0:
                    push(next_tick, _SCALE, payload + 1)
            # _DEADLINE events exist only to trigger a drain.
            self._drain(now, push)
            self.telemetry.sample_queue_depth(now, self.queue.depth)

        if self.queue.depth:
            raise RuntimeError(
                f"event loop ended with {self.queue.depth} requests stranded"
            )
        return self.telemetry

    # ------------------------------------------------------------------
    def _admit(
        self, model: str, priority: int, now: float, rng: np.random.Generator
    ) -> None:
        x = rng.standard_normal(self._input_shapes[model])
        request = InferenceRequest(
            next(self._req_ids), model, x, now, priority=priority
        )
        if self.deadline_s is not None:
            request.deadline = now + self.deadline_s
        if not self.queue.offer(request):
            self.telemetry.record_rejection(request)
        for victim in self.queue.drain_evicted():
            self.telemetry.record_rejection(victim)

    # ------------------------------------------------------------------
    def _drain(self, now: float, push) -> None:
        """Dispatch every batch that is ready and has a free worker.

        Runs once per popped event (one ``queue.expire`` per poll), then
        arms a wake-up for the earliest batching deadline after ``now``.
        ``push`` keeps one pending wake-up per instant, so re-arming the
        same deadline from every drain adds no events.
        """
        for request in self.queue.expire(now):
            self.telemetry.record_timeout(request)
        while True:
            dispatched = False
            # Snapshot: ready_model recomputes triggers after each pop;
            # models whose replicas are all busy get excluded and retried
            # when a worker-free event fires.
            tried = set()
            model = self.batcher.ready_model(self.queue, now, tried)
            while model is not None:
                worker = self.pool.route(model, now)
                if worker is not None:
                    self._dispatch(model, worker, now, push)
                    dispatched = True
                    break
                tried.add(model)
                model = self.batcher.ready_model(self.queue, now, tried)
            if not dispatched:
                break
        dl = self.batcher.next_deadline(self.queue, now)
        if dl is not None:
            push(dl, _DEADLINE, None)

    def _dispatch(self, model: str, worker, now: float, push) -> None:
        batch = self.batcher.take_batch(self.queue, model, now)
        for request in self.batcher.drain_expired():
            self.telemetry.record_timeout(request)
        if not batch:
            return  # every popped request had expired
        service_s = self.service.batch_latency(model, len(batch))
        outputs = worker.run_batch(
            model, self._profiles[model].model, [r.x for r in batch], now, service_s
        )
        done = now + service_s
        for i, request in enumerate(batch):
            request.status = RequestStatus.DISPATCHED
            request.dispatch_time = now
            request.completion_time = done
            request.batch_size = len(batch)
            request.worker_id = worker.worker_id
            request.output = outputs[i]
        self.telemetry.record_batch(
            model, batch, worker.worker_id, now, service_s
        )
        push(done, _WORKER_FREE, batch)

    def _complete(self, batch: List[InferenceRequest]) -> None:
        for request in batch:
            request.status = RequestStatus.COMPLETED
            self.telemetry.record_completion(request)

    # ------------------------------------------------------------------
    def report(self, scenario, slo_s: Optional[float] = None) -> Dict[str, object]:
        """Full serving report for a completed run.

        Includes the aggregate summary, per-model latency percentiles,
        pool/cache stats, and ``analytic_consistency``: every recorded
        batch service time repriced from scratch by a non-strict
        :class:`HardwareAttributionProfiler`, so drift between dispatch
        accounting and the hardware model shows up as a nonzero
        ``max_abs_error_s`` instead of an exception.
        """
        horizon = max(scenario.duration_s, self.telemetry.makespan())
        if slo_s is None:
            slos = [
                p.slo_s for p in self._profiles.values() if p.slo_s is not None
            ]
            slo_s = min(slos) if slos else None
        out = self.telemetry.summary(
            horizon, slo_s=slo_s, cache_stats=self.pool.cache_stats()
        )
        out["offered_rate_rps"] = scenario.offered_rate
        out["offered_requests"] = scenario.num_requests
        out["per_model"] = {
            name: summarize_latencies(self.telemetry.latencies(name))
            for name in self._profiles
        }
        out["workers"] = self.pool.worker_stats()
        if self.autoscaler is not None:
            self.autoscaler.finalize(horizon)
            out["autoscaler"] = self.autoscaler.summary()
            out["autoscaler"]["replica_seconds_total"] = (
                self.autoscaler.replica_seconds()
            )
        check = HardwareAttributionProfiler(
            self.service.accelerator, strict=False
        ).attribute_runtime(self._profiles, self.telemetry)
        out["analytic_consistency"] = {
            "max_abs_error_s": check["max_abs_error_s"],
            "checked_batches": check["checked_spans"],
        }
        return out
