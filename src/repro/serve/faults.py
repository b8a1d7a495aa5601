"""Deterministic fault injection and fleet health monitoring.

Serving fleets fail: replicas crash, workers wedge or slow down, and —
this being a *photonic RRNS* accelerator — compute itself suffers
transient residue-channel faults at rates the paper's redundant-RNS
machinery (:mod:`repro.rns.rrns`, :mod:`repro.core.fault_tolerant`)
detects and mostly corrects.  This module makes all of that a
first-class, **replayable** part of the simulation:

* :class:`FaultEvent` — one scheduled fault: a replica crash, a wedged
  (stuck) worker, a temporarily slow worker, a transient RRNS compute
  fault (corrected or uncorrectable), or the loss of one session's KV
  blocks.
* :class:`FaultPlan` — an immutable, time-sorted schedule of events.
  Plans are built either **scripted** (explicit kill times — the bench
  storm) or **drawn** from a seeded generator
  (:meth:`FaultPlan.transient_storm`), optionally at rates derived from
  the RRNS code's analytic fault probabilities
  (:func:`repro.core.fault_tolerant.rrns_fault_rates`).  The same seed
  always yields the identical timeline (:meth:`FaultPlan.signature`),
  which is what makes fault runs regression-testable.
* :class:`FaultInjector` — the replay cursor the token engine
  (:class:`~repro.serve.engine.TokenServingEngine`) polls: events due
  at-or-before the simulated ``now`` fire exactly once, in order.
* :class:`HealthPolicy` + :class:`FleetMonitor` — heartbeat-style
  failure detection on the simulated clock.  A crashed or stuck worker
  stops responding and drops out of routing at once; the monitor moves
  it ``healthy → suspect`` after ``suspect_after_s`` without a heartbeat
  and ``suspect → dead`` after ``dead_after_s``.  The engine records
  both transitions and reacts to *dead*: it recovers the sessions homed
  on the worker and replaces the replica.  Detection latency is
  therefore an explicit, tunable part of every unavailability window
  rather than an implementation accident.

Nothing here touches wall-clock time or global RNG state: fault draws
come from ``np.random.default_rng(seed)`` at plan-build time, so a plan
is data, not behaviour, and two runs over the same plan and traffic are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .clock import time_at_or_before

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FleetMonitor",
    "HealthPolicy",
    "WorkerHealth",
]


class FaultKind:
    """Canonical fault kinds (plain strings, cheap to log)."""

    REPLICA_CRASH = "replica_crash"  # worker dies; its KV / in-flight work is lost
    WORKER_STUCK = "worker_stuck"  # worker wedges: unresponsive, work never completes
    WORKER_SLOW = "worker_slow"  # worker degrades: service times inflate for a while
    TRANSIENT = "transient_fault"  # RRNS-detected compute fault on one session's step
    KV_LOSS = "kv_loss"  # one session's KV blocks are corrupted/lost

    ALL = (REPLICA_CRASH, WORKER_STUCK, WORKER_SLOW, TRANSIENT, KV_LOSS)


class WorkerHealth:
    """Health states of the replica state machine (see :class:`FleetMonitor`)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a deterministic *selector*, not a raw id: worker-kind
    events index the pool's live workers modulo their count, and
    session-kind events index the engine's running sessions modulo
    theirs — so a plan stays meaningful (and replayable) whatever ids
    the run assigns.  ``severity`` is the slowdown factor for
    ``WORKER_SLOW`` and the corrected/uncorrectable flag for
    ``TRANSIENT`` (``>= 1.0`` means uncorrectable, i.e. past the RRNS
    ``floor(r/2)`` correction bound); ``duration_s`` only applies to
    ``WORKER_SLOW``.
    """

    t: float
    kind: str
    target: int = 0
    severity: float = 0.0
    duration_s: float = 0.0

    def __post_init__(self):
        if self.kind not in FaultKind.ALL:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick from {FaultKind.ALL}"
            )
        if not np.isfinite(self.t) or self.t < 0:
            raise ValueError(f"fault time must be finite and >= 0, got {self.t}")
        if self.target < 0:
            raise ValueError(f"target selector must be >= 0, got {self.target}")
        if self.kind == FaultKind.WORKER_SLOW:
            if self.severity <= 1.0:
                raise ValueError(
                    "a slow worker needs a slowdown factor > 1, got "
                    f"{self.severity}"
                )
            if self.duration_s <= 0:
                raise ValueError(
                    f"duration_s must be > 0 for {self.kind}, got "
                    f"{self.duration_s}"
                )
        elif self.duration_s:
            raise ValueError(f"duration_s only applies to worker_slow events")

    @property
    def uncorrectable(self) -> bool:
        """For ``TRANSIENT`` events: past the RRNS correction bound."""
        return self.severity >= 1.0

    def key(self) -> Tuple[float, str, int, float, float]:
        return (self.t, self.kind, self.target, self.severity, self.duration_s)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted fault schedule.

    Build scripted plans from explicit events, storms from a seed, or
    merge several (:meth:`merge`); :meth:`signature` is the replayable
    identity two same-seed plans must share.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.t, e.kind, e.target))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def signature(self) -> Tuple[Tuple[float, str, int, float, float], ...]:
        """A hashable identity of the full timeline (the replay check)."""
        return tuple(e.key() for e in self.events)

    def merge(self, *others: "FaultPlan") -> "FaultPlan":
        events: List[FaultEvent] = list(self.events)
        for other in others:
            events.extend(other.events)
        return FaultPlan(tuple(events), seed=self.seed)

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def replica_kills(
        cls,
        kills: Iterable[Tuple[float, int]],
        kind: str = FaultKind.REPLICA_CRASH,
    ) -> "FaultPlan":
        """Scripted replica failures: ``(time, live-worker selector)`` pairs."""
        if kind not in (FaultKind.REPLICA_CRASH, FaultKind.WORKER_STUCK):
            raise ValueError(
                f"replica kills must be crash or stuck events, got {kind!r}"
            )
        return cls(
            tuple(FaultEvent(float(t), kind, int(sel)) for t, sel in kills)
        )

    @classmethod
    def slow_worker(
        cls, t: float, selector: int, factor: float, duration_s: float
    ) -> "FaultPlan":
        """One worker serving ``factor`` times slower for ``duration_s``."""
        return cls(
            (
                FaultEvent(
                    float(t),
                    FaultKind.WORKER_SLOW,
                    int(selector),
                    severity=float(factor),
                    duration_s=float(duration_s),
                ),
            )
        )

    @classmethod
    def transient_storm(
        cls,
        start: float,
        stop: float,
        rate_per_s: float,
        p_uncorrectable: float,
        seed: int,
        kv_loss_share: float = 0.0,
    ) -> "FaultPlan":
        """A seeded Poisson burst of transient compute faults.

        Events arrive at ``rate_per_s`` in ``[start, stop)``; each is an
        uncorrectable RRNS fault with probability ``p_uncorrectable``
        (otherwise the redundant residues absorb it — corrected, cost
        free) and, with probability ``kv_loss_share``, escalates to a
        KV-block-loss event instead (a corrupted cache line the decode
        path cannot repair in place).  The draw is fully determined by
        ``seed``: same arguments, same timeline, always — see
        :meth:`signature`.
        """
        if stop < start:
            raise ValueError(f"need start <= stop, got [{start}, {stop})")
        if rate_per_s < 0:
            raise ValueError(f"rate_per_s must be >= 0, got {rate_per_s}")
        if not 0.0 <= p_uncorrectable <= 1.0:
            raise ValueError(
                f"p_uncorrectable must be in [0, 1], got {p_uncorrectable}"
            )
        if not 0.0 <= kv_loss_share <= 1.0:
            raise ValueError(
                f"kv_loss_share must be in [0, 1], got {kv_loss_share}"
            )
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        t = float(start)
        if rate_per_s > 0:
            while True:
                t += float(rng.exponential(1.0 / rate_per_s))
                if t >= stop:
                    break
                target = int(rng.integers(2**31))
                escalate = float(rng.random()) < kv_loss_share
                hard = float(rng.random()) < p_uncorrectable
                if escalate:
                    events.append(FaultEvent(t, FaultKind.KV_LOSS, target))
                else:
                    events.append(
                        FaultEvent(
                            t,
                            FaultKind.TRANSIENT,
                            target,
                            severity=1.0 if hard else 0.0,
                        )
                    )
        return cls(tuple(events), seed=seed)

    @classmethod
    def from_rrns_rates(
        cls,
        rates: Dict[str, float],
        op_rate_per_s: float,
        start: float,
        stop: float,
        seed: int,
        kv_loss_share: float = 0.0,
    ) -> "FaultPlan":
        """A transient storm at the RRNS code's analytic fault rates.

        ``rates`` is the dict returned by
        :func:`repro.core.fault_tolerant.rrns_fault_rates` (per-output
        detection/correction probabilities for a given per-channel error
        rate); ``op_rate_per_s`` is how many protected outputs the fleet
        produces per simulated second.  Detected faults arrive at
        ``detected * op_rate_per_s`` and are uncorrectable with the
        code's conditional probability — so the storm's composition is
        *derived from the paper's fault model*, not hand-tuned.
        """
        for key in ("detected", "uncorrectable"):
            if key not in rates:
                raise ValueError(f"rates dict is missing {key!r}")
        if op_rate_per_s < 0:
            raise ValueError(f"op_rate_per_s must be >= 0, got {op_rate_per_s}")
        detected = float(rates["detected"])
        p_unc = float(rates["uncorrectable"]) / detected if detected > 0 else 0.0
        return cls.transient_storm(
            start,
            stop,
            rate_per_s=detected * op_rate_per_s,
            p_uncorrectable=p_unc,
            seed=seed,
            kv_loss_share=kv_loss_share,
        )


class FaultInjector:
    """Replay cursor over a :class:`FaultPlan`.

    The engine polls :meth:`due` with its simulated ``now``; every
    event fires exactly once, in timeline order.  ``applied`` keeps the
    fired prefix for telemetry and the replay test.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._idx = 0
        self.applied: List[FaultEvent] = []

    @property
    def exhausted(self) -> bool:
        return self._idx >= len(self.plan.events)

    def next_time(self) -> Optional[float]:
        """Timestamp of the next unfired event (None when exhausted)."""
        if self.exhausted:
            return None
        return self.plan.events[self._idx].t

    def due(self, now: float) -> List[FaultEvent]:
        """Events with ``t <= now`` (up to clock tolerance), fired once."""
        fired: List[FaultEvent] = []
        events = self.plan.events
        while self._idx < len(events) and time_at_or_before(
            events[self._idx].t, now
        ):
            fired.append(events[self._idx])
            self._idx += 1
        self.applied.extend(fired)
        return fired


# ----------------------------------------------------------------------
# Heartbeat-style failure detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HealthPolicy:
    """Failure-detection knobs of the fleet health state machine.

    A worker that has not responded for ``suspect_after_s`` of simulated
    time becomes *suspect* (it already receives no dispatches, and
    scale-down retires it first); after ``dead_after_s`` it is declared
    *dead* (sessions recovered, replica replaced).  Both are measured
    from the moment the worker stopped responding, so the unavailability
    a crash causes is at least the detection delay — the price of not
    having an oracle.
    """

    suspect_after_s: float = 1e-7
    dead_after_s: float = 3e-7

    def __post_init__(self):
        if self.suspect_after_s <= 0:
            raise ValueError(
                f"suspect_after_s must be > 0, got {self.suspect_after_s}"
            )
        if self.dead_after_s < self.suspect_after_s:
            raise ValueError(
                "need dead_after_s >= suspect_after_s, got "
                f"{self.dead_after_s} < {self.suspect_after_s}"
            )


class FleetMonitor:
    """Drives the ``healthy → suspect → dead`` state machine over a pool.

    :meth:`observe` is the heartbeat sweep: responsive workers refresh
    their lease; unresponsive ones age toward *suspect* then *dead*
    against :class:`HealthPolicy` thresholds.  Transitions are returned
    to the caller (the token engine recovers sessions and replaces the
    replica on *dead*) and kept in :attr:`transitions` for telemetry.
    ``observe`` is idempotent per state — a worker transitions each way
    exactly once.
    """

    def __init__(self, pool, policy: Optional[HealthPolicy] = None):
        self.pool = pool
        self.policy = policy or HealthPolicy()
        self.transitions: List[Dict[str, float]] = []
        # Observability hook (set by the engine when tracing):
        # each transition also lands as an instant on the worker track.
        self.tracer = None

    def next_transition_time(self) -> Optional[float]:
        """Earliest future suspect/dead declaration among failed workers."""
        times: List[float] = []
        for w in self.pool.workers:
            if w.responsive or w.fail_time is None:
                continue
            if w.health == WorkerHealth.HEALTHY:
                times.append(w.fail_time + self.policy.suspect_after_s)
            if w.health != WorkerHealth.DEAD:
                times.append(w.fail_time + self.policy.dead_after_s)
        return min(times) if times else None

    def observe(self, now: float) -> List[Dict[str, float]]:
        """One heartbeat sweep at simulated time ``now``."""
        out: List[Dict[str, float]] = []
        for w in self.pool.workers:
            if w.responsive:
                w.last_seen = now
                continue
            if w.health == WorkerHealth.DEAD or w.fail_time is None:
                continue
            silent_for = now - w.fail_time
            if (
                time_at_or_before(self.policy.dead_after_s, silent_for)
                and w.health != WorkerHealth.DEAD
            ):
                if w.health == WorkerHealth.HEALTHY:
                    # A coarse observation cadence can leap straight past
                    # the suspect window; record both hops.
                    out.append(self._transition(w, WorkerHealth.SUSPECT, now))
                out.append(self._transition(w, WorkerHealth.DEAD, now))
            elif (
                time_at_or_before(self.policy.suspect_after_s, silent_for)
                and w.health == WorkerHealth.HEALTHY
            ):
                out.append(self._transition(w, WorkerHealth.SUSPECT, now))
        return out

    def _transition(self, worker, to: str, now: float) -> Dict[str, float]:
        record = {
            "t": now,
            "worker_id": worker.worker_id,
            "from": worker.health,
            "to": to,
            "silent_for_s": now - worker.fail_time,
        }
        worker.health = to
        self.transitions.append(record)
        if self.tracer is not None:
            self.tracer.instant(
                "control",
                worker.worker_id,
                f"health:{to}",
                now,
                args={"from": record["from"], "silent_for_s": record["silent_for_s"]},
            )
        return record
