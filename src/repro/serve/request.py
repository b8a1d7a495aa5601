"""Request/response abstraction and the bounded admission queue.

A serving deployment accepts :class:`InferenceRequest`\\ s — one input row
for one named model — through an :class:`AdmissionQueue` with a hard
capacity bound.  Requests past the bound are rejected immediately
(load-shedding at admission, not after queueing delay), which keeps tail
latency of admitted traffic bounded under overload.

Every request carries a **priority class** (a small int, higher = more
important; see :class:`Priority` for the canonical three).  The queue is
organised per model *and* per class:

* batches only ever mix requests for the same model (only those can share
  a batched GEMM stream through the weight-programmed executor);
* load shedding is class-aware — when the queue is full, an arriving
  request may **evict** the youngest waiting request of a strictly lower
  class instead of being rejected, so overload sheds batch traffic before
  interactive traffic;
* within a class, FIFO order is preserved, and the micro-batching
  scheduler (:mod:`repro.serve.batcher`) drains classes highest-first
  with an aging term that keeps low classes from starving.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Priority",
    "RequestStatus",
    "InferenceRequest",
    "AdmissionQueue",
]


class Priority:
    """Canonical priority classes (any int works; higher = more urgent)."""

    BATCH = 0
    STANDARD = 1
    INTERACTIVE = 2


class RequestStatus:
    """Lifecycle states of a request (plain strings, cheap to log).

    ``RUNNING``/``PREEMPTED`` belong to autoregressive decode sessions
    (:mod:`repro.serve.engine`): a session alternates between holding a
    slot in the running batch and being preempted back to the waiting
    queue when a higher class needs its KV-cache blocks.
    """

    QUEUED = "queued"
    REJECTED = "rejected"
    EVICTED = "evicted"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COMPLETED = "completed"
    # Failure-plane terminal states (PR 6): a request whose deadline
    # expired before completion, and one abandoned after its retry
    # budget was exhausted by worker failures.
    TIMED_OUT = "timed_out"
    FAILED = "failed"


@dataclass(eq=False)
class InferenceRequest:
    """One inference call: an input row destined for a named model.

    Timing fields are simulated-clock seconds, filled in as the request
    moves through the runtime; ``output`` receives the model's output row
    when the batch it rode in completes.  ``priority`` is the request's
    class (higher = more important); the default ``Priority.BATCH`` keeps
    single-class deployments identical to the pre-priority runtime.
    Requests compare and hash by identity, never by field values.
    """

    request_id: int
    model: str
    x: np.ndarray  # (input_dim,) one input row
    arrival_time: float
    priority: int = Priority.BATCH
    status: str = RequestStatus.QUEUED
    dispatch_time: Optional[float] = None
    completion_time: Optional[float] = None
    batch_size: Optional[int] = None
    worker_id: Optional[int] = None
    output: Optional[np.ndarray] = None
    # Failure plane: how many times this request was re-dispatched after
    # a worker failure, and the absolute simulated time after which it
    # is no longer worth serving (None = no deadline).
    retries: int = 0
    deadline: Optional[float] = None

    @property
    def queue_latency(self) -> Optional[float]:
        if self.dispatch_time is None:
            return None
        return self.dispatch_time - self.arrival_time

    @property
    def total_latency(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time


class AdmissionQueue:
    """Bounded admission queue, sharded per model and per priority class.

    ``capacity`` bounds the *total* number of waiting requests across all
    models and classes.  ``offer`` at capacity first tries to evict the
    youngest waiting request of the lowest class strictly below the
    arrival's class (class-aware shedding); if no such victim exists the
    arrival itself is rejected.  Evicted victims are collected via
    :meth:`drain_evicted` so the runtime can record them.  Per-class FIFO
    order is preserved so batches always contain the oldest waiting
    requests of each class.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # model -> priority -> FIFO deque (class dicts kept sorted on use).
        self._queues: "OrderedDict[str, Dict[int, Deque[InferenceRequest]]]" = (
            OrderedDict()
        )
        self._depth = 0
        self.admitted = 0
        self.rejected = 0
        self.evicted = 0
        self._evicted_pending: List[InferenceRequest] = []

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return self._depth

    def pending(self, model: str) -> int:
        classes = self._queues.get(model)
        if not classes:
            return 0
        return sum(len(q) for q in classes.values())

    def pending_by_class(self, model: str) -> Dict[int, int]:
        classes = self._queues.get(model, {})
        return {p: len(q) for p, q in sorted(classes.items()) if q}

    def models_waiting(self) -> List[str]:
        """Models with at least one waiting request, oldest-queue first."""
        return [
            m
            for m, classes in self._queues.items()
            if any(classes.values())
        ]

    def oldest_arrival(self, model: str) -> Optional[float]:
        classes = self._queues.get(model)
        if not classes:
            return None
        heads = [q[0].arrival_time for q in classes.values() if q]
        return min(heads) if heads else None

    def class_heads(self, model: str) -> List[InferenceRequest]:
        """Oldest waiting request of each class of ``model``."""
        classes = self._queues.get(model, {})
        return [q[0] for q in classes.values() if q]

    # ------------------------------------------------------------------
    def offer(self, request: InferenceRequest, front: bool = False) -> bool:
        """Admit ``request``, evicting a lower-class victim if needed.

        Returns True when the request was admitted.  At capacity, the
        youngest waiting request of the lowest waiting class is evicted
        *iff* its class is strictly below the arrival's; otherwise the
        arrival is rejected (same-class traffic never preempts itself, so
        a single-class deployment behaves exactly like the plain bounded
        FIFO it used to be).

        ``front=True`` re-enqueues at the *head* of the request's class
        (head-of-class requeue): a retry whose first dispatch was lost to
        a worker failure has already waited its turn once and should not
        queue behind younger same-class arrivals.
        """
        if self._depth >= self.capacity:
            victim = self._evict_candidate(request.priority)
            if victim is None:
                request.status = RequestStatus.REJECTED
                self.rejected += 1
                return False
            self._remove(victim)
            victim.status = RequestStatus.EVICTED
            self.evicted += 1
            self._evicted_pending.append(victim)
        classes = self._queues.setdefault(request.model, {})
        q = classes.setdefault(request.priority, deque())
        if front:
            q.appendleft(request)
        else:
            q.append(request)
        self._depth += 1
        self.admitted += 1
        request.status = RequestStatus.QUEUED
        return True

    def drain_evicted(self) -> List[InferenceRequest]:
        """Victims evicted since the last drain (for telemetry)."""
        out, self._evicted_pending = self._evicted_pending, []
        return out

    def expire(self, now: float) -> List[InferenceRequest]:
        """Remove and return waiting requests whose deadline has passed.

        Per-class FIFO order of the survivors is preserved.  The runtime
        sweeps this on its clock so a request nobody will ever dispatch
        (e.g. queued behind a fleet outage) still reaches a terminal
        state instead of stranding the event loop.
        """
        from .clock import time_at_or_before

        expired: List[InferenceRequest] = []
        for classes in self._queues.values():
            for q in classes.values():
                if not q:
                    continue
                survivors = [
                    r
                    for r in q
                    if r.deadline is None or time_at_or_before(now, r.deadline)
                ]
                if len(survivors) != len(q):
                    expired.extend(
                        r
                        for r in q
                        if r.deadline is not None
                        and not time_at_or_before(now, r.deadline)
                    )
                    q.clear()
                    q.extend(survivors)
        for r in expired:
            r.status = RequestStatus.TIMED_OUT
            self._depth -= 1
        return expired

    def _evict_candidate(self, priority: int) -> Optional[InferenceRequest]:
        """Youngest waiting request of the lowest class strictly below
        ``priority``, searched across all models."""
        best: Optional[InferenceRequest] = None
        for classes in self._queues.values():
            for p, q in classes.items():
                if p >= priority or not q:
                    continue
                cand = q[-1]  # youngest of this class keeps FIFO fairness
                if (
                    best is None
                    or p < best.priority
                    or (p == best.priority and cand.arrival_time > best.arrival_time)
                ):
                    best = cand
        return best

    def _remove(self, request: InferenceRequest) -> None:
        q = self._queues[request.model][request.priority]
        q.remove(request)
        self._depth -= 1

    def pop_batch(
        self,
        model: str,
        max_n: int,
        now: Optional[float] = None,
        aging_rate: float = 0.0,
    ) -> List[InferenceRequest]:
        """Pop up to ``max_n`` waiting requests of ``model``.

        Requests drain in *effective-priority* order: the head of each
        class scores ``priority + aging_rate * (now - arrival)`` and the
        highest-scoring head pops first (ties: higher class, then older
        arrival).  With ``aging_rate = 0`` (or ``now`` omitted) this is
        plain class-descending order, FIFO within a class — so higher
        classes preempt the dispatch head, while a positive aging rate
        lets a long-waiting low-class head overtake and bounds starvation.
        """
        classes = self._queues.get(model)
        if not classes:
            return []
        batch: List[InferenceRequest] = []
        while len(batch) < max_n:
            best_p: Optional[int] = None
            best_score: Optional[Tuple[float, int, float]] = None
            for p, q in classes.items():
                if not q:
                    continue
                head = q[0]
                age = (now - head.arrival_time) if now is not None else 0.0
                score = (p + aging_rate * age, p, -head.arrival_time)
                if best_score is None or score > best_score:
                    best_score = score
                    best_p = p
            if best_p is None:
                break
            batch.append(classes[best_p].popleft())
        self._depth -= len(batch)
        return batch
