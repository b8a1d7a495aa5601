"""Dynamic micro-batching scheduler with priority-aware batch forming.

The scheduler coalesces compatible requests (same model) into
micro-batches dispatched through the weight-programmed executor as one
batched GEMM stream.  A batch launches when either

* ``max_batch_size`` requests for one model are waiting (size trigger), or
* the oldest waiting request of a model has waited ``max_wait_s``
  (deadline trigger — bounds the latency cost of waiting for company),

and a worker holding a replica of that model is free.  ``max_wait_s = 0``
with ``max_batch_size = 1`` degenerates to classic batch-1 serving, which
the benchmarks use as the baseline.

**Priorities.** Among *ready* models, dispatch order is decided by
effective priority: each waiting request scores
``priority + aging_rate_per_s * wait_time`` and a model is ranked by its
best waiting score.  Higher classes therefore preempt the head of the
dispatch order, while the aging term guarantees a low-class request
eventually outranks fresh high-class arrivals (no starvation — with
``aging_rate_per_s > 0`` a request gains one full class per
``1 / aging_rate_per_s`` seconds of waiting).  The same scoring orders
requests *within* a batch via :meth:`AdmissionQueue.pop_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .clock import time_at_or_before
from .request import AdmissionQueue, InferenceRequest, RequestStatus
from .traffic import _check_finite

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs.

    ``aging_rate_per_s`` converts waiting time into priority: a request's
    effective class grows by ``aging_rate_per_s * wait_s``.  ``0`` keeps
    strict class order (starvation possible under sustained overload).
    """

    max_batch_size: int = 32
    max_wait_s: float = 2e-6
    aging_rate_per_s: float = 0.0

    def __post_init__(self):
        _check_finite(**vars(self))
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.aging_rate_per_s < 0:
            raise ValueError(
                f"aging_rate_per_s must be >= 0, got {self.aging_rate_per_s}"
            )


class MicroBatcher:
    """Decides which model's waiting requests form the next micro-batch."""

    def __init__(self, policy: Optional[BatchPolicy] = None):
        self.policy = policy or BatchPolicy()
        self._expired: List[InferenceRequest] = []

    # ------------------------------------------------------------------
    def next_deadline(
        self, queue: AdmissionQueue, now: float
    ) -> Optional[float]:
        """Earliest launch deadline strictly after ``now``, or None.

        A model's launch deadline is its oldest arrival plus
        ``max_wait_s``.  A deadline at or before ``now`` needs no timer:
        its model was either dispatched by the drain that asks, or has
        every replica busy and wakes on a worker-free event.  Skipping it
        keeps such a blocked model from hiding another model's future
        deadline.
        """
        wait = self.policy.max_wait_s
        best: Optional[float] = None
        for _, _, oldest in queue.waiting():
            dl = oldest + wait
            if dl > now and (best is None or dl < best):
                best = dl
        return best

    def urgency(self, queue: AdmissionQueue, model: str, now: float) -> float:
        """Best effective priority among ``model``'s waiting requests.

        ``priority + aging_rate_per_s * wait``; the per-class FIFO heads
        are sufficient (within a class, the oldest request scores best).
        """
        rate = self.policy.aging_rate_per_s
        return max(
            (
                r.priority + rate * (now - r.arrival_time)
                for r in queue.class_heads(model)
            ),
            default=-float("inf"),
        )

    def ready_model(
        self, queue: AdmissionQueue, now: float, excluded=()
    ) -> Optional[str]:
        """A model whose waiting requests should launch *now*, or None.

        A model is ready when its pending count fills a batch or its
        oldest request's deadline has expired (up to relative timestamp
        tolerance — an absolute epsilon underflows at large simulated
        times).  Among ready models the highest urgency wins (effective
        priority with aging), ties broken by earliest deadline — i.e. the
        model whose head request has waited longest.  ``excluded`` models
        are skipped (the runtime excludes models whose replicas are all
        busy).
        """
        size, wait = self.policy.max_batch_size, self.policy.max_wait_s
        best: Optional[Tuple[float, float, str]] = None
        for model, pending, oldest in queue.waiting():
            if model in excluded:
                continue
            dl = oldest + wait
            if pending >= size or time_at_or_before(dl, now):
                key = (-self.urgency(queue, model, now), dl, model)
                if best is None or key < best:
                    best = key
        return best[2] if best else None

    def take_batch(
        self, queue: AdmissionQueue, model: str, now: Optional[float] = None
    ) -> List[InferenceRequest]:
        """Pop the micro-batch for ``model`` (effective-priority order).

        Requests whose per-request ``deadline`` has already passed are
        filtered out *at dispatch* (marked ``TIMED_OUT`` and parked for
        :meth:`drain_expired`), and the batch refills from the queue
        until it is full or the queue runs dry.  Under ``ServingRuntime``
        the filter cannot fire: its drain runs ``queue.expire(now)``
        first, at the same ``now`` (0 of 187 ``drain_expired`` calls
        returned a request on the ``deadline_overload`` digest run).  It
        stays while the benchmark traces ``drain_expired`` as a boundary.
        """
        batch: List[InferenceRequest] = []
        while len(batch) < self.policy.max_batch_size:
            want = self.policy.max_batch_size - len(batch)
            popped = queue.pop_batch(
                model,
                want,
                now=now,
                aging_rate=self.policy.aging_rate_per_s,
            )
            if not popped:
                break
            for r in popped:
                if (
                    now is not None
                    and r.deadline is not None
                    and not time_at_or_before(now, r.deadline)
                ):
                    r.status = RequestStatus.TIMED_OUT
                    self._expired.append(r)
                else:
                    batch.append(r)
        return batch

    def drain_expired(self) -> List[InferenceRequest]:
        """Deadline-expired requests filtered since the last drain."""
        out, self._expired = self._expired, []
        return out
