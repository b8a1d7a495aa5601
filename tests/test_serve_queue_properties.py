"""Generated operation sequences over the admission queue and the batcher.

``AdmissionQueue.waiting()`` is cached between changes to the queue, and
the batcher's ``ready_model`` and ``next_deadline`` read only that view.
Each example drives a small queue (capacity 6, so admissions get
rejected and lower classes evicted) with a generated list of ``offer``,
``pop_batch`` and ``expire`` operations.  After every operation the view
must equal a recomputation from ``pending()`` and ``class_heads()``, and
the batcher's two answers must equal references written from the
per-model definitions the view replaced: the waiting models in queue
order, their pending counts, ``oldest arrival + max_wait_s`` and the
best ``priority + aging_rate_per_s * wait`` among the class heads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.serve import AdmissionQueue, BatchPolicy, InferenceRequest, MicroBatcher
from repro.serve.clock import time_at_or_before
from repro.serve.request import RequestStatus

MODELS = ("a", "b", "c")
# Few distinct times, so equal arrivals and equal deadlines are common.
STEPS = (0.0, 0.0, 0.5, 1.0)

offers = st.tuples(
    st.just("offer"),
    st.sampled_from(MODELS),
    st.integers(0, 2),
    st.sampled_from(STEPS),
    st.sampled_from((None, 0.5, 1.0, 2.0)),
)
pops = st.tuples(
    st.just("pop"),
    st.sampled_from(MODELS),
    st.integers(1, 4),
    st.sampled_from(STEPS),
    st.sampled_from((0.0, 0.5, 2.0)),
)
expires = st.tuples(st.just("expire"), st.sampled_from(STEPS))
policies = st.builds(
    BatchPolicy,
    max_batch_size=st.integers(1, 4),
    max_wait_s=st.sampled_from((0.0, 0.5, 1.0)),
    aging_rate_per_s=st.sampled_from((0.0, 0.5, 2.0)),
)


def reference_waiting(queue, order):
    rows = []
    for model in order:
        pending = queue.pending(model)
        if pending:
            heads = queue.class_heads(model)
            rows.append((model, pending, min(r.arrival_time for r in heads)))
    return tuple(rows)


def reference_urgency(queue, model, now, rate):
    return max(
        (r.priority + rate * (now - r.arrival_time) for r in queue.class_heads(model)),
        default=-float("inf"),
    )


def reference_ready_model(queue, order, policy, now, excluded):
    best = None
    for model, pending, oldest in reference_waiting(queue, order):
        if model in excluded:
            continue
        dl = oldest + policy.max_wait_s
        if pending >= policy.max_batch_size or time_at_or_before(dl, now):
            urgency = reference_urgency(queue, model, now, policy.aging_rate_per_s)
            key = (-urgency, dl, model)
            if best is None or key < best:
                best = key
    return best[2] if best else None


def reference_next_deadline(queue, order, policy, now):
    deadlines = [
        oldest + policy.max_wait_s
        for _, _, oldest in reference_waiting(queue, order)
    ]
    return min((dl for dl in deadlines if dl > now), default=None)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    ops=st.lists(st.one_of(offers, pops, expires), min_size=1, max_size=40),
    policy=policies,
)
def test_waiting_view_and_batcher_match_the_per_model_definitions(ops, policy):
    queue = AdmissionQueue(capacity=6)
    batcher = MicroBatcher(policy)
    order = []  # models in the order of their first admission
    clock = 0.0
    next_id = 0
    for op in ops:
        if op[0] == "offer":
            _, model, priority, step, deadline_s = op
            clock += step
            request = InferenceRequest(
                next_id, model, np.zeros(1), clock, priority=priority
            )
            next_id += 1
            if deadline_s is not None:
                request.deadline = clock + deadline_s
            if queue.offer(request) and model not in order:
                order.append(model)
            for victim in queue.drain_evicted():
                assert victim.status == RequestStatus.EVICTED
        elif op[0] == "pop":
            _, model, n, step, rate = op
            popped = queue.pop_batch(model, n, now=clock + step, aging_rate=rate)
            assert len(popped) <= n
            assert all(r.model == model for r in popped)
        else:
            clock += op[1]
            for request in queue.expire(clock):
                assert not time_at_or_before(clock, request.deadline)

        view = queue.waiting()
        assert view == reference_waiting(queue, order)
        assert queue.depth == sum(count for _, count, _ in view)
        for now in (clock, clock + 0.5, clock + 2.0):
            for excluded in ((), ("a",), ("a", "b")):
                assert batcher.ready_model(
                    queue, now, excluded
                ) == reference_ready_model(queue, order, policy, now, excluded)
            assert batcher.next_deadline(queue, now) == reference_next_deadline(
                queue, order, policy, now
            )
