"""Serving runtime end-to-end: queue, batcher, dispatch, telemetry."""

import math

import numpy as np
import pytest

from repro.arch.inference import per_request_latency
from repro.core import PhotonicExecutor
from repro.nn import Linear, ReLU, Sequential
from repro.serve import (
    AdmissionQueue,
    BatchPolicy,
    ExecutorPool,
    InferenceRequest,
    MicroBatcher,
    ModelProfile,
    RequestStatus,
    ServiceModel,
    ServingRuntime,
    SimulatedClock,
    model_layer_shapes,
    multi_tenant_priority_scenario,
    poisson_scenario,
)
from repro.serve.traffic import Scenario


def stack(dims, seed=0):
    """Linear layers of widths ``dims`` with a ReLU between each pair."""
    rng = np.random.default_rng(seed)
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers += [Linear(d_in, d_out, rng=rng), ReLU()]
    return Sequential(*layers[:-1])


def mlp(seed=0, d_in=16, hidden=32, d_out=8):
    return stack((d_in, hidden, d_out), seed)


def make_runtime(
    model=None,
    workers=2,
    replicas=2,
    max_batch=8,
    max_wait=1e-6,
    capacity=64,
    policy="least_loaded",
    **kw,
):
    pool = ExecutorPool(workers, policy=policy)
    rt = ServingRuntime(
        pool,
        BatchPolicy(max_batch_size=max_batch, max_wait_s=max_wait),
        queue_capacity=capacity,
        **kw,
    )
    rt.register_model(
        ModelProfile("m0", model or mlp(0), replicas=replicas, slo_s=1e-5)
    )
    return rt


def explicit_scenario(times, model="m0", name="poisson"):
    arrivals = tuple((float(t), model) for t in sorted(times))
    duration = max(times) + 1e-9 if len(times) else 0.0
    return Scenario(name, arrivals, duration)


class TestClock:
    def test_monotonic(self):
        clk = SimulatedClock()
        assert clk.now == 0.0
        clk.advance_to(1.0)
        assert clk.advance_to(1.5) == clk.now == 1.5
        with pytest.raises(ValueError):
            clk.advance_to(1.0)


class TestInferenceRequest:
    def test_requests_compare_by_identity(self):
        # Equal fields; value equality would compare the ``x`` rows and raise.
        a = InferenceRequest(0, "m", np.zeros(2), 0.0)
        b = InferenceRequest(0, "m", np.zeros(2), 0.0)
        assert a == a and a != b
        assert b not in [a]
        queue = [a, b]
        queue.remove(b)
        assert len(queue) == 1 and queue[0] is a
        assert len({a, b}) == 2


class TestAdmissionQueue:
    def test_bounded_admission(self):
        q = AdmissionQueue(capacity=2)
        reqs = [
            InferenceRequest(i, "m", np.zeros(2), float(i)) for i in range(3)
        ]
        assert q.offer(reqs[0]) and q.offer(reqs[1])
        assert not q.offer(reqs[2])
        assert reqs[2].status == RequestStatus.REJECTED
        assert q.depth == 2

    def test_fifo_pop_per_model(self):
        q = AdmissionQueue(capacity=8)
        for i in range(4):
            q.offer(InferenceRequest(i, "a" if i % 2 else "b", np.zeros(1), i))
        batch = q.pop_batch("a", 10)
        assert [r.request_id for r in batch] == [1, 3]
        assert q.pending("a") == 0 and q.pending("b") == 2
        assert q.waiting() == (("b", 2, 0),)


class TestMicroBatcher:
    def test_size_trigger(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=2, max_wait_s=1.0))
        q.offer(InferenceRequest(0, "m", np.zeros(1), 0.0))
        assert mb.ready_model(q, 0.0) is None  # only 1 waiting, deadline far
        q.offer(InferenceRequest(1, "m", np.zeros(1), 0.0))
        assert mb.ready_model(q, 0.0) == "m"  # batch full

    def test_deadline_trigger_and_next_deadline(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.5))
        q.offer(InferenceRequest(0, "m", np.zeros(1), 1.0))
        assert mb.next_deadline(q, 1.0) == pytest.approx(1.5)
        assert mb.ready_model(q, 1.4) is None
        assert mb.ready_model(q, 1.5) == "m"
        # Only deadlines strictly after `now` arm a timer: a passed one
        # must not hide a later model's deadline.
        q.offer(InferenceRequest(1, "n", np.zeros(1), 1.2))
        assert mb.next_deadline(q, 1.0) == 1.5
        assert mb.next_deadline(q, 1.5) == 1.7
        assert mb.next_deadline(q, 1.7) is None

    def test_earliest_deadline_wins_across_models(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        q.offer(InferenceRequest(0, "late", np.zeros(1), 0.05))
        q.offer(InferenceRequest(1, "early", np.zeros(1), 0.0))
        assert mb.ready_model(q, 1.0) == "early"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchPolicy(aging_rate_per_s=-0.1)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="max_wait_s must be finite"):
                BatchPolicy(max_wait_s=bad)
            with pytest.raises(ValueError, match="aging_rate_per_s must be finite"):
                BatchPolicy(aging_rate_per_s=bad)

    # ----- tie-breaking ------------------------------------------------
    def test_tie_break_equal_urgency_earliest_deadline_wins(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        # Same class, both past deadline: the longer-waiting head wins.
        q.offer(InferenceRequest(0, "younger", np.zeros(1), 0.05))
        q.offer(InferenceRequest(1, "older", np.zeros(1), 0.0))
        assert mb.ready_model(q, 1.0) == "older"

    def test_tie_break_equal_deadline_is_deterministic_by_name(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        q.offer(InferenceRequest(0, "zeta", np.zeros(1), 0.0))
        q.offer(InferenceRequest(1, "alpha", np.zeros(1), 0.0))
        assert mb.ready_model(q, 1.0) == "alpha"

    def test_higher_priority_preempts_dispatch_order(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.1))
        # "bulk" has the earlier deadline, but "live" carries a higher
        # class: urgency outranks deadline in the dispatch order.
        q.offer(InferenceRequest(0, "bulk", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "live", np.zeros(1), 0.5, priority=2))
        assert mb.ready_model(q, 1.0) == "live"

    def test_aging_lets_low_class_overtake(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(
            BatchPolicy(max_batch_size=8, max_wait_s=0.1, aging_rate_per_s=1.0)
        )
        # After 10 s of waiting the class-0 head has aged +10 effective
        # classes, overtaking the fresh class-2 arrival: no starvation.
        q.offer(InferenceRequest(0, "bulk", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "live", np.zeros(1), 9.9, priority=2))
        assert mb.ready_model(q, 10.0) == "bulk"

    def test_ready_deadline_tolerance_at_large_times(self):
        # Regression: `dl <= now + 1e-15` failed once timestamps outgrew
        # the absolute epsilon (double spacing at 1e9 s is ~1.2e-7 s).
        q = AdmissionQueue(16)
        mb = MicroBatcher(BatchPolicy(max_batch_size=8, max_wait_s=0.0))
        q.offer(InferenceRequest(0, "m", np.zeros(1), 1e9))
        assert mb.ready_model(q, 1e9) == "m"

    def test_take_batch_orders_by_effective_priority(self):
        q = AdmissionQueue(16)
        mb = MicroBatcher(
            BatchPolicy(max_batch_size=4, max_wait_s=0.0, aging_rate_per_s=0.0)
        )
        q.offer(InferenceRequest(0, "m", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "m", np.zeros(1), 0.1, priority=2))
        q.offer(InferenceRequest(2, "m", np.zeros(1), 0.2, priority=0))
        q.offer(InferenceRequest(3, "m", np.zeros(1), 0.3, priority=2))
        batch = mb.take_batch(q, "m", now=1.0)
        # Class-descending, FIFO within class.
        assert [r.request_id for r in batch] == [1, 3, 0, 2]


class TestLayerShapes:
    def test_mlp_shapes_track_batch(self):
        shapes = model_layer_shapes("m", mlp(0), batch=4)
        assert [(s.gemm.m, s.gemm.k, s.gemm.n) for s in shapes] == [
            (32, 16, 4),
            (8, 32, 4),
        ]

    def test_non_gemm_model_rejected(self):
        with pytest.raises(ValueError):
            model_layer_shapes("m", Sequential(ReLU()), batch=1)

    def test_per_request_latency_amortizes(self):
        s1 = model_layer_shapes("m", mlp(0), batch=1)
        s32 = model_layer_shapes("m", mlp(0), batch=32)
        one = per_request_latency(s1, 1)
        many = per_request_latency(s32, 32)
        assert many["per_request_s"] < one["per_request_s"]
        # Reprogramming dominates small GEMMs: batching must amortize it
        # by a large factor, the effect serving exists to exploit.
        assert one["per_request_s"] / many["per_request_s"] > 3
        with pytest.raises(ValueError):
            per_request_latency(s1, 0)


class TestServiceModel:
    def test_prewarm_has_its_own_memo(self):
        service = ServiceModel()
        service.register(ModelProfile("m0", mlp(0)))
        with pytest.raises(ValueError):
            service.batch_latency("m0", -1)
        prewarm = service.prewarm_latency("m0")
        assert prewarm > 0.0
        assert service.cache_info()["entries"] == 0
        with pytest.raises(ValueError):
            service.batch_latency("m0", -1)
        assert service.prewarm_latency("m0") == prewarm


class TestRuntimeEndToEnd:
    def test_all_requests_complete_fifo_and_batched(self):
        rt = make_runtime(max_batch=4, max_wait=1e-6)
        scen = explicit_scenario([i * 1e-8 for i in range(10)])
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 10
        assert tel.rejected == 0
        for r in tel.completed:
            assert r.status == RequestStatus.COMPLETED
            assert r.batch_size <= 4
            assert r.completion_time == pytest.approx(
                r.dispatch_time
                + rt.service.batch_latency("m0", r.batch_size)
            )
        # FIFO per model: dispatch order respects arrival order.
        by_arrival = sorted(tel.completed, key=lambda r: r.arrival_time)
        dispatches = [r.dispatch_time for r in by_arrival]
        assert dispatches == sorted(dispatches)

    def test_outputs_bit_exact_vs_standalone_executor(self):
        model = mlp(1)
        rt = make_runtime(model=model, max_batch=8)
        scen = poisson_scenario("m0", rate=2e7, duration=1e-6, seed=5)
        tel = rt.run(scen, seed=6)
        assert len(tel.completed) > 1
        ex = PhotonicExecutor()
        for r in tel.completed:
            ref = ex.run_sequential(model, r.x[None, :])[0]
            assert np.array_equal(r.output, ref)

    def test_batch_one_policy_never_batches(self):
        rt = make_runtime(max_batch=1, max_wait=0.0)
        scen = explicit_scenario([i * 1e-8 for i in range(6)])
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 6
        assert all(r.batch_size == 1 for r in tel.completed)

    def test_deadline_flushes_partial_batch(self):
        # One lone request must not wait for a full batch.
        rt = make_runtime(max_batch=32, max_wait=1e-6)
        scen = explicit_scenario([0.0])
        tel = rt.run(scen, seed=0)
        (req,) = tel.completed
        assert req.batch_size == 1
        assert req.dispatch_time == pytest.approx(1e-6)

    def test_overload_rejects_at_admission(self):
        rt = make_runtime(
            workers=1, replicas=1, max_batch=1, max_wait=0.0, capacity=4
        )
        scen = explicit_scenario([0.0] * 50)
        tel = rt.run(scen, seed=0)
        assert tel.rejected > 0
        assert len(tel.completed) + tel.rejected == 50
        assert rt.queue.depth == 0

    def test_unregistered_model_raises(self):
        rt = make_runtime()
        scen = explicit_scenario([0.0], model="ghost")
        with pytest.raises(KeyError):
            rt.run(scen)

    def test_microbatching_beats_batch_one_throughput(self):
        # Offered load ~5x the pool's batch-1 capacity (~2e8 req/s for
        # this MLP on two workers): batch-1 saturates and sheds load,
        # micro-batching amortizes the reprogram and keeps up.
        scen = poisson_scenario("m0", rate=1e9, duration=2e-6, seed=9)
        results = {}
        for label, (mb, mw) in {
            "batched": (32, 2e-7),
            "batch1": (1, 0.0),
        }.items():
            rt = make_runtime(
                workers=2, replicas=2, max_batch=mb, max_wait=mw, capacity=128
            )
            tel = rt.run(scen, seed=1)
            results[label] = len(tel.completed) / max(
                tel.makespan(), scen.duration_s
            )
        assert results["batched"] > 2 * results["batch1"]

    def test_report_cross_checks_analytic_model(self):
        rt = make_runtime(max_batch=8)
        scen = poisson_scenario("m0", rate=3e7, duration=1e-6, seed=3)
        rt.run(scen, seed=4)
        report = rt.report(scen)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0
        assert report["analytic_consistency"]["checked_batches"] > 0
        assert 0.0 <= report["slo_attainment"] <= 1.0
        assert report["programmed_cache"]["hits"] > 0
        hist = report["batch_size_histogram"]
        assert sum(int(k) * v for k, v in hist.items()) == report["completed"]


    def test_report_measures_drift_without_raising(self):
        rt = make_runtime(max_batch=8)
        scen = poisson_scenario("m0", rate=3e7, duration=1e-6, seed=3)
        tel = rt.run(scen, seed=4)
        record = tel.batches[len(tel.batches) // 2]
        priced = record.service_s
        record.service_s = float(np.nextafter(priced, np.inf))
        check = rt.report(scen)["analytic_consistency"]
        assert check["max_abs_error_s"] == record.service_s - priced > 0.0
        assert check["checked_batches"] == len(tel.batches)
    def test_conv_first_model_serving(self):
        from repro.nn import Flatten
        from repro.nn.conv import Conv2d

        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(1, 2, 3, rng=rng), Flatten(), Linear(72, 4, rng=rng)
        )
        pool = ExecutorPool(1)
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=4, max_wait_s=1e-7),
            queue_capacity=16,
        )
        rt.register_model(
            ModelProfile("cnn", model, replicas=1, input_hw=(8, 8))
        )
        scen = explicit_scenario([i * 1e-8 for i in range(5)], model="cnn")
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 5
        for r in tel.completed:
            assert r.x.shape == (1, 8, 8)
            assert r.output.shape == (4,)
            ref = PhotonicExecutor().run_sequential(model, r.x[None])[0]
            assert np.array_equal(r.output, ref)

    def test_conv_first_model_without_input_hw_raises(self):
        from repro.nn.conv import Conv2d

        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(1, 2, 3, rng=rng))
        pool = ExecutorPool(1)
        rt = ServingRuntime(pool, BatchPolicy(max_batch_size=1, max_wait_s=0.0))
        with pytest.raises(ValueError):
            rt.register_model(ModelProfile("cnn", model, replicas=1))

    def test_sustained_overload_stress(self):
        """Long saturating trace: no stranding, bounded queue, stable stats."""
        rt = make_runtime(
            workers=4, replicas=4, max_batch=32, max_wait=2e-7, capacity=256
        )
        scen = poisson_scenario("m0", rate=2e9, duration=1e-5, seed=13)
        tel = rt.run(scen, seed=14)
        assert len(tel.completed) + tel.rejected == scen.num_requests
        assert rt.queue.depth == 0
        report = rt.report(scen)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0
        assert report["queue_depth"]["max"] <= 256

    def test_drain_excluded_model_redispatches_on_worker_free(self):
        # All replicas of "a" busy -> the batcher must exclude "a", keep
        # serving other models, and re-dispatch "a" when the worker-free
        # event fires (not strand the batch).
        pool = ExecutorPool(2, policy="least_loaded")
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=2, max_wait_s=1e-8),
            queue_capacity=64,
        )
        rt.register_model(ModelProfile("a", mlp(0), replicas=1))
        rt.register_model(ModelProfile("b", mlp(1), replicas=1))
        # Burst of "a" filling two batches back-to-back plus interleaved
        # "b" traffic that must not be blocked while "a"'s replica is busy.
        arrivals = tuple(
            [(0.0, "a"), (0.0, "a"), (1e-9, "a"), (1e-9, "a")]
            + [(2e-9, "b"), (2e-9, "b")]
        )
        scen = Scenario("burst", arrivals, 1e-7)
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 6
        a_batches = sorted(
            {
                (r.dispatch_time, r.completion_time)
                for r in tel.completed
                if r.model == "a"
            }
        )
        assert len(a_batches) == 2
        # Second "a" batch waited for the replica: dispatched exactly when
        # the first batch's worker-free event fired.
        assert a_batches[1][0] == pytest.approx(a_batches[0][1])
        # "b" was not blocked behind the busy "a" replica.
        b_dispatch = min(
            r.dispatch_time for r in tel.completed if r.model == "b"
        )
        assert b_dispatch < a_batches[0][1]

    def test_blocked_model_does_not_hide_another_models_deadline(self):
        # "a" has a batch waiting on its busy replica, its batching
        # deadline already passed; "b"'s own worker idles.  "b" must
        # launch at its own deadline, not when "a"'s worker frees.
        pool = ExecutorPool(2)
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=2, max_wait_s=1e-7), execute=False
        )
        rt.register_model(ModelProfile("a", stack((512, 512, 512)), replicas=1))
        rt.register_model(ModelProfile("b", mlp(1), replicas=1))
        arrivals = ((0.0, "a"), (0.0, "a"), (1e-9, "a"), (1e-9, "a"), (2e-9, "b"))
        tel = rt.run(Scenario("blocked", arrivals, 1e-7), seed=0)
        (b,) = [r for r in tel.completed if r.model == "b"]
        assert pool.replicas("a") == [0] and b.worker_id == 1
        assert b.dispatch_time == 2e-9 + 1e-7
        assert b.dispatch_time - b.arrival_time == pytest.approx(1e-7)

    def test_queue_depth_mean_obeys_littles_law(self):
        # Fault-free with nothing shed: the time-weighted mean depth over
        # the horizon, times the horizon, is the total time queued.
        rt = make_runtime(
            max_batch=8, max_wait=1e-7, capacity=256, execute=False
        )
        scen = poisson_scenario("m0", rate=5e8, duration=2e-6, seed=21)
        tel = rt.run(scen, seed=0)
        report = rt.report(scen)
        assert tel.rejected == 0 and len(tel.completed) == scen.num_requests
        horizon = max(scen.duration_s, tel.makespan())
        queued = math.fsum(
            r.dispatch_time - r.arrival_time for r in tel.completed
        )
        assert queued > 0.0
        assert report["queue_depth"]["mean"] * horizon == pytest.approx(
            queued, rel=1e-12
        )

    def test_drain_polls_stay_linear_in_requests(self, monkeypatch):
        # One AdmissionQueue.expire per _drain poll.  Duplicate batching
        # timers would make polls per request grow with the run length.
        polls = [0]
        expire = AdmissionQueue.expire

        def counting_expire(queue, now):
            polls[0] += 1
            return expire(queue, now)

        monkeypatch.setattr(AdmissionQueue, "expire", counting_expire)
        dims = {
            "mlp_a": (64, 128, 10),
            "mlp_b": (128, 128, 32, 10),
            "mlp_c": (32, 64, 10),
        }
        per_request = {}
        for duration in (5e-7, 1e-6, 2e-6):
            rt = ServingRuntime(
                ExecutorPool(4, policy="cache_affinity"),
                BatchPolicy(max_batch_size=32, max_wait_s=2e-7),
                queue_capacity=256,
                execute=False,
            )
            for i, (name, d) in enumerate(dims.items()):
                rt.register_model(ModelProfile(name, stack(d, i), replicas=4))
            scen = multi_tenant_priority_scenario(
                {"mlp_a": 6.0, "mlp_b": 3.0, "mlp_c": 1.0},
                1.5e9,
                duration,
                {"mlp_a": {0: 3, 2: 1}},
                seed=4,
            )
            polls[0] = 0
            tel = rt.run(scen, seed=0)
            assert len(tel.completed) == scen.num_requests
            per_request[duration] = polls[0] / scen.num_requests
        assert max(per_request.values()) <= 1.25, per_request

    def test_multi_model_sharding(self):
        pool = ExecutorPool(2, policy="cache_affinity")
        rt = ServingRuntime(
            pool, BatchPolicy(max_batch_size=4, max_wait_s=1e-7),
            queue_capacity=64,
        )
        rt.register_model(ModelProfile("a", mlp(0), replicas=1))
        rt.register_model(ModelProfile("b", mlp(1), replicas=1))
        arrivals = tuple(
            (i * 1e-8, "a" if i % 2 else "b") for i in range(12)
        )
        scen = Scenario("multi_tenant", arrivals, 12e-8)
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) == 12
        # Each model stays on its placed worker (single replica).
        for r in tel.completed:
            assert r.worker_id == pool.replicas(r.model)[0]
