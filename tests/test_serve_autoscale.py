"""Priority classes and the SLO-driven replica autoscaler."""

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential
from repro.serve import (
    AdmissionQueue,
    AutoscalerPolicy,
    BatchPolicy,
    ExecutorPool,
    InferenceRequest,
    ModelProfile,
    Priority,
    RequestStatus,
    ServingRuntime,
    diurnal_scenario,
    poisson_scenario,
    priority_scenario,
)
from repro.serve.traffic import Scenario


def mlp(seed=0, d_in=16, hidden=32, d_out=8):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(d_in, hidden, rng=rng), ReLU(), Linear(hidden, d_out, rng=rng)
    )


class TestClassAwareAdmission:
    def test_eviction_sheds_lowest_class_first(self):
        q = AdmissionQueue(capacity=2)
        low = InferenceRequest(0, "m", np.zeros(1), 0.0, priority=0)
        mid = InferenceRequest(1, "m", np.zeros(1), 0.1, priority=1)
        high = InferenceRequest(2, "m", np.zeros(1), 0.2, priority=2)
        assert q.offer(low) and q.offer(mid)
        assert q.offer(high)  # evicts the class-0 request
        assert low.status == RequestStatus.EVICTED
        assert q.depth == 2
        assert [r.request_id for r in q.drain_evicted()] == [0]
        assert q.drain_evicted() == []

    def test_same_class_never_preempts_itself(self):
        q = AdmissionQueue(capacity=1)
        first = InferenceRequest(0, "m", np.zeros(1), 0.0, priority=1)
        second = InferenceRequest(1, "m", np.zeros(1), 0.1, priority=1)
        assert q.offer(first)
        assert not q.offer(second)
        assert second.status == RequestStatus.REJECTED
        assert first.status == RequestStatus.QUEUED and q.drain_evicted() == []

    def test_eviction_picks_youngest_of_lowest_class(self):
        q = AdmissionQueue(capacity=3)
        a = InferenceRequest(0, "m", np.zeros(1), 0.0, priority=0)
        b = InferenceRequest(1, "m", np.zeros(1), 0.5, priority=0)
        c = InferenceRequest(2, "n", np.zeros(1), 0.2, priority=1)
        for r in (a, b, c):
            assert q.offer(r)
        assert q.offer(InferenceRequest(3, "m", np.zeros(1), 1.0, priority=2))
        # The *youngest* class-0 request goes; the older head keeps FIFO.
        assert b.status == RequestStatus.EVICTED
        assert a.status == RequestStatus.QUEUED

    def test_pending_by_class_and_heads(self):
        q = AdmissionQueue(capacity=8)
        q.offer(InferenceRequest(0, "m", np.zeros(1), 0.0, priority=0))
        q.offer(InferenceRequest(1, "m", np.zeros(1), 0.1, priority=2))
        q.offer(InferenceRequest(2, "m", np.zeros(1), 0.2, priority=0))
        assert q.pending("m") == 3
        heads = {r.priority: r.request_id for r in q.class_heads("m")}
        assert heads == {0: 0, 2: 1}
        assert q.waiting() == (("m", 3, 0.0),)


class TestPriorityServingEndToEnd:
    def _runtime(self, capacity=64, aging=0.0, workers=2, replicas=2):
        pool = ExecutorPool(workers)
        rt = ServingRuntime(
            pool,
            BatchPolicy(
                max_batch_size=8, max_wait_s=1e-6, aging_rate_per_s=aging
            ),
            queue_capacity=capacity,
        )
        rt.register_model(
            ModelProfile("m0", mlp(0), replicas=replicas, slo_s=1e-5)
        )
        return rt

    def test_priority_traffic_completes_and_reports_per_class(self):
        rt = self._runtime()
        scen = priority_scenario(
            "m0", rate=2e7, duration=2e-6,
            class_mix={Priority.BATCH: 2.0, Priority.INTERACTIVE: 1.0},
            seed=3,
        )
        tel = rt.run(scen, seed=4)
        assert len(tel.completed) == scen.num_requests
        report = rt.report(scen)
        per_class = report["per_class"]
        assert set(per_class) <= {"0", "2"}
        for stats in per_class.values():
            assert 0.0 <= stats["slo_attainment"] <= 1.0
        total = sum(s["completed"] for s in per_class.values())
        assert total == report["completed"]

    def test_overload_sheds_low_class_first(self):
        # Saturate a tiny queue with mixed-class simultaneous arrivals:
        # evictions and rejections must fall on the batch class while
        # interactive traffic is admitted.
        rt = self._runtime(capacity=4, workers=1, replicas=1)
        arrivals = tuple(
            (0.0, "m0", Priority.BATCH) for _ in range(8)
        ) + tuple((1e-10, "m0", Priority.INTERACTIVE) for _ in range(4))
        scen = Scenario("priority", arrivals, 1e-6)
        tel = rt.run(scen, seed=0)
        interactive_done = [
            r for r in tel.completed if r.priority == Priority.INTERACTIVE
        ]
        assert len(interactive_done) == 4  # all admitted via eviction
        assert tel.rejected_by_class[Priority.BATCH] > 0
        assert tel.rejected_by_class.get(Priority.INTERACTIVE, 0) == 0
        assert tel.evicted > 0
        # Attainment ordering follows class ordering under overload.
        by_class = tel.slo_attainment_by_class(1e-5)
        assert by_class[Priority.INTERACTIVE] >= by_class[Priority.BATCH]

    def test_interactive_dispatches_before_batch_backlog(self):
        # A deep class-0 backlog plus one late interactive arrival: the
        # interactive request must ride the next batch out.
        rt = self._runtime(capacity=64, workers=1, replicas=1)
        arrivals = tuple(
            (0.0, "m0", Priority.BATCH) for _ in range(24)
        ) + ((1e-9, "m0", Priority.INTERACTIVE),)
        scen = Scenario("priority", arrivals, 1e-6)
        tel = rt.run(scen, seed=0)
        interactive = [
            r for r in tel.completed if r.priority == Priority.INTERACTIVE
        ][0]
        batch_dispatches = sorted(
            r.dispatch_time
            for r in tel.completed
            if r.priority == Priority.BATCH
        )
        # It did not wait for the 24-deep backlog to clear (3 batches of 8).
        assert interactive.dispatch_time <= batch_dispatches[8]

    def test_conservation_with_evictions(self):
        rt = self._runtime(capacity=4, workers=1, replicas=1)
        arrivals = tuple(
            (i * 1e-10, "m0", i % 3) for i in range(40)
        )
        scen = Scenario("priority", arrivals, 1e-6)
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) + tel.rejected == 40
        assert rt.queue.depth == 0


class TestAutoscalerPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(interval_s=0.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerPolicy(slo_scale_up=0.5, slo_scale_down=0.9)
        with pytest.raises(ValueError):
            AutoscalerPolicy(queue_high_per_replica=0.0)
        knobs = (
            "interval_s",
            "window_s",
            "slo_scale_up",
            "slo_scale_down",
            "queue_high_per_replica",
            "queue_low_per_replica",
            "scale_down_cooldown_s",
        )
        for bad in (float("nan"), float("inf"), -float("inf")):
            for knob in knobs:
                with pytest.raises(ValueError, match=f"{knob} must be finite"):
                    AutoscalerPolicy(**{knob: bad})
            with pytest.raises(ValueError, match="slo_s must be finite"):
                ModelProfile("m", mlp(0), slo_s=bad)

    def test_prewarm_latency_from_arch_model(self):
        pool = ExecutorPool(2)
        rt = ServingRuntime(pool, BatchPolicy(max_batch_size=4))
        rt.register_model(ModelProfile("m0", mlp(0), replicas=1))
        config = rt.service.accelerator.config
        # mlp(0): Linear(16->32) and Linear(32->8); tiles = ceil(m/v)*ceil(k/g).
        expected_rounds = 0
        for m, k in ((32, 16), (8, 32)):
            tiles = -(-m // config.v) * (-(-k // config.g))
            expected_rounds += -(-tiles // config.num_arrays)
        assert rt.service.prewarm_latency("m0") == pytest.approx(
            expected_rounds * config.reprogram_time_s
        )


class TestAutoscalerEndToEnd:
    def _runtime(self, policy: AutoscalerPolicy, workers=4):
        pool = ExecutorPool(workers, policy="cache_affinity")
        rt = ServingRuntime(
            pool,
            BatchPolicy(max_batch_size=8, max_wait_s=5e-8),
            queue_capacity=256,
            autoscaler=policy,
        )
        rt.register_model(
            ModelProfile("m0", mlp(0), replicas=policy.min_replicas,
                         slo_s=2e-6)
        )
        return rt

    def test_scales_up_under_ramp_and_back_down(self):
        policy = AutoscalerPolicy(
            interval_s=1e-7,
            window_s=3e-7,
            min_replicas=1,
            max_replicas=4,
            queue_high_per_replica=8.0,
            scale_down_cooldown_s=2e-7,
        )
        rt = self._runtime(policy)
        scen = diurnal_scenario(
            "m0", base_rate=2e7, peak_rate=1.5e9, duration=4e-6, seed=5
        )
        tel = rt.run(scen, seed=6)
        report = rt.report(scen)
        auto = report["autoscaler"]
        assert auto["num_scale_ups"] >= 1
        assert auto["num_scale_downs"] >= 1
        peak = max(e["to"] for e in auto["events"])
        assert peak > 1
        # Ledger: strictly between always-min and always-max provisioning.
        horizon = max(scen.duration_s, tel.makespan())
        rs = auto["replica_seconds"]["m0"]
        assert 1 * horizon < rs < policy.max_replicas * horizon
        assert len(tel.completed) + tel.rejected == scen.num_requests
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0

    def test_scale_up_charges_prewarm_window(self):
        policy = AutoscalerPolicy(
            interval_s=1e-7, min_replicas=1, max_replicas=2,
            queue_high_per_replica=2.0,
        )
        rt = self._runtime(policy, workers=2)
        scen = poisson_scenario("m0", rate=1e9, duration=1e-6, seed=7)
        rt.run(scen, seed=8)
        ups = [e for e in rt.autoscaler.events if e["to"] > e["from"]]
        assert ups, "expected at least one scale-up under overload"
        assert ups[0]["prewarm_s"] == pytest.approx(
            rt.service.prewarm_latency("m0")
        )
        assert ups[0]["ready_at"] >= ups[0]["t"] + ups[0]["prewarm_s"]

    def test_burst_shorter_than_interval_still_scales(self):
        # Regression: all arrivals inside the first control interval used
        # to mean no _SCALE event was ever armed — the autoscaler was
        # silently inert exactly when a burst left a deep backlog.  Ticks
        # must also keep firing while that backlog drains past the last
        # arrival.
        policy = AutoscalerPolicy(
            interval_s=2e-7, min_replicas=1, max_replicas=4,
            queue_high_per_replica=4.0,
        )
        # Batch-1 serving (~10 ns/request) so the 64-deep burst backlog
        # outlives the first control interval on one replica.
        pool = ExecutorPool(4)
        rt = ServingRuntime(
            pool,
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            queue_capacity=256,
            autoscaler=policy,
        )
        rt.register_model(ModelProfile("m0", mlp(0), replicas=1, slo_s=2e-6))
        arrivals = tuple((i * 1e-9, "m0", 0) for i in range(64))
        scen = Scenario("burst", arrivals, 2e-6)
        tel = rt.run(scen, seed=0)
        assert len(tel.completed) + tel.rejected == 64
        assert rt.autoscaler.events, (
            "a sub-interval burst must still trigger the control loop"
        )
        assert rt.autoscaler.events[0]["to"] > rt.autoscaler.events[0]["from"]

    def test_saturated_pool_emits_no_noop_events(self):
        # Regression: desired > pool size used to append a {from: n,
        # to: n} event (and reset the cooldown) every tick.
        policy = AutoscalerPolicy(
            interval_s=1e-7, min_replicas=1, max_replicas=8,
            queue_high_per_replica=2.0,
        )
        rt = self._runtime(policy, workers=2)
        scen = poisson_scenario("m0", rate=2e9, duration=2e-6, seed=15)
        rt.run(scen, seed=16)
        assert all(e["to"] != e["from"] for e in rt.autoscaler.events)
        assert max(e["to"] for e in rt.autoscaler.events) <= 2

    def test_overload_never_shrinks_above_ceiling_placement(self):
        # A deployment placed above the policy ceiling must not have
        # replicas retired by the scale-UP branch exactly when load
        # spikes; the ceiling only caps growth.
        policy = AutoscalerPolicy(
            interval_s=1e-7, min_replicas=1, max_replicas=2,
            queue_high_per_replica=2.0,
        )
        pool = ExecutorPool(4)
        rt = ServingRuntime(
            pool,
            BatchPolicy(max_batch_size=8, max_wait_s=5e-8),
            queue_capacity=256,
            autoscaler=policy,
        )
        rt.register_model(ModelProfile("m0", mlp(0), replicas=4, slo_s=2e-6))
        scen = poisson_scenario("m0", rate=4e9, duration=1e-6, seed=19)
        rt.run(scen, seed=20)
        assert all(e["to"] >= 4 for e in rt.autoscaler.events if e["to"] > e["from"])
        assert rt.pool.num_replicas("m0") >= 2

    def test_warm_rejoin_event_reports_zero_prewarm(self):
        # Scale down then force a scale-up: the rejoining worker is warm,
        # so the event ledger must not claim a reprogram charge.
        policy = AutoscalerPolicy(
            interval_s=1e-7, min_replicas=1, max_replicas=2,
            queue_high_per_replica=2.0, scale_down_cooldown_s=1e-7,
        )
        rt = self._runtime(policy, workers=2)
        rt.pool.scale_to("m0", 2, now=0.0)  # warm both workers up front
        rt.pool.scale_to("m0", 1, now=0.0)
        scen = poisson_scenario("m0", rate=2e9, duration=1e-6, seed=23)
        rt.run(scen, seed=24)
        ups = [e for e in rt.autoscaler.events if e["to"] > e["from"]]
        assert ups and all(e["prewarm_s"] == 0.0 for e in ups)
        assert all(e["ready_at"] == e["t"] for e in ups)

    def test_steady_light_load_never_scales(self):
        policy = AutoscalerPolicy(
            interval_s=1e-7, min_replicas=2, max_replicas=4
        )
        rt = self._runtime(policy)
        scen = poisson_scenario("m0", rate=1e7, duration=2e-6, seed=9)
        rt.run(scen, seed=10)
        assert rt.pool.num_replicas("m0") == 2
        assert rt.autoscaler.events == []

    def test_no_autoscaler_report_unchanged(self):
        pool = ExecutorPool(2)
        rt = ServingRuntime(pool, BatchPolicy(max_batch_size=4))
        rt.register_model(ModelProfile("m0", mlp(0), replicas=2))
        scen = poisson_scenario("m0", rate=1e7, duration=1e-6, seed=11)
        rt.run(scen, seed=12)
        report = rt.report(scen)
        assert "autoscaler" not in report
