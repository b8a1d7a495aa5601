"""Fault injection and fleet recovery: plans, health, engine rescue."""

import math

import numpy as np
import pytest

from repro.core import FaultTolerantCore, rrns_fault_rates
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FleetMonitor,
    HealthPolicy,
    RequestStatus,
    ServingRuntime,
    TokenServingEngine,
    WorkerHealth,
    sequential_decode_outputs,
)
from repro.arch.config import MirageConfig
from repro.arch.memory import MemorySystemModel
from repro.serve.traffic import Scenario


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def mlp(seed=0, dim=12, hidden=24):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(dim, hidden, rng=rng), Tanh(), Linear(hidden, dim, rng=rng)
    )


def profile(replicas=3, dim=12, **kw):
    kw.setdefault("kv", KVCacheSpec(num_layers=2, num_heads=2, head_dim=4))
    return DecodeModelProfile(
        "m0", mlp(dim=dim), replicas=replicas, **kw
    )


def make_engine(replicas=3, blocks=256, block_tokens=4, health=None, **config_kw):
    prof = profile(replicas=replicas)
    memory = MemorySystemModel(
        MirageConfig(sram_bytes=blocks * block_tokens * prof.kv.bytes_per_token)
    )
    config = EngineConfig(
        block_tokens=block_tokens, kv_fraction=1.0, **config_kw
    )
    return TokenServingEngine(
        ExecutorPool(replicas), prof, config, memory=memory,
        health=health or HealthPolicy(suspect_after_s=1e-7, dead_after_s=3e-7),
    )


def decode_trace(n=12, spacing=1e-7, prompt=6, decode=8):
    arrivals = tuple(
        (i * spacing, "m0", i % 3, prompt, decode) for i in range(n)
    )
    return Scenario("decode", arrivals, n * spacing + 1e-9)


# ----------------------------------------------------------------------
# Plan and event validation
# ----------------------------------------------------------------------
class TestFaultEvents:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FaultKind.REPLICA_CRASH)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor_strike")

    def test_slow_requires_severity_and_duration(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.WORKER_SLOW, severity=0.5, duration_s=1.0)
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.WORKER_SLOW, severity=2.0)

    def test_duration_only_meaningful_for_slow(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, FaultKind.REPLICA_CRASH, duration_s=1.0)

    def test_uncorrectable_threshold(self):
        assert FaultEvent(0.0, FaultKind.TRANSIENT, severity=1.0).uncorrectable
        assert not FaultEvent(
            0.0, FaultKind.TRANSIENT, severity=0.5
        ).uncorrectable

    def test_plan_sorts_events(self):
        plan = FaultPlan(
            (
                FaultEvent(2.0, FaultKind.REPLICA_CRASH),
                FaultEvent(1.0, FaultKind.KV_LOSS),
            )
        )
        assert [e.t for e in plan.events] == [1.0, 2.0]

    def test_merge_and_kinds(self):
        a = FaultPlan.replica_kills([(1.0, 0)])
        b = FaultPlan.slow_worker(2.0, 1, factor=2.0, duration_s=0.5)
        merged = a.merge(b)
        assert merged.kinds() == {"replica_crash": 1, "worker_slow": 1}

    def test_replica_kills_kind_checked(self):
        with pytest.raises(ValueError):
            FaultPlan.replica_kills([(1.0, 0)], kind=FaultKind.KV_LOSS)


class TestFaultInjector:
    def test_fires_each_event_once_in_order(self):
        plan = FaultPlan(
            tuple(FaultEvent(t, FaultKind.REPLICA_CRASH) for t in (1.0, 2.0, 3.0))
        )
        inj = FaultInjector(plan)
        assert inj.next_time() == 1.0
        assert [e.t for e in inj.due(2.5)] == [1.0, 2.0]
        assert inj.due(2.5) == []
        assert inj.next_time() == 3.0
        assert [e.t for e in inj.due(10.0)] == [3.0]
        assert inj.exhausted and inj.next_time() is None
        assert len(inj.applied) == 3

    def test_storm_deterministic_in_seed(self):
        kw = dict(start=0.0, stop=1.0, rate_per_s=50.0, p_uncorrectable=0.3)
        a = FaultPlan.transient_storm(seed=7, kv_loss_share=0.2, **kw)
        b = FaultPlan.transient_storm(seed=7, kv_loss_share=0.2, **kw)
        c = FaultPlan.transient_storm(seed=8, kv_loss_share=0.2, **kw)
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()
        assert all(0.0 <= e.t <= 1.0 for e in a.events)
        assert set(a.kinds()) <= {"transient_fault", "kv_loss"}


class TestRRNSRates:
    def test_rates_match_binomial_arithmetic(self):
        codec = FaultTolerantCore().codec
        p = 0.01
        rates = rrns_fault_rates(codec, p)
        channels = len(codec.info_moduli) + len(codec.redundant_moduli)
        assert rates["channels"] == channels
        assert rates["detected"] == pytest.approx(1 - (1 - p) ** channels)
        correctable = sum(
            math.comb(channels, k) * p**k * (1 - p) ** (channels - k)
            for k in range(1, codec.max_correctable() + 1)
        )
        assert rates["correctable"] == pytest.approx(correctable)
        assert rates["uncorrectable"] == pytest.approx(
            rates["detected"] - correctable
        )

    def test_from_rrns_rates_scales_to_op_rate(self):
        rates = rrns_fault_rates(FaultTolerantCore().codec, 0.02)
        plan = FaultPlan.from_rrns_rates(
            rates, op_rate_per_s=5e3 / rates["detected"], start=0.0, stop=1.0,
            seed=3,
        )
        # Expected ~5e3 detected faults in the window; Poisson spread.
        assert 4.5e3 < len(plan.events) < 5.5e3
        share = sum(
            1 for e in plan.events if e.uncorrectable
        ) / len(plan.events)
        expected = rates["uncorrectable"] / rates["detected"]
        assert share == pytest.approx(expected, rel=0.25)


# ----------------------------------------------------------------------
# Health machine
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after_s=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(suspect_after_s=2.0, dead_after_s=1.0)

    def test_healthy_suspect_dead_progression(self):
        pool = ExecutorPool(2)
        pool.place("a", mlp(dim=8), replicas=2)
        mon = FleetMonitor(pool, HealthPolicy(suspect_after_s=1.0, dead_after_s=3.0))
        pool.crash(0, now=10.0)
        assert mon.observe(10.5) == []
        assert mon.next_transition_time() == pytest.approx(11.0)
        (tr,) = mon.observe(11.2)
        assert (tr["from"], tr["to"]) == ("healthy", "suspect")
        assert pool.workers[0].health == WorkerHealth.SUSPECT
        assert mon.next_transition_time() == pytest.approx(13.0)
        (tr,) = mon.observe(14.0)
        assert (tr["from"], tr["to"]) == ("suspect", "dead")
        assert mon.observe(15.0) == []  # dead is terminal
        assert mon.next_transition_time() is None

    def test_skipped_sweep_still_passes_through_suspect(self):
        pool = ExecutorPool(1)
        pool.place("a", mlp(dim=8), replicas=1)
        mon = FleetMonitor(pool, HealthPolicy(suspect_after_s=1.0, dead_after_s=2.0))
        pool.crash(0, now=0.0)
        transitions = mon.observe(5.0)  # one late sweep sees both edges
        assert [t["to"] for t in transitions] == ["suspect", "dead"]

    def test_responsive_workers_refresh_last_seen(self):
        pool = ExecutorPool(1)
        pool.place("a", mlp(dim=8), replicas=1)
        mon = FleetMonitor(pool, HealthPolicy(suspect_after_s=1.0, dead_after_s=2.0))
        mon.observe(7.0)
        assert pool.workers[0].last_seen == 7.0
        assert pool.workers[0].health == WorkerHealth.HEALTHY


# ----------------------------------------------------------------------
# Config validation (satellite: explicit errors, not silent nonsense)
# ----------------------------------------------------------------------
class TestKnobValidation:
    def test_runtime_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ServingRuntime(ExecutorPool(1), deadline_s=0.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="deadline_s must be finite"):
                ServingRuntime(ExecutorPool(1), deadline_s=bad)
        assert ServingRuntime(ExecutorPool(1), deadline_s=None).deadline_s is None

    def test_engine_max_waiting(self):
        with pytest.raises(ValueError):
            EngineConfig(max_waiting=0)
        assert EngineConfig(max_waiting=None).max_waiting is None

    def test_decode_profile_replicas_and_slo(self):
        with pytest.raises(ValueError):
            profile(replicas=0)
        with pytest.raises(ValueError):
            profile(ttft_slo_s=-1.0)

    def test_static_engine_rejects_faults(self):
        engine = make_engine(continuous=False)
        plan = FaultPlan.replica_kills([(1e-7, 0)])
        with pytest.raises(ValueError, match="continuous"):
            engine.run(decode_trace(2), seed=0, faults=plan)


# ----------------------------------------------------------------------
# Engine: crash recovery, transients, KV loss
# ----------------------------------------------------------------------
class TestEngineRecovery:
    def storm(self):
        return FaultPlan(
            (
                FaultEvent(3e-7, FaultKind.REPLICA_CRASH, target=0),
                FaultEvent(5e-7, FaultKind.TRANSIENT, target=4, severity=1.0),
                FaultEvent(6e-7, FaultKind.TRANSIENT, target=2, severity=0.1),
                FaultEvent(7e-7, FaultKind.KV_LOSS, target=1),
            )
        )

    def test_storm_completes_all_sessions_bit_exactly(self):
        scen = decode_trace()
        reference = sequential_decode_outputs(profile(), scen, seed=0)
        engine = make_engine()
        tel = engine.run(scen, seed=0, faults=self.storm())
        assert len(tel.sessions) == 12
        assert all(s.status == RequestStatus.COMPLETED for s in tel.sessions)
        for s in tel.sessions:
            assert len(s.outputs) == len(reference[s.session_id])
            for got, want in zip(s.outputs, reference[s.session_id]):
                assert np.array_equal(got, want)

    def test_storm_telemetry_and_ledgers(self):
        engine = make_engine()
        tel = engine.run(decode_trace(), seed=0, faults=self.storm())
        stats = tel.fault_stats()
        assert stats["injected"] == {
            "replica_crash": 1, "transient_fault": 2, "kv_loss": 1
        }
        assert stats["transient_corrected"] == 1
        assert stats["transient_uncorrectable"] == 1
        assert stats["tokens_retried"] >= 1
        assert tel.replica_crashes == 1 and tel.replicas_replaced == 1
        assert tel.sessions_recovered >= 1 and tel.sessions_failed == 0
        assert tel.kv_blocks_lost > 0
        assert engine.kv.refcounts_balanced()
        engine.kv.check_invariants()
        # Detection is explicit: a crash produces suspect and dead edges.
        kinds = [(tr["from"], tr["to"]) for tr in tel.health_transitions]
        assert ("healthy", "suspect") in kinds and ("suspect", "dead") in kinds
        (window,) = tel.unavailability_windows()
        assert window["detection_s"] > 0

    def test_analytic_cross_check_survives_faults(self):
        scen = decode_trace()
        engine = make_engine()
        plan = self.storm().merge(
            FaultPlan.slow_worker(4e-7, 1, factor=3.0, duration_s=5e-7)
        )
        tel = engine.run(scen, seed=0, faults=plan)
        report = engine.report(scen)
        # Stalls are booked as wall time, never folded into the nominal
        # analytic step cost — so the from-scratch re-derivation stays
        # exact even with a degraded worker in the fleet.
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0
        assert tel.stall_time() > 0.0

    def test_invariants_hold_after_every_fault_event(self):
        engine = make_engine()
        checked = []
        orig = engine._apply_fault

        def checking(event, now, waiting, running):
            orig(event, now, waiting, running)
            engine.kv.check_invariants()
            checked.append(event.kind)

        engine._apply_fault = checking
        engine.run(decode_trace(), seed=0, faults=self.storm())
        assert len(checked) == 4
        assert engine.kv.refcounts_balanced()

    def test_replay_is_deterministic(self):
        scen = decode_trace()
        plan = self.storm()
        a = make_engine()
        ta = a.run(scen, seed=0, faults=plan)
        b = make_engine()
        tb = b.run(scen, seed=0, faults=plan)
        assert ta.fault_stats() == tb.fault_stats()
        assert ta.makespan() == tb.makespan()
        assert [s.session_id for s in ta.sessions] == [
            s.session_id for s in tb.sessions
        ]
        assert [
            (tr["t"], tr["worker_id"], tr["to"]) for tr in ta.health_transitions
        ] == [(tr["t"], tr["worker_id"], tr["to"]) for tr in tb.health_transitions]

    def test_uncorrectable_transient_retries_token_without_drift(self):
        scen = decode_trace(n=3)
        reference = sequential_decode_outputs(profile(), scen, seed=0)
        engine = make_engine()
        plan = FaultPlan(
            (FaultEvent(2e-7, FaultKind.TRANSIENT, target=0, severity=1.0),)
        )
        tel = engine.run(scen, seed=0, faults=plan)
        assert tel.tokens_retried >= 1
        assert tel.faults_uncorrectable == 1
        for s in tel.sessions:
            for got, want in zip(s.outputs, reference[s.session_id]):
                assert np.array_equal(got, want)

    def test_uncorrectable_transients_counted_when_detected(self):
        # Two uncorrectable faults hit the one running session before
        # its next commit: both are detected, one step is retried.
        scen = Scenario("decode", ((0.0, "m0", 0, 6, 8),), 1e-9)
        t = make_engine(replicas=1).run(scen, seed=0).steps[3].t
        plan = FaultPlan(
            tuple(
                FaultEvent(t, FaultKind.TRANSIENT, target=0, severity=1.0)
                for _ in range(2)
            )
        )
        tel = make_engine(replicas=1).run(scen, seed=0, faults=plan)
        assert tel.faults_injected[FaultKind.TRANSIENT] == 2
        assert tel.faults_uncorrectable == 2
        assert tel.tokens_retried == 1

    def test_dense_storm_counts_every_transient_on_a_running_session(self):
        # Double hits and preemptions of poisoned sessions are both
        # common here; neither may drop a detected transient.
        arrivals = tuple(
            (i * 2e-8, "m0", (0, 1, 3)[i % 3], 6, 8) for i in range(24)
        )
        scen = Scenario("decode", arrivals, 4.8e-7)
        makespan = make_engine(blocks=16).run(scen, seed=0).makespan()
        plan = FaultPlan.transient_storm(
            0.0, makespan, 300 / makespan, p_uncorrectable=1.0, seed=3
        )
        engine = make_engine(blocks=16)
        hits = []
        orig = engine._apply_fault

        def counting(event, now, waiting, running):
            if event.kind == FaultKind.TRANSIENT and running:
                hits.append(event)
            orig(event, now, waiting, running)

        engine._apply_fault = counting
        tel = engine.run(scen, seed=0, faults=plan)
        assert tel.preemptions > 0
        assert len(hits) > tel.steps_count()
        assert tel.faults_corrected + tel.faults_uncorrectable == len(hits)

    def test_kv_loss_forces_recovery_and_reprefill(self):
        engine = make_engine()
        plan = FaultPlan((FaultEvent(4e-7, FaultKind.KV_LOSS, target=0),))
        tel = engine.run(decode_trace(), seed=0, faults=plan)
        assert tel.kv_blocks_lost > 0
        assert tel.sessions_recovered == 1
        assert tel.recovery_reprefill_tokens > 0
        assert len(tel.sessions) == 12
        assert engine.kv.refcounts_balanced()
        recovered = [s for s in tel.sessions if s.recoveries > 0]
        assert len(recovered) == 1

    def test_no_recovery_baseline_fails_sessions(self):
        plan = FaultPlan.replica_kills([(3e-7, 0), (4e-7, 0)])
        engine = make_engine(recovery=False)
        tel = engine.run(decode_trace(), seed=0, faults=plan)
        # With recovery off, dead replicas are never replaced and their
        # homed sessions terminate FAILED instead of resuming.
        assert tel.replicas_replaced == 0
        total = len(tel.sessions) + tel.sessions_failed
        assert total == 12
        assert engine.kv.refcounts_balanced()

    def test_max_waiting_sheds_lowest_class_first(self):
        # One live replica, a kill, and a long backlog: the waiting
        # queue overflows and batch-class traffic sheds first.
        arrivals = tuple(
            (i * 1e-9, "m0", (0 if i < 10 else 2), 6, 8) for i in range(14)
        )
        scen = Scenario("decode", arrivals, 1e-6)
        engine = make_engine(
            max_batch_size=2, max_prefills_per_step=1, max_waiting=4
        )
        tel = engine.run(scen, seed=0, faults=FaultPlan.replica_kills([(5e-8, 0)]))
        assert tel.sessions_shed > 0
        shed = [s for s in tel.rejected if s.status == RequestStatus.EVICTED]
        assert shed and all(s.priority == 0 for s in shed)
        # Interactive sessions all completed despite the shedding.
        done = {s.session_id for s in tel.sessions}
        interactive = [i for i in range(14) if i >= 10]
        assert set(interactive) <= done

    def test_fault_free_run_identical_with_and_without_fault_plane(self):
        scen = decode_trace()
        plain = make_engine()
        t_plain = plain.run(scen, seed=0)
        armed = make_engine()
        # A plan whose only event lands after the run drains: the fault
        # plane is live but never fires, and nothing may change.
        t_armed = armed.run(
            scen, seed=0, faults=FaultPlan.replica_kills([(10.0, 0)])
        )
        assert t_plain.makespan() == t_armed.makespan()
        assert len(t_plain.sessions) == len(t_armed.sessions)
        for a, b in zip(t_plain.sessions, t_armed.sessions):
            assert a.session_id == b.session_id
            for ra, rb in zip(a.outputs, b.outputs):
                assert np.array_equal(ra, rb)
