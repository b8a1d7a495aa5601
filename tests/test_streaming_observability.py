"""Streaming aggregators, tail-based sampling, O(1) telemetry mode."""

import json

import numpy as np
import pytest

from repro.arch.config import MirageConfig
from repro.arch.memory import MemorySystemModel
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultPlan,
    Observability,
    TailSampler,
    TailSamplingPolicy,
    TokenServingEngine,
    fleet_rollup,
    parse_prometheus_text,
    report_to_markdown,
    shared_prefix_scenario,
)
from repro.serve.observability import (
    ByteBudgetRing,
    Gauge,
    SpaceSavingTopK,
    Tracer,
    WindowedSketch,
    head_keep,
    nearest_rank_value,
)
from repro.serve.traffic import Scenario


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def mlp(seed=0, dim=12, hidden=24):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(dim, hidden, rng=rng), Tanh(), Linear(hidden, dim, rng=rng)
    )


def make_engine(observability=None, replicas=3, blocks=256, block_tokens=4,
                **config_kw):
    kv = KVCacheSpec(num_layers=2, num_heads=2, head_dim=4)
    prof = DecodeModelProfile(
        "m0", mlp(), kv=kv, replicas=replicas, ttft_slo_s=1e-5
    )
    memory = MemorySystemModel(
        MirageConfig(sram_bytes=blocks * block_tokens * kv.bytes_per_token)
    )
    config = EngineConfig(block_tokens=block_tokens, kv_fraction=1.0, **config_kw)
    return TokenServingEngine(
        ExecutorPool(replicas), prof, config, memory=memory,
        observability=observability,
    )


def decode_trace(n=12, spacing=1e-7, prompt=6, decode=8):
    arrivals = tuple(
        (i * spacing, "m0", i % 3, prompt, decode) for i in range(n)
    )
    return Scenario("decode", arrivals, n * spacing + 1e-9)


def prefix_storm():
    """Three classes sharing a system prompt under a fault storm."""
    scenario = shared_prefix_scenario(
        "m0",
        rate=2e7,
        duration=1.5e-6,
        prefix_len=12,
        shared_fraction=0.8,
        suffix_median=4,
        decode_mean=6,
        class_mix={0: 2, 1: 1, 3: 1},
        suffix_max=10,
        decode_max=12,
        seed=9,
    )
    plan = FaultPlan.replica_kills([(4e-7, 0)]).merge(
        FaultPlan.transient_storm(
            3e-7, 1.2e-6, 4e7, p_uncorrectable=0.5, seed=4, kv_loss_share=0.2
        )
    )
    return scenario, plan


# Every field of summary(..., ttft_slo_s) that is not a distribution.
SCALAR_FIELDS = (
    "sessions",
    "rejected",
    "tokens",
    "tokens_per_s",
    "tpot_s",
    "steps",
    "mean_batch_size",
    "preemptions",
    "kv",
    "prefix",
    "faults",
)
CLASS_FIELDS = ("sessions", "rejected", "preemptions")


def scalar_fields(summary):
    out = {key: summary.get(key) for key in SCALAR_FIELDS}
    out["per_class"] = {
        p: {key: row[key] for key in CLASS_FIELDS}
        for p, row in summary.get("per_class", {}).items()
    }
    return out


class FakeSession:
    """Duck-typed terminal session for sampler unit tests."""

    def __init__(self, sid, arrival=0.0, first=None, finish=None,
                 status="completed", preemptions=0, recoveries=0,
                 priority=0, model="m0"):
        self.session_id = sid
        self.arrival_time = arrival
        self.first_token_time = first
        self.finish_time = finish
        self.status = status
        self.preemptions = preemptions
        self.recoveries = recoveries
        self.priority = priority
        self.model = model


def _timeline(tracer, sid, e2e=1.0, name="decode"):
    tracer.span("session", sid, name, 0.0, e2e)


# ----------------------------------------------------------------------
# Streaming aggregators
# ----------------------------------------------------------------------
class TestHeadKeep:
    def test_deterministic_and_spread(self):
        kept = [sid for sid in range(1000) if head_keep(sid, 64)]
        assert kept == [sid for sid in range(1000) if head_keep(sid, 64)]
        # Roughly 1-in-64 of a thousand ids, not a contiguous stripe.
        assert 4 <= len(kept) <= 40
        assert head_keep(123, 1)
        with pytest.raises(ValueError):
            head_keep(1, 0)


class TestSpaceSavingTopK:
    def test_exact_under_capacity(self):
        top = SpaceSavingTopK(4)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            top.add(key, n)
        assert top.count("a") == 5 and top.count("z") == 0
        assert [r["key"] for r in top.top()] == ["a", "b", "c"]
        assert all(r["error"] == 0 for r in top.top())
        assert top.evictions == 0

    def test_eviction_floor_guarantee(self):
        top = SpaceSavingTopK(2)
        top.add("a", 10)
        top.add("b", 2)
        top.add("c")  # evicts b (min count), inherits its floor
        assert "b" not in top and "c" in top
        row = top.top()[-1]
        assert row == {"key": "c", "count": 3, "error": 2}
        assert top.evictions == 1

    def test_deterministic_tie_break(self):
        top = SpaceSavingTopK(2)
        top.add("x")
        top.add("y")
        top.add("z")  # tie on count=1: lexically-first victim ("x")
        assert "x" not in top and "y" in top and "z" in top

    def test_validation_and_to_dict(self):
        with pytest.raises(ValueError):
            SpaceSavingTopK(0)
        top = SpaceSavingTopK(2)
        with pytest.raises(ValueError):
            top.add("a", 0)
        top.add("a")
        state = top.to_dict()
        assert state["kind"] == "space_saving"
        assert len(top) == 1


class TestWindowedSketch:
    def test_windowing(self):
        ws = WindowedSketch(window_s=1.0, max_windows=8)
        ws.add(0.5, 1.0)
        ws.add(1.5, 2.0)
        starts = [start for start, _ in ws.windows()]
        assert starts == [0.0, 1.0]
        assert ws.total_count() == 2

    def test_compaction_doubles_width_losslessly(self):
        ws = WindowedSketch(window_s=1.0, max_windows=4)
        for t in range(16):
            ws.add(float(t), float(t + 1))
        assert len(ws) <= 4
        assert ws.compactions >= 2
        assert ws.window_s == 4.0
        # Lossless: every folded value survives the pairwise merges.
        assert ws.total_count() == 16
        assert ws.to_dict()["kind"] == "windowed_sketch"

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedSketch(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedSketch(window_s=1.0, max_windows=1)
        ws = WindowedSketch(window_s=1.0)
        with pytest.raises(ValueError):
            ws.add(-1.0, 1.0)
        with pytest.raises(ValueError):
            ws.add(float("nan"), 1.0)


class TestByteBudgetRing:
    def test_budget_invariant_and_fifo_eviction(self):
        ring = ByteBudgetRing(byte_budget=64)
        for i in range(20):
            assert ring.append({"i": i})
            assert ring.total_bytes <= 64
        kept = [r["i"] for r in ring.records()]
        assert kept == sorted(kept) and kept[-1] == 19
        assert ring.evicted == 20 - len(kept)

    def test_oversize_record_dropped(self):
        ring = ByteBudgetRing(byte_budget=16)
        assert not ring.append({"blob": "x" * 100})
        assert ring.dropped == 1 and len(ring) == 0
        with pytest.raises(ValueError):
            ByteBudgetRing(0)
        assert ring.to_dict()["kind"] == "byte_ring"


# ----------------------------------------------------------------------
# Tail-based sampling
# ----------------------------------------------------------------------
class TestTailSamplerUnits:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TailSamplingPolicy(head_rate=0)
        with pytest.raises(ValueError):
            TailSamplingPolicy(ttft_slo_s=0.0)
        with pytest.raises(ValueError):
            TailSamplingPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            TailSamplingPolicy(outlier_threshold=0.0)
        with pytest.raises(ValueError):
            TailSamplingPolicy(exemplar_bytes=0)

    def test_retention_reasons_most_specific_first(self):
        tracer = Tracer()
        sessions = [
            FakeSession(1, finish=1.0, first=0.1, preemptions=2),  # fault
            FakeSession(2, finish=1.0, first=0.9),                  # slo
            FakeSession(3, finish=400.0, first=0.1),                # outlier
            FakeSession(4, finish=1.0, first=0.1),
        ]
        for s in sessions:
            _timeline(tracer, s.session_id, e2e=float(s.finish_time))
        # Stalled sessions count as faulted even without preemptions.
        tracer.span("session", 4, "stall", 0.2, 0.3)
        sampler = TailSampler(
            TailSamplingPolicy(head_rate=10**9, ttft_slo_s=0.5)
        )
        counts = sampler.sample(tracer, sessions)
        assert counts == {"kept": 4, "dropped": 0}
        assert sampler.reasons == {1: "fault", 2: "slo", 3: "outlier", 4: "fault"}

    def test_never_first_token_is_slo_violation(self):
        tracer = Tracer()
        session = FakeSession(7, finish=1.0, first=None)
        _timeline(tracer, 7)
        sampler = TailSampler(
            TailSamplingPolicy(head_rate=10**9, ttft_slo_s=0.5)
        )
        sampler.sample(tracer, [session])
        assert sampler.reasons[7] == "slo"

    def test_drop_folds_and_exemplars(self):
        tracer = Tracer()
        # Ids start at 1: id 0 hashes to the head sample at any rate.
        sessions = [
            FakeSession(i, finish=1.0 + 0.01 * i, first=0.1)
            for i in range(1, 11)
        ]
        for s in sessions:
            _timeline(tracer, s.session_id, e2e=float(s.finish_time))
        tracer.instant("session", 1, "enqueue", 0.0)
        sampler = TailSampler(TailSamplingPolicy(head_rate=10**9))
        counts = sampler.sample(tracer, sessions)
        assert counts == {"kept": 0, "dropped": 10}
        # Every session folded (sketches cover the whole population)...
        assert sampler.sketches["e2e"].count == 10
        assert sampler.sketches["ttft"].count == 10
        assert sampler.sketches["phase/decode"].count == 10
        # ...but no timeline survives, and the stubs land in the ring.
        assert tracer.span_records("session") == []
        assert tracer.instant_records("session") == []
        assert sampler.dropped_spans == 10 and sampler.dropped_instants == 1
        stub = sampler.exemplars.records()[0]
        assert stub["session_id"] == 1 and stub["e2e_s"] == 1.01
        # Resampling the same sessions is a no-op (decided once).
        assert sampler.sample(tracer, sessions) == {"kept": 0, "dropped": 0}

    def test_non_terminal_sessions_wait(self):
        tracer = Tracer()
        live = FakeSession(5, finish=None, first=None, status="running")
        sampler = TailSampler()
        assert sampler.sample(tracer, [live]) == {"kept": 0, "dropped": 0}
        assert sampler.folded == 0

    def test_summary_json_deterministic(self):
        def build():
            tracer = Tracer()
            sessions = [
                FakeSession(i, finish=1.0 + i * 0.5, first=0.2)
                for i in range(6)
            ]
            for s in sessions:
                _timeline(tracer, s.session_id, e2e=float(s.finish_time))
            sampler = TailSampler(TailSamplingPolicy(head_rate=3))
            sampler.sample(tracer, sessions)
            return sampler

        a, b = build(), build()
        assert a.to_json() == b.to_json()
        summary = a.summary()
        assert summary["kept"] + summary["dropped"] == summary["folded"] == 6
        assert summary["sketch_bytes"] == a.byte_size()


class TestTailSamplerOnEngine:
    def test_fault_storm_sessions_fully_retained(self):
        obs = Observability(tracing=True)
        engine = make_engine(observability=obs, recovery=True)
        plan = FaultPlan.replica_kills([(2e-7, 0)])
        telemetry = engine.run(decode_trace(n=18), seed=3, faults=plan)
        sessions = telemetry.sessions
        assert sessions
        sampler = TailSampler(TailSamplingPolicy(head_rate=10**9))
        sampler.sample(obs.tracer, sessions)
        disturbed = {
            s.session_id
            for s in sessions
            if s.preemptions > 0 or getattr(s, "recoveries", 0) > 0
        }
        assert disturbed, "replica kill disturbed no sessions"
        assert disturbed <= sampler.kept
        for s in sessions:
            if s.session_id not in sampler.kept:
                continue
            gaps = obs.tracer.gaps(
                s.session_id, start=s.arrival_time, end=s.finish_time
            )
            assert not gaps, f"kept session {s.session_id} lost spans"
        # Quantiles still describe the whole population after the drop.
        e2e = sorted(
            float(s.finish_time) - float(s.arrival_time) for s in sessions
        )
        estimate = sampler.sketches["e2e"].percentile(99.0)
        truth = nearest_rank_value(e2e, 99.0, assume_sorted=True)
        alpha = sampler.policy.alpha
        assert abs(estimate - truth) <= alpha * truth * (1.0 + 1e-9)

    def test_rollup_and_flight_report_sampled_sections(self):
        obs = Observability(tracing=True)
        engine = make_engine(observability=obs)
        telemetry = engine.run(decode_trace(n=15), seed=1)
        sampler = TailSampler(TailSamplingPolicy(head_rate=3))
        sampler.sample(obs.tracer, telemetry.sessions)
        rollup = fleet_rollup(obs.tracer, telemetry.sessions, sampled=sampler)
        assert rollup["sessions"] == len(sampler.kept)
        block = rollup["sampled"]
        assert block["folded"] == len(telemetry.sessions)
        assert block["kept"] + block["dropped"] == block["folded"]
        assert "e2e" in block["sketches"]
        report = obs.flight_report(
            name="sampled", telemetry=telemetry, sampled=sampler
        )
        md = report_to_markdown(report)
        assert "Tail-sampled fleet (sketch mode)" in md


# ----------------------------------------------------------------------
# Streaming (O(1) memory) engine telemetry
# ----------------------------------------------------------------------
class TestStreamingTelemetry:
    def _pair(self, scenario=None, faults=None, **engine_kw):
        scenario = scenario or decode_trace(n=30)
        exact = make_engine(
            observability=Observability(tracing=False), **engine_kw
        ).run(scenario, seed=2, faults=faults)
        sobs = Observability(tracing=False, streaming=True)
        stream = make_engine(observability=sobs, **engine_kw).run(
            scenario, seed=2, faults=faults
        )
        return exact, stream, sobs

    def test_counts_match_exact_mode(self):
        cases = (
            (decode_trace(n=30), None, 256),
            (*prefix_storm(), 256),
            # Occupancies in twentieths: the summation order shows.
            (decode_trace(n=30), None, 20),
        )
        for scenario, faults, blocks in cases:
            exact, stream, _ = self._pair(scenario, faults, blocks=blocks)
            assert stream.streaming
            assert not stream.sessions and not stream.steps
            horizon = max(scenario.duration_s, exact.makespan())
            assert scalar_fields(
                stream.summary(horizon, ttft_slo_s=1e-5)
            ) == scalar_fields(exact.summary(horizon, ttft_slo_s=1e-5))
            # The accumulators against scans of the exact-mode records.
            assert stream.sessions_count() == len(exact.sessions)
            assert stream.steps_count() == len(exact.steps)
            assert stream.tokens_generated() == sum(
                s.tokens_generated for s in exact.sessions
            )
            assert stream.makespan() == max(
                s.finish_time for s in exact.sessions
            )
            assert stream.mean_batch_size() == sum(
                r.active for r in exact.steps
            ) / len(exact.steps)
            occupancy = 0.0
            for r in exact.steps:
                occupancy += r.kv_occupancy
            mean_occupancy = occupancy / len(exact.steps)
            assert exact.kv_stats()["mean_occupancy"] == mean_occupancy
            assert stream.kv_stats()["mean_occupancy"] == mean_occupancy
            with pytest.raises(ValueError):
                stream.ttfts()

    def test_sketched_quantiles_within_alpha(self):
        exact, stream, _ = self._pair()
        ttfts = sorted(exact.ttfts())
        summary = stream.summary(stream.makespan(), ttft_slo_s=1e-5)
        for q, key in ((50.0, "p50_s"), (95.0, "p95_s"), (99.0, "p99_s")):
            truth = nearest_rank_value(ttfts, q, assume_sorted=True)
            tol = stream.sketch_alpha * abs(truth) * (1.0 + 1e-9)
            assert abs(summary["ttft"][key] - truth) <= tol
        block = summary["streaming"]
        assert block["alpha"] == stream.sketch_alpha
        # Exact moments survive the sketching: the e2e mean/max match
        # the record-keeping run's bit-for-bit.
        e2e = [
            float(s.finish_time) - float(s.arrival_time)
            for s in exact.sessions
        ]
        assert block["e2e"]["max_s"] == max(e2e)
        assert block["sketch_bytes"] > 0
        assert block["attribution_topk"]["items"]

    def test_streaming_keeps_gauges_and_prom_bounded(self):
        _, _, sobs = self._pair()
        for metric in sobs.registry.metrics():
            if isinstance(metric, Gauge):
                for child in metric.children():
                    assert child.series == []
        text = sobs.registry.prometheus_text()
        assert parse_prometheus_text(text) == sobs.registry.samples()
        # The TTFT histogram runs on the sketch backend in this mode.
        assert 'engine_ttft_seconds_bucket' in text

    def test_summary_replay_byte_identical(self):
        _, stream1, _ = self._pair()
        _, stream2, _ = self._pair()
        one = json.dumps(
            stream1.summary(stream1.makespan(), ttft_slo_s=1e-5),
            sort_keys=True,
        )
        two = json.dumps(
            stream2.summary(stream2.makespan(), ttft_slo_s=1e-5),
            sort_keys=True,
        )
        assert one == two
