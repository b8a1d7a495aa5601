"""Observability plane: tracer, metrics registry, profiler, SLO burn."""

import json
import pathlib
import subprocess

import numpy as np
import pytest

from repro.arch.accelerator import MirageAccelerator
from repro.arch.config import MirageConfig
from repro.arch.inference import (
    attention_token_components,
    attention_token_latency,
    chunked_prefill_components,
    chunked_prefill_latency,
    decode_step_latency,
    inference_latency_components,
)
from repro.arch.memory import MemorySystemModel
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    BurnRateMonitor,
    BurnWindow,
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultPlan,
    HardwareAttributionProfiler,
    HealthPolicy,
    MetricsRegistry,
    Observability,
    SLOSpec,
    SLOTracker,
    ServingRuntime,
    TokenServingEngine,
    Tracer,
    bursty_scenario,
    default_windows,
    model_layer_shapes,
    parse_prometheus_text,
    percentile,
)
from repro.serve.batcher import BatchPolicy
from repro.serve.runtime import AutoscalerPolicy, ModelProfile
from repro.serve.telemetry import Telemetry
from repro.serve.traffic import Scenario

REPO = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def mlp(seed=0, dim=12, hidden=24):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(dim, hidden, rng=rng), Tanh(), Linear(hidden, dim, rng=rng)
    )


def make_engine(observability=None, replicas=3, blocks=256, block_tokens=4,
                health=None, **config_kw):
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
        health=health, observability=observability,
    )


def decode_trace(n=12, spacing=1e-7, prompt=6, decode=8):
    arrivals = tuple(
        (i * spacing, "m0", i % 3, prompt, decode) for i in range(n)
    )
    return Scenario("decode", arrivals, n * spacing + 1e-9)


def make_runtime(autoscaler=None):
    rt = ServingRuntime(
        ExecutorPool(3),
        BatchPolicy(max_batch_size=4, max_wait_s=0.0),
        deadline_s=1e-3,
        autoscaler=autoscaler,
    )
    rt.register_model(
        ModelProfile("m", mlp(dim=64), replicas=2, slo_s=1e-3)
    )
    return rt


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits", labelnames=("model",))
        c.labels("a").inc()
        c.labels("a").inc(2.0)
        c.labels("b").inc()
        samples = reg.samples()
        assert samples['hits_total{model="a"}'] == 3.0
        assert samples['hits_total{model="b"}'] == 1.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n_total", "n").inc(-1.0)

    def test_gauge_series(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "queue depth").labels()
        g.set(3.0, t=1.0)
        g.set(1.0, t=2.0)
        assert g.series == [(1.0, 3.0), (2.0, 1.0)]
        assert reg.samples()["depth"] == 1.0

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        samples = reg.samples()
        assert samples['lat_bucket{le="0.1"}'] == 1.0
        assert samples['lat_bucket{le="1.0"}'] == 2.0
        assert samples['lat_bucket{le="+Inf"}'] == 3.0
        assert samples["lat_count"] == 3.0
        assert samples["lat_sum"] == 0.05 + 0.5 + 5.0

    def test_registration_idempotent_and_conflicts(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", labelnames=("m",))
        assert reg.counter("x_total", "x", labelnames=("m",)) is a
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", labelnames=("other",))
        with pytest.raises(ValueError):
            reg.gauge("x_total", "x", labelnames=("m",))

    def test_histogram_buckets_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", "h", buckets=(1.0, 1.0))

    def test_prometheus_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a", labelnames=("k",)).labels("v1").inc(2.5)
        reg.gauge("g", "g").labels().set(1e-300)
        h = reg.histogram("h_seconds", "h", buckets=(1e-9, 1.0))
        h.observe(0.3)
        h.observe(7.0)
        text = reg.prometheus_text()
        assert "# TYPE a_total counter" in text
        assert parse_prometheus_text(text) == reg.samples()

    def test_prometheus_round_trip_is_lossless_on_awkward_floats(self):
        reg = MetricsRegistry()
        g = reg.gauge("x", "x").labels()
        g.set(0.1 + 0.2)  # classic non-representable decimal
        assert parse_prometheus_text(reg.prometheus_text()) == reg.samples()


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_query_and_timeline(self):
        tr = Tracer()
        tr.span("session", 1, "queue_wait", 0.0, 1.0, category="queue")
        tr.span("session", 1, "decode", 1.0, 3.0, category="decode")
        tr.span("session", 2, "decode", 0.0, 1.0)
        assert len(tr.spans(track="session", track_id=1)) == 2
        timeline = tr.session_timeline(1)
        assert [(s.t0, s.t1) for s in timeline] == [(0.0, 1.0), (1.0, 3.0)]
        assert timeline[0].category == "queue"
        assert tr.track_ids("session") == [1, 2]

    def test_gap_detection_is_exact(self):
        tr = Tracer()
        tr.span("session", 1, "a", 0.0, 1.0)
        tr.span("session", 1, "b", 1.0 + 1e-12, 2.0)
        gaps = tr.gaps(1, start=0.0, end=2.0)
        assert gaps == [(1.0, 1.0 + 1e-12)]
        assert not tr.gap_free(1, start=0.0, end=2.0)

    def test_gap_free_requires_strict_tiling(self):
        tr = Tracer()
        tr.span("session", 1, "a", 0.0, 1.0)
        tr.span("session", 1, "b", 1.0, 1.0)  # zero-length at a boundary
        tr.span("session", 1, "c", 1.0, 3.0)
        assert tr.gap_free(1, start=0.0, end=3.0)
        # Overlap breaks the tiling contract just like a hole does.
        tr.span("session", 1, "d", 2.5, 3.5)
        assert not tr.gap_free(1, start=0.0, end=3.5)

    def test_chrome_trace_shape(self):
        tr = Tracer()
        tr.span("worker", 0, "dispatch:m", 0.0, 1e-6, args={"batch": 2})
        tr.instant("control", 0, "autoscale:m", 5e-7, args={"add": 1})
        events = json.loads(tr.chrome_trace())["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert metas and all(e == metas[0] or True for e in metas)
        x = [e for e in events if e["ph"] == "X"][0]
        assert x["ts"] == 0.0 and x["dur"] == 1.0  # microseconds
        assert x["args"] == {"batch": 2}
        assert [e for e in events if e["ph"] == "i"][0]["name"] == "autoscale:m"

    def test_chrome_trace_deterministic(self):
        def build():
            tr = Tracer()
            tr.span("session", 3, "decode", 0.1, 0.2, args={"b": 1, "a": 2})
            tr.instant("session", 3, "retire", 0.2)
            return tr.chrome_trace()

        assert build() == build()


# ----------------------------------------------------------------------
# SLO burn-rate monitors
# ----------------------------------------------------------------------
class TestSLOBurn:
    def spec(self, objective=0.9):
        # One window pair: long 10s / short 1s, threshold 2x budget burn.
        return SLOSpec("ttft", objective, (BurnWindow(10.0, 1.0, 2.0),))

    def test_error_budget(self):
        assert self.spec(0.9).error_budget == pytest.approx(0.1)

    def test_burn_rate_math(self):
        mon = BurnRateMonitor(self.spec(), "c0")
        for i in range(10):
            mon.observe(float(i), good=(i % 2 == 0))
        # 5 bad of 10 in the long window: error rate 0.5, budget 0.1.
        assert mon.error_rate(9.0, 10.0) == pytest.approx(0.5)
        assert mon.burn_rate(9.0, 10.0) == pytest.approx(5.0)

    def test_alert_requires_both_windows(self):
        mon = BurnRateMonitor(self.spec(), "c0")
        # Old failures saturate the long window; the short window at
        # t=20 has only recent successes -> no alert (burn is history).
        for i in range(10):
            mon.observe(float(i), good=False)
        for t in (19.2, 19.5, 19.9):
            mon.observe(t, good=True)
        assert mon.check(20.0) == []
        # Fresh failures light up both windows -> alert fires.
        mon2 = BurnRateMonitor(self.spec(), "c0")
        for i in range(10):
            mon2.observe(10.0 + i * 0.1, good=False)
        alerts = mon2.check(11.0)
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["slo"] == "ttft" and alert["key"] == "c0"
        assert alert["long_burn"] >= 2.0 and alert["short_burn"] >= 2.0

    def test_empty_window_is_none(self):
        mon = BurnRateMonitor(self.spec(), "c0")
        assert mon.error_rate(0.0, 1.0) is None
        assert mon.check(1.0) == []

    def test_tracker_routes_by_key(self):
        tracker = SLOTracker(self.spec())
        tracker.observe("class0", 0.5, good=False)
        tracker.observe("class2", 0.6, good=True)
        assert sorted(tracker.monitors) == ["class0", "class2"]
        summary = tracker.summary(1.0)
        assert summary["keys"]["class0"]["events"] == 1

    def test_default_windows_scale_with_horizon(self):
        wins = default_windows(100.0)
        assert len(wins) == 2
        assert wins[0].long_s == pytest.approx(5.0)
        assert wins[0].short_s == pytest.approx(5.0 / 12.0)
        assert wins[0].threshold > wins[1].threshold


# ----------------------------------------------------------------------
# The scalar latency views return their components' totals bit-exactly
# ----------------------------------------------------------------------
class TestComponentExactness:
    def test_attention_components_total(self):
        acc = MirageAccelerator()
        kv = KVCacheSpec(num_layers=2, num_heads=4, head_dim=8)
        comp = attention_token_components(kv, 17, acc)
        assert comp["total_s"] == attention_token_latency(kv, 17, acc)

    def test_decode_step_components_total(self):
        acc = MirageAccelerator()
        kv = KVCacheSpec(num_layers=2, num_heads=4, head_dim=8)
        lens = [5, 9, 5, 33]
        layers = model_layer_shapes("m", mlp(dim=64), len(lens))
        step = decode_step_latency(layers, lens, kv, acc)
        token = inference_latency_components(layers, acc)
        attention = sum(
            attention_token_components(kv, length, acc)["total_s"]
            for length in lens
        )
        assert step["token_parallel_s"] == token["total_s"]
        assert step["attention_s"] == attention
        assert step["step_latency_s"] == token["total_s"] + attention

    def test_chunked_prefill_components_total(self):
        acc = MirageAccelerator()
        kv = KVCacheSpec(num_layers=2, num_heads=4, head_dim=8)
        layers = model_layer_shapes("m", mlp(dim=64), 8)
        comp = chunked_prefill_components(layers, 8, 16, kv, acc)
        assert comp["total_s"] == chunked_prefill_latency(
            layers, 8, 16, kv, acc
        )
        zero = chunked_prefill_components(layers, 0, 16, kv, acc)
        assert zero["total_s"] == 0.0


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineObservability:
    def run_traced(self):
        obs = Observability(
            tracing=True,
            slo=SLOTracker(SLOSpec("ttft", 0.95, default_windows(1e-5))),
        )
        engine = make_engine(observability=obs)
        telemetry = engine.run(decode_trace(), seed=1)
        return obs, engine, telemetry

    def test_gap_free_session_timelines(self):
        obs, _, telemetry = self.run_traced()
        assert telemetry.sessions
        for s in telemetry.sessions:
            assert obs.tracer.gap_free(
                s.session_id, start=s.arrival_time, end=s.finish_time
            ), obs.tracer.gaps(s.session_id, start=s.arrival_time,
                               end=s.finish_time)

    def test_enqueue_and_retire_instants(self):
        obs, _, telemetry = self.run_traced()
        for s in telemetry.sessions:
            names = [
                i.name
                for i in obs.tracer.instants(
                    track="session", track_id=s.session_id
                )
            ]
            assert names[0] == "enqueue" and names[-1] == "retire"
            assert "admit" in names and "first_token" in names

    def test_attribution_exact(self):
        obs, engine, telemetry = self.run_traced()
        result = obs.profiler(engine.service.accelerator).attribute_engine(
            engine.profile, telemetry
        )
        assert result["checked_spans"] == len(telemetry.steps)
        assert result["max_abs_error_s"] == 0.0
        assert result["attributed_s"] == result["total_busy_s"]

    def test_attribution_strict_catches_corruption(self):
        obs, engine, telemetry = self.run_traced()
        telemetry.steps[0].step_s *= 1.5
        profiler = obs.profiler(engine.service.accelerator)
        with pytest.raises(AssertionError):
            profiler.attribute_engine(engine.profile, telemetry)

    def test_metrics_record_through_registry(self):
        obs, _, telemetry = self.run_traced()
        samples = obs.registry.samples()
        completed = sum(
            v for name, v in samples.items()
            if name.startswith("engine_sessions_completed_total")
        )
        assert completed == len(telemetry.sessions)
        assert parse_prometheus_text(obs.registry.prometheus_text()) == samples

    def test_slo_monitor_sees_every_terminal_session(self):
        obs, _, telemetry = self.run_traced()
        events = sum(m.total for m in obs.slo.monitors.values())
        assert events == len(telemetry.sessions)

    def test_tracing_does_not_perturb_the_run(self):
        obs, _, traced = self.run_traced()
        bare = make_engine().run(decode_trace(), seed=1)
        assert bare.makespan() == traced.makespan()
        assert len(bare.sessions) == len(traced.sessions)

    def test_storm_replay_exports_are_byte_identical(self):
        """Satellite: two seeded fault-storm runs dump identical bytes."""

        def run():
            obs = Observability(tracing=True)
            plan = FaultPlan.replica_kills([(4e-7, 0)]).merge(
                FaultPlan.transient_storm(
                    start=5e-7, stop=9e-7, rate_per_s=2e6,
                    p_uncorrectable=0.3, seed=7, kv_loss_share=0.2,
                )
            )
            engine = make_engine(
                observability=obs,
                health=HealthPolicy(suspect_after_s=1e-8, dead_after_s=3e-8),
                recovery=True,
            )
            engine.run(decode_trace(), seed=1, faults=plan)
            return obs.tracer.chrome_trace(), obs.registry.prometheus_text()

        trace_a, prom_a = run()
        trace_b, prom_b = run()
        assert trace_a == trace_b
        assert prom_a == prom_b
        json.loads(trace_a)  # and the trace is valid JSON


# ----------------------------------------------------------------------
# Runtime integration
# ----------------------------------------------------------------------
class TestRuntimeObservability:
    def test_runtime_attribution_exact(self):
        rt = make_runtime(
            autoscaler=AutoscalerPolicy(
                interval_s=5e-8, window_s=2e-7, max_replicas=3
            ),
        )
        scenario = bursty_scenario(
            "m", on_rate=2e9, on_s=1.2e-7, off_s=8e-8, duration=4e-7, seed=3
        )
        rt.run(scenario, seed=0)
        result = HardwareAttributionProfiler(
            rt.service.accelerator
        ).attribute_runtime(rt._profiles, rt.telemetry)
        assert result["checked_spans"] == len(rt.telemetry.batches)
        assert result["max_abs_error_s"] == 0.0


# ----------------------------------------------------------------------
# Telemetry guards (satellite)
# ----------------------------------------------------------------------
class TestTelemetryGuards:
    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 100.1)

    def test_throughput_guards_horizon(self):
        tel = Telemetry()
        assert tel.throughput(0.0) == 0.0
        assert tel.throughput(-1.0) == 0.0

    def test_engine_tokens_per_s_guards_horizon(self):
        _, _, telemetry = TestEngineObservability().run_traced()
        assert telemetry.tokens_per_s(0.0) == 0.0
        assert telemetry.tokens_per_s(-1.0) == 0.0


# ----------------------------------------------------------------------
# Repo hygiene (satellite)
# ----------------------------------------------------------------------
class TestRepoHygiene:
    def test_no_tracked_bytecode(self):
        tracked = subprocess.run(
            ["git", "ls-files"], cwd=REPO, capture_output=True, text=True
        )
        assert tracked.returncode == 0
        offenders = [
            line for line in tracked.stdout.splitlines()
            if line.endswith(".pyc") or "__pycache__" in line
        ]
        assert not offenders, offenders

    def test_gitignore_covers_bytecode(self):
        patterns = (REPO / ".gitignore").read_text().split()
        assert "__pycache__/" in patterns
        assert "*.pyc" in patterns
        assert ".pytest_cache/" in patterns
