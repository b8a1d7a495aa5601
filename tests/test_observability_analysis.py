"""Analysis layer over the observability plane: critical path, diff,
flight reports, the tracer's lazy span index and the bench trajectory."""

import json
import pathlib

import numpy as np
import pytest

from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultPlan,
    HealthPolicy,
    Observability,
    SLOSpec,
    SLOTracker,
    TokenServingEngine,
    Tracer,
    default_windows,
    diff_runs,
    export_run,
    fleet_rollup,
    parse_prometheus_text,
    render_diff,
    session_breakdown,
)
from repro.serve.observability.critical_path import (
    PHASE_NAMES,
    mad_outliers,
    nearest_rank,
)
from repro.serve.observability.diff import main as diff_main, run_to_json
from repro.serve.observability.report import (
    build_flight_report,
    report_to_markdown,
)
from repro.serve.traffic import Scenario

# `python -m pytest` from the repo root puts the root on sys.path, so
# the benchmarks namespace package resolves (same mechanism the smoke
# tier uses to collect benchmarks/bench_*.py).
from benchmarks.trajectory import HEADLINES, collect, render

REPO = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Fixtures: a small traced fault storm (mirrors the observability demo).
# ----------------------------------------------------------------------
def make_engine(obs):
    rng = np.random.default_rng(0)
    model = Sequential(
        Linear(12, 24, rng=rng), Tanh(), Linear(24, 12, rng=rng)
    )
    profile = DecodeModelProfile(
        "chat",
        model,
        kv=KVCacheSpec(num_layers=2, num_heads=2, head_dim=4),
        replicas=3,
        ttft_slo_s=1e-5,
    )
    config = EngineConfig(
        max_batch_size=4, block_tokens=4, kv_fraction=0.5, recovery=True
    )
    return TokenServingEngine(
        ExecutorPool(3),
        profile,
        config,
        health=HealthPolicy(suspect_after_s=1e-8, dead_after_s=3e-8),
        observability=obs,
    )


def traced_storm(n=12, max_batch=4):
    arrivals = tuple((i * 1e-7, "chat", i % 3, 6, 8) for i in range(n))
    scenario = Scenario("storm", arrivals, n * 1e-7)
    storm = FaultPlan.replica_kills([(4e-7, 0)]).merge(
        FaultPlan.transient_storm(
            start=5e-7, stop=9e-7, rate_per_s=2e6,
            p_uncorrectable=0.3, seed=7, kv_loss_share=0.2,
        )
    )
    obs = Observability(
        tracing=True,
        slo=SLOTracker(SLOSpec("ttft", 0.95, default_windows(2e-6))),
    )
    engine = make_engine(obs)
    if max_batch != 4:
        engine.config = EngineConfig(
            max_batch_size=max_batch, block_tokens=4, kv_fraction=0.5,
            recovery=True,
        )
    telemetry = engine.run(scenario, seed=1, faults=storm)
    return obs, engine, telemetry


@pytest.fixture(scope="module")
def storm_run():
    return traced_storm()


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_nearest_rank(self):
        assert nearest_rank([1.0], 50.0) == 0
        assert nearest_rank([1, 2, 3, 4], 50.0) == 1
        assert nearest_rank([1, 2, 3, 4], 99.0) == 3
        assert nearest_rank([1, 2, 3, 4], 0.0) == 0
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101.0)

    def test_mad_outliers(self):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95, 40.0]
        tags = mad_outliers(vals)
        assert tags == [False, False, False, False, False, True]
        # MAD collapses to zero: anything above the median is tagged.
        assert mad_outliers([2.0, 2.0, 2.0, 5.0]) == [
            False, False, False, True,
        ]
        assert mad_outliers([]) == []

    def test_session_breakdowns_bit_exact(self, storm_run):
        obs, _, telemetry = storm_run
        assert telemetry.sessions
        for s in telemetry.sessions:
            b = session_breakdown(obs.tracer, s)
            assert b["exact"], b
            assert b["residual_s"] == 0.0
            assert b["e2e_s"] == float(s.finish_time) - float(s.arrival_time)
            assert set(b["phases"]) == set(PHASE_NAMES)
            # TTFT phases are a prefix of the full split.
            for name in PHASE_NAMES:
                assert b["ttft_phases"][name] <= b["phases"][name] + 1e-18

    def test_session_breakdown_requires_retired(self, storm_run):
        obs, _, telemetry = storm_run

        class Unfinished:
            session_id = 10**6
            priority = 0
            arrival_time = 0.0
            first_token_time = None
            finish_time = None

        with pytest.raises(ValueError, match="has not retired"):
            session_breakdown(obs.tracer, Unfinished())

    def test_fleet_rollup(self, storm_run):
        obs, _, telemetry = storm_run
        rollup = fleet_rollup(obs.tracer, telemetry.sessions, worst_k=2)
        n = len(telemetry.sessions)
        assert rollup["sessions"] == rollup["exact_sessions"] == n
        shares = rollup["phase_shares"]
        assert abs(sum(shares.values()) - 1.0) < 1e-12
        for key in ("e2e", "ttft"):
            for pct in ("p50", "p99"):
                ex = rollup[key][pct]
                assert set(ex["phases"]) == set(PHASE_NAMES)
                assert ex["dominant_phase"] in PHASE_NAMES
        total_by_class = sum(
            info["sessions"] for info in rollup["classes"].values()
        )
        assert total_by_class == n
        for info in rollup["classes"].values():
            assert len(info["worst"]) <= 2
            e2es = [w["e2e_s"] for w in info["worst"]]
            assert e2es == sorted(e2es, reverse=True)

    def test_fleet_rollup_empty(self, storm_run):
        obs, _, _ = storm_run
        rollup = fleet_rollup(obs.tracer, [])
        assert rollup["sessions"] == 0
        assert rollup["e2e"] is None and rollup["ttft"] is None
        assert rollup["classes"] == {}

    def test_rollup_deterministic_across_replays(self, storm_run):
        obs, _, telemetry = storm_run
        obs2, _, telemetry2 = traced_storm()
        a = fleet_rollup(obs.tracer, telemetry.sessions)
        b = fleet_rollup(obs2.tracer, telemetry2.sessions)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ----------------------------------------------------------------------
# Export / diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_export_replays_byte_identical(self, storm_run):
        obs, _, telemetry = storm_run
        obs2, _, telemetry2 = traced_storm()
        cfg = {"seed": 1}
        a = export_run(obs, config=cfg, sessions=telemetry.sessions)
        b = export_run(obs2, config=cfg, sessions=telemetry2.sessions)
        assert run_to_json(a) == run_to_json(b)
        result = diff_runs(a, b)
        assert result["changes"] == [] and not result["regression"]
        assert "ok: zero deltas" in render_diff(result)

    def test_export_sections(self, storm_run):
        obs, _, telemetry = storm_run
        run = export_run(obs, sessions=telemetry.sessions)
        assert set(run["phases"]) <= set(PHASE_NAMES)
        assert run["sessions"]["completed"] == len(telemetry.sessions)
        assert any(key.startswith("session/") for key in run["spans"])
        assert run["metrics"] == obs.registry.samples()
        # Observability.export is the bound convenience form.
        assert run_to_json(run) == run_to_json(
            obs.export(sessions=telemetry.sessions)
        )

    def test_numeric_thresholds(self):
        a = {"metrics": {"m": 100.0}}
        b = {"metrics": {"m": 101.0}}
        strict = diff_runs(a, b)
        assert strict["regression"] and len(strict["regressions"]) == 1
        lax = diff_runs(a, b, rel=0.05, abs_s=2.0)
        assert lax["changes"] and not lax["regression"]
        # Both thresholds must be exceeded to flag.
        assert diff_runs(a, b, rel=0.05, abs_s=0.5)["regression"] is False
        assert diff_runs(a, b, rel=0.001, abs_s=0.5)["regression"] is True
        with pytest.raises(ValueError):
            diff_runs(a, b, rel=-1.0)

    def test_structural_and_config_changes(self):
        a = {"spans": {"s/x": {"count": 1}}, "config": {"seed": 1}}
        b = {"spans": {"s/y": {"count": 1}}, "config": {"seed": 2}}
        result = diff_runs(a, b)
        assert result["added"] == ["spans/s/y/count"]
        assert result["removed"] == ["spans/s/x/count"]
        assert result["config_changes"][0]["path"] == "config/seed"
        assert result["regression"]
        # Config drift alone is ignorable; structure is not.
        only_cfg = diff_runs(
            {"config": {"seed": 1}}, {"config": {"seed": 2}},
            ignore_config=True,
        )
        assert not only_cfg["regression"]

    def test_non_numeric_leaf_change_flags(self):
        result = diff_runs(
            {"slo": {"slo": "ttft"}}, {"slo": {"slo": "e2e"}}
        )
        assert result["regression"]
        assert "delta" not in result["regressions"][0]

    def test_cli_exit_codes(self, storm_run, tmp_path):
        obs, _, telemetry = storm_run
        obs3, _, telemetry3 = traced_storm(max_batch=2)
        cfg = {"seed": 1, "max_batch_size": 4}
        a = export_run(obs, config=cfg, sessions=telemetry.sessions)
        c = export_run(
            obs3,
            config=dict(cfg, max_batch_size=2),
            sessions=telemetry3.sessions,
        )
        pa = tmp_path / "a.json"
        pb = tmp_path / "b.json"
        pc = tmp_path / "c.json"
        pa.write_text(run_to_json(a))
        pb.write_text(run_to_json(a))
        pc.write_text(run_to_json(c))
        assert diff_main([str(pa), str(pb)]) == 0
        assert diff_main([str(pa), str(pc)]) == 1
        assert diff_main([str(pa), str(pc), "--json"]) == 1
        with pytest.raises(SystemExit) as err:
            diff_main([str(pa), str(tmp_path / "missing.json")])
        assert err.value.code == 2


# ----------------------------------------------------------------------
# Flight report
# ----------------------------------------------------------------------
class TestFlightReport:
    def test_report_deterministic_and_complete(self, storm_run):
        obs, engine, telemetry = storm_run
        kwargs = dict(
            name="test storm",
            config={"seed": 1},
            telemetry=telemetry,
            profile=engine.profile,
            accelerator=engine.service.accelerator,
            now=telemetry.makespan(),
        )
        report = build_flight_report(obs, **kwargs)
        again = obs.flight_report(**kwargs)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert report["critical_path"]["exact_sessions"] == len(
            telemetry.sessions
        )
        assert report["attribution"]["max_abs_error_s"] == 0.0
        assert report["slo"]["objective"] == 0.95

        md = report_to_markdown(report)
        for heading in (
            "# Flight report — test storm",
            "## Config",
            "## Trace",
            "## Critical path",
            "### TTFT percentile attribution",
            "### Blocking sessions per class",
            "## Hardware attribution",
            "## SLO",
            "## Metrics",
        ):
            assert heading in md, heading
        assert md == report_to_markdown(again)

    def test_report_without_telemetry(self):
        obs = Observability(tracing=True)
        report = build_flight_report(obs, name="bare")
        assert report["critical_path"] is None
        assert report["attribution"] is None
        assert report["slo"] is None
        md = report_to_markdown(report)
        assert "## Critical path" not in md
        assert "## Trace" in md


# ----------------------------------------------------------------------
# Tracer span/instant index (satellite: results must be unchanged)
# ----------------------------------------------------------------------
class TestTracerIndex:
    def test_indexed_queries_match_linear_scan(self, storm_run):
        obs, _, telemetry = storm_run
        tracer = obs.tracer
        checked = 0
        for track in ("session", "request", "worker", "control"):
            for track_id in tracer.track_ids(track):
                fast = tracer.spans(track=track, track_id=track_id)
                slow = [
                    s
                    for s in tracer.spans(track=track)
                    if s.track_id == track_id
                ]
                assert fast == slow
                fast_i = tracer.instants(track=track, track_id=track_id)
                slow_i = [
                    i
                    for i in tracer.instants(track=track)
                    if i.track_id == track_id
                ]
                assert fast_i == slow_i
                checked += 1
        assert checked > 0

    def test_index_stays_fresh_across_appends(self):
        tracer = Tracer()
        tracer.span("session", 1, "decode", 0.0, 1.0)
        assert len(tracer.spans(track="session", track_id=1)) == 1
        # Appends after a query must be visible to the next query.
        tracer.span("session", 1, "stall", 1.0, 2.0)
        tracer.instant("session", 1, "retire", 2.0)
        spans = tracer.spans(track="session", track_id=1)
        assert [s.name for s in spans] == ["decode", "stall"]
        assert len(tracer.instants(track="session", track_id=1)) == 1
        # Name/category filters still apply on the indexed path.
        assert [
            s.name
            for s in tracer.spans(track="session", track_id=1, name="stall")
        ] == ["stall"]


# ----------------------------------------------------------------------
# Scheduler span args / telemetry join keys
# ----------------------------------------------------------------------
class TestSpanArgs:
    def test_phase_spans_carry_step_context_chunk(self, storm_run):
        obs, _, telemetry = storm_run
        steps = telemetry.steps
        phase_spans = [
            s
            for s in obs.tracer.spans(track="session")
            if s.name in ("prefill", "decode")
        ]
        assert phase_spans
        saw_prefill = False
        for span in phase_spans:
            args = span.args
            if span.name == "prefill":
                # Prefill spans carry the chunk geometry the
                # attribution layer re-prices.
                assert set(args) == {"step", "context", "chunk"}
                assert args["chunk"] > 0 and args["context"] >= 0
                saw_prefill = True
            else:
                assert set(args) == {"step"}
            step = steps[args["step"]]
            # The stamped step is the record covering this span.
            step_end = step.t + step.step_s + step.stall_s
            assert step.t <= span.t0
            assert span.t1 <= step_end + 1e-15
        assert saw_prefill

    def test_dispatch_wait_spans_carry_step(self, storm_run):
        obs, _, telemetry = storm_run
        waits = obs.tracer.spans(track="session", name="dispatch_wait")
        for span in waits:
            assert 0 <= span.args["step"] <= len(telemetry.steps)


# ----------------------------------------------------------------------
# Prometheus text parser edge cases (satellite: hardened parsing)
# ----------------------------------------------------------------------
class TestPrometheusParserEdges:
    def test_label_values_with_braces_and_escapes_round_trip(self):
        from repro.serve import MetricsRegistry

        registry = MetricsRegistry()
        gauge = registry.gauge("g", "help", labelnames=("model",))
        gauge.set(1.5, model='we"ird}\\name')
        gauge.set(2.5, model="plain")
        hist = registry.histogram(
            "h", "help", labelnames=("cls",), buckets=(0.1, 1.0)
        )
        hist.observe(0.05, "a}b")
        hist.observe(50.0, "a}b")
        text = registry.prometheus_text()
        assert parse_prometheus_text(text) == registry.samples()

    def test_inf_buckets_round_trip(self):
        samples = parse_prometheus_text(
            'h_bucket{le="+Inf"} 3\nlow{x="-Inf"} -Inf\n'
        )
        assert samples['h_bucket{le="+Inf"}'] == 3.0
        assert samples['low{x="-Inf"}'] == float("-inf")

    def test_malformed_lines_rejected(self):
        for bad in (
            "just_a_name",
            'name{x="1"}',
            "name not_a_number",
            'name{x="1"} not_a_number',
        ):
            with pytest.raises(ValueError, match="malformed Prometheus"):
                parse_prometheus_text(bad)
        # Comments and blank lines are fine.
        assert parse_prometheus_text("# HELP x y\n\n") == {}


# ----------------------------------------------------------------------
# Bench trajectory (satellite: headline metrics in one table)
# ----------------------------------------------------------------------
class TestTrajectory:
    def test_collect_over_repo_artifacts(self):
        rows = collect(REPO)
        expected = sum(len(metrics) for _, _, metrics in HEADLINES)
        assert len(rows) == expected
        by_bench = {r["bench"] for r in rows}
        assert {"core_gemm", "serving", "observability"} <= by_bench
        # Committed artifacts resolve their headline metrics.
        obs_rows = [r for r in rows if r["bench"] == "observability"]
        assert any(
            r["metric"] == "overhead_ratio" and r["present"] for r in obs_rows
        )

    def test_render_deterministic_and_missing_safe(self, tmp_path):
        rows = collect(tmp_path)  # no artifacts: everything missing
        assert all(not r["present"] for r in rows)
        table = render(rows)
        assert "missing" in table
        assert table == render(collect(tmp_path))
        full = render(collect(REPO))
        assert full.splitlines()[0].startswith("bench")
        assert "headline metrics recorded" in full
