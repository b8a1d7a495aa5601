"""Bounded-memory observability at scale — the streaming/sketch gate.

Replays the resilience storm through the serving engine at two traffic
scales (the base duration and ``SCALE``x the duration at the same
offered rate) with the bounded-memory observability layer attached —
:class:`~repro.serve.QuantileSketch` population summaries, the
:class:`~repro.serve.TailSampler` tail-based trace retention, and
``EngineTelemetry(streaming=True)`` — and writes
``BENCH_obs_scale.json`` at the repo root.

Gates (the ISSUE bar):

* **sketch accuracy** — every sketched quantile (E2E, TTFT and each
  phase distribution, at p50/p90/p99) is within the declared relative
  error ``ALPHA`` of the *exact nearest-rank* value computed from the
  full per-session record (the sketch's guarantee is stated against
  nearest-rank, not interpolated percentiles);
* **fixed memory** — after tail sampling, the retained session-track
  span/instant record count and the sampler's total sketch bytes stay
  under one fixed budget at *both* scales: observability memory does
  not scale with session count (the worker/control tracks are pool-
  sized, not traffic-sized, and are out of scope here);
* **100% tail retention** — every faulted/stalled and SLO-violating
  session's complete span timeline survives compaction bit-exactly
  (gap-free enqueue→retire tiling, re-checked *after* the drop);
* **byte-identical replays** — two seeded replays produce
  byte-identical sampler state (``TailSampler.to_json()``), post-drop
  Chrome traces, streaming telemetry summaries and Prometheus text
  (including the sketch-backed TTFT histogram's bucket rendering).

The streaming telemetry is additionally cross-checked against the
exact (record-keeping) telemetry of the identical seeded run.  Both
modes read every scalar from the same O(1) accumulators and differ only
in what they retain and in how they summarise distributions, so every
non-distribution field of the summary (counts, tokens, TPOT, steps,
mean batch, preemptions, KV, prefix and fault stats, and the per-class
counts) agrees exactly; sketched TTFT quantiles agree within alpha of
nearest-rank; the streaming run keeps no per-event state (empty
``steps`` / ``sessions`` lists); and neither run grows a gauge series.

``REPRO_SMOKE=1`` (the default test tier) runs the same gates at tiny
shapes without touching the committed JSON.

Run:  REPRO_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_obs_scale.py -s
"""

import json
import os
import time

from pathlib import Path

import numpy as np
import pytest

from repro.core import FaultTolerantCore, rrns_fault_rates
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultPlan,
    HealthPolicy,
    Observability,
    TailSampler,
    TailSamplingPolicy,
    TokenServingEngine,
    decode_scenario,
    parse_prometheus_text,
)
from repro.serve.observability import Gauge, nearest_rank_value

SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"
pytestmark = [] if SMOKE else [pytest.mark.slow]

# Traffic/fleet knobs identical to bench_observability.py — the same
# storm that plane observes in full, this gate observes under a fixed
# memory budget.  The scale axis multiplies DURATION at constant RATE.
RATE = 4e8 if SMOKE else 1.2e9
DURATION = 1e-7 if SMOKE else 4e-7
SCALE = 3 if SMOKE else 4
MAX_BATCH = 4 if SMOKE else 16
PROMPT_MEDIAN = 8 if SMOKE else 24
PROMPT_MAX = 24 if SMOKE else 96
DECODE_MEAN = 5 if SMOKE else 16
DECODE_MAX = 16 if SMOKE else 96
CLASS_MIX = {0: 4, 2: 1}
KV_FRACTION = 0.25
BLOCK_TOKENS = 16
TTFT_SLO_S = 2e-3
REPLICAS = 3
P_CHANNEL = 1e-3
SEED_TRAFFIC = 11
SEED_RUN = 5
SEED_STORM = 23

# Sketch relative-error bound under test, and the fixed memory budgets
# both scales must fit inside.  The budgets are deliberately constants
# (per tier): if retained state grew with session count, the SCALEx run
# would blow through them.
ALPHA = 0.02
QUANTILES = (50.0, 90.0, 99.0)
SPAN_BUDGET = 1200 if SMOKE else 4000
SKETCH_BYTE_BUDGET = 48_000
HEAD_TARGET = 16  # aim for ~16 head-sampled sessions at every scale
# Tail-sampling SLO threshold = this margin over the *same-scale*
# fault-free worst TTFT.  The offered load is an overload regime (the
# arrival window is ~100x shorter than the makespan), so queueing TTFT
# grows with arrival index and any one fixed threshold would tag a
# session count proportional to traffic; measured against its own
# fault-free envelope, a violation can only come from the (fixed-size)
# fault storm — keeping the retained set scale-independent.
SLO_MARGIN = 1.25
# Every field of EngineTelemetry.summary(..., ttft_slo_s) that is not a
# distribution, and the per-class counts; the two modes must agree on
# each exactly.
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


def _profile():
    rng = np.random.default_rng(0)
    dims = (16, 32, 16) if SMOKE else (48, 96, 48)
    model = Sequential(
        Linear(dims[0], dims[1], rng=rng), Tanh(), Linear(dims[1], dims[2], rng=rng)
    )
    kv = KVCacheSpec(num_layers=4, num_heads=8, head_dim=16)
    return DecodeModelProfile(
        "chat", model, kv, replicas=REPLICAS, ttft_slo_s=TTFT_SLO_S
    )


def _engine(observability=None, health=None):
    config = EngineConfig(
        max_batch_size=MAX_BATCH,
        block_tokens=BLOCK_TOKENS,
        kv_fraction=KV_FRACTION,
        recovery=True,
    )
    return TokenServingEngine(
        ExecutorPool(REPLICAS),
        _profile(),
        config,
        health=health,
        observability=observability,
    )


def _scenario(scale):
    return decode_scenario(
        "chat",
        rate=RATE,
        duration=DURATION * scale,
        prompt_median=PROMPT_MEDIAN,
        prompt_sigma=0.6,
        decode_mean=DECODE_MEAN,
        class_mix=CLASS_MIX,
        prompt_max=PROMPT_MAX,
        decode_max=DECODE_MAX,
        seed=SEED_TRAFFIC,
    )


def _storm(makespan):
    """Same construction as bench_resilience/_observability.

    Sized from the *base-scale* fault-free makespan and replayed
    verbatim at every scale, so the number of fault events — and hence
    the number of fault-retained sessions — does not grow with traffic.
    """
    kills = FaultPlan.replica_kills([(0.25 * makespan, 0), (0.40 * makespan, 1)])
    rates = rrns_fault_rates(FaultTolerantCore().codec, P_CHANNEL)
    op_rate = 20.0 / max(rates["detected"], 1e-12) / makespan
    burst = FaultPlan.from_rrns_rates(
        rates,
        op_rate_per_s=op_rate,
        start=0.45 * makespan,
        stop=0.75 * makespan,
        seed=SEED_STORM,
        kv_loss_share=0.15,
    )
    return kills.merge(burst)


def _policy(scenario, slo_s):
    head_rate = max(1, scenario.num_requests // HEAD_TARGET)
    return TailSamplingPolicy(
        head_rate=head_rate, ttft_slo_s=slo_s, alpha=ALPHA
    )


def _exact_run(scale, plan, health):
    obs = Observability(tracing=True)
    engine = _engine(observability=obs, health=health)
    telemetry = engine.run(_scenario(scale), seed=SEED_RUN, faults=plan)
    return obs, telemetry


def _streaming_run(scale, plan, health):
    obs = Observability(tracing=False, streaming=True)
    engine = _engine(observability=obs, health=health)
    telemetry = engine.run(_scenario(scale), seed=SEED_RUN, faults=plan)
    return obs, telemetry


def _scalar_fields(summary):
    out = {key: summary.get(key) for key in SCALAR_FIELDS}
    out["per_class"] = {
        p: {key: row[key] for key in CLASS_FIELDS}
        for p, row in summary.get("per_class", {}).items()
    }
    return out


def _session_track_records(tracer):
    spans = len(tracer.span_records("session"))
    instants = len(tracer.instant_records("session"))
    return spans + instants


def _exact_distributions(tracer, sessions):
    """Per-distribution exact value lists, mirroring TailSampler._fold."""
    dists = {"e2e": [], "ttft": []}
    for s in sessions:
        arr = float(s.arrival_time)
        dists["e2e"].append(float(s.finish_time) - arr)
        ft = s.first_token_time
        if ft is not None:
            dists["ttft"].append(float(ft) - arr)
        for rec in tracer.span_records("session", s.session_id):
            dists.setdefault(f"phase/{rec[2]}", []).append(rec[4] - rec[3])
    return {name: sorted(values) for name, values in dists.items()}


def _must_keep_ids(tracer, sessions, slo_s):
    """Fault/SLO retention ground truth, computed independently."""
    faulted, violators = set(), set()
    for s in sessions:
        stalled = any(
            rec[2] == "stall"
            for rec in tracer.span_records("session", s.session_id)
        )
        if s.preemptions > 0 or getattr(s, "recoveries", 0) > 0 or stalled:
            faulted.add(s.session_id)
        ft = s.first_token_time
        if ft is None or float(ft) - float(s.arrival_time) > slo_s:
            violators.add(s.session_id)
    return faulted, violators


def _check_sketch_accuracy(sampler, exact):
    """Gate: every sketched quantile within ALPHA of exact nearest-rank."""
    worst = 0.0
    for name, values in sorted(exact.items()):
        sketch = sampler.sketches[name]
        assert sketch.count == len(values), (
            f"sketch {name!r} folded {sketch.count} values, "
            f"expected {len(values)}"
        )
        for q in QUANTILES:
            estimate = sketch.percentile(q)
            truth = nearest_rank_value(values, q, assume_sorted=True)
            tolerance = ALPHA * abs(truth) * (1.0 + 1e-9)
            err = abs(estimate - truth)
            assert err <= tolerance, (
                f"{name} p{q:g}: sketch {estimate!r} vs nearest-rank "
                f"{truth!r} — error {err:.3e} exceeds alpha bound "
                f"{tolerance:.3e}"
            )
            if truth != 0.0:
                worst = max(worst, err / abs(truth))
    return worst


def _sampled_scale(scale, plan, health, slo_s):
    """One exact traced run at ``scale`` + tail sampling, fully gated."""
    obs, telemetry = _exact_run(scale, plan, health)
    tracer = obs.tracer
    sessions = telemetry.sessions
    assert sessions, f"scale {scale}: storm run completed nothing"

    # Ground truth *before* compaction drops the boring timelines.
    records_before = _session_track_records(tracer)
    exact = _exact_distributions(tracer, sessions)
    faulted, violators = _must_keep_ids(tracer, sessions, slo_s)

    sampler = TailSampler(_policy(_scenario(scale), slo_s))
    sampler.sample(tracer, sessions)

    # Gate: sketched quantiles within alpha of exact nearest-rank.
    worst_err = _check_sketch_accuracy(sampler, exact)

    # Gate: 100% retention of faulted and SLO-violating sessions, with
    # gap-free timelines surviving the drop bit-exactly.
    assert faulted <= sampler.kept, (
        f"faulted sessions dropped: {sorted(faulted - sampler.kept)[:5]}"
    )
    assert violators <= sampler.kept, (
        f"SLO violators dropped: {sorted(violators - sampler.kept)[:5]}"
    )
    by_id = {s.session_id: s for s in sessions}
    for sid in sorted(faulted | violators):
        s = by_id[sid]
        gaps = tracer.gaps(sid, start=s.arrival_time, end=s.finish_time)
        assert not gaps, f"kept session {sid} lost spans: gaps {gaps[:3]}"

    # Gate: fixed memory at this scale — retained session-track records
    # and sketch bytes under the shared (scale-independent) budgets.
    records_after = _session_track_records(tracer)
    sketch_bytes = sampler.byte_size()
    assert records_after <= SPAN_BUDGET, (
        f"scale {scale}: {records_after} retained session records exceed "
        f"budget {SPAN_BUDGET}"
    )
    assert sketch_bytes <= SKETCH_BYTE_BUDGET, (
        f"scale {scale}: {sketch_bytes} sketch bytes exceed budget "
        f"{SKETCH_BYTE_BUDGET}"
    )
    assert sampler.folded == len(sessions)
    assert len(sampler.kept) + sampler.dropped == sampler.folded

    return {
        "obs": obs,
        "telemetry": telemetry,
        "sampler": sampler,
        "sessions": len(sessions),
        "records_before": records_before,
        "records_after": records_after,
        "sketch_bytes": sketch_bytes,
        "worst_quantile_err": worst_err,
        "faulted": len(faulted),
        "violators": len(violators),
    }


def test_obs_scale_gate():
    # Fault-free passes size the storm + health policy (from the base
    # scale, replayed verbatim at both scales) and each scale's
    # tail-sampling SLO threshold (SLO_MARGIN over its own fault-free
    # worst TTFT — see the SLO_MARGIN note above).
    base_tel = _engine().run(_scenario(1), seed=SEED_RUN)
    makespan = base_tel.makespan()
    plan = _storm(makespan)
    health = HealthPolicy(
        suspect_after_s=makespan / 200.0, dead_after_s=makespan / 60.0
    )
    slo_small = SLO_MARGIN * max(base_tel.ttfts())
    big_tel = _engine().run(_scenario(SCALE), seed=SEED_RUN)
    slo_big = SLO_MARGIN * max(big_tel.ttfts())

    start = time.perf_counter()
    small = _sampled_scale(1, plan, health, slo_small)
    big = _sampled_scale(SCALE, plan, health, slo_big)
    print("\nobs scale (tail-sampled fault storm):")
    for tag, r in (("base", small), (f"{SCALE}x", big)):
        print(
            f"  {tag}: sessions={r['sessions']} records "
            f"{r['records_before']} -> {r['records_after']} "
            f"(budget {SPAN_BUDGET}), sketch_bytes={r['sketch_bytes']} "
            f"(budget {SKETCH_BYTE_BUDGET}), kept="
            f"{len(r['sampler'].kept)} "
            f"{dict(sorted(r['sampler'].reason_counts.items()))}, "
            f"worst quantile err={r['worst_quantile_err']:.2e} "
            f"(alpha {ALPHA})"
        )

    # Gate: byte-identical replay of the sampled big run — sampler
    # state and the post-drop Chrome trace both reproduce exactly.
    big2 = _sampled_scale(SCALE, plan, health, slo_big)
    assert big["sampler"].to_json() == big2["sampler"].to_json()
    assert (
        big["obs"].tracer.chrome_trace() == big2["obs"].tracer.chrome_trace()
    )

    # Streaming telemetry at the big scale: O(1)-per-event memory,
    # cross-checked against the identical exact run.
    sobs, stel = _streaming_run(SCALE, plan, health)
    etel = big["telemetry"]
    assert stel.streaming and not stel.steps and not stel.sessions
    assert stel.sessions_count() == len(etel.sessions)
    assert stel.steps_count() == len(etel.steps)
    assert stel.makespan() == etel.makespan()
    horizon = etel.makespan()
    assert _scalar_fields(
        stel.summary(horizon, ttft_slo_s=TTFT_SLO_S)
    ) == _scalar_fields(etel.summary(horizon, ttft_slo_s=TTFT_SLO_S))
    with pytest.raises(ValueError):
        stel.ttfts()
    for mode, registry, prefix in (
        ("streaming", sobs.registry, ""),
        ("exact", big["obs"].registry, "engine_"),
    ):
        for metric in registry.metrics():
            if isinstance(metric, Gauge) and metric.name.startswith(prefix):
                for child in metric.children():
                    assert child.series == [], (
                        f"{mode} mode grew gauge series on {metric.name}"
                    )

    ttfts = sorted(etel.ttfts())
    ssummary = stel.summary(stel.makespan(), ttft_slo_s=TTFT_SLO_S)
    for q, key in ((50.0, "p50_s"), ((95.0), "p95_s"), (99.0, "p99_s")):
        estimate = ssummary["ttft"][key]
        truth = nearest_rank_value(ttfts, q, assume_sorted=True)
        tol = stel.sketch_alpha * abs(truth) * (1.0 + 1e-9)
        assert abs(estimate - truth) <= tol, (
            f"streaming ttft {key}: {estimate!r} vs nearest-rank {truth!r}"
        )
    stream_bytes = ssummary["streaming"]["sketch_bytes"]
    assert stream_bytes <= SKETCH_BYTE_BUDGET

    # Gate: streaming replay byte-identical — summary JSON and the
    # Prometheus text (sketch-backed TTFT histogram included), which
    # must also round-trip losslessly through the parser.
    prom = sobs.registry.prometheus_text()
    assert parse_prometheus_text(prom) == sobs.registry.samples()
    sobs2, stel2 = _streaming_run(SCALE, plan, health)
    summary_json = json.dumps(ssummary, sort_keys=True)
    summary_json2 = json.dumps(
        stel2.summary(stel2.makespan(), ttft_slo_s=TTFT_SLO_S), sort_keys=True
    )
    assert summary_json == summary_json2
    assert prom == sobs2.registry.prometheus_text()
    elapsed = time.perf_counter() - start

    retained_fraction = len(big["sampler"].kept) / big["sampler"].folded
    memory_budget_ratio = max(
        big["records_after"] / SPAN_BUDGET,
        small["records_after"] / SPAN_BUDGET,
        big["sketch_bytes"] / SKETCH_BYTE_BUDGET,
        small["sketch_bytes"] / SKETCH_BYTE_BUDGET,
    )
    print(
        f"  streaming: sessions={stel.sessions_count()} sketch_bytes="
        f"{stream_bytes}; replays byte-identical; retained_fraction="
        f"{retained_fraction:.3f} memory_budget_ratio="
        f"{memory_budget_ratio:.3f} ({elapsed:.1f}s)"
    )

    if SMOKE:
        return

    payload = {
        "alpha": ALPHA,
        "retained_fraction": round(retained_fraction, 4),
        "memory_budget_ratio": round(memory_budget_ratio, 4),
        "config": {
            "replicas": REPLICAS,
            "max_batch_size": MAX_BATCH,
            "offered_rate_rps": RATE,
            "base_duration_s": DURATION,
            "scale": SCALE,
            "ttft_slo_s": {"base": slo_small, str(SCALE): slo_big},
            "slo_margin": SLO_MARGIN,
            "head_target": HEAD_TARGET,
            "span_budget": SPAN_BUDGET,
            "sketch_byte_budget": SKETCH_BYTE_BUDGET,
            "storm_signature": plan.signature(),
        },
        "scales": {
            str(tag): {
                "sessions": r["sessions"],
                "records_before": r["records_before"],
                "records_after": r["records_after"],
                "sketch_bytes": r["sketch_bytes"],
                "kept": len(r["sampler"].kept),
                "dropped": r["sampler"].dropped,
                "reason_counts": dict(
                    sorted(r["sampler"].reason_counts.items())
                ),
                "faulted": r["faulted"],
                "slo_violators": r["violators"],
                "worst_quantile_err": round(r["worst_quantile_err"], 6),
            }
            for tag, r in ((1, small), (SCALE, big))
        },
        "quantiles_checked": list(QUANTILES),
        "tail_retention_complete": True,
        "replay_byte_identical": True,
        "streaming": {
            "alpha": stel.sketch_alpha,
            "sessions": stel.sessions_count(),
            "steps": stel.steps_count(),
            "sketch_bytes": stream_bytes,
            "prometheus_round_trip_exact": True,
        },
    }
    repo_root = Path(__file__).resolve().parents[1]
    out_path = repo_root / "BENCH_obs_scale.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
