"""Token serving engine: sessions, KV paging, iteration-level scheduling."""

import numpy as np
import pytest

from repro.arch.config import MirageConfig
from repro.arch.memory import MemorySystemModel
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh, kv_cache_bytes_per_token
from repro.serve import (
    DecodeModelProfile,
    DecodeSession,
    EngineConfig,
    ExecutorPool,
    KVBlockManager,
    Priority,
    RequestStatus,
    TokenServingEngine,
    build_sessions,
    decode_scenario,
    geometric_lengths,
    lognormal_lengths,
    next_token_input,
    sequential_decode_outputs,
)
from repro.serve.traffic import Scenario


def recurrent_mlp(seed=0, dim=12, hidden=24):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(dim, hidden, rng=rng), Tanh(), Linear(hidden, dim, rng=rng)
    )


def profile(seed=0, dim=12, **kw):
    kw.setdefault("kv", KVCacheSpec(num_layers=2, num_heads=2, head_dim=4))
    return DecodeModelProfile("m0", recurrent_mlp(seed, dim=dim), **kw)


def session_scenario(specs, duration=None):
    """Explicit decode trace: (t, priority, prompt_len, decode_len) tuples."""
    arrivals = tuple(
        (float(t), "m0", p, prompt, decode) for t, p, prompt, decode in specs
    )
    if duration is None:
        duration = (max(a[0] for a in arrivals) + 1e-9) if arrivals else 0.0
    return Scenario("decode", arrivals, duration)


def make_engine(
    prof=None, blocks=64, block_tokens=4, workers=1, **config_kw
):
    prof = prof or profile()
    manager_bytes = blocks * block_tokens * prof.kv.bytes_per_token
    memory = MemorySystemModel(MirageConfig(sram_bytes=manager_bytes))
    config = EngineConfig(
        block_tokens=block_tokens, kv_fraction=1.0, **config_kw
    )
    return TokenServingEngine(
        ExecutorPool(workers), prof, config, memory=memory
    )


# ----------------------------------------------------------------------
# Traffic samplers
# ----------------------------------------------------------------------
class TestLengthSamplers:
    def test_geometric_mean_and_bounds(self):
        rng = np.random.default_rng(0)
        lengths = geometric_lengths(20000, 12.0, rng, minimum=2, maximum=64)
        assert lengths.min() >= 2 and lengths.max() <= 64
        assert abs(lengths.mean() - 12.0) < 0.5

    def test_geometric_deterministic_in_seed(self):
        a = geometric_lengths(100, 8.0, np.random.default_rng(7))
        b = geometric_lengths(100, 8.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_geometric_minimum_degenerate(self):
        lengths = geometric_lengths(50, 1.0, np.random.default_rng(0))
        assert np.all(lengths == 1)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), 0.0, 0.5])
    def test_geometric_bad_mean_rejected(self, mean):
        with pytest.raises(ValueError):
            geometric_lengths(10, mean, np.random.default_rng(0))

    def test_geometric_bad_bounds_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            geometric_lengths(10, 5.0, rng, minimum=0)
        with pytest.raises(ValueError):
            geometric_lengths(10, 5.0, rng, minimum=4, maximum=3)
        with pytest.raises(ValueError):
            geometric_lengths(-1, 5.0, rng)

    def test_geometric_empty(self):
        out = geometric_lengths(0, 5.0, np.random.default_rng(0))
        assert out.size == 0 and out.dtype == np.int64

    def test_lognormal_bounds_and_determinism(self):
        a = lognormal_lengths(500, 16.0, 0.5, np.random.default_rng(3), maximum=64)
        b = lognormal_lengths(500, 16.0, 0.5, np.random.default_rng(3), maximum=64)
        assert np.array_equal(a, b)
        assert a.min() >= 1 and a.max() <= 64

    def test_lognormal_zero_sigma_is_constant(self):
        out = lognormal_lengths(32, 10.0, 0.0, np.random.default_rng(0))
        assert np.all(out == 10)

    @pytest.mark.parametrize(
        "median,sigma",
        [(0.0, 0.5), (-2.0, 0.5), (10.0, -0.1), (float("nan"), 0.5), (10.0, float("inf"))],
    )
    def test_lognormal_bad_params_rejected(self, median, sigma):
        with pytest.raises(ValueError):
            lognormal_lengths(10, median, sigma, np.random.default_rng(0))


class TestDecodeScenario:
    def test_arrivals_carry_lengths_and_classes(self):
        sc = decode_scenario(
            "m0", 5e8, 1e-7, class_mix={0: 1, 2: 1}, seed=4
        )
        assert sc.name == "decode"
        assert sc.num_requests > 0
        for t, model, priority, prompt, decode in sc.arrivals:
            assert model == "m0"
            assert priority in (0, 2)
            assert prompt >= 1 and decode >= 1

    def test_deterministic_in_seed(self):
        a = decode_scenario("m0", 5e8, 1e-7, seed=9)
        b = decode_scenario("m0", 5e8, 1e-7, seed=9)
        assert a.arrivals == b.arrivals

    def test_default_class_zero(self):
        sc = decode_scenario("m0", 5e8, 1e-7, seed=1)
        assert sc.priorities() == [0]


# ----------------------------------------------------------------------
# KV spec and block manager
# ----------------------------------------------------------------------
class TestKVCacheSpec:
    def test_bytes_per_token(self):
        spec = KVCacheSpec(num_layers=3, num_heads=4, head_dim=8)
        # 2 (K and V) * layers * dim * bytes
        assert spec.bytes_per_token == 2 * 3 * 32 * 2
        assert spec.bytes_per_token == kv_cache_bytes_per_token(32, 4, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            KVCacheSpec(num_layers=0, num_heads=2, head_dim=4)
        with pytest.raises(ValueError):
            kv_cache_bytes_per_token(10, 3, 2)  # dim not divisible
        with pytest.raises(ValueError):
            kv_cache_bytes_per_token(0, 1, 1)


class TestKVBlockManager:
    def test_blocks_for_rounds_up(self):
        kv = KVBlockManager(8, 4)
        assert kv.blocks_for(0) == 0
        assert kv.blocks_for(1) == 1
        assert kv.blocks_for(4) == 1
        assert kv.blocks_for(5) == 2

    def test_reserve_grow_release_cycle(self):
        kv = KVBlockManager(4, 4)
        assert kv.reserve(1, 6)  # 2 blocks
        assert kv.used_blocks == 2
        assert kv.grow_to(1, 8)  # still 2 blocks
        assert kv.used_blocks == 2
        assert kv.grow_to(1, 9)  # crosses into a 3rd block
        assert kv.used_blocks == 3
        assert kv.release(1) == 3
        assert kv.used_blocks == 0
        assert kv.peak_blocks == 3

    def test_reserve_fails_without_side_effects(self):
        kv = KVBlockManager(2, 4)
        assert kv.reserve(1, 9) is False
        assert kv.used_blocks == 0 and not kv.holds(1)

    def test_grow_fails_at_capacity(self):
        kv = KVBlockManager(2, 4)
        assert kv.reserve(1, 4)
        assert kv.reserve(2, 4)
        assert kv.grow_to(1, 5) is False
        assert kv.resident_tokens(1) == 4  # unchanged

    def test_grow_within_last_block_on_dry_pool(self):
        kv = KVBlockManager(2, 4)
        assert kv.reserve(1, 3)
        assert kv.reserve(2, 4)  # every block pinned
        before = kv.stats()
        assert kv.grow_to(1, 4) is True  # fits the last block
        assert kv.stats() == before
        assert kv.grow_to(1, 5) is False
        assert kv.resident_tokens(1) == 4
        assert kv.stats() == before

    def test_double_reserve_and_unknown_session_raise(self):
        kv = KVBlockManager(4, 4)
        kv.reserve(1, 2)
        with pytest.raises(ValueError):
            kv.reserve(1, 2)
        with pytest.raises(KeyError):
            kv.grow_to(9, 2)
        with pytest.raises(KeyError):
            kv.release(9)
        with pytest.raises(ValueError):
            kv.grow_to(1, 1)  # shrink

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            KVBlockManager(0, 4)
        with pytest.raises(ValueError):
            KVBlockManager(4, 0)

    def test_from_memory_model_budget(self):
        spec = KVCacheSpec(num_layers=2, num_heads=2, head_dim=4)  # 64 B/token
        mem = MemorySystemModel(MirageConfig(sram_bytes=64 * 1024))
        kv = KVBlockManager.from_memory_model(
            spec, memory=mem, block_tokens=16, kv_fraction=0.5
        )
        # 32 KiB budget / (16 tokens * 64 B) = 32 blocks
        assert kv.num_blocks == 32
        assert kv.budget_bytes == 32 * 16 * 64

    def test_from_memory_model_too_small_raises(self):
        spec = KVCacheSpec(num_layers=12, num_heads=12, head_dim=64)
        mem = MemorySystemModel(MirageConfig(sram_bytes=1024))
        with pytest.raises(ValueError):
            KVBlockManager.from_memory_model(spec, memory=mem)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class TestDecodeSession:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeSession(0, "m0", 0, 4, 0.0)
        with pytest.raises(ValueError):
            DecodeSession(0, "m0", 4, 0, 0.0)

    def test_context_and_latency_accounting(self):
        s = DecodeSession(0, "m0", 8, 4, 1.0)
        assert s.context_len == 8 and s.max_context_len == 12
        s.tokens_generated = 2
        assert s.context_len == 10 and not s.finished
        s.first_token_time = 2.0
        s.finish_time = 5.0
        s.tokens_generated = 4
        assert s.finished
        assert s.ttft == 1.0
        assert s.total_latency == 4.0
        assert s.tpot == pytest.approx(1.0)

    def test_profile_requires_recurrent_widths(self):
        rng = np.random.default_rng(0)
        bad = Sequential(Linear(8, 4, rng=rng))
        with pytest.raises(ValueError):
            DecodeModelProfile("m0", bad, KVCacheSpec(1, 1, 4))
        with pytest.raises(ValueError):
            DecodeModelProfile("m0", Sequential(Tanh()), KVCacheSpec(1, 1, 4))

    def test_build_sessions_deterministic_and_independent_of_order(self):
        prof = profile()
        sc = session_scenario([(0.0, 0, 4, 3), (1e-8, 2, 5, 2)])
        a = build_sessions(prof, sc, seed=3)
        b = build_sessions(prof, sc, seed=3)
        assert len(a) == 2
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.x, s2.x)
        assert a[0].priority == 0 and a[1].priority == 2

    def test_sessions_compare_by_identity(self):
        # Two builds of one scenario give sessions with equal fields; value
        # equality would compare their ``x`` rows and raise.
        prof = profile()
        sc = session_scenario([(0.0, 0, 4, 3), (1e-8, 2, 5, 2)])
        a = build_sessions(prof, sc, seed=3)[0]
        b = build_sessions(prof, sc, seed=3)[0]
        assert a == a and a != b
        assert b not in [a]
        running = [a, b]
        running.remove(b)
        assert len(running) == 1 and running[0] is a
        assert len({a, b}) == 2

    def test_build_sessions_wrong_model_raises(self):
        prof = profile()
        sc = Scenario("decode", ((0.0, "other", 0, 2, 2),), 1e-9)
        with pytest.raises(KeyError):
            build_sessions(prof, sc, seed=0)

    def test_next_token_input_row_local_and_bounded(self):
        row = np.array([3.0, -6.0, 1.5])
        out = next_token_input(row)
        assert np.max(np.abs(out)) == 1.0
        small = np.array([0.25, -0.5])
        assert np.array_equal(next_token_input(small), small)
        # A matrix maps each row on its own, bit for bit, in a new array.
        rows = np.array(
            [
                [3.0, -6.0, 1.5],  # max magnitude above 1
                [1.0, -0.5, 0.25],  # exactly 1
                [0.25, -0.5, 0.1],  # below 1
                [0.0, -0.0, 0.0],  # all zero
                [0.7, -9.3, 4.1],  # largest magnitude is negative
            ]
        )
        kept = rows.copy()
        out = next_token_input(rows)
        assert out.shape == rows.shape
        for got, row in zip(out, rows):
            want = next_token_input(row)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(rows.view(np.uint64), kept.view(np.uint64))


# ----------------------------------------------------------------------
# Engine config
# ----------------------------------------------------------------------
class TestEngineConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"max_batch_size": 0},
            {"max_prefills_per_step": 0},
            {"block_tokens": 0},
            {"kv_fraction": 0.0},
            {"kv_fraction": 1.5},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            EngineConfig(**kw)


# ----------------------------------------------------------------------
# The serving loop
# ----------------------------------------------------------------------
class TestEngineScheduling:
    def test_all_sessions_finish_with_exact_token_counts(self):
        engine = make_engine(max_batch_size=4)
        sc = session_scenario(
            [(0.0, 0, 3, 5), (0.0, 0, 2, 2), (1e-8, 0, 4, 7), (2e-8, 0, 2, 1)]
        )
        tel = engine.run(sc, seed=1)
        assert len(tel.sessions) == 4
        assert tel.tokens_generated() == 5 + 2 + 7 + 1
        for s in tel.sessions:
            assert s.status == RequestStatus.COMPLETED
            assert s.finish_time is not None and s.ttft is not None
        assert engine.kv.used_blocks == 0  # everything released

    def test_continuous_retires_and_admits_midstream(self):
        # One long and several short sessions: with continuous batching
        # the shorts ride along while the long one keeps decoding.
        engine = make_engine(max_batch_size=2)
        sc = session_scenario(
            [(0.0, 0, 2, 12), (0.0, 0, 2, 2), (0.0, 0, 2, 2), (0.0, 0, 2, 2)]
        )
        tel = engine.run(sc, seed=1)
        long_finish = max(s.finish_time for s in tel.sessions)
        long_session = [s for s in tel.sessions if s.decode_len == 12][0]
        assert long_session.finish_time == long_finish
        # The three shorts shared the second slot sequentially.
        shorts = sorted(
            (s for s in tel.sessions if s.decode_len == 2),
            key=lambda s: s.finish_time,
        )
        assert shorts[0].finish_time < shorts[1].finish_time < shorts[2].finish_time

    def test_static_mode_admits_only_on_drain(self):
        engine = make_engine(max_batch_size=2, continuous=False)
        sc = session_scenario(
            [(0.0, 0, 2, 6), (0.0, 0, 2, 2), (0.0, 0, 2, 2), (0.0, 0, 2, 2)]
        )
        tel = engine.run(sc, seed=1)
        # First batch = sessions 0 and 1; the batch drains when the
        # 6-token member finishes, so the 2-token co-member still waits.
        first_batch_end = [s for s in tel.sessions if s.decode_len == 6][0].finish_time
        later = [s for s in tel.sessions if s.admit_time >= first_batch_end]
        assert len(later) == 2  # sessions 2 and 3 admitted after the drain

    def test_oversized_session_rejected(self):
        engine = make_engine(blocks=4, block_tokens=2, max_batch_size=2)
        sc = session_scenario([(0.0, 0, 16, 4), (0.0, 0, 2, 2)])
        tel = engine.run(sc, seed=1)
        assert len(tel.rejected) == 1
        assert tel.rejected[0].status == RequestStatus.REJECTED
        assert len(tel.sessions) == 1

    def test_kv_pressure_preempts_lowest_class_youngest(self):
        # Pool of 8 blocks x 2 tokens = 16 tokens.  Two batch-class
        # sessions fill it; an interactive arrival must evict one.
        engine = make_engine(blocks=8, block_tokens=2, max_batch_size=4)
        sc = session_scenario(
            [
                (0.0, Priority.BATCH, 4, 4),
                (0.0, Priority.BATCH, 4, 4),
                (1e-9, Priority.INTERACTIVE, 6, 4),
            ],
            duration=1e-6,
        )
        tel = engine.run(sc, seed=1)
        assert tel.preemptions >= 1
        assert tel.preemptions_by_class[Priority.BATCH] == tel.preemptions
        preempted = [s for s in tel.sessions if s.preemptions > 0]
        assert preempted and all(
            s.priority == Priority.BATCH for s in preempted
        )
        # Everyone still finishes (preempted sessions resume).
        assert len(tel.sessions) == 3

    def test_preempted_session_stream_is_bit_exact(self):
        engine = make_engine(blocks=8, block_tokens=2, max_batch_size=4)
        sc = session_scenario(
            [
                (0.0, Priority.BATCH, 4, 6),
                (0.0, Priority.BATCH, 4, 6),
                (1e-9, Priority.INTERACTIVE, 6, 4),
            ],
            duration=1e-6,
        )
        tel = engine.run(sc, seed=2)
        assert tel.preemptions >= 1
        ref = sequential_decode_outputs(profile(), sc, seed=2)
        for s in tel.sessions:
            assert len(s.outputs) == s.decode_len
            for out, expect in zip(s.outputs, ref[s.session_id]):
                assert np.array_equal(out, expect)

    def test_growth_preempted_admission_is_not_priced_as_prefill(self):
        # 4 blocks x 2 tokens.  A high-class session holds 2 blocks; a
        # low-class arrival is admitted into the last 2, then the
        # high-class growth reclaims them in the same step.  The evicted
        # session never joined the batch, so the step must price no
        # prefill for it (it pays the prefill when readmitted).
        engine = make_engine(blocks=4, block_tokens=2, max_batch_size=4)
        sc = session_scenario(
            [
                (0.0, Priority.INTERACTIVE, 3, 4),
                (1e-12, Priority.BATCH, 3, 2),
            ],
            duration=1e-6,
        )
        tel = engine.run(sc, seed=1)
        assert tel.preemptions >= 1
        victim = [s for s in tel.sessions if s.priority == Priority.BATCH][0]
        assert victim.preemptions >= 1 and victim.finished
        for record in tel.steps:
            # Every priced prefill must belong to a session in the batch:
            # a batch of one high-class slot cannot carry the victim's
            # 3-token prefill.
            assert len(record.prefill_chunks) <= record.batch
            if record.batch == 1 and record.context_lens[0] > 4:
                assert record.prefill_chunks == ()

    def test_booking_mode_matches_continuous_timing(self):
        sc = session_scenario([(0.0, 0, 3, 4), (0.0, 0, 2, 3), (1e-8, 0, 4, 2)])
        functional = make_engine(max_batch_size=4)
        booked = make_engine(max_batch_size=4, execute=False)
        t1 = functional.run(sc, seed=1)
        t2 = booked.run(sc, seed=1)
        for a, b in zip(t1.sessions, t2.sessions):
            assert a.finish_time == b.finish_time
            assert b.outputs == []  # booking mode skips functional exec

    def test_worker_token_accounting(self):
        engine = make_engine(max_batch_size=4)
        sc = session_scenario([(0.0, 0, 2, 5), (0.0, 0, 2, 3)])
        tel = engine.run(sc, seed=1)
        stats = engine.pool.worker_stats()
        assert sum(w["tokens"] for w in stats) == tel.tokens_generated()

    def test_report_cross_check_is_exact(self):
        engine = make_engine(max_batch_size=4)
        sc = session_scenario(
            [(0.0, 0, 3, 5), (0.0, 2, 2, 2), (1e-8, 0, 6, 4)]
        )
        engine.run(sc, seed=1)
        report = engine.report(sc)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0
        assert report["analytic_consistency"]["checked_steps"] == len(
            engine.telemetry.steps
        )
        assert report["kv"]["peak_occupancy"] <= 1.0

    def test_report_measures_drift_without_raising(self):
        engine = make_engine(max_batch_size=4)
        sc = session_scenario(
            [(0.0, 0, 3, 5), (0.0, 2, 2, 2), (1e-8, 0, 6, 4)]
        )
        engine.run(sc, seed=1)
        record = engine.telemetry.steps[len(engine.telemetry.steps) // 2]
        priced = record.step_s
        record.step_s = float(np.nextafter(priced, np.inf))
        check = engine.report(sc)["analytic_consistency"]
        assert check["max_abs_error_s"] == record.step_s - priced > 0.0
        assert check["checked_steps"] == len(engine.telemetry.steps)

    def test_kv_occupancy_never_exceeds_budget(self):
        engine = make_engine(blocks=10, block_tokens=2, max_batch_size=6)
        sc = decode_scenario(
            "m0", 4e8, 1e-7, prompt_median=4, prompt_sigma=0.4,
            decode_mean=4, prompt_max=8, decode_max=8, seed=3,
        )
        tel = engine.run(sc, seed=1)
        assert tel.steps
        assert max(r.kv_occupancy for r in tel.steps) <= 1.0
        assert engine.kv.peak_blocks <= engine.kv.num_blocks

    def test_per_class_ttft_summary(self):
        prof = profile(ttft_slo_s=1e-3)
        engine = make_engine(prof, max_batch_size=4)
        sc = session_scenario(
            [(0.0, Priority.BATCH, 2, 3), (0.0, Priority.INTERACTIVE, 2, 3)]
        )
        engine.run(sc, seed=1)
        report = engine.report(sc)
        assert "per_class" in report
        assert set(report["per_class"]) == {"0", "2"}
        for row in report["per_class"].values():
            assert 0.0 <= row["ttft_slo_attainment"] <= 1.0

    def test_telemetry_tpot_and_tokens_per_s(self):
        engine = make_engine(max_batch_size=2)
        sc = session_scenario([(0.0, 0, 2, 4)])
        tel = engine.run(sc, seed=1)
        s = tel.sessions[0]
        assert tel.mean_tpot() == pytest.approx(s.tpot)
        assert tel.tokens_per_s(2.0) == pytest.approx(s.decode_len / 2.0)


class TestServiceModelMemoisation:
    def test_batch_latency_computed_once_per_key(self, monkeypatch):
        from repro.serve import engine as engine_pkg
        from repro.serve import runtime as runtime_mod

        calls = []
        real = runtime_mod.per_request_latency

        def counting(layers, batch, accelerator=None):
            calls.append(batch)
            return real(layers, batch, accelerator)

        monkeypatch.setattr(runtime_mod, "per_request_latency", counting)
        eng = make_engine(max_batch_size=2)
        sc = session_scenario([(0.0, 0, 2, 6), (0.0, 0, 2, 6)])
        eng.run(sc, seed=1)
        # Many steps at batch 1/2, but each batch size priced only once.
        assert len(calls) == len(set(calls))

    def test_attention_and_prefill_memoised(self):
        eng = make_engine(max_batch_size=2)
        sc = session_scenario([(0.0, 0, 3, 6), (1e-8, 0, 3, 4)])
        eng.run(sc, seed=1)
        service = eng.service
        attn_before = dict(service._attn_cache)
        value = service.attention_latency("m0", 5)
        if ("m0", 5) in attn_before:
            assert attn_before[("m0", 5)] == value
        assert service.chunked_prefill("m0", 3, 0) == service.chunked_prefill(
            "m0", 3, 0
        )

    def test_reregister_invalidates_stale_latencies(self):
        from repro.serve import ModelProfile, ServiceModel

        service = ServiceModel()
        service.register(ModelProfile("m0", recurrent_mlp(0, dim=12)))
        small = service.batch_latency("m0", 4)
        small_prewarm = service.prewarm_latency("m0")
        assert service.cache_info()["entries"] == 1
        service.register(ModelProfile("m0", recurrent_mlp(1, dim=48, hidden=96)))
        assert service.cache_info()["entries"] == 0
        assert service.batch_latency("m0", 4) > small
        assert service.prewarm_latency("m0") > small_prewarm
