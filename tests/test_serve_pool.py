"""Executor pool: placement, routing policies, cache accounting."""

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential
from repro.serve import ExecutorPool, ROUTING_POLICIES


def mlp(seed=0, d_in=8, hidden=16, d_out=4):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(d_in, hidden, rng=rng), ReLU(), Linear(hidden, d_out, rng=rng)
    )


def forget(pool, *wids, name="a"):
    """Mark replicas cold: ``place`` prewarms every replica it assigns."""
    for wid in wids:
        pool.workers[wid].models_programmed.discard(name)


class TestPlacement:
    def test_replicas_spread_round_robin(self):
        pool = ExecutorPool(4)
        assert pool.place("a", mlp(0), replicas=2) == [0, 1]
        assert pool.place("b", mlp(1), replicas=2) == [2, 3]
        assert pool.place("c", mlp(2), replicas=1) == [0]

    def test_replicas_clamped_to_pool(self):
        pool = ExecutorPool(2)
        assert sorted(pool.place("a", mlp(0), replicas=5)) == [0, 1]

    def test_prewarm_programs_all_replicas(self):
        pool = ExecutorPool(2)
        pool.place("a", mlp(0), replicas=2)
        for wid in pool.replicas("a"):
            info = pool.workers[wid].executor.cache_info()
            assert info["size"] == 2  # two Linear layers
            assert "a" in pool.workers[wid].models_programmed

    def test_route_unplaced_model_raises(self):
        pool = ExecutorPool(1)
        with pytest.raises(KeyError):
            pool.route("ghost", 0.0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ExecutorPool(1, policy="random")
        assert set(ROUTING_POLICIES) == {"least_loaded", "cache_affinity"}


class TestRouting:
    def test_least_loaded_prefers_idle_history(self):
        pool = ExecutorPool(2, policy="least_loaded")
        pool.place("a", mlp(0), replicas=2)
        pool.workers[0].busy_time = 5.0
        assert pool.route("a", 0.0).worker_id == 1

    def test_all_busy_returns_none(self):
        pool = ExecutorPool(2, policy="least_loaded")
        pool.place("a", mlp(0), replicas=2)
        for w in pool.workers:
            w.busy_until = 1.0
        assert pool.route("a", 0.5) is None
        assert pool.route("a", 1.5) is not None
        assert pool.next_free_time("a") == 1.0

    def test_cache_affinity_prefers_warm_worker(self):
        pool = ExecutorPool(2, policy="cache_affinity")
        pool.place("a", mlp(0), replicas=2)
        # Worker 1 has served the model; worker 0 is cold but less loaded.
        forget(pool, 0)
        pool.workers[1].busy_time = 3.0
        assert pool.route("a", 0.0).worker_id == 1

    def test_cache_affinity_falls_back_when_warm_busy(self):
        pool = ExecutorPool(2, policy="cache_affinity")
        pool.place("a", mlp(0), replicas=2)
        forget(pool, 0)
        pool.workers[1].busy_until = 1.0
        assert pool.route("a", 0.0).worker_id == 0


class TestTimeTolerance:
    def test_is_free_at_large_timestamps(self):
        # Regression: busy_until <= now + 1e-15 underflowed once now grew
        # past ~1 s (double spacing at 1e9 is ~1.2e-7, so the absolute
        # epsilon vanished and equal-after-rounding stayed "busy").
        pool = ExecutorPool(1)
        w = pool.workers[0]
        now = 1e9
        w.busy_until = now  # freed exactly "now", many ulps of slack needed
        assert w.is_free(now)
        # One representable step in the future is still busy.
        assert not w.is_free(np.nextafter(now, -np.inf) - 1.0)

    def test_is_free_small_timestamps_unchanged(self):
        pool = ExecutorPool(1)
        w = pool.workers[0]
        w.busy_until = 2e-6
        assert not w.is_free(1.9e-6)
        assert w.is_free(2e-6)
        assert w.is_free(2.1e-6)


class TestScaleTo:
    def test_scale_up_adds_prewarmed_workers(self):
        pool = ExecutorPool(4)
        pool.place("a", mlp(0), replicas=1)
        delta = pool.scale_to("a", 3, now=1.0, prewarm_latency_s=0.5)
        assert pool.num_replicas("a") == 3
        assert len(delta["added"]) == 2 and not delta["removed"]
        for wid in delta["added"]:
            w = pool.workers[wid]
            # Cold additions are programmed and pay the reprogram window.
            assert "a" in w.models_programmed
            assert w.executor.cache_info()["size"] == 2
            assert w.busy_until == pytest.approx(1.5)

    def test_scale_up_warm_rejoin_is_free(self):
        pool = ExecutorPool(2)
        pool.place("a", mlp(0), replicas=2)
        pool.scale_to("a", 1, now=0.0)
        delta = pool.scale_to("a", 2, now=5.0, prewarm_latency_s=0.7)
        (wid,) = delta["added"]
        # The worker still holds the programmed tiles: no reprogram charge,
        # and it is not reported as a cold addition.
        assert pool.workers[wid].busy_until == 0.0
        assert delta["cold"] == []

    def test_scale_down_drains_before_retire(self):
        pool = ExecutorPool(3)
        pool.place("a", mlp(0), replicas=3)
        victim = pool.replicas("a")[-1]
        pool.workers[victim].busy_until = 9.0  # mid-batch
        delta = pool.scale_to("a", 1, now=0.0)
        # Last-added replicas retire first.
        assert victim in delta["removed"] and len(delta["removed"]) == 2
        # Retired worker keeps its booked window (in-flight batch finishes)
        # but no longer receives new work.
        assert pool.workers[victim].busy_until == 9.0
        assert victim not in pool.replicas("a")
        assert pool.route("a", 10.0).worker_id in pool.replicas("a")

    def test_scale_clamps_and_unknown_model_raises(self):
        pool = ExecutorPool(2)
        pool.place("a", mlp(0), replicas=1)
        pool.scale_to("a", 99, now=0.0)
        assert pool.num_replicas("a") == 2
        pool.scale_to("a", 0, now=0.0)
        assert pool.num_replicas("a") == 1
        with pytest.raises(KeyError):
            pool.scale_to("ghost", 2, now=0.0)

class TestExecutionAndStats:
    def test_run_batch_outputs_and_booking(self):
        pool = ExecutorPool(1)
        model = mlp(3)
        pool.place("a", model)
        worker = pool.workers[0]
        xs = [np.random.default_rng(i).standard_normal(8) for i in range(4)]
        out = worker.run_batch("a", model, xs, now=1.0, service_s=0.5)
        assert out.shape == (4, 4)
        assert worker.busy_until == pytest.approx(1.5)
        assert worker.batches_served == 1
        assert worker.requests_served == 4
        stats = pool.worker_stats()[0]
        assert stats["busy_time_s"] == pytest.approx(0.5)

    def test_per_worker_caches_are_isolated(self):
        pool = ExecutorPool(2)
        pool.place("a", mlp(4), replicas=2)
        other = mlp(5)
        pool.workers[0].run_batch("b", other, [np.zeros(8)], 0.0, 0.1)
        info0 = pool.workers[0].executor.cache_info()
        info1 = pool.workers[1].executor.cache_info()
        assert info0["size"] == 4  # "a" prewarmed plus "b" programmed
        assert info1["size"] == 2

    def test_cache_stats_aggregate(self):
        pool = ExecutorPool(2)
        model = mlp(5)
        pool.place("a", model, replicas=1)
        wid = pool.replicas("a")[0]
        pool.workers[wid].run_batch("a", model, [np.zeros(8)], 0.0, 0.1)
        stats = pool.cache_stats()
        assert stats["misses"] == 2  # prewarm programmed both layers
        assert stats["hits"] == 2  # the batch reused them
        assert stats["hit_rate"] == pytest.approx(0.5)


class TestCacheAffinityTieBreaking:
    def test_warm_ties_break_by_load_then_id(self):
        pool = ExecutorPool(3, policy="cache_affinity")
        pool.place("a", mlp(0), replicas=3)
        for w in pool.workers:
            w.models_programmed.add("a")
        pool.workers[0].busy_time = 2.0
        pool.workers[1].busy_time = 1.0
        pool.workers[2].busy_time = 1.0
        # Among equally-warm free replicas: least busy_time, then lowest id.
        assert pool.route("a", 0.0).worker_id == 1

    def test_equal_load_warm_ties_break_by_worker_id(self):
        pool = ExecutorPool(3, policy="cache_affinity")
        pool.place("a", mlp(0), replicas=3)
        for w in pool.workers:
            w.models_programmed.add("a")
        assert pool.route("a", 0.0).worker_id == 0

    def test_cold_fallback_is_least_loaded(self):
        pool = ExecutorPool(3, policy="cache_affinity")
        pool.place("a", mlp(0), replicas=3)
        # No warm replica at all: fall back to least-loaded among cold.
        forget(pool, 0, 1, 2)
        pool.workers[0].busy_time = 3.0
        pool.workers[1].busy_time = 1.0
        pool.workers[2].busy_time = 2.0
        assert pool.route("a", 0.0).worker_id == 1

    def test_single_warm_wins_over_less_loaded_cold(self):
        pool = ExecutorPool(3, policy="cache_affinity")
        pool.place("a", mlp(0), replicas=3)
        forget(pool, 0, 1)
        pool.workers[2].busy_time = 9.0
        assert pool.route("a", 0.0).worker_id == 2


class TestWorkerStatsUnderChurn:
    def test_retired_worker_keeps_lifetime_stats(self):
        pool = ExecutorPool(3)
        model = mlp(0)
        pool.place("a", model, replicas=3)
        for wid in pool.replicas("a"):
            pool.workers[wid].run_batch(
                "a", model, [np.zeros(8)], 0.0, 0.1, tokens=1
            )
        pool.scale_to("a", 1, now=0.2)
        stats = {s["worker_id"]: s for s in pool.worker_stats()}
        # worker_stats covers the whole pool, not just the routing set.
        assert set(stats) == {0, 1, 2}
        for wid in (1, 2):
            assert stats[wid]["batches"] == 1
            assert stats[wid]["requests"] == 1
            assert stats[wid]["tokens"] == 1
            assert stats[wid]["busy_time_s"] == pytest.approx(0.1)

    def test_cold_scale_up_charges_busy_time_in_stats(self):
        pool = ExecutorPool(2)
        pool.place("a", mlp(0), replicas=1)
        delta = pool.scale_to("a", 2, now=1.0, prewarm_latency_s=0.25)
        (cold,) = delta["cold"]
        stats = {s["worker_id"]: s for s in pool.worker_stats()}
        assert stats[cold]["busy_time_s"] == pytest.approx(0.25)
        assert stats[cold]["batches"] == 0  # prewarm is not a served batch

    def test_stats_accumulate_across_scale_cycles(self):
        pool = ExecutorPool(2)
        model = mlp(0)
        pool.place("a", model, replicas=2)
        pool.workers[1].run_batch("a", model, [np.zeros(8)], 0.0, 0.1, tokens=2)
        pool.scale_to("a", 1, now=0.2)  # retire worker 1
        pool.scale_to("a", 2, now=0.4)  # warm rejoin, no prewarm charge
        pool.workers[1].run_batch("a", model, [np.zeros(8)], 0.5, 0.1, tokens=3)
        stats = {s["worker_id"]: s for s in pool.worker_stats()}
        assert stats[1]["batches"] == 2
        assert stats[1]["tokens"] == 5
        assert stats[1]["busy_time_s"] == pytest.approx(0.2)

    def test_tokens_default_zero_for_request_serving(self):
        pool = ExecutorPool(1)
        model = mlp(0)
        pool.place("a", model, replicas=1)
        pool.workers[0].run_batch("a", model, [np.zeros(8)], 0.0, 0.1)
        assert pool.worker_stats()[0]["tokens"] == 0


class TestHealthAwareScaling:
    """Scale/replace behaviour once workers can crash or turn suspect."""

    def test_scale_down_retires_suspect_before_healthy(self):
        pool = ExecutorPool(3)
        pool.place("a", mlp(0), replicas=3)
        first = pool.replicas("a")[0]
        pool.workers[first].health = "suspect"
        delta = pool.scale_to("a", 2, now=0.0)
        # Age says the *last-added* healthy worker should go; a suspect
        # worker outranks age — shedding capacity should shed the
        # replica most likely to fail next.
        assert delta["removed"] == [first]
        assert first not in pool.replicas("a")

    def test_scale_down_retires_dead_before_suspect(self):
        pool = ExecutorPool(4)
        pool.place("a", mlp(0), replicas=4)
        wids = pool.replicas("a")
        pool.workers[wids[0]].health = "suspect"
        pool.crash(wids[1], now=0.0)
        delta = pool.scale_to("a", 2, now=1.0)
        assert set(delta["removed"]) == {wids[1], wids[0]}

    def test_suspect_retiree_keeps_booked_window(self):
        # Drain-before-retire: a suspect worker mid-batch keeps its
        # booked window when retired (the in-flight batch finishes or
        # times out on its own clock), it just stops receiving work.
        pool = ExecutorPool(2)
        pool.place("a", mlp(0), replicas=2)
        victim = pool.replicas("a")[0]
        pool.workers[victim].health = "suspect"
        pool.workers[victim].busy_until = 7.0
        pool.scale_to("a", 1, now=0.0)
        assert pool.workers[victim].busy_until == 7.0
        assert victim not in pool.replicas("a")

    def test_scale_up_never_adds_dead_or_unresponsive_workers(self):
        pool = ExecutorPool(3)
        pool.place("a", mlp(0), replicas=1)
        spare = [w.worker_id for w in pool.workers if w.worker_id not in pool.replicas("a")]
        pool.crash(spare[0], now=0.0)
        delta = pool.scale_to("a", 3, now=1.0)
        assert spare[0] not in pool.replicas("a")
        assert spare[0] not in delta["added"]
        assert pool.num_replicas("a") == 2  # only live candidates join

    def test_replace_worker_refuses_live_and_swaps_dead(self):
        pool = ExecutorPool(2)
        model = mlp(0)
        pool.place("a", model, replicas=2)
        with pytest.raises(ValueError):
            pool.replace_worker(0, now=1.0)
        pool.crash(0, now=1.0)
        pool.workers[0].health = "dead"
        new_wid = pool.replace_worker(0, now=2.0, prewarm_latency_s=0.5)
        assert new_wid == 2
        # worker_id == index in pool.workers stays true for replacements.
        assert pool.workers[new_wid].worker_id == new_wid
        assert sorted(pool.replicas("a")) == [1, 2]
        fresh = pool.workers[new_wid]
        assert "a" in fresh.models_programmed
        assert fresh.busy_until == pytest.approx(2.5)  # reprogram charge
        with pytest.raises(ValueError):
            pool.replace_worker(new_wid, now=3.0)  # replacement is live

    def test_replace_worker_accepts_per_model_charge_callable(self):
        pool = ExecutorPool(1)
        pool.place("a", mlp(0), replicas=1)
        pool.crash(0, now=0.0)
        new_wid = pool.replace_worker(
            0, now=1.0, prewarm_latency_s=lambda name: {"a": 0.25}[name]
        )
        assert pool.workers[new_wid].busy_until == pytest.approx(1.25)
        assert pool.workers[new_wid].busy_time == pytest.approx(0.25)

    def test_ledgers_consistent_through_crash_and_replace(self):
        pool = ExecutorPool(2)
        model = mlp(0)
        pool.place("a", model, replicas=2)
        pool.workers[0].run_batch("a", model, [np.zeros(8)], 0.0, 0.1, tokens=2)
        pool.workers[1].run_batch("a", model, [np.zeros(8)], 0.0, 0.1, tokens=3)
        pool.crash(0, now=0.2)
        new_wid = pool.replace_worker(0, now=0.3, prewarm_latency_s=0.05)
        pool.workers[new_wid].run_batch(
            "a", model, [np.zeros(8)], 0.4, 0.1, tokens=4
        )
        stats = {s["worker_id"]: s for s in pool.worker_stats()}
        # The dead worker's lifetime ledgers stay auditable ...
        assert set(stats) == {0, 1, 2}
        assert stats[0]["batches"] == 1 and stats[0]["tokens"] == 2
        assert stats[0]["responsive"] is False
        # ... the replacement starts fresh plus its reprogram charge ...
        assert stats[new_wid]["batches"] == 1
        assert stats[new_wid]["tokens"] == 4
        assert stats[new_wid]["busy_time_s"] == pytest.approx(0.15)
        # ... and fleet totals balance: nothing double-counted or lost.
        assert sum(s["tokens"] for s in stats.values()) == 9
        assert sum(s["batches"] for s in stats.values()) == 3

    def test_routing_and_resolution_skip_crashed_workers(self):
        pool = ExecutorPool(3)
        pool.place("a", mlp(0), replicas=3)
        pool.crash(1, now=0.0)
        for _ in range(6):
            assert pool.route("a", 1.0).worker_id != 1
        assert pool.live_replicas("a") == [0, 2]
        # Selectors index live workers sorted by id, modulo their count.
        assert pool.resolve_worker(0) == 0
        assert pool.resolve_worker(1) == 2
        assert pool.resolve_worker(2) == 0
        pool.crash(0, now=0.0)
        pool.crash(2, now=0.0)
        assert pool.resolve_worker(0) is None

    def test_crash_is_idempotent_and_records_first_fail_time(self):
        pool = ExecutorPool(1)
        pool.place("a", mlp(0), replicas=1)
        pool.crash(0, now=1.0)
        pool.crash(0, now=5.0)
        assert pool.workers[0].fail_time == 1.0
        assert pool.workers[0].responsive is False

    def test_slow_worker_scales_service_until_deadline(self):
        pool = ExecutorPool(1)
        pool.place("a", mlp(0), replicas=1)
        with pytest.raises(ValueError):
            pool.slow(0, factor=0.5, until=1.0)
        pool.slow(0, factor=3.0, until=2.0)
        assert pool.workers[0].service_scale(1.0) == 3.0
        assert pool.workers[0].service_scale(2.5) == 1.0
