"""Traffic scenario generators: determinism, rates, and shapes."""

import numpy as np
import pytest

from repro.serve import (
    Priority,
    bursty_scenario,
    diurnal_scenario,
    multi_tenant_priority_scenario,
    multi_tenant_scenario,
    poisson_scenario,
    priority_scenario,
)
from repro.serve.traffic import (
    _CHUNK,
    assign_priorities,
    diurnal_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)


class TestArrivalProcesses:
    def test_poisson_rate(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(rate=1000.0, duration=50.0, rng=rng)
        assert times.size == pytest.approx(50_000, rel=0.05)
        assert np.all(np.diff(times) >= 0)
        assert times[-1] < 50.0

    def test_poisson_deterministic(self):
        a = poisson_arrivals(500.0, 10.0, np.random.default_rng(7))
        b = poisson_arrivals(500.0, 10.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_poisson_degenerate(self):
        rng = np.random.default_rng(0)
        assert poisson_arrivals(0.0, 10.0, rng).size == 0
        assert poisson_arrivals(10.0, 0.0, rng).size == 0

    def test_onoff_has_silent_windows(self):
        rng = np.random.default_rng(1)
        times = onoff_arrivals(
            on_rate=1000.0, on_s=1.0, off_s=1.0, duration=10.0, rng=rng
        )
        # No arrivals during OFF windows, e.g. [1, 2) and [3, 4).
        frac = np.mod(times, 2.0)
        assert np.all(frac < 1.0)
        assert times.size == pytest.approx(5000, rel=0.1)

    def test_diurnal_modulates_rate(self):
        rng = np.random.default_rng(2)
        times = diurnal_arrivals(
            base_rate=100.0, peak_rate=2000.0, period=10.0, duration=10.0,
            rng=rng,
        )
        # Peak (mid-period) quarter should see far more than the night
        # quarters at the edges.
        night = np.sum(times < 2.5) + np.sum(times >= 7.5)
        peak = np.sum((times >= 2.5) & (times < 7.5))
        assert peak > 2 * night

    def test_diurnal_validates(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 5.0, 1.0, 1.0, np.random.default_rng(0))

    # ----- regression: parameter validation & bounded memory -----------
    def test_onoff_zero_on_s_raises_instead_of_looping(self):
        # on_s == 0 used to never advance the window cursor: an infinite
        # loop accumulating empty bursts.  Negative windows walked t
        # backwards.  Both must be rejected up front.
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            onoff_arrivals(100.0, 0.0, 1.0, 10.0, rng)
        with pytest.raises(ValueError):
            onoff_arrivals(100.0, -1.0, 1.0, 10.0, rng)
        with pytest.raises(ValueError):
            onoff_arrivals(100.0, 1.0, -0.5, 10.0, rng)

    def test_onoff_zero_off_s_is_plain_poisson(self):
        rng = np.random.default_rng(4)
        times = onoff_arrivals(1000.0, 1.0, 0.0, 5.0, rng)
        assert times.size == pytest.approx(5000, rel=0.1)
        assert np.all(np.diff(times) >= 0) or times.size == 0

    def test_diurnal_zero_period_raises(self):
        # period == 0 divided by zero in the thinning phase (NaN keep
        # probabilities); negative periods are meaningless.
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 20.0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            diurnal_arrivals(10.0, 20.0, -1.0, 1.0, rng)

    def test_poisson_chunk_draws_are_capped(self):
        # rate * duration of 5e8 would previously allocate a ~6e8-entry
        # exponential chunk per while-pass; the chunk cap keeps each draw
        # at _CHUNK while trimming the horizon tail exactly.
        rng = np.random.default_rng(6)
        times = poisson_arrivals(rate=5e8, duration=2 * _CHUNK / 5e8, rng=rng)
        assert times.size == pytest.approx(2 * _CHUNK, rel=0.05)
        assert times[-1] < 2 * _CHUNK / 5e8
        assert np.all(np.diff(times) >= 0)

    def test_poisson_capped_chunks_stay_deterministic(self):
        dur = 3.5 * _CHUNK / 1e6
        a = poisson_arrivals(1e6, dur, np.random.default_rng(8))
        b = poisson_arrivals(1e6, dur, np.random.default_rng(8))
        assert np.array_equal(a, b)

    def test_non_finite_parameters_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            poisson_arrivals(float("nan"), 1.0, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(float("inf"), 1.0, rng)
        with pytest.raises(ValueError):
            poisson_arrivals(-5.0, 1.0, rng)
        with pytest.raises(ValueError):
            onoff_arrivals(100.0, float("inf"), 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            diurnal_arrivals(1.0, 2.0, float("nan"), 1.0, rng)


class TestScenarios:
    def test_poisson_scenario_fields(self):
        s = poisson_scenario("m", rate=100.0, duration=5.0, seed=3)
        assert s.name == "poisson"
        assert {a[1] for a in s.arrivals} == {"m"}
        assert s.offered_rate == pytest.approx(s.num_requests / 5.0)
        ts = [t for t, _ in s.arrivals]
        assert ts == sorted(ts)

    def test_scenarios_are_seed_deterministic(self):
        for make in (
            lambda seed: poisson_scenario("m", 200.0, 2.0, seed),
            lambda seed: bursty_scenario("m", 400.0, 0.5, 0.5, 2.0, seed),
            lambda seed: diurnal_scenario("m", 50.0, 500.0, 2.0, seed),
            lambda seed: multi_tenant_scenario(
                {"a": 3.0, "b": 1.0}, 200.0, 2.0, seed
            ),
        ):
            assert make(11).arrivals == make(11).arrivals
            assert make(11).arrivals != make(12).arrivals

    def test_multi_tenant_mix_proportions(self):
        s = multi_tenant_scenario(
            {"hot": 8.0, "cold": 2.0}, rate=2000.0, duration=10.0, seed=4
        )
        counts = {m: 0 for m in ("hot", "cold")}
        for _, m in s.arrivals:
            counts[m] += 1
        frac_hot = counts["hot"] / s.num_requests
        assert frac_hot == pytest.approx(0.8, abs=0.03)

    def test_multi_tenant_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            multi_tenant_scenario({"a": -1.0}, 10.0, 1.0)


class TestPriorityScenarios:
    def test_priority_scenario_mix_and_determinism(self):
        mix = {Priority.INTERACTIVE: 1.0, Priority.BATCH: 3.0}
        s = priority_scenario("m", rate=2000.0, duration=5.0,
                              class_mix=mix, seed=7)
        assert s.name == "priority"
        assert s.priorities() == [Priority.BATCH, Priority.INTERACTIVE]
        counts = {p: 0 for p in mix}
        for _, _, p in s.arrivals:
            counts[p] += 1
        assert counts[Priority.BATCH] / s.num_requests == pytest.approx(
            0.75, abs=0.05
        )
        again = priority_scenario("m", rate=2000.0, duration=5.0,
                                  class_mix=mix, seed=7)
        assert s.arrivals == again.arrivals

    def test_priority_scenario_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            priority_scenario("m", 10.0, 1.0, class_mix={1: -1.0})

    def test_multi_tenant_priority_scenario(self):
        s = multi_tenant_priority_scenario(
            {"hot": 3.0, "cold": 1.0},
            rate=2000.0,
            duration=5.0,
            class_mix_by_model={
                "hot": {Priority.INTERACTIVE: 1.0},
            },
            seed=11,
        )
        assert s.name == "multi_tenant_priority"
        for arrival in s.arrivals:
            t, model, p = arrival
            if model == "hot":
                assert p == Priority.INTERACTIVE
            else:  # unlisted tenants send default-class traffic
                assert p == 0
        ts = [a[0] for a in s.arrivals]
        assert ts == sorted(ts)

    def test_multi_tenant_priority_two_mixed_tenants(self):
        # Regression: the per-model tagging loop used to re-unpack
        # already-tagged 3-tuples as pairs and crash when two or more
        # tenants carried class mixes.
        s = multi_tenant_priority_scenario(
            {"a": 1.0, "b": 1.0},
            rate=1000.0,
            duration=2.0,
            class_mix_by_model={
                "a": {Priority.INTERACTIVE: 1.0},
                "b": {Priority.BATCH: 1.0, Priority.STANDARD: 1.0},
            },
            seed=17,
        )
        for _, model, p in s.arrivals:
            if model == "a":
                assert p == Priority.INTERACTIVE
            else:
                assert p in (Priority.BATCH, Priority.STANDARD)

    def test_assign_priorities_preserves_times_and_models(self):
        rng = np.random.default_rng(13)
        base = (((0.0, "a"), (1.0, "b"), (2.0, "a")))
        tagged = assign_priorities(base, {0: 1.0, 2: 1.0}, rng)
        assert tuple((t, m) for t, m, _ in tagged) == base
        assert all(p in (0, 2) for _, _, p in tagged)
