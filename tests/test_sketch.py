"""QuantileSketch laws, sketch-backed histograms, non-finite guards."""

import json
import math

import numpy as np
import pytest

from repro.serve import (
    MetricsRegistry,
    SLOSpec,
    SLOTracker,
    default_windows,
    parse_prometheus_text,
    percentile,
)
from repro.serve.observability import (
    MIN_INDEXABLE,
    QuantileSketch,
    nearest_rank,
    nearest_rank_value,
)
from repro.serve.observability.slo import BurnRateMonitor


def _assert_within_alpha(sketch, values, quantiles=(0.0, 10.0, 50.0, 90.0, 99.0, 100.0)):
    """Every sketched quantile within alpha of the exact nearest-rank."""
    ordered = sorted(values)
    for q in quantiles:
        estimate = sketch.percentile(q)
        truth = nearest_rank_value(ordered, q, assume_sorted=True)
        tolerance = sketch.alpha * abs(truth) * (1.0 + 1e-9)
        assert abs(estimate - truth) <= tolerance, (
            f"p{q:g}: {estimate!r} vs exact {truth!r} (alpha {sketch.alpha})"
        )


# ----------------------------------------------------------------------
# Error bound under adversarial streams
# ----------------------------------------------------------------------
class TestSketchErrorBound:
    def test_lognormal_stream(self):
        rng = np.random.default_rng(7)
        values = np.exp(rng.normal(0.0, 2.0, size=4000)).tolist()
        sketch = QuantileSketch(alpha=0.02)
        for v in values:
            sketch.add(v)
        _assert_within_alpha(sketch, values)

    def test_geometric_ramp_crosses_decades(self):
        # Each value lands in its own bucket region; the ramp spans
        # ~35 decades — bin count stays proportional to the range, and
        # every quantile still honors the bound.
        values = [1.7 ** i for i in range(-80, 80)]
        sketch = QuantileSketch(alpha=0.01)
        for v in values:
            sketch.add(v)
        _assert_within_alpha(sketch, values)
        assert sketch.bin_count <= len(values)

    def test_tied_values(self):
        # Massive ties stress the rank walk: one bucket holds almost
        # the whole mass.
        values = [3.25] * 5000 + [1e-3, 1e3]
        sketch = QuantileSketch(alpha=0.05)
        for v in values:
            sketch.add(v)
        _assert_within_alpha(sketch, values)

    def test_mixed_signs_and_zero(self):
        rng = np.random.default_rng(11)
        values = [float(v) for v in rng.normal(0.0, 10.0, size=2000)]
        values += [0.0] * 50
        sketch = QuantileSketch(alpha=0.02)
        for v in values:
            sketch.add(v)
        _assert_within_alpha(sketch, values)
        assert sketch.zero_count == 50

    def test_denormals_bin_as_exact_zero(self):
        sketch = QuantileSketch(alpha=0.01)
        for v in (5e-324, 1e-310, -4e-320, 0.0, MIN_INDEXABLE / 2.0):
            sketch.add(v)
        assert sketch.zero_count == 5
        assert sketch.percentile(50.0) == 0.0
        # min/max stay the exact observed floats even when binned zero.
        assert sketch.min == -4e-320
        assert sketch.max == MIN_INDEXABLE / 2.0


# ----------------------------------------------------------------------
# Algebraic laws: merge, serialization, exact moments
# ----------------------------------------------------------------------
class TestSketchLaws:
    def _streams(self):
        rng = np.random.default_rng(3)
        return [
            np.exp(rng.normal(0.0, 1.5, size=n)).tolist()
            for n in (400, 300, 200)
        ]

    def _sketch_of(self, values, alpha=0.02):
        sketch = QuantileSketch(alpha=alpha)
        for v in values:
            sketch.add(v)
        return sketch

    def test_merge_commutative(self):
        a_vals, b_vals, _ = self._streams()
        ab = self._sketch_of(a_vals).merge(self._sketch_of(b_vals))
        ba = self._sketch_of(b_vals).merge(self._sketch_of(a_vals))
        assert ab.to_dict() == ba.to_dict()

    def test_merge_associative(self):
        a_vals, b_vals, c_vals = self._streams()
        a, b, c = (self._sketch_of(v) for v in (a_vals, b_vals, c_vals))
        left = self._sketch_of(a_vals).merge(self._sketch_of(b_vals)).merge(c)
        right = a.merge(self._sketch_of(b_vals).merge(self._sketch_of(c_vals)))
        assert left.to_dict() == right.to_dict()

    def test_merge_equals_bulk_sketch(self):
        a_vals, b_vals, c_vals = self._streams()
        merged = (
            self._sketch_of(a_vals)
            .merge(self._sketch_of(b_vals))
            .merge(self._sketch_of(c_vals))
        )
        bulk = self._sketch_of(a_vals + b_vals + c_vals)
        assert merged == bulk
        assert merged.to_json() == bulk.to_json()

    def test_serialization_round_trip(self):
        values = [0.5, -2.0, 0.0, 3e7, 1e-12]
        sketch = self._sketch_of(values)
        assert json.loads(sketch.to_json()) == sketch.to_dict()
        assert sketch.to_json() == self._sketch_of(values[::-1]).to_json()
        assert json.loads(sketch.to_json())["kind"] == "ddsketch"
        assert sketch.byte_size() == len(sketch.to_json().encode("utf-8"))

    def test_exact_count_sum_min_max(self):
        # Dyadic inputs: the running rational sum reproduces the exact
        # arithmetic total bit-for-bit regardless of fold order.
        values = [i / 64.0 for i in range(-100, 101)] + [0.125] * 7
        sketch = self._sketch_of(values)
        assert sketch.count == len(values) == len(sketch)
        assert sketch.sum == math.fsum(values)
        assert sketch.min == min(values)
        assert sketch.max == max(values)

    def test_weight_equals_repetition(self):
        a = QuantileSketch(alpha=0.01)
        a.add(2.5, weight=4)
        b = QuantileSketch(alpha=0.01)
        for _ in range(4):
            b.add(2.5)
        assert a == b

    def test_cdf(self):
        sketch = self._sketch_of([-1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
        assert sketch.cdf(-100.0) == 0.0
        assert sketch.cdf(0.0) == pytest.approx(2 / 6)
        assert sketch.cdf(100.0) == 1.0
        assert QuantileSketch().cdf(1.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(alpha=1.0)
        sketch = QuantileSketch()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                sketch.add(bad)
        with pytest.raises(ValueError):
            sketch.add(1.0, weight=0)
        with pytest.raises(ValueError):
            sketch.merge(QuantileSketch(alpha=0.5))
        with pytest.raises(ValueError):
            sketch.merge("not a sketch")
        with pytest.raises(ValueError):
            sketch.percentile(101.0)
        with pytest.raises(ValueError):
            sketch.cdf(float("nan"))
        assert QuantileSketch().percentile(50.0) is None


# ----------------------------------------------------------------------
# Sketch-backed histograms
# ----------------------------------------------------------------------
class TestSketchHistogram:
    def test_observe_guards_both_modes(self):
        reg = MetricsRegistry()
        bucketed = reg.histogram("lat_b", "latency")
        sketched = reg.histogram("lat_s", "latency", sketch_alpha=0.02)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                bucketed.observe(bad)
            with pytest.raises(ValueError):
                sketched.observe(bad)
        # The sketch backend is log-bucketed: negatives are a caller bug.
        with pytest.raises(ValueError):
            sketched.observe(-1.0)
        bucketed.observe(-1.0)  # bucket mode keeps its old contract

    def test_sketch_quantile_and_exact_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("ttft", "ttft", sketch_alpha=0.01)
        values = [1e-4 * (1.1 ** i) for i in range(60)]
        for v in values:
            h.observe(v)
        truth = nearest_rank_value(sorted(values), 90.0, assume_sorted=True)
        estimate = h.labels().sketch.percentile(90.0)
        assert abs(estimate - truth) <= 0.01 * truth * (1.0 + 1e-9)
        samples = reg.samples()
        assert samples["ttft_count"] == len(values)
        assert samples["ttft_sum"] == math.fsum(values)

    def test_prometheus_round_trip_and_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "lat", "latency", labelnames=("model",), sketch_alpha=0.02
        )
        rng = np.random.default_rng(5)
        for v in np.exp(rng.normal(-7.0, 1.0, size=500)):
            h.observe(float(v), "m0")
        h.observe(0.0, "m0")
        text = reg.prometheus_text()
        assert parse_prometheus_text(text) == reg.samples()
        # The rendered buckets are a valid cumulative histogram ending
        # at +Inf == count.
        acc = [
            (line.rsplit(" ", 1)[0], float(line.rsplit(" ", 1)[1]))
            for line in text.splitlines()
            if line.startswith("lat_bucket{")
        ]
        counts = [n for _, n in acc]
        assert counts == sorted(counts)
        assert counts[-1] == 501.0
        assert acc[0][0] == 'lat_bucket{model="m0",le="0.0"}'
        assert acc[-1][0] == 'lat_bucket{model="m0",le="+Inf"}'


# ----------------------------------------------------------------------
# Non-finite guards on the SLO plane and shared percentile helpers
# ----------------------------------------------------------------------
class TestObservationGuards:
    def test_burn_monitor_rejects_non_finite(self):
        spec = SLOSpec("ttft", 0.95, default_windows(1.0))
        monitor = BurnRateMonitor(spec, "class0")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                monitor.observe(bad, good=True)
        assert monitor.total == 0

    def test_slo_tracker_rejects_non_finite_before_creating_key(self):
        tracker = SLOTracker(SLOSpec("ttft", 0.95, default_windows(1.0)))
        with pytest.raises(ValueError):
            tracker.observe("classX", float("nan"), good=True)
        assert "classX" not in tracker.monitors

    def test_percentile_rejects_nan(self):
        with pytest.raises(ValueError):
            percentile([1.0, float("nan")], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 200)

    def test_nearest_rank_helpers(self):
        values = [5.0, 1.0, 3.0]
        assert nearest_rank_value(values, 0.0) == 1.0
        assert nearest_rank_value(values, 100.0) == 5.0
        assert nearest_rank(values, 50.0) == 1
        with pytest.raises(ValueError):
            nearest_rank_value([2.0, float("nan")], 50.0)
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 101.0)
