"""Tests for GEMM tiling, utilisation and dataflow scheduling."""

import pytest

from repro.arch import (
    GemmShape,
    MIRAGE_DATAFLOWS,
    MirageConfig,
    map_gemm,
    mirage_latency_fn,
    schedule_fixed,
    schedule_opt1,
    schedule_opt2,
    spatial_utilization,
    workload,
    workload_names,
    workload_utilization,
)
from repro.arch.workloads import LayerShape, training_gemms


class TestTileMapping:
    def test_exact_fit(self):
        m = map_gemm(GemmShape(32, 16, 100), v=32, g=16)
        assert m.tiles == 1
        assert m.tiles * 32 * 16 * m.stream_len == m.useful_macs
        assert m.cycles_per_tile == 100

    def test_padding_reduces_fill(self):
        m = map_gemm(GemmShape(33, 17, 10), v=32, g=16)
        assert m.row_tiles == 2 and m.col_tiles == 2
        fill = m.useful_macs / (m.tiles * 32 * 16 * m.stream_len)
        assert fill == pytest.approx(33 * 17 / (4 * 32 * 16))

    def test_second_operand_stationary(self):
        m = map_gemm(GemmShape(5, 16, 64), v=32, g=16, stationary="second")
        assert m.stationary_rows == 64
        assert m.stream_len == 5

    def test_count_multiplies_tiles(self):
        m1 = map_gemm(GemmShape(32, 16, 10, count=1), 32, 16)
        m7 = map_gemm(GemmShape(32, 16, 10, count=7), 32, 16)
        assert m7.tiles == 7 * m1.tiles
        assert m7.useful_macs == 7 * m1.useful_macs

    def test_invalid_stationary(self):
        with pytest.raises(ValueError):
            map_gemm(GemmShape(4, 4, 4), 32, 16, stationary="output")


class TestUtilization:
    def test_perfect_gemm_full_util(self):
        u = spatial_utilization([GemmShape(32, 16, 50)], 32, 16, 1)
        assert u == pytest.approx(1.0)

    def test_depthwise_util_poor(self):
        """Depthwise conv (M=1, K=9) fills 9/512 of a 32x16 tile — the
        MobileNet effect in Fig. 6."""
        u = spatial_utilization([GemmShape(1, 9, 100, count=64)], 32, 16, 1)
        assert u == pytest.approx(9 / 512)

    def test_array_imbalance(self):
        """3 tiles on 2 arrays: 2 rounds, utilisation 3/4."""
        u = spatial_utilization([GemmShape(96, 16, 10)], 32, 16, 2)
        assert u == pytest.approx(0.75)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            spatial_utilization([], 32, 16)

    def test_workload_util_decreases_with_arrays(self):
        for name in ("ResNet18", "MobileNet"):
            layers = workload(name)
            u8 = workload_utilization(layers, 32, 16, 8)
            u128 = workload_utilization(layers, 32, 16, 128)
            assert u128 <= u8

    def test_mobilenet_worst(self):
        """MobileNet's depthwise layers give it the lowest utilisation —
        visible in the paper's Fig. 6 curves."""
        utils = {
            name: workload_utilization(workload(name), 32, 16, 8)
            for name in workload_names()
        }
        assert min(utils, key=utils.get) == "MobileNet"


class TestTrainingGemms:
    def test_three_roles(self):
        layer = LayerShape("conv", GemmShape(64, 128, 1000))
        gemms = training_gemms(layer)
        roles = [g.role for g in gemms]
        assert roles == ["fwd", "dx", "dw"]

    def test_transposed_dims(self):
        """dX has dims (K, M, N); dW has (M, N, K) (Eqs. 2-3)."""
        layer = LayerShape("conv", GemmShape(64, 128, 1000))
        fwd, dx, dw = training_gemms(layer)
        assert (dx.gemm.m, dx.gemm.k, dx.gemm.n) == (128, 64, 1000)
        assert (dw.gemm.m, dw.gemm.k, dw.gemm.n) == (64, 1000, 128)

    def test_total_macs_3x_forward(self):
        layer = LayerShape("conv", GemmShape(8, 16, 32))
        total = sum(g.gemm.macs for g in training_gemms(layer))
        assert total == 3 * 8 * 16 * 32


class TestSchedulers:
    @pytest.fixture
    def layers(self):
        return workload("AlexNet")

    @pytest.fixture
    def latency_fn(self):
        return mirage_latency_fn(MirageConfig())

    def test_fixed_uses_one_dataflow(self, layers, latency_fn):
        sched = schedule_fixed(layers, latency_fn, "DF1")
        assert set(sched.histogram()) == {"DF1"}

    def test_fixed_rejects_unknown(self, layers, latency_fn):
        with pytest.raises(ValueError):
            schedule_fixed(layers, latency_fn, "DF9")

    def test_opt1_per_role_consistency(self, layers, latency_fn):
        sched = schedule_opt1(layers, latency_fn)
        per_role = {}
        for lname, role, df in sched.assignments:
            per_role.setdefault(role, set()).add(df)
        assert all(len(dfs) == 1 for dfs in per_role.values())

    def test_opt2_at_least_as_good(self, layers, latency_fn):
        """OPT2 >= OPT1 >= best fixed (each strictly more flexible)."""
        fixed = min(
            schedule_fixed(layers, latency_fn, df).total_latency
            for df in MIRAGE_DATAFLOWS
        )
        opt1 = schedule_opt1(layers, latency_fn).total_latency
        opt2 = schedule_opt2(layers, latency_fn).total_latency
        assert opt1 <= fixed + 1e-15
        assert opt2 <= opt1 + 1e-15

    def test_opt2_picks_per_gemm_best(self, layers, latency_fn):
        sched = schedule_opt2(layers, latency_fn)
        for (lname, role, df) in sched.assignments[:10]:
            gemms = [
                tg for layer in layers for tg in training_gemms(layer)
                if tg.layer == lname and tg.role == role
            ]
            tg = gemms[0]
            best = min(MIRAGE_DATAFLOWS, key=lambda d: latency_fn(tg, d))
            assert latency_fn(tg, df) == pytest.approx(latency_fn(tg, best))
