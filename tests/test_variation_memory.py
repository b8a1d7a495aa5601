"""Tests for the process-variation Monte Carlo and the interleaved
memory-system model."""

import numpy as np
import pytest

from repro.arch import MemorySystemModel, MirageConfig
from repro.photonic import VariationModel, VariedMDPU, encoding_error_rate


class TestVariedMDPU:
    def test_ideal_devices_exact(self, rng):
        """Infinite DAC precision + zero MRR error == integer arithmetic."""
        var = VariationModel(dac_bits=30, mrr_rel_error=0.0, seed=0)
        mdpu = VariedMDPU(33, 16, var)
        x = rng.integers(0, 33, size=(50, 16))
        w = rng.integers(0, 33, size=(50, 16))
        assert np.array_equal(mdpu.dot(x, w), mdpu.exact(x, w))

    def test_paper_point_8bit_dac_clean(self, rng):
        """b_DAC = 8 at h = 16 yields (essentially) no decision errors —
        the Section VI-E conclusion."""
        rate = encoding_error_rate(33, 16, dac_bits=8, trials=400, seed=1)
        assert rate <= 0.01

    def test_low_dac_precision_fails(self):
        rates = [encoding_error_rate(33, 16, dac_bits=4, trials=200, seed=s)
                 for s in range(5)]
        assert float(np.mean(rates)) > 0.1

    def test_error_rate_monotone_in_dac_bits(self):
        rates = [
            np.mean([
                encoding_error_rate(31, 16, b, trials=150, seed=s)
                for s in range(4)
            ])
            for b in (4, 6, 8)
        ]
        assert rates[0] > rates[1] >= rates[2]

    def test_longer_mdpu_worse(self):
        """Eq. 14: error accumulates with h."""
        r16 = np.mean([encoding_error_rate(33, 16, 5, trials=150, seed=s)
                       for s in range(4)])
        r64 = np.mean([encoding_error_rate(33, 64, 5, trials=150, seed=s)
                       for s in range(4)])
        assert r64 >= r16

    def test_static_imperfections_deterministic(self, rng):
        var = VariationModel(dac_bits=5, seed=7)
        m1 = VariedMDPU(31, 8, var)
        m2 = VariedMDPU(31, 8, var)
        x = rng.integers(0, 31, size=(20, 8))
        w = rng.integers(0, 31, size=(20, 8))
        assert np.array_equal(m1.dot(x, w), m2.dot(x, w))

    def test_shape_validation(self):
        mdpu = VariedMDPU(7, 4, VariationModel())
        with pytest.raises(ValueError):
            mdpu.dot(np.zeros((2, 3), dtype=np.int64),
                     np.zeros((2, 3), dtype=np.int64))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            VariedMDPU(1, 4, VariationModel())


class TestMemorySystemModel:
    def test_paper_config_balanced(self):
        """10-way interleaving exactly feeds the 10 GHz optics."""
        model = MemorySystemModel(MirageConfig())
        assert model.throughput_bound() == pytest.approx(1.0)
        assert model.bottlenecks() == []

    def test_under_provisioned_throttles(self):
        model = MemorySystemModel(MirageConfig(interleave_factor=5))
        assert model.throughput_bound() == pytest.approx(0.5)
        names = {d.name for d in model.bottlenecks()}
        assert "rns_bns" in names

    def test_over_provisioned_capped_at_one(self):
        model = MemorySystemModel(MirageConfig(interleave_factor=20))
        assert model.throughput_bound() == 1.0

    def test_effective_macs(self):
        cfg = MirageConfig(interleave_factor=5)
        model = MemorySystemModel(cfg)
        assert model.effective_macs_per_s() == pytest.approx(
            0.5 * cfg.peak_macs_per_s
        )

    def test_all_stages_reported(self):
        model = MemorySystemModel(MirageConfig())
        assert set(model.demands()) == {
            "sram_read", "sram_write", "fp_bfp", "bns_rns", "rns_bns",
            "accumulate",
        }

    def test_input_reuse_validation(self):
        with pytest.raises(ValueError):
            MemorySystemModel(MirageConfig(), input_reuse=0.5)

    def test_utilisation_definition(self):
        model = MemorySystemModel(MirageConfig())
        for d in model.demands().values():
            assert d.utilisation == pytest.approx(
                d.demand_per_cycle / d.capacity_per_cycle
            )
