"""Tests for the latency, energy, area and converter models."""

import pytest

from repro.arch import (
    EnergyParams,
    GemmShape,
    MirageConfig,
    SystolicConfig,
    TABLE_II_FORMATS,
    adc_energy_per_conversion,
    area_breakdown,
    dac_energy_per_conversion,
    fig1b_series,
    mac_energy_breakdown,
    mirage_energy_per_mac,
    mirage_footprint_area,
    mirage_gemm_latency,
    mirage_total_area,
    peak_power_breakdown,
    systolic_gemm_latency,
)


class TestConverters:
    def test_adc_calibrated_to_cited_part(self):
        """6-bit / 24 GS/s / 23 mW (Xu et al.) -> ~0.96 pJ/conv."""
        assert adc_energy_per_conversion(6) == pytest.approx(23e-3 / 24e9, rel=1e-6)

    def test_16bit_costs_about_1nJ(self):
        """The paper's Fig. 1 example: a 16-bit conversion >= 1 nJ."""
        assert adc_energy_per_conversion(16) >= 0.9e-9

    def test_thermal_regime_4x_per_bit(self):
        """Beyond the Walden/thermal crossover, energy quadruples per bit."""
        e17, e18 = adc_energy_per_conversion(17), adc_energy_per_conversion(18)
        assert e18 / e17 == pytest.approx(4.0, rel=0.01)

    def test_adc_dac_gap_two_orders(self):
        """Fig. 1b: ADC energy ~2 orders above DAC at equal bits."""
        for b in (4, 6, 8):
            ratio = adc_energy_per_conversion(b) / dac_energy_per_conversion(b)
            assert 50 <= ratio <= 200

    def test_monotonicity(self):
        series = fig1b_series(16)
        adcs = [r[1] for r in series]
        assert adcs == sorted(adcs)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            adc_energy_per_conversion(0)


class TestMirageLatency:
    def test_single_tile_gemm(self):
        cfg = MirageConfig()
        lat = mirage_gemm_latency(GemmShape(32, 16, 100), cfg, "DF1")
        expected = cfg.reprogram_time_s + 100 * cfg.cycle_time_s
        assert lat == pytest.approx(expected)

    def test_tiles_distribute_over_arrays(self):
        cfg = MirageConfig(num_arrays=8)
        # 16 tiles over 8 arrays -> 2 rounds.
        lat = mirage_gemm_latency(GemmShape(32 * 16, 16, 10), cfg, "DF1")
        per_tile = cfg.reprogram_time_s + 10 * cfg.cycle_time_s
        assert lat == pytest.approx(2 * per_tile)

    def test_df2_swaps_stationary(self):
        """When N is huge and M tiny, DF1 serialises one long stream on a
        single array while DF2 tiles the big operand across all arrays —
        DF2 must win."""
        cfg = MirageConfig()
        g = GemmShape(8, 16, 100_000)
        assert mirage_gemm_latency(g, cfg, "DF2") < mirage_gemm_latency(g, cfg, "DF1")

    def test_df3_rejected(self):
        with pytest.raises(ValueError, match="DF3|per-cycle"):
            mirage_gemm_latency(GemmShape(4, 4, 4), MirageConfig(), "DF3")

    def test_reprogram_dominates_small_streams(self):
        """For tiny N, the 5 ns reprogram dwarfs the 0.1 ns cycles — the
        reason DF choice matters."""
        cfg = MirageConfig()
        lat = mirage_gemm_latency(GemmShape(32, 16, 1), cfg, "DF1")
        assert lat > 0.9 * cfg.reprogram_time_s


class TestSystolicLatency:
    def test_df3_output_stationary(self):
        cfg = SystolicConfig(TABLE_II_FORMATS["INT12"], num_arrays=1)
        lat = systolic_gemm_latency(GemmShape(32, 100, 16), cfg, "DF3")
        assert lat == pytest.approx((100 + 32 + 16) * cfg.cycle_time_s)

    def test_fp32_slower_clock(self):
        g = GemmShape(64, 64, 64)
        fp32 = systolic_gemm_latency(g, SystolicConfig(TABLE_II_FORMATS["FP32"]), "DF3")
        int12 = systolic_gemm_latency(g, SystolicConfig(TABLE_II_FORMATS["INT12"]), "DF3")
        assert fp32 == pytest.approx(2 * int12)

    def test_unknown_dataflow(self):
        with pytest.raises(ValueError):
            systolic_gemm_latency(GemmShape(4, 4, 4),
                                  SystolicConfig(TABLE_II_FORMATS["INT8"]), "DF4")


class TestEnergyModel:
    def test_table2_energy_in_range(self):
        """Measured pJ/MAC should land near the paper's 0.21 (we accept
        0.1-0.35)."""
        e = mirage_energy_per_mac(MirageConfig()) * 1e12
        assert 0.10 <= e <= 0.35

    def test_breakdown_components_positive(self):
        parts = mac_energy_breakdown(4, 16)
        assert all(v >= 0 for v in parts.values())
        assert parts["laser"] > 0

    def test_eq13_violation_rejected(self):
        with pytest.raises(ValueError):
            mac_energy_breakdown(4, 16, k=3)

    def test_fig5b_minimum_at_g16_for_bm4(self):
        """The paper's chosen design point: bm=4 cost is minimised at
        g=16 among Eq.-13-feasible points."""
        totals = {}
        for g in (4, 8, 16, 32, 64):
            totals[g] = sum(mac_energy_breakdown(4, g).values())
        assert min(totals, key=totals.get) == 16

    def test_bm5_more_expensive_than_bm4_at_g16(self):
        e4 = sum(mac_energy_breakdown(4, 16).values())
        e5 = sum(mac_energy_breakdown(5, 16).values())
        assert e5 > e4

    def test_peak_power_near_paper(self):
        total = sum(peak_power_breakdown(MirageConfig()).values())
        assert 15.0 <= total <= 25.0  # paper: 19.95 W

    def test_sram_dominates_power(self):
        """Fig. 9: SRAM is the largest consumer (61.9%)."""
        parts = peak_power_breakdown(MirageConfig())
        assert parts["sram"] == max(parts.values())

    def test_converters_small_share(self):
        """Fig. 9: DAC & ADC ~1% — the central RNS payoff."""
        parts = peak_power_breakdown(MirageConfig())
        share = parts["dac_adc"] / sum(parts.values())
        assert share < 0.05

    def test_conservative_adc_raises_share(self):
        parts = peak_power_breakdown(
            MirageConfig(), EnergyParams(adc_energy_scale=1.0)
        )
        share = parts["dac_adc"] / sum(parts.values())
        assert share > 0.10


class TestAreaModel:
    def test_total_near_paper(self):
        total = mirage_total_area(MirageConfig()) / 1e-6
        assert 400 <= total <= 520  # paper: 476.6 mm^2

    def test_footprint_is_max_chiplet(self):
        parts = area_breakdown(MirageConfig())
        electronic = sum(v for k, v in parts.items() if k != "photonic")
        expected = max(parts["photonic"], electronic)
        assert mirage_footprint_area(MirageConfig()) == pytest.approx(expected)

    def test_photonic_dominant_share(self):
        """Fig. 9: photonics is the largest area component (~49%)."""
        parts = area_breakdown(MirageConfig())
        assert parts["photonic"] == max(parts.values())

    def test_area_scales_with_arrays(self):
        a8 = mirage_total_area(MirageConfig(num_arrays=8))
        a16 = mirage_total_area(MirageConfig(num_arrays=16))
        assert a16 > 1.5 * a8


class TestMirageConfig:
    def test_defaults_match_paper(self):
        cfg = MirageConfig()
        assert cfg.moduli.moduli == (31, 32, 33)
        assert cfg.macs_per_cycle == 8 * 32 * 16
        assert cfg.peak_macs_per_s == pytest.approx(4096 * 10e9)
        assert cfg.validate_bfp()

    def test_dac_bits_override(self):
        cfg = MirageConfig(dac_bits_override=8)
        assert cfg.dac_bits == (8, 8, 8)

    def test_residue_bits(self):
        assert MirageConfig().residue_bits == (5, 5, 6)
