"""Tests for the RRNS protection cost model (Section VI-E closing claim)."""

import pytest

from repro.arch import (
    MirageConfig,
    redundant_ladder,
    rrns_design_table,
    rrns_overhead,
)
from repro.rns import pairwise_coprime


class TestRedundantLadder:
    def test_coprime_with_base(self):
        cfg = MirageConfig()
        ladder = redundant_ladder(cfg, 4)
        assert pairwise_coprime(tuple(cfg.moduli.moduli) + ladder)

    def test_exceed_base_moduli(self):
        cfg = MirageConfig()
        assert all(m > max(cfg.moduli.moduli) for m in redundant_ladder(cfg, 3))

    def test_zero_is_empty(self):
        assert redundant_ladder(MirageConfig(), 0) == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            redundant_ladder(MirageConfig(), -1)

    def test_strictly_increasing(self):
        ladder = redundant_ladder(MirageConfig(), 5)
        assert list(ladder) == sorted(set(ladder))


class TestRrnsOverhead:
    def test_unprotected_baseline(self):
        o = rrns_overhead(r=0)
        assert o.power_ratio == 1.0 and o.area_ratio == 1.0
        assert o.correctable_errors == 0

    def test_power_grows_roughly_linearly(self):
        """Section VI-E: power/area scale ~linearly with added moduli."""
        table = rrns_design_table(r_values=(0, 1, 2, 3, 4))
        increments = [b.power_ratio - a.power_ratio
                      for a, b in zip(table, table[1:])]
        assert all(i > 0 for i in increments)
        # "Roughly linear": each increment within 2x of the first.
        assert max(increments) < 2 * min(increments)

    def test_throughput_unchanged(self):
        for o in rrns_design_table(r_values=(0, 2, 4)):
            assert o.throughput_ratio == 1.0

    def test_edp_tracks_power(self):
        o = rrns_overhead(r=3)
        assert o.edp_ratio == o.power_ratio

    def test_correction_strength(self):
        assert rrns_overhead(r=2).correctable_errors == 1
        assert rrns_overhead(r=4).correctable_errors == 2
        assert rrns_overhead(r=4).detectable_errors == 4

    def test_area_below_naive_linear(self):
        """SRAM/BFP/accumulator parts do not replicate, so total area
        grows slower than the component count (4/3 per added modulus)."""
        o = rrns_overhead(r=1)
        assert 1.0 < o.area_ratio < 4.0 / 3.0
