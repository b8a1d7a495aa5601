"""Tests for phase-shifter geometry, MRR switches and the MMU model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonic import (
    MMU,
    MMUGeometry,
    PhaseShifterBank,
    max_phase_shift,
    phase_to_level,
    wrap_phase,
)
from repro.photonic.mmu import TWO_PI


class TestMaxPhaseShift:
    def test_formula(self):
        # ceil((m-1)^2 / 2) * 2pi / m
        m = 33
        assert max_phase_shift(m) == pytest.approx(
            math.ceil((m - 1) ** 2 / 2) * 2 * math.pi / m
        )

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            max_phase_shift(1)


class TestPhaseShifterBank:
    def test_paper_length_m33(self):
        """Section V-B1: total shifter length 0.57 mm for modulus 33."""
        bank = PhaseShifterBank(33)
        assert bank.total_length == pytest.approx(0.57e-3, rel=0.02)

    def test_digit_count(self):
        assert PhaseShifterBank(33).digits == 6
        assert PhaseShifterBank(32).digits == 5
        assert PhaseShifterBank(31).digits == 5

    def test_digit_lengths_binary_weighted(self):
        bank = PhaseShifterBank(17)
        lengths = bank.digit_lengths()
        assert len(lengths) == 5
        for d in range(1, 5):
            assert lengths[d] == pytest.approx(2 * lengths[d - 1])
        assert sum(lengths) == pytest.approx(bank.total_length)

    def test_full_bias_reaches_max_phase(self):
        """V_bias across the whole bank must reach ΔΦ_max (Eq. 11)."""
        bank = PhaseShifterBank(33)
        phase = bank.v_bias * bank.total_length / bank.v_pi_l * math.pi
        assert phase == pytest.approx(max_phase_shift(33), rel=1e-9)


class TestMMUGeometry:
    def test_paper_mmu_length(self):
        """Section V-B1: MMU horizontal length ~0.8 mm for modulus 33."""
        geom = MMUGeometry(PhaseShifterBank(33))
        assert geom.horizontal_length == pytest.approx(0.8e-3, rel=0.05)

    def test_mrr_count(self):
        assert MMUGeometry(PhaseShifterBank(33)).mrr_count == 12

    def test_loss_monotone_in_duty_beyond_crossover(self):
        geom = MMUGeometry(PhaseShifterBank(33))
        # Loss must be finite, positive, and vary smoothly with duty.
        losses = [geom.loss_db(d) for d in (0.0, 0.5, 1.0)]
        assert all(l > 0 for l in losses)
        assert losses[1] == pytest.approx((losses[0] + losses[2]) / 2, rel=1e-9)

    def test_duty_validation(self):
        with pytest.raises(ValueError):
            MMUGeometry(PhaseShifterBank(33)).loss_db(1.5)


class TestWrapAndLevels:
    def test_wrap_into_range(self):
        assert wrap_phase(np.array([7.0]))[0] == pytest.approx(7.0 - TWO_PI)
        assert wrap_phase(np.array([-1.0]))[0] == pytest.approx(TWO_PI - 1.0)

    def test_level_decision_centres(self):
        m = 13
        phases = np.arange(m) * TWO_PI / m
        assert np.array_equal(phase_to_level(phases, m), np.arange(m))

    def test_level_decision_wraps(self):
        m = 8
        assert phase_to_level(np.array([TWO_PI - 0.01]), m)[0] == 0


class TestMMU:
    @pytest.mark.parametrize("m", (7, 8, 9, 31, 32, 33, 63, 64, 65))
    def test_exhaustive_small_or_random_large(self, m, rng):
        mmu = MMU(m)
        if m <= 9:
            xs, ws = np.meshgrid(np.arange(m), np.arange(m))
            xs, ws = xs.ravel(), ws.ravel()
        else:
            xs = rng.integers(0, m, size=500)
            ws = rng.integers(0, m, size=500)
        out = mmu.multiply(xs, ws)
        assert np.array_equal(out, (xs * ws) % m)

    def test_residue_range_validated(self):
        mmu = MMU(7)
        with pytest.raises(ValueError):
            mmu.multiply(np.array([7]), np.array([1]))
        with pytest.raises(ValueError):
            mmu.multiply(np.array([1]), np.array([-1]))

    def test_phase_proportional_to_product(self):
        mmu = MMU(11)
        p = mmu.phase(np.array([3]), np.array([4]))
        assert p[0] == pytest.approx(TWO_PI / 11 * 12)

    def test_noise_perturbs_phase(self):
        quiet = MMU(31, phase_error_std=0.0)
        noisy = MMU(31, phase_error_std=0.05, rng=np.random.default_rng(0))
        x = np.full(100, 21)
        w = np.full(100, 17)
        assert np.array_equal(quiet.phase(x, w), np.full(100, quiet.phase(x[:1], w[:1])[0]))
        assert np.std(noisy.phase(x, w)) > 0

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_multiplication_property(self, m):
        rng = np.random.default_rng(m)
        mmu = MMU(m)
        x = rng.integers(0, m, size=50)
        w = rng.integers(0, m, size=50)
        assert np.array_equal(mmu.multiply(x, w), (x * w) % m)
