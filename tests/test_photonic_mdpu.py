"""Tests for MDPU / MMVMU / RNS-MMVMU and the phase-detection front end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonic import (
    MDPU,
    MMVMU,
    NoiseModel,
    PhaseDetector,
    RnsMMVMU,
    quantize_adc,
)
from repro.photonic.mmu import TWO_PI
from repro.rns import mod_matmul


class TestQuantizeAdc:
    def test_levels(self):
        vals = np.linspace(-1, 1, 1000)
        q = quantize_adc(vals, 3, 1.0)
        assert len(np.unique(q)) <= 8

    def test_monotone(self):
        vals = np.linspace(-1, 1, 100)
        q = quantize_adc(vals, 4, 1.0)
        assert np.all(np.diff(q) >= 0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_adc(np.zeros(1), 0, 1.0)


class TestPhaseDetector:
    @pytest.mark.parametrize("m", (7, 31, 32, 33, 64, 65))
    def test_noiseless_detection_exact(self, m):
        """With ceil(log2 m)-bit ADCs and no noise, every phase level must
        be decided correctly — the paper's equal-precision claim."""
        det = PhaseDetector(m)
        phases = np.arange(m) * TWO_PI / m
        assert np.array_equal(det.detect_level(phases), np.arange(m))

    def test_detection_without_adc(self):
        det = PhaseDetector(33, use_adc=False)
        phases = np.arange(33) * TWO_PI / 33
        assert np.array_equal(det.detect_level(phases), np.arange(33))

    def test_low_snr_causes_errors(self):
        det = PhaseDetector(33, noise_std=0.2, rng=np.random.default_rng(0))
        phases = np.tile(np.arange(33) * TWO_PI / 33, 30)
        out = det.detect_level(phases)
        expected = np.tile(np.arange(33), 30)
        assert np.mean(out != expected) > 0.05

    def test_high_snr_is_clean(self):
        det = PhaseDetector(33, noise_std=1e-4, rng=np.random.default_rng(0))
        phases = np.arange(33) * TWO_PI / 33
        assert np.array_equal(det.detect_level(phases), np.arange(33))

    def test_iq_components(self):
        det = PhaseDetector(8, use_adc=False)
        i, q = det.read_iq(np.array([0.0, np.pi / 2]))
        assert i[0] == pytest.approx(1.0)
        assert q[1] == pytest.approx(1.0)


class TestMDPU:
    @pytest.mark.parametrize("m,g", [(7, 4), (31, 16), (32, 16), (33, 16), (33, 64)])
    def test_dot_matches_integers(self, m, g, rng):
        mdpu = MDPU(m, g)
        x = rng.integers(0, m, size=g)
        w = rng.integers(0, m, size=g)
        assert mdpu.dot(x, w) == int(x.astype(object) @ w.astype(object)) % m

    def test_batched_dot(self, rng):
        mdpu = MDPU(31, 16)
        x = rng.integers(0, 31, size=(10, 16))
        w = rng.integers(0, 31, size=16)
        out = mdpu.dot(x, np.broadcast_to(w, (10, 16)))
        expected = (x @ w) % 31
        assert np.array_equal(out, expected)

    def test_g_validation(self, rng):
        mdpu = MDPU(7, 8)
        with pytest.raises(ValueError):
            mdpu.dot(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))

    def test_invalid_g(self):
        with pytest.raises(ValueError):
            MDPU(7, 0)


class TestMMVMU:
    def test_mvm_matches_integer(self, rng):
        m, g, v = 33, 16, 32
        unit = MMVMU(m, g, v)
        w = rng.integers(0, m, size=(v, g))
        x = rng.integers(0, m, size=g)
        out = unit.mvm(w, x)
        assert np.array_equal(out, (w @ x) % m)

    def test_streamed_batch(self, rng):
        m, g, v = 31, 8, 4
        unit = MMVMU(m, g, v)
        w = rng.integers(0, m, size=(v, g))
        xs = rng.integers(0, m, size=(20, g))
        out = unit.mvm(w, xs)
        assert out.shape == (20, v)
        assert np.array_equal(out, (xs @ w.T) % m)

    def test_tile_shape_validated(self, rng):
        unit = MMVMU(7, 4, 3)
        with pytest.raises(ValueError):
            unit.mvm(np.zeros((2, 4), dtype=np.int64), np.zeros(4, dtype=np.int64))


class TestRnsMMVMU:
    def test_parallel_modular_mvms(self, mset5, rng):
        g, v = 16, 8
        engine = RnsMMVMU(mset5, g, v)
        w = np.stack([rng.integers(0, m, size=(v, g)) for m in mset5.moduli])
        x = np.stack([rng.integers(0, m, size=(5, g)) for m in mset5.moduli])
        out = engine.mvm(w, x)
        ref = mod_matmul(w, np.swapaxes(x, 1, 2), mset5)
        assert np.array_equal(out, np.swapaxes(ref, 1, 2))

    def test_channel_count_validated(self, mset5, rng):
        engine = RnsMMVMU(mset5, 4, 2)
        with pytest.raises(ValueError):
            engine.mvm(np.zeros((2, 2, 4), dtype=np.int64),
                       np.zeros((3, 1, 4), dtype=np.int64))

    def test_noise_model_flows_to_units(self, mset5, rng):
        noisy = RnsMMVMU(mset5, 16, 4, NoiseModel.from_snr(5.0),
                         np.random.default_rng(0))
        w = np.stack([rng.integers(0, m, size=(4, 16)) for m in mset5.moduli])
        x = np.stack([rng.integers(0, m, size=(50, 16)) for m in mset5.moduli])
        out = noisy.mvm(w, x)
        ref = np.swapaxes(mod_matmul(w, np.swapaxes(x, 1, 2), mset5), 1, 2)
        assert np.any(out != ref)  # SNR 5 << m: errors must appear


class TestNoiseModel:
    def test_from_snr(self):
        nm = NoiseModel.from_snr(100.0)
        assert nm.detector_noise_std == pytest.approx(0.01)

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            NoiseModel.from_snr(0.0)

    def test_ideal_is_noiseless(self):
        nm = NoiseModel.ideal()
        assert nm.phase_error_std == 0.0
        assert nm.detector_noise_std == 0.0


class TestMDPUProperty:
    @given(
        st.integers(min_value=3, max_value=64),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_modular_dot_product_property(self, m, g, seed):
        """Eq. 12: accumulated optical phase == modular dot product, for
        any modulus, any dot length."""
        rng = np.random.default_rng(seed)
        mdpu = MDPU(m, g)
        x = rng.integers(0, m, size=g)
        w = rng.integers(0, m, size=g)
        expected = int(sum(int(a) * int(b) for a, b in zip(x, w))) % m
        assert int(mdpu.dot(x, w)) == expected
