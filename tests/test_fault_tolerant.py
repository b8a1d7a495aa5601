"""Tests for the RRNS-protected photonic core (Section VI-E extension)."""

import numpy as np
import pytest

from repro.bfp import BFPConfig, bfp_matmul_exact
from repro.core import FaultTolerantCore, PhotonicRnsTensorCore
from repro.photonic import NoiseModel
from repro.rns import RRNSCodec


class TestSignedDecode:
    def test_negative_values_roundtrip(self):
        codec = RRNSCodec((31, 32, 33), (37, 41))
        for y in (-5000, -1, 0, 1, 5000):
            res = [y % m for m in codec.full_set.moduli]
            out = codec.decode_scalar_signed(res)
            assert out.ok and out.value == y

    def test_single_error_corrected_signed(self, rng):
        codec = RRNSCodec((31, 32, 33), (37, 41))
        for _ in range(20):
            y = int(rng.integers(-codec.info_set.psi, codec.info_set.psi))
            res = [y % m for m in codec.full_set.moduli]
            ch = int(rng.integers(0, 5))
            m = codec.full_set.moduli[ch]
            res[ch] = (res[ch] + int(rng.integers(1, m))) % m
            out = codec.decode_scalar_signed(res)
            assert out.ok and out.value == y


class TestFaultTolerantCore:
    def test_noiseless_bit_exact(self, rng):
        ft = FaultTolerantCore(v=8, rng=np.random.default_rng(0))
        w = rng.normal(size=(12, 40))
        x = rng.normal(size=(40, 5))
        ref = bfp_matmul_exact(w, x, BFPConfig(4, 16))
        assert np.array_equal(ft.matmul(w, x), ref)
        assert ft.stats.corrected == 0
        assert ft.stats.uncorrectable == 0

    def test_eq13_checked_on_info_set(self):
        with pytest.raises(ValueError):
            FaultTolerantCore(info_moduli=(7, 8, 9), bm=4, g=16)

    def test_rrns_beats_plain_core_under_noise(self, rng):
        """The Section VI-E payoff: at an SNR where the plain core makes
        frequent output errors, the RRNS core recovers most of them."""
        w = rng.normal(size=(8, 32))
        x = rng.normal(size=(32, 6))
        ref = bfp_matmul_exact(w, x, BFPConfig(4, 16))
        noise = NoiseModel.from_snr(25.0)
        plain = PhotonicRnsTensorCore(
            noise=noise, rng=np.random.default_rng(3)
        )
        ft = FaultTolerantCore(v=8, noise=noise, rng=np.random.default_rng(3))
        plain_err = np.mean(plain.matmul(w, x) != ref)
        ft_err = np.mean(ft.matmul(w, x) != ref)
        assert plain_err > 0.02  # the regime is actually noisy
        assert ft_err < plain_err
        assert ft.stats.corrected > 0

    def test_stats_accumulate_across_calls(self, rng):
        ft = FaultTolerantCore(v=8, noise=NoiseModel.from_snr(25.0),
                               rng=np.random.default_rng(1))
        w = rng.normal(size=(8, 16))
        x = rng.normal(size=(16, 4))
        ft.matmul(w, x)
        assert ft.stats.outputs == 32
        ft.matmul(w, x)
        assert ft.stats.outputs == 64

    def test_shape_validation(self):
        ft = FaultTolerantCore(v=8)
        with pytest.raises(ValueError):
            ft.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
