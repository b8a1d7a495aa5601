"""Tests for BFP encoding and the exact BFP GEMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfp import (
    BFPConfig,
    bfp_encode_matrix,
    bfp_matmul_exact,
    encode_groups,
    quantize_tensor,
)

# Any overflow or invalid cast inside a BFP kernel is a bug.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestBFPConfig:
    def test_valid(self):
        cfg = BFPConfig(4, 16)
        assert cfg.mantissa_range == 15

    def test_invalid_bm(self):
        with pytest.raises(ValueError):
            BFPConfig(0, 16)

    def test_invalid_g(self):
        with pytest.raises(ValueError):
            BFPConfig(4, 0)

    def test_invalid_rounding(self):
        with pytest.raises(ValueError):
            BFPConfig(4, 16, rounding="round-up")


class TestEncodeDecode:
    def test_zero_vector(self):
        blk = encode_groups(np.zeros(16), BFPConfig(4, 16))
        assert np.all(blk.mantissae == 0)
        assert np.array_equal(blk.decode(), np.zeros(16))

    def test_mantissa_bounds(self, rng):
        cfg = BFPConfig(4, 16)
        blk = encode_groups(rng.normal(size=64), cfg)
        assert np.abs(blk.mantissae).max() <= cfg.mantissa_range

    def test_max_element_keeps_precision(self):
        """The group's max-magnitude element must quantise to close to
        2^bm (it defines the shared exponent)."""
        cfg = BFPConfig(4, 4)
        blk = encode_groups(np.array([1.0, 0.1, 0.1, 0.1]), cfg)
        assert abs(blk.mantissae[0, 0]) >= 2 ** (cfg.bm - 1)

    def test_relative_error_bound(self, rng):
        """Truncation error of any element is bounded by the group step
        2^(e_shared - bm)."""
        cfg = BFPConfig(4, 16)
        vec = rng.normal(size=160)
        blk = encode_groups(vec, cfg)
        decoded = blk.decode()
        steps = np.repeat(np.ldexp(1.0, blk.exponents - cfg.bm), cfg.g)[:160]
        assert np.all(np.abs(decoded - vec) <= steps + 1e-15)

    def test_padding_stripped(self):
        cfg = BFPConfig(4, 16)
        vec = np.arange(20, dtype=float)
        blk = encode_groups(vec, cfg)
        assert blk.mantissae.shape == (2, 16)
        assert blk.decode().shape == (20,)

    def test_idempotent(self, rng):
        """Encoding an already-BFP vector is exact."""
        cfg = BFPConfig(4, 16)
        once = encode_groups(rng.normal(size=32), cfg).decode()
        twice = encode_groups(once, cfg).decode()
        assert np.array_equal(once, twice)

    def test_nearest_rounding_closer_on_average(self, rng):
        vec = rng.normal(size=1024)
        trunc = encode_groups(vec, BFPConfig(4, 16, "truncate")).decode()
        near = encode_groups(vec, BFPConfig(4, 16, "nearest")).decode()
        assert np.abs(near - vec).mean() <= np.abs(trunc - vec).mean()

    @pytest.mark.parametrize("rounding", ["truncate", "nearest", "stochastic"])
    def test_nan_raises(self, rounding):
        cfg = BFPConfig(4, 4, rounding)
        with pytest.raises(ValueError, match="NaN"):
            encode_groups([1.0, np.nan, 2.0, 3.0], cfg, np.random.default_rng(0))

    def test_stochastic_rounding_unbiased(self):
        cfg = BFPConfig(2, 4, "stochastic")
        rng = np.random.default_rng(0)
        vec = np.array([1.0, 0.3, 0.3, 0.3])
        samples = [encode_groups(vec, cfg, rng).decode()[1] for _ in range(3000)]
        assert abs(np.mean(samples) - 0.3) < 0.01


class TestQuantizeTensor:
    def test_matches_encode_decode_1d(self, rng):
        cfg = BFPConfig(4, 16)
        vec = rng.normal(size=50)
        assert np.array_equal(
            quantize_tensor(vec, cfg, axis=0), encode_groups(vec, cfg).decode()
        )

    def test_axis_grouping(self, rng):
        """Grouping along different axes gives different (valid) results."""
        cfg = BFPConfig(3, 4)
        mat = rng.normal(size=(8, 8)) * np.logspace(0, 3, 8)[:, None]
        q0 = quantize_tensor(mat, cfg, axis=0)
        q1 = quantize_tensor(mat, cfg, axis=1)
        assert not np.array_equal(q0, q1)

    def test_preserves_shape(self, rng):
        cfg = BFPConfig(4, 16)
        arr = rng.normal(size=(3, 5, 7))
        assert quantize_tensor(arr, cfg, axis=1).shape == (3, 5, 7)


class TestBfpGemm:
    def test_exact_equals_fast(self, rng):
        """The integer GEMM equals a float matmul of the quantised operands."""
        cfg = BFPConfig(4, 16)
        w = rng.normal(size=(12, 40))
        x = rng.normal(size=(40, 9))
        exact = bfp_matmul_exact(w, x, cfg)
        fast = quantize_tensor(w, cfg, axis=-1) @ quantize_tensor(x, cfg, axis=0)
        assert np.allclose(exact, fast, rtol=0, atol=1e-12)

    def test_error_shrinks_with_bm(self, rng):
        w = rng.normal(size=(16, 64))
        x = rng.normal(size=(64, 16))
        ref = w @ x
        errors = []
        for bm in (2, 4, 6, 8):
            out = bfp_matmul_exact(w, x, BFPConfig(bm, 16))
            errors.append(np.abs(out - ref).max())
        assert errors == sorted(errors, reverse=True)

    def test_exact_on_representable_inputs(self, rng):
        """Integer-valued operands within bm bits multiply exactly."""
        cfg = BFPConfig(6, 8)
        w = rng.integers(-31, 32, size=(4, 8)).astype(float)
        x = rng.integers(-31, 32, size=(8, 3)).astype(float)
        assert np.array_equal(bfp_matmul_exact(w, x, cfg), w @ x)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bfp_matmul_exact(np.zeros((2, 3)), np.zeros((4, 2)), BFPConfig(4, 16))

    def test_encode_matrix_shapes(self, rng):
        cfg = BFPConfig(4, 16)
        mant, exp = bfp_encode_matrix(rng.normal(size=(5, 33)), cfg)
        assert mant.shape == (5, 3, 16)
        assert exp.shape == (5, 3)

    def test_exact_gemm_rejects_nan(self, rng):
        w = rng.normal(size=(3, 20))
        x = rng.normal(size=(20, 2))
        x[5, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            bfp_matmul_exact(w, x, BFPConfig(4, 16))

    def test_encode_matrix_rejects_1d(self):
        with pytest.raises(ValueError):
            bfp_encode_matrix(np.zeros(8), BFPConfig(4, 16))


class TestGemmProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_fast_equals_exact_property(self, bm, g):
        rng = np.random.default_rng(bm * 100 + g)
        cfg = BFPConfig(bm, g)
        w = rng.normal(size=(6, 2 * g + 3))
        x = rng.normal(size=(2 * g + 3, 4))
        fast = quantize_tensor(w, cfg, axis=-1) @ quantize_tensor(x, cfg, axis=0)
        assert np.allclose(bfp_matmul_exact(w, x, cfg), fast, rtol=0, atol=1e-10)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_scalar_quantisation_error_bound(self, value):
        """|q(v) - v| <= 2^(e - bm) with e the exponent of |v|."""
        cfg = BFPConfig(4, 1)
        q = encode_groups(np.array([value]), cfg).decode()[0]
        if value == 0:
            assert q == 0
        else:
            _, e = np.frexp(abs(value))
            assert abs(q - value) <= 2.0 ** (int(e) - cfg.bm) + 1e-12
