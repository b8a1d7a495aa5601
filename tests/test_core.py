"""Tests for the photonic RNS tensor core — the paper's central
correctness property: the analog path is bit-exact vs the BFP reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfp import BFPConfig, bfp_matmul_exact
from repro.core import (
    CoreConfig,
    PhotonicExecutor,
    PhotonicRnsTensorCore,
    compare_with_reference,
)
from repro.nn import Conv2d, Flatten, Linear, ReLU, Sequential
from repro.photonic import NoiseModel


# The noiseless configs: the design point, bm=3 at k_min, bm=5 with g=8,
# nearest rounding, and a set that takes the reduce-then-CRT path.
ORACLE_CONFIGS = (
    CoreConfig(),
    CoreConfig(bm=3, k=None, v=8),
    CoreConfig(bm=5, g=8),
    CoreConfig(rounding="nearest"),
    CoreConfig(bm=8, g=4, k=12, v=4),
)
# Binary exponent ranges (rows, columns) an operand is scaled over: none,
# +-300 decades in total, or rows far below 2^(bm - 1023).
MAGNITUDES = (((0, 0), (0, 0)), ((-500, 500), (-500, 500)), ((-1074, -1020), (0, 0)))


@st.composite
def _gemm_cases(draw):
    """A noiseless config, ragged ``w`` and ``x`` (signed zeros and inf
    sprinkled in), and a column split."""
    config = draw(st.sampled_from(ORACLE_CONFIGS))
    r, k, c = draw(st.integers(1, 70)), draw(st.integers(1, 80)), draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    operands = []
    for shape in ((r, k), (k, c)):
        (r_lo, r_hi), (c_lo, c_hi) = draw(st.sampled_from(MAGNITUDES))
        exps = gen.integers(r_lo, r_hi + 1, size=(shape[0], 1)) + gen.integers(
            c_lo, c_hi + 1, size=(1, shape[1])
        )
        a = np.ldexp(gen.normal(size=shape), exps)
        a[gen.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        a[gen.random(shape) < draw(st.sampled_from([0.0, 0.2]))] = -0.0
        inf = gen.random(shape) < draw(st.sampled_from([0.0, 0.05]))
        a[inf] = np.copysign(np.inf, gen.normal(size=int(inf.sum())))
        operands.append(a)
    return (config, *operands, draw(st.integers(0, c)))


class TestCoreConfig:
    def test_default_is_paper_design_point(self):
        cfg = CoreConfig()
        assert (cfg.bm, cfg.g, cfg.v, cfg.resolved_k()) == (4, 16, 32, 5)
        assert cfg.moduli().moduli == (31, 32, 33)

    def test_k_none_uses_kmin(self):
        cfg = CoreConfig(bm=3, g=16, k=None)
        assert cfg.resolved_k() == 4

    def test_eq13_violation_rejected(self):
        with pytest.raises(ValueError):
            PhotonicRnsTensorCore(CoreConfig(bm=5, g=64, k=5))


class TestBitExactness:
    """The headline property: noiseless photonic GEMM == integer BFP GEMM."""

    def test_default_config(self, rng):
        core = PhotonicRnsTensorCore()
        w = rng.normal(size=(40, 50))
        x = rng.normal(size=(50, 7))
        assert np.array_equal(
            core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
        )

    @pytest.mark.parametrize("bm,g,k", [(3, 16, 4), (4, 8, 5), (5, 16, 6),
                                        (4, 16, 6)])
    def test_other_design_points(self, bm, g, k, rng):
        core = PhotonicRnsTensorCore(CoreConfig(bm=bm, g=g, k=k, v=8))
        w = rng.normal(size=(10, 2 * g + 3))
        x = rng.normal(size=(2 * g + 3, 4))
        assert np.array_equal(
            core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(bm, g))
        )

    def test_wide_dynamic_range_inputs(self, rng):
        """Values spanning many orders of magnitude exercise the shared
        exponent path."""
        core = PhotonicRnsTensorCore()
        w = rng.normal(size=(8, 32)) * np.logspace(-6, 6, 32)[None, :]
        x = rng.normal(size=(32, 3)) * np.logspace(4, -4, 32)[:, None]
        assert np.array_equal(
            core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
        )

    def test_non_divisible_dims(self, rng):
        """R not divisible by v, K not divisible by g."""
        core = PhotonicRnsTensorCore(CoreConfig(v=8))
        w = rng.normal(size=(13, 37))
        x = rng.normal(size=(37, 5))
        assert np.array_equal(
            core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
        )

    def test_zero_and_negative_blocks(self):
        core = PhotonicRnsTensorCore()
        w = np.zeros((4, 16))
        w[0, 0] = -1.5
        x = -np.ones((16, 2))
        assert np.array_equal(
            core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
        )

    def test_mvm_wrapper(self, rng):
        core = PhotonicRnsTensorCore()
        w = rng.normal(size=(8, 16))
        v = rng.normal(size=16)
        assert np.array_equal(core.mvm(w, v), core.matmul(w, v[:, None])[:, 0])

    def test_shape_validation(self):
        core = PhotonicRnsTensorCore()
        with pytest.raises(ValueError):
            core.matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_operands_raise(self, rng):
        core = PhotonicRnsTensorCore()
        w = rng.normal(size=(6, 20))
        x = rng.normal(size=(20, 3))
        w_nan, x_nan = w.copy(), x.copy()
        w_nan[2, 7] = np.nan
        x_nan[11, 0] = np.nan
        for call in (
            lambda: core.matmul(w_nan, x),
            lambda: core.matmul(w, x_nan),
            lambda: core.program(w_nan),
            lambda: core.matmul_programmed(core.program(w), x_nan),
            lambda: core.matmul_many(w, [x, x_nan]),
        ):
            with pytest.raises(ValueError, match="NaN"):
                call()

    def test_stats_counters(self, rng):
        core = PhotonicRnsTensorCore(CoreConfig(v=8))
        core.matmul(rng.normal(size=(16, 32)), rng.normal(size=(32, 5)))
        # 2 row tiles x 2 K-groups = 4 tiles; 5 vectors per tile.
        assert core.tiles_programmed == 4
        assert core.mvm_cycles == 20

    @given(_gemm_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_bit_exactness_property(self, case):
        """Every entry point equals ``bfp_matmul_exact`` byte for byte."""
        config, w, x, split = case
        core = PhotonicRnsTensorCore(config)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = bfp_matmul_exact(w, x, config.bfp()).tobytes()
            assert core.matmul(w, x).tobytes() == ref
            pw = core.program(w)
            assert core.matmul_programmed(pw, x).tobytes() == ref
            parts = core.matmul_many(w, [x[:, :split], x[:, split:]])
        assert np.concatenate(parts, axis=1).tobytes() == ref


class TestNoisyCore:
    def test_noise_breaks_exactness(self, rng):
        noisy = PhotonicRnsTensorCore(
            noise=NoiseModel.from_snr(8.0), rng=np.random.default_rng(0)
        )
        w = rng.normal(size=(16, 32))
        x = rng.normal(size=(32, 8))
        out = noisy.matmul(w, x)
        ref = bfp_matmul_exact(w, x, BFPConfig(4, 16))
        assert not np.array_equal(out, ref)

    def test_high_snr_recovers_exactness(self, rng):
        clean = PhotonicRnsTensorCore(
            noise=NoiseModel.from_snr(1e6), rng=np.random.default_rng(0)
        )
        w = rng.normal(size=(8, 16))
        x = rng.normal(size=(16, 4))
        assert np.array_equal(
            clean.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
        )


class TestPhotonicExecutor:
    def test_linear_layer(self, rng):
        layer = Linear(16, 4, rng=rng)
        x = rng.normal(size=(5, 16))
        out = PhotonicExecutor().linear(layer, x)
        ref = x @ layer.weight.data.T + layer.bias.data
        # BFP quantisation error only.
        assert np.abs(out - ref).max() < 0.3 * np.abs(ref).max() + 0.3

    def test_conv_layer(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        out = PhotonicExecutor().conv2d(layer, x)
        assert out.shape == (2, 3, 6, 6)

    def test_grouped_conv_unsupported(self, rng):
        layer = Conv2d(4, 4, 3, groups=4, rng=rng)
        with pytest.raises(NotImplementedError):
            PhotonicExecutor().conv2d(layer, rng.normal(size=(1, 4, 6, 6)))

    def test_sequential_model_agreement(self, rng):
        model = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(4 * 8 * 8, 4, rng=rng),
        )
        x = rng.normal(size=(6, 1, 8, 8))
        stats = compare_with_reference(model, x)
        assert stats["prediction_agreement"] >= 0.5
        assert stats["max_rel_error"] < 1.0

    def test_noise_degrades_agreement(self, rng):
        model = Sequential(Linear(16, 8, rng=rng), ReLU(), Linear(8, 4, rng=rng))
        x = rng.normal(size=(40, 16))
        clean = compare_with_reference(model, x, rng=np.random.default_rng(0))
        noisy = compare_with_reference(
            model, x, noise=NoiseModel.from_snr(5.0), rng=np.random.default_rng(0)
        )
        assert noisy["prediction_agreement"] <= clean["prediction_agreement"]
