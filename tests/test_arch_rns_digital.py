"""Tests for the stay-in-RNS digital pipeline (Res-DNN / RNSnet style)."""

import numpy as np
import pytest

from repro.arch.rns_digital import (
    DenseLayer,
    HybridRnsNetwork,
    OpCounters,
    PureRnsConfig,
    PureRnsNetwork,
    float_reference_forward,
)


@pytest.fixture
def mlp(rng):
    return [
        DenseLayer(rng.normal(0, 0.4, (16, 8)), rng.normal(0, 0.1, 16)),
        DenseLayer(rng.normal(0, 0.4, (16, 16)), rng.normal(0, 0.1, 16)),
        DenseLayer(rng.normal(0, 0.4, (4, 16)), rng.normal(0, 0.1, 4),
                   apply_activation=False),
    ]


@pytest.fixture
def inputs(rng):
    return rng.normal(0, 1, (8, 24))


class TestConfig:
    def test_operand_bits_reflect_moduli(self):
        assert PureRnsConfig(k=8).operand_bits == 9  # 2^8 + 1 needs 9 bits

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            PureRnsConfig(activation="softmax")

    def test_rejects_zero_frac_bits(self):
        with pytest.raises(ValueError):
            PureRnsConfig(activation_frac_bits=0)


class TestDenseLayer:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseLayer(np.zeros((3, 4)), np.zeros(5))
        with pytest.raises(ValueError):
            DenseLayer(np.zeros(4), np.zeros(4))


class TestPureRnsNetwork:
    def test_tracks_float_reference(self, mlp, inputs):
        cfg = PureRnsConfig(k=10, activation_frac_bits=10, weight_frac_bits=10)
        out, counters = PureRnsNetwork(mlp, cfg).forward(inputs)
        ref = float_reference_forward(mlp, inputs)
        assert np.max(np.abs(out - ref)) < 0.05
        assert counters.overflows == 0

    def test_counts_macs(self, mlp, inputs):
        cfg = PureRnsConfig(k=10)
        _, counters = PureRnsNetwork(mlp, cfg).forward(inputs)
        batch = inputs.shape[1]
        want = 3 * batch * (16 * 8 + 16 * 16 + 4 * 16)  # n=3 moduli
        assert counters.modular_macs == want

    def test_single_reverse_conversion_at_output(self, mlp, inputs):
        _, counters = PureRnsNetwork(mlp, PureRnsConfig(k=10)).forward(inputs)
        assert counters.reverse_conversions == 4 * inputs.shape[1]

    def test_overflow_detected_when_range_too_small(self, mlp, inputs):
        cfg = PureRnsConfig(k=5, activation_frac_bits=6, weight_frac_bits=6)
        _, counters = PureRnsNetwork(mlp, cfg).forward(inputs * 4.0)
        assert counters.overflows > 0

    def test_polynomial_activation_runs(self, mlp, inputs):
        cfg = PureRnsConfig(k=12, activation_frac_bits=10, weight_frac_bits=8,
                            activation="sigmoid")
        out, counters = PureRnsNetwork(mlp, cfg).forward(inputs)
        ref = float_reference_forward(mlp, inputs, activation="sigmoid")
        assert np.max(np.abs(out - ref)) < 0.2
        assert counters.rescales > counters.modular_macs // 100

    def test_rejects_bad_input_shape(self, mlp):
        with pytest.raises(ValueError):
            PureRnsNetwork(mlp, PureRnsConfig()).forward(np.zeros((2, 3, 4)))

    def test_rejects_empty_network(self):
        with pytest.raises(ValueError):
            PureRnsNetwork([], PureRnsConfig())


class TestHybridRnsNetwork:
    def test_beats_pure_rns_accuracy_with_polynomials(self, mlp, inputs):
        cfg = PureRnsConfig(k=12, activation_frac_bits=10, weight_frac_bits=8,
                            activation="sigmoid")
        ref = float_reference_forward(mlp, inputs, activation="sigmoid")
        pure, _ = PureRnsNetwork(mlp, cfg).forward(inputs)
        hybrid, _ = HybridRnsNetwork(mlp, cfg).forward(inputs)
        assert (np.max(np.abs(hybrid - ref)) < np.max(np.abs(pure - ref)))

    def test_no_in_rns_rescales(self, mlp, inputs):
        _, counters = HybridRnsNetwork(mlp, PureRnsConfig(k=10)).forward(inputs)
        assert counters.rescales == 0
        assert counters.sign_detections == 0

    def test_pays_conversions_every_layer(self, mlp, inputs):
        _, hybrid = HybridRnsNetwork(mlp, PureRnsConfig(k=10)).forward(inputs)
        _, pure = PureRnsNetwork(mlp, PureRnsConfig(k=10)).forward(inputs)
        assert hybrid.reverse_conversions > pure.reverse_conversions

    def test_matches_reference_closely(self, mlp, inputs):
        cfg = PureRnsConfig(k=10, activation_frac_bits=10, weight_frac_bits=10)
        out, _ = HybridRnsNetwork(mlp, cfg).forward(inputs)
        ref = float_reference_forward(mlp, inputs)
        assert np.max(np.abs(out - ref)) < 0.02


class TestOpCounters:
    def test_merge_accumulates(self):
        a = OpCounters(modular_macs=5, rescales=1)
        b = OpCounters(modular_macs=3, overflows=2)
        a.merge(b)
        assert a.modular_macs == 8 and a.overflows == 2 and a.rescales == 1


class TestSharedQuantisation:
    def test_pure_and_hybrid_share_weight_grids(self, mlp):
        cfg = PureRnsConfig(k=10)
        pure = PureRnsNetwork(mlp, cfg)
        hybrid = HybridRnsNetwork(mlp, cfg)
        for a, b in zip(pure._w_int, hybrid._w_int):
            assert np.array_equal(a, b)

    def test_relu_paths_agree_without_overflow(self, mlp, inputs):
        """With exact ReLU both pipelines compute the same fixed-point
        integers, so outputs must agree to rescale rounding."""
        cfg = PureRnsConfig(k=12, activation_frac_bits=8, weight_frac_bits=8)
        pure, pc = PureRnsNetwork(mlp, cfg).forward(inputs)
        hybrid, _ = HybridRnsNetwork(mlp, cfg).forward(inputs)
        assert pc.overflows == 0
        # Pure path floors at each rescale; hybrid keeps real division.
        assert np.max(np.abs(pure - hybrid)) < 0.05
