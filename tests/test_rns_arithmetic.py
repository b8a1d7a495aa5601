"""Tests for modular tensor arithmetic and the RnsTensor wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import (
    ModuliSet,
    RnsTensor,
    forward_convert_signed,
    mod_add,
    mod_matmul,
    mod_mul,
    mod_neg,
    mod_sub,
    special_moduli_set,
)


class TestModOps:
    def test_add_matches_integers(self, mset5, rng):
        a = rng.integers(-100, 101, size=50)
        b = rng.integers(-100, 101, size=50)
        ra = forward_convert_signed(a, mset5)
        rb = forward_convert_signed(b, mset5)
        out = mod_add(ra, rb, mset5)
        expected = forward_convert_signed(a + b, mset5)
        assert np.array_equal(out, expected)

    def test_sub_matches_integers(self, mset5, rng):
        a = rng.integers(-100, 101, size=50)
        b = rng.integers(-100, 101, size=50)
        out = mod_sub(
            forward_convert_signed(a, mset5), forward_convert_signed(b, mset5), mset5
        )
        assert np.array_equal(out, forward_convert_signed(a - b, mset5))

    def test_neg_matches_integers(self, mset5, rng):
        a = rng.integers(-100, 101, size=50)
        out = mod_neg(forward_convert_signed(a, mset5), mset5)
        assert np.array_equal(out, forward_convert_signed(-a, mset5))

    def test_mul_matches_integers(self, mset5, rng):
        a = rng.integers(-50, 51, size=50)
        b = rng.integers(-50, 51, size=50)
        out = mod_mul(
            forward_convert_signed(a, mset5), forward_convert_signed(b, mset5), mset5
        )
        assert np.array_equal(out, forward_convert_signed(a * b, mset5))

    def test_channel_mismatch_raises(self, mset5):
        with pytest.raises(ValueError):
            mod_add(np.zeros((2, 3), dtype=np.int64),
                    np.zeros((3, 3), dtype=np.int64), mset5)

    def test_residues_stay_in_range(self, mset5, rng):
        a = rng.integers(-100, 101, size=200)
        out = mod_mul(
            forward_convert_signed(a, mset5), forward_convert_signed(a, mset5), mset5
        )
        for i, m in enumerate(mset5.moduli):
            assert out[i].min() >= 0 and out[i].max() < m


class TestModDotMatmul:
    def test_matmul_matches_integer_matmul(self, mset5, rng):
        w = rng.integers(-15, 16, size=(8, 16))
        x = rng.integers(-15, 16, size=(16, 5))
        out = mod_matmul(
            forward_convert_signed(w, mset5), forward_convert_signed(x, mset5), mset5
        )
        assert np.array_equal(out, forward_convert_signed(w @ x, mset5))

    def test_matmul_shape_validation(self, mset5):
        with pytest.raises(ValueError):
            mod_matmul(np.zeros((3, 2, 4), dtype=np.int64),
                       np.zeros((3, 5, 2), dtype=np.int64), mset5)

    def test_long_reduction_no_overflow(self, rng):
        """Chunked accumulation must survive K large enough that naive
        int64 sums of residue products would overflow."""
        ms = ModuliSet((2**20 - 3, 2**20 - 1))
        k_dim = 4096
        w = rng.integers(0, 2**19, size=(1, 1, k_dim))
        x = rng.integers(0, 2**19, size=(1, k_dim, 1))
        w_res = np.stack([w[0] % m for m in ms.moduli])
        x_res = np.stack([x[0] % m for m in ms.moduli])
        out = mod_matmul(w_res, x_res, ms)
        for i, m in enumerate(ms.moduli):
            expected = int(sum(int(a) * int(b) for a, b in
                               zip(w[0, 0] % m, x[0, :, 0] % m))) % m
            assert int(out[i, 0, 0]) == expected


class TestRnsTensor:
    def test_roundtrip(self, mset5, rng):
        vals = rng.integers(-1000, 1001, size=(4, 5))
        t = RnsTensor.from_signed(vals, mset5)
        assert np.array_equal(t.to_signed(), vals)
        assert t.shape == (4, 5)

    def test_add_sub_neg_mul(self, mset5, rng):
        a = rng.integers(-60, 61, size=(3, 4))
        b = rng.integers(-60, 61, size=(3, 4))
        ta, tb = RnsTensor.from_signed(a, mset5), RnsTensor.from_signed(b, mset5)
        assert np.array_equal((ta + tb).to_signed(), a + b)
        assert np.array_equal((ta - tb).to_signed(), a - b)
        assert np.array_equal((-ta).to_signed(), -a)
        assert np.array_equal((ta * tb).to_signed(), a * b)

    def test_matmul_operator(self, mset5, rng):
        a = rng.integers(-15, 16, size=(4, 6))
        b = rng.integers(-15, 16, size=(6, 3))
        ta, tb = RnsTensor.from_signed(a, mset5), RnsTensor.from_signed(b, mset5)
        assert np.array_equal((ta @ tb).to_signed(), a @ b)

    def test_coerces_plain_arrays(self, mset5):
        a = np.array([[1, 2], [3, 4]])
        t = RnsTensor.from_signed(a, mset5)
        assert np.array_equal((t + a).to_signed(), 2 * a)

    def test_mixed_moduli_sets_rejected(self, mset5):
        other = special_moduli_set(4)
        a = RnsTensor.from_signed(np.array([1]), mset5)
        b = RnsTensor.from_signed(np.array([1]), other)
        with pytest.raises(ValueError):
            _ = a + b

    def test_encode_overflow_raises(self, mset5):
        with pytest.raises(OverflowError):
            RnsTensor.from_signed(np.array([mset5.dynamic_range]), mset5)


class TestClosureProperty:
    @given(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=4, max_size=4),
        st.lists(st.integers(min_value=-30, max_value=30), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_homomorphism(self, xs, ws):
        """Residue arithmetic is a ring homomorphism for in-range values:
        the algebraic foundation of the entire accelerator."""
        ms = special_moduli_set(5)
        x, w = np.array(xs), np.array(ws)
        tx, tw = RnsTensor.from_signed(x, ms), RnsTensor.from_signed(w, ms)
        assert np.array_equal((tx * tw + tx).to_signed(), x * w + x)
