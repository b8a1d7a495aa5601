"""Tests for base extension (Szabo–Tanaka, Shenoy–Kumaresan, approx CRT)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import (
    ModuliSet,
    approx_base_extend,
    approx_crt_rank,
    extension_op_counts,
    forward_convert,
    mrc_base_extend,
    sk_base_extend,
    special_moduli_set,
)

TARGETS = (7, 13)  # co-prime with {31, 32, 33}


def _coprime_modulus(mset, minimum=0):
    """Smallest modulus >= max(n + 1, minimum) co-prime with the base: a
    valid Shenoy–Kumaresan redundant channel (it needs m_r > n - 1)."""
    return next(
        m for m in itertools.count(max(mset.n + 1, minimum))
        if all(math.gcd(m, b) == 1 for b in mset.moduli)
    )


def _random_case(mset, rng, size=500):
    values = rng.integers(0, mset.dynamic_range, size=size)
    return values, forward_convert(values, mset)


class TestMrcBaseExtend:
    def test_matches_direct_modulo(self, mset5, rng):
        values, res = _random_case(mset5, rng)
        got = mrc_base_extend(res, mset5, TARGETS)
        want = np.stack([values % p for p in TARGETS])
        assert np.array_equal(got, want)

    def test_arbitrary_base(self, small_mset, rng):
        values, res = _random_case(small_mset, rng, size=small_mset.dynamic_range)
        values = np.arange(small_mset.dynamic_range)
        res = forward_convert(values, small_mset)
        got = mrc_base_extend(res, small_mset, (11,))
        assert np.array_equal(got[0], values % 11)

    def test_preserves_shape(self, mset5, rng):
        values = rng.integers(0, mset5.dynamic_range, size=(4, 6))
        res = forward_convert(values, mset5)
        assert mrc_base_extend(res, mset5, TARGETS).shape == (2, 4, 6)

    def test_rejects_non_coprime_target(self, mset5):
        res = forward_convert(np.array([1]), mset5)
        with pytest.raises(ValueError):
            mrc_base_extend(res, mset5, (11,))  # 33 = 3 * 11

    def test_rejects_tiny_target(self, mset5):
        res = forward_convert(np.array([1]), mset5)
        with pytest.raises(ValueError):
            mrc_base_extend(res, mset5, (1,))


class TestShenoyKumaresan:
    def test_matches_direct_modulo(self, mset5, rng):
        values, res = _random_case(mset5, rng)
        m_r = _coprime_modulus(mset5)
        got = sk_base_extend(res, mset5, values % m_r, m_r, TARGETS)
        want = np.stack([values % p for p in TARGETS])
        assert np.array_equal(got, want)

    def test_exhaustive_small_base(self, small_mset):
        values = np.arange(small_mset.dynamic_range)
        res = forward_convert(values, small_mset)
        m_r = _coprime_modulus(small_mset)
        got = sk_base_extend(res, small_mset, values % m_r, m_r, (11, 13))
        assert np.array_equal(got, np.stack([values % 11, values % 13]))

    def test_rejects_small_redundant_modulus(self, mset5):
        res = forward_convert(np.array([5]), mset5)
        with pytest.raises(ValueError):
            sk_base_extend(res, mset5, np.array([0]), 2, TARGETS)

    def test_rejects_non_coprime_redundant_modulus(self, mset5):
        res = forward_convert(np.array([5]), mset5)
        with pytest.raises(ValueError):
            sk_base_extend(res, mset5, np.array([1]), 31 * 2, TARGETS)


class TestApproxCrt:
    def test_rank_bounds(self, mset5, rng):
        _, res = _random_case(mset5, rng)
        alpha = approx_crt_rank(res, mset5)
        assert np.all(alpha >= 0) and np.all(alpha < mset5.n)

    def test_high_precision_is_exact(self, mset5, rng):
        values, res = _random_case(mset5, rng)
        got = approx_base_extend(res, mset5, TARGETS, frac_bits=40)
        assert np.array_equal(got, np.stack([values % p for p in TARGETS]))

    def test_low_precision_fails_sometimes(self, mset5, rng):
        values, res = _random_case(mset5, rng, size=5000)
        got = approx_base_extend(res, mset5, TARGETS, frac_bits=3)
        want = np.stack([values % p for p in TARGETS])
        errors = np.mean(np.any(got != want, axis=0))
        assert 0.0 < errors < 0.5

    def test_error_rate_shrinks_with_precision(self, mset5, rng):
        values, res = _random_case(mset5, rng, size=5000)
        want = np.stack([values % p for p in TARGETS])
        rates = []
        for fb in (3, 8, 16):
            got = approx_base_extend(res, mset5, TARGETS, frac_bits=fb)
            rates.append(np.mean(np.any(got != want, axis=0)))
        assert rates[0] >= rates[1] >= rates[2]

    def test_rejects_zero_frac_bits(self, mset5):
        res = forward_convert(np.array([1]), mset5)
        with pytest.raises(ValueError):
            approx_crt_rank(res, mset5, frac_bits=0)


class TestOpCounts:
    def test_mrc_grows_quadratically(self):
        ms3 = ModuliSet((3, 5, 7))
        ms5 = ModuliSet((3, 5, 7, 11, 13))
        c3 = extension_op_counts(ms3)["mrc"]
        c5 = extension_op_counts(ms5)["mrc"]
        assert c5 > c3
        assert extension_op_counts(ms5)["mrc_sequential_depth"] == 5

    def test_sk_depth_constant(self, mset5):
        counts = extension_op_counts(mset5, num_targets=3)
        assert counts["sk_sequential_depth"] == 2
        assert counts["shenoy_kumaresan"] == counts["approx_crt"]


class TestBaseExtensionProperties:
    @given(
        st.integers(min_value=3, max_value=8),
        st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_mrc_and_sk_agree(self, k, raw):
        mset = special_moduli_set(k)
        values = np.array([v % mset.dynamic_range for v in raw])
        res = forward_convert(values, mset)
        m_r = _coprime_modulus(mset)
        target = (_coprime_modulus(mset, minimum=m_r + 1),)
        a = mrc_base_extend(res, mset, target)
        b = sk_base_extend(res, mset, values % m_r, m_r, target)
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], values % target[0])
