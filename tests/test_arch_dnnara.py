"""Tests for the DNNARA one-hot switching-network comparator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.dnnara import (
    OneHotModularUnit,
    dnnara_mac_device_count,
    find_generator,
    is_prime,
    mirage_mmu_device_count,
    scaling_comparison,
)

PRIMES = (7, 13, 31, 61, 127)


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 5, 31, 127, 251):
            assert is_prime(p)

    def test_known_composites(self):
        for c in (0, 1, 4, 32, 33, 255):
            assert not is_prime(c)


class TestGenerator:
    @pytest.mark.parametrize("p", PRIMES)
    def test_generates_full_group(self, p):
        g = find_generator(p)
        powers = {pow(g, i, p) for i in range(p - 1)}
        assert powers == set(range(1, p))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            find_generator(32)


class TestOneHotRouting:
    @pytest.mark.parametrize("m", PRIMES)
    def test_addition_matches_modular_add(self, m, rng):
        a = rng.integers(0, m, size=500)
        b = rng.integers(0, m, size=500)
        unit = OneHotModularUnit(m, "add")
        assert np.array_equal(unit.route(a, b), (a + b) % m)

    @pytest.mark.parametrize("m", PRIMES)
    def test_multiplication_matches_modular_mul(self, m, rng):
        a = rng.integers(0, m, size=500)
        b = rng.integers(0, m, size=500)
        unit = OneHotModularUnit(m, "mul")
        assert np.array_equal(unit.route(a, b), (a * b) % m)

    def test_addition_works_for_composite_moduli(self, rng):
        # Rotation needs no group structure — 32 and 33 are fine.
        for m in (32, 33):
            a = rng.integers(0, m, size=200)
            b = rng.integers(0, m, size=200)
            assert np.array_equal(OneHotModularUnit(m, "add").route(a, b),
                                  (a + b) % m)

    def test_multiplication_requires_prime(self):
        with pytest.raises(ValueError):
            OneHotModularUnit(32, "mul")

    def test_zero_absorbing_in_multiplication(self):
        unit = OneHotModularUnit(31, "mul")
        a = np.arange(31)
        assert np.all(unit.route(a, np.zeros(31, dtype=int)) == 0)
        assert np.all(unit.route(np.zeros(31, dtype=int), a) == 0)

    def test_out_of_range_rejected(self):
        unit = OneHotModularUnit(7, "add")
        with pytest.raises(ValueError):
            unit.route(np.array([7]), np.array([0]))

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            OneHotModularUnit(7, "xor")

    @given(st.sampled_from(PRIMES), st.data())
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_property(self, m, data):
        a = data.draw(st.integers(min_value=0, max_value=m - 1))
        b = data.draw(st.integers(min_value=0, max_value=m - 1))
        assert OneHotModularUnit(m, "mul").route(a, b) == (a * b) % m


class TestDeviceCounts:
    def test_dnnara_superlinear_in_modulus(self):
        counts = [dnnara_mac_device_count(m)["total"] for m in PRIMES]
        assert counts == sorted(counts)
        # O(m log m): doubling m should more than double devices.
        assert counts[-1] > 2 * counts[-2]

    def test_mirage_logarithmic_in_modulus(self):
        c31 = mirage_mmu_device_count(31)["total"]
        c251 = mirage_mmu_device_count(251)["total"]
        assert c251 <= c31 * 2  # log growth: 5 bits -> 8 bits

    def test_scaling_comparison_ratio_grows(self):
        rows = scaling_comparison()
        ratios = [r["ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 50

    def test_switch_count_formula(self):
        unit = OneHotModularUnit(31, "add")
        assert unit.switch_count == 31 * 5
