"""Tests for moduli sets and the Eq. 13 sizing rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import (
    ModuliSet,
    choose_k_min,
    pairwise_coprime,
    required_output_bits,
    special_moduli_set,
)


class TestModuliSetConstruction:
    def test_basic_properties(self):
        ms = ModuliSet((3, 5, 7))
        assert ms.n == 3
        assert ms.dynamic_range == 105
        assert ms.psi == 52

    def test_moduli_sorted(self):
        ms = ModuliSet((7, 3, 5))
        assert ms.moduli == (3, 5, 7)

    def test_single_modulus(self):
        ms = ModuliSet((17,))
        assert ms.dynamic_range == 17
        assert ms.residue_bits() == (5,)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="co-prime"):
            ModuliSet((4, 6))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            ModuliSet((5, 5, 7))

    def test_rejects_unit_modulus(self):
        with pytest.raises(ValueError, match=">= 2"):
            ModuliSet((1, 3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ModuliSet(())

    def test_crt_weights_are_inverses(self):
        ms = ModuliSet((3, 5, 7, 11))
        mi, ti = ms.crt_weights
        for m, mi_k, ti_k in zip(ms.moduli, mi, ti):
            assert (mi_k * ti_k) % m == 1

    def test_iteration_and_len(self):
        ms = ModuliSet((3, 5))
        assert list(ms) == [3, 5]
        assert len(ms) == 2

    def test_as_array_dtype(self):
        assert ModuliSet((3, 5)).as_array().dtype == np.int64


class TestPairwiseCoprime:
    def test_coprime_triple(self):
        assert pairwise_coprime([7, 8, 9])

    def test_non_coprime_pair(self):
        assert not pairwise_coprime([6, 9])

    def test_singleton_trivially_coprime(self):
        assert pairwise_coprime([12])


class TestSpecialModuliSet:
    @pytest.mark.parametrize("k", range(2, 12))
    def test_members_and_coprimality(self, k):
        ms = special_moduli_set(k)
        assert ms.moduli == (2**k - 1, 2**k, 2**k + 1)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_dynamic_range_closed_form(self, k):
        # M = 2^{3k} - 2^k (Section IV-B).
        assert special_moduli_set(k).dynamic_range == 2 ** (3 * k) - 2**k

    def test_k5_matches_paper(self):
        ms = special_moduli_set(5)
        assert ms.moduli == (31, 32, 33)
        assert ms.dynamic_range == 32736
        assert ms.residue_bits() == (5, 5, 6)
        assert ms.max_residue_bits() == 6

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            special_moduli_set(1)


class TestEq13:
    def test_required_output_bits_formula(self):
        # 2(bm+1) + log2(g) - 1
        assert required_output_bits(4, 16) == 2 * 5 + 4 - 1
        assert required_output_bits(3, 16) == 2 * 4 + 4 - 1
        assert required_output_bits(5, 64) == 2 * 6 + 6 - 1

    def test_non_power_of_two_group_rounds_up(self):
        assert required_output_bits(4, 17) == 2 * 5 + 5 - 1

    @pytest.mark.parametrize("bm,expected_k", [(3, 4), (4, 5), (5, 6)])
    def test_kmin_matches_paper(self, bm, expected_k):
        """The paper reports k_min = 4/5/6 for bm = 3/4/5 at g = 16."""
        assert choose_k_min(bm, 16) == expected_k

    def test_supports_bfp_consistent_with_kmin(self):
        for bm in (3, 4, 5):
            for g in (8, 16, 32, 64):
                k = choose_k_min(bm, g)
                assert special_moduli_set(k).supports_bfp(bm, g)
                if k > 2:
                    assert not special_moduli_set(k - 1).supports_bfp(bm, g)

    def test_rejects_invalid_args(self):
        with pytest.raises(ValueError):
            required_output_bits(0, 16)
        with pytest.raises(ValueError):
            required_output_bits(4, 0)

    def test_kmin_unreachable_raises(self):
        with pytest.raises(ValueError):
            choose_k_min(20, 2**20, k_max=5)


class TestSignedRange:
    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_psi_halves_range(self, k):
        ms = special_moduli_set(k)
        assert ms.psi == (ms.dynamic_range - 1) // 2


class TestEq13Property:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_output_bits_bound_actual_dot_products(self, bm, g):
        """2^(bits) must bound the worst-case dot magnitude (the guarantee
        Eq. 13 relies on)."""
        bits = required_output_bits(bm, g)
        worst = g * (2**bm) ** 2  # |mantissa| <= 2^bm - 1 < 2^bm
        # Signed range of `bits` bits is 2^(bits-1); the worst dot must fit
        # within one extra doubling (the -1 in the formula reflects that
        # products of two (bm+1)-bit signed values need 2bm+1 bits).
        assert worst <= 2**bits * 2
