"""Cross-cutting property-based invariants spanning multiple subsystems.

These are the load-bearing contracts between layers: if any of them broke,
the paper's headline claims would silently stop holding.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch import GemmShape, MirageConfig, mirage_gemm_latency, map_gemm
from repro.bfp import BFPConfig, bfp_matmul_exact
from repro.core import CoreConfig, PhotonicRnsTensorCore
from repro.rns import (
    RRNSCodec,
    choose_k_min,
    crt_reverse_signed,
    forward_convert_signed,
    special_moduli_set,
)

_PRIMES = (37, 41, 43, 47, 53)


class TestRnsContracts:
    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_gemm_via_residues_matches_integers(self, k, seed):
        """Modular GEMM + CRT == plain integer GEMM whenever Eq. 13-sized
        operands are used (closure of the ring homomorphism)."""
        rng = np.random.default_rng(seed)
        ms = special_moduli_set(k)
        bound = max(1, int(math.isqrt(ms.psi // 8)))
        a = rng.integers(-bound, bound + 1, size=(3, 8))
        b = rng.integers(-bound, bound + 1, size=(8, 2))
        res_a = forward_convert_signed(a, ms)
        res_b = forward_convert_signed(b, ms)
        from repro.rns import mod_matmul

        got = crt_reverse_signed(mod_matmul(res_a, res_b, ms), ms)
        assert np.array_equal(got, a @ b)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rrns_corrects_any_single_error(self, seed):
        rng = np.random.default_rng(seed)
        codec = RRNSCodec((31, 32, 33), _PRIMES[:2])
        value = int(rng.integers(0, codec.legal_range))
        res = [value % m for m in codec.full_set.moduli]
        ch = int(rng.integers(0, len(res)))
        m = codec.full_set.moduli[ch]
        res[ch] = int((res[ch] + rng.integers(1, m)) % m)
        out = codec.decode_scalar(res)
        assert out.ok and out.value == value


class TestCoreContracts:
    @given(
        st.sampled_from([(3, 8), (3, 16), (4, 8), (4, 16), (5, 16)]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_photonic_equals_bfp_for_any_feasible_config(self, bmg, seed):
        bm, g = bmg
        rng = np.random.default_rng(seed)
        core = PhotonicRnsTensorCore(CoreConfig(bm=bm, g=g, k=None, v=8))
        w = rng.normal(size=(6, g + 3))
        x = rng.normal(size=(g + 3, 3))
        assert np.array_equal(
            core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(bm, g))
        )

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_kmin_set_always_holds_worst_dot(self, bm, g):
        """The k_min moduli set must contain the worst-case signed BFP dot
        product — otherwise the RNS pipeline would silently wrap."""
        try:
            k = choose_k_min(bm, g)
        except ValueError:
            assume(False)
        ms = special_moduli_set(k)
        worst = g * (2**bm - 1) ** 2
        # The signed range is [-psi, M - 1 - psi].
        assert -ms.psi <= -worst and worst <= ms.dynamic_range - 1 - ms.psi


class TestArchContracts:
    @given(
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_tile_mapping_conserves_work(self, m, k, n):
        """Padded MACs >= useful MACs, with equality iff dims divide."""
        mapping = map_gemm(GemmShape(m, k, n), v=32, g=16)
        padded_macs = mapping.tiles * 32 * 16 * mapping.stream_len
        assert padded_macs >= mapping.useful_macs
        if m % 32 == 0 and k % 16 == 0:
            assert padded_macs == mapping.useful_macs

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_arrays_never_slower(self, m, k, n):
        gemm = GemmShape(m, k, n)
        lat8 = mirage_gemm_latency(gemm, MirageConfig(num_arrays=8), "DF1")
        lat16 = mirage_gemm_latency(gemm, MirageConfig(num_arrays=16), "DF1")
        assert lat16 <= lat8 + 1e-15

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_latency_lower_bounded_by_work(self, n):
        """No GEMM can finish faster than its MVM stream at peak rate."""
        cfg = MirageConfig()
        gemm = GemmShape(32, 16, n)
        lat = mirage_gemm_latency(gemm, cfg, "DF1")
        assert lat >= n * cfg.cycle_time_s


class TestEnergyContracts:
    @given(st.sampled_from([3, 4, 5]))
    @settings(max_examples=10, deadline=None)
    def test_energy_blows_up_beyond_g32(self, bm):
        """Laser exponentials guarantee the Fig. 5b blow-up for every bm."""
        from repro.arch import mac_energy_breakdown

        e16 = sum(mac_energy_breakdown(bm, 16).values())
        e64 = sum(mac_energy_breakdown(bm, 64).values())
        assert e64 > 5 * e16

    @given(st.integers(min_value=4, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_adc_energy_monotone(self, bits):
        from repro.arch import adc_energy_per_conversion

        assert adc_energy_per_conversion(bits + 1) > adc_energy_per_conversion(bits)
