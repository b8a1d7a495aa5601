"""Property-based invariants for the extension modules.

Complements tests/test_properties.py with contracts for the Section VII
comparators, the calibration/crosstalk machinery, the pipeline simulator
and the RRNS/moduli-search cost tools.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    MirageConfig,
    PipelineSimulator,
    Stage,
    rrns_overhead,
    simulate_gemm,
)
from repro.arch.dnnara import OneHotModularUnit
from repro.arch.pim import PimConfig, bitsliced_matmul
from repro.arch.workloads import GemmShape
from repro.photonic.crosstalk import crosstalk_error_rate
from repro.rns import (
    FixedPointCodec,
    forward_convert,
    minimal_max_modulus_set,
    mrc_base_extend,
    rns_relu,
    special_moduli_set,
)

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


class TestOneHotContracts:
    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mul_routing_matches_arithmetic(self, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, m, size=32)
        b = rng.integers(0, m, size=32)
        unit = OneHotModularUnit(m, "mul")
        assert np.array_equal(unit.route(a, b), (a * b) % m)

    @given(st.integers(min_value=2, max_value=97), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_add_routing_any_modulus(self, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, m, size=16)
        b = rng.integers(0, m, size=16)
        assert np.array_equal(OneHotModularUnit(m, "add").route(a, b),
                              (a + b) % m)

    @given(st.sampled_from(SMALL_PRIMES))
    @settings(max_examples=20, deadline=None)
    def test_identity_routes(self, m):
        unit = OneHotModularUnit(m, "mul")
        a = np.arange(m)
        assert np.array_equal(unit.route(a, np.ones(m, dtype=int)), a)


class TestPimContracts:
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=8),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_lossless_adc_always_exact(self, cell_bits, rows_log, seed):
        cfg = PimConfig(weight_bits=8, input_bits=8, cell_bits=cell_bits,
                        adc_bits=cell_bits + rows_log + 1,
                        rows=1 << rows_log)
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 256, size=(3, 12))
        x = rng.integers(0, 256, size=(12, 2))
        got, exact = bitsliced_matmul(x, w, cfg)
        assert np.array_equal(got, exact)


class TestPipelineContracts:
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_makespan_lower_bounds(self, raw):
        arrivals = sorted(raw)
        stages = [Stage("a", 3, 2), Stage("b", 1, 1)]
        makespan, stats = PipelineSimulator(stages).run(arrivals)
        # Never earlier than the last arrival plus one job's service.
        assert makespan >= arrivals[-1] + 4
        # Never later than fully-serial execution.
        assert makespan <= arrivals[-1] + len(arrivals) * 4
        assert stats["a"].jobs == len(arrivals)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_more_copies_never_slower(self, copies):
        arrivals = list(range(0, 40, 2))
        base, _ = PipelineSimulator([Stage("s", 8, copies)]).run(arrivals)
        more, _ = PipelineSimulator([Stage("s", 8, copies + 1)]).run(arrivals)
        assert more <= base

    @given(st.integers(min_value=8, max_value=64),
           st.integers(min_value=8, max_value=64))
    @settings(max_examples=10, deadline=None)
    def test_simulation_never_beats_closed_form_issue_rate(self, m, n):
        gemm = GemmShape(m, 32, n)
        secs, _ = simulate_gemm(gemm, MirageConfig())
        config = MirageConfig()
        from repro.arch.latency import mirage_gemm_latency
        assert secs >= mirage_gemm_latency(gemm, config) - 1e-12


class TestRrnsCostContracts:
    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_ratios_monotone_and_bounded(self, r):
        o = rrns_overhead(r=r)
        assert o.power_ratio >= 1.0
        assert o.area_ratio >= 1.0
        assert o.throughput_ratio == 1.0
        assert o.correctable_errors == r // 2


class TestModuliSearchContracts:
    @given(st.floats(min_value=8.0, max_value=20.0),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_search_result_usable_for_base_extension(self, target, count):
        """Any searched set must interoperate with the rest of the RNS
        substrate (conversion + base extension round-trips)."""
        mset = minimal_max_modulus_set(target, count)
        rng = np.random.default_rng(count)
        values = rng.integers(0, mset.dynamic_range, size=50)
        res = forward_convert(values, mset)
        p = 2
        while any(math.gcd(p, m) != 1 for m in mset.moduli):
            p += 1
        assert np.array_equal(mrc_base_extend(res, mset, (p,))[0], values % p)


class TestCrosstalkContracts:
    @given(st.integers(min_value=2, max_value=16), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_zero_coupling_always_exact(self, g, seed):
        assert crosstalk_error_rate(17, g, 0.0, trials=50, seed=seed) == 0.0


class TestNonlinearContracts:
    @given(st.integers(min_value=6, max_value=10),
           st.lists(st.floats(min_value=-20, max_value=20), min_size=1,
                    max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_relu_output_nonnegative(self, k, raw):
        codec = FixedPointCodec(special_moduli_set(k), frac_bits=6)
        out = rns_relu(codec.encode(np.array(raw)), codec.mset)
        assert np.all(codec.decode(out) >= 0.0)
