"""Tests for in-RNS fixed-point nonlinearities (Section VII alternative)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import (
    FixedPointCodec,
    lsq_coefficients,
    rns_polynomial,
    rns_relu,
    special_moduli_set,
)
from repro.rns.nonlinear import REFERENCE_FUNCTIONS


def max_fit_error(fn, coefficients, interval):
    """Max absolute error of a polynomial fit against ``fn`` on ``interval``."""
    x = np.linspace(*interval, 1024)
    return float(np.abs(np.polynomial.polynomial.polyval(x, coefficients) - fn(x)).max())


@pytest.fixture
def codec():
    """Wide-enough set for degree-5 fits on [-4, 4] at 12 fractional bits."""
    return FixedPointCodec(special_moduli_set(10), frac_bits=12)


class TestFixedPointCodec:
    def test_round_trip(self, codec, rng):
        x = rng.uniform(-50, 50, size=200)
        back = codec.decode(codec.encode(x))
        assert np.allclose(back, x, atol=1.0 / codec.scale)

    def test_clamps_out_of_range(self, codec):
        huge = np.array([1e12, -1e12])
        back = codec.decode(codec.encode(huge))
        assert back[0] == pytest.approx(codec.max_value, rel=1e-6)
        assert back[1] == pytest.approx(-codec.max_value, rel=1e-6)

    def test_scale_is_power_of_two(self, codec):
        assert codec.scale == 1 << codec.frac_bits

    def test_rejects_negative_frac_bits(self):
        with pytest.raises(ValueError):
            FixedPointCodec(special_moduli_set(5), frac_bits=-1)

    def test_zero_frac_bits_is_integer_codec(self):
        codec = FixedPointCodec(special_moduli_set(5), frac_bits=0)
        x = np.array([-3.0, 0.0, 7.0])
        assert np.array_equal(codec.decode(codec.encode(x)), x)


class TestRnsPolynomial:
    def test_identity_polynomial(self, codec, rng):
        x = rng.uniform(-4, 4, size=100)
        out, rescales = rns_polynomial(codec.encode(x), codec, [0.0, 1.0])
        assert rescales == 1
        assert np.allclose(codec.decode(out), x, atol=2.0 / codec.scale)

    def test_constant_polynomial(self, codec):
        x = np.zeros(10)
        out, rescales = rns_polynomial(codec.encode(x), codec, [0.75])
        assert rescales == 0
        assert np.allclose(codec.decode(out), 0.75, atol=1.0 / codec.scale)

    def test_quadratic_matches_float(self, codec, rng):
        x = rng.uniform(-2, 2, size=200)
        coeffs = [0.5, -1.25, 0.375]
        out, _ = rns_polynomial(codec.encode(x), codec, coeffs)
        want = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
        # Fixed-point error: coefficient quantisation + one rescale per term.
        assert np.max(np.abs(codec.decode(out) - want)) < 0.01

    def test_rescale_count_is_degree(self, codec):
        x = codec.encode(np.zeros(4))
        for degree in (1, 3, 5):
            _, rescales = rns_polynomial(x, codec, [0.1] * (degree + 1))
            assert rescales == degree

    def test_sigmoid_fit_tracks_reference(self, codec):
        sig = REFERENCE_FUNCTIONS["sigmoid"]
        coeffs = lsq_coefficients(sig, (-3.5, 3.5), 5)
        x = np.linspace(-3.5, 3.5, 101)
        out, _ = rns_polynomial(codec.encode(x), codec, coeffs)
        assert np.max(np.abs(codec.decode(out) - sig(x))) < 0.08

    def test_empty_coefficients_rejected(self, codec):
        with pytest.raises(ValueError):
            rns_polynomial(codec.encode(np.zeros(2)), codec, [])


class TestRnsRelu:
    def test_matches_reference(self, codec, rng):
        x = rng.uniform(-10, 10, size=300)
        out = rns_relu(codec.encode(x), codec.mset)
        assert np.allclose(codec.decode(out), np.maximum(x, 0),
                           atol=1.0 / codec.scale)

    def test_zero_input(self, codec):
        out = rns_relu(codec.encode(np.zeros(5)), codec.mset)
        assert np.all(codec.decode(out) == 0)

    def test_2d_input(self, codec, rng):
        x = rng.uniform(-5, 5, size=(4, 6))
        out = rns_relu(codec.encode(x), codec.mset)
        assert out.shape == (codec.mset.n, 4, 6)
        assert np.allclose(codec.decode(out), np.maximum(x, 0),
                           atol=1.0 / codec.scale)


class TestCoefficientHelpers:
    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            lsq_coefficients(np.tanh, (2.0, -2.0), 3)

    def test_gelu_lsq_fit(self):
        """GELU has no tabulated Taylor series here, but the LSQ path
        covers it — the activation transformer variants would need."""
        gelu = REFERENCE_FUNCTIONS["gelu"]
        coeffs = lsq_coefficients(gelu, (-3, 3), 6)
        assert max_fit_error(gelu, coeffs, (-3, 3)) < 0.05

    def test_higher_degree_fits_better(self):
        sig = REFERENCE_FUNCTIONS["sigmoid"]
        e3 = max_fit_error(sig, lsq_coefficients(sig, (-4, 4), 3), (-4, 4))
        e7 = max_fit_error(sig, lsq_coefficients(sig, (-4, 4), 7), (-4, 4))
        assert e7 < e3


class TestNonlinearProperties:
    @given(st.lists(st.floats(min_value=-8, max_value=8), min_size=1,
                    max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, raw):
        codec = FixedPointCodec(special_moduli_set(8), frac_bits=8)
        x = np.array(raw)
        once = rns_relu(codec.encode(x), codec.mset)
        twice = rns_relu(once, codec.mset)
        assert np.array_equal(once, twice)

    @given(st.integers(min_value=1, max_value=4),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_monomial_scaling(self, degree, value):
        codec = FixedPointCodec(special_moduli_set(10), frac_bits=10)
        coeffs = [0.0] * degree + [1.0]
        out, _ = rns_polynomial(codec.encode(np.array([value])), codec, coeffs)
        got = codec.decode(out)[0]
        assert got == pytest.approx(value**degree, abs=degree * 4.0 / codec.scale)
