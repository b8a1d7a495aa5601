"""Tests for the shared BFP grouping kernel behind every BFP entry point.

``quantize_tensor`` groups an operand in its own layout, while
``encode_groups`` and ``bfp_encode_matrix`` group a zero-padded copy
(``bfp_encode_matrix`` only when the last group is ragged).  These
tests pin that all of them produce the same values: lane by lane against
the 1-D encoder, on groups of tiny magnitude, and on seeded
stochastic-rounding streams.
"""

import hashlib

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


def _bits(a: np.ndarray) -> np.ndarray:
    """Bit patterns of a float64 array, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _lanewise(x: np.ndarray, cfg: BFPConfig, axis: int) -> np.ndarray:
    """``encode_groups(lane).decode()`` for every 1-D lane along ``axis``.

    Integer mantissae cannot hold -0, so a negative value that rounds to
    zero decodes to +0; the oracle takes every sign bit from the input.
    """
    moved = np.moveaxis(x, axis, -1)
    out = np.empty(moved.shape)
    for index in np.ndindex(moved.shape[:-1]):
        out[index] = encode_groups(moved[index], cfg).decode()
    return np.copysign(np.moveaxis(out, -1, axis), x)


class TestTinyMagnitudeGroups:
    """Groups whose max lies below about 2^(bm - 1023) used to overflow the
    scale factor 2^(bm - e) to inf and come out as NaN."""

    CFG = BFPConfig(4, 16)
    SMALLEST = np.array([0.0, 2.0**-1022])
    SUBNORMAL = np.array([0.0, 1e-310, 3e-310, 0.0])

    @pytest.mark.parametrize(
        "vec",
        [SMALLEST, SUBNORMAL, np.array([0.0, 5e-324, -5e-324])],
        ids=["smallest-normal", "subnormal", "min-subnormal"],
    )
    def test_quantize_tensor_matches_encode_groups(self, vec):
        expected = encode_groups(vec, self.CFG).decode()
        assert np.all(np.isfinite(expected))
        np.testing.assert_array_equal(
            _bits(quantize_tensor(vec, self.CFG)), _bits(expected)
        )

    def test_smallest_normal_survives(self):
        np.testing.assert_array_equal(
            quantize_tensor(self.SMALLEST, self.CFG), self.SMALLEST
        )

    def test_encode_matrix_matches_encode_groups(self):
        mant, exps = bfp_encode_matrix(self.SUBNORMAL[None, :], self.CFG)
        blk = encode_groups(self.SUBNORMAL, self.CFG)
        np.testing.assert_array_equal(mant[0], blk.mantissae)
        np.testing.assert_array_equal(exps[0], blk.exponents)
        assert np.abs(mant).max() <= self.CFG.mantissa_range

    def test_gemms_match_quantised_dot(self):
        w = self.SUBNORMAL[None, :]
        x = np.ones((4, 1))
        expected = encode_groups(self.SUBNORMAL, self.CFG).decode() @ x
        assert expected[0] > 0
        np.testing.assert_array_equal(bfp_matmul_exact(w, x, self.CFG)[0], expected)
        fast = quantize_tensor(w, self.CFG, axis=-1) @ quantize_tensor(x, self.CFG, axis=0)
        np.testing.assert_array_equal(fast[0], expected)


@st.composite
def _operands(draw):
    """A 1-4 dim operand, a grouping axis and a BFP config.

    The grouping axis is drawn up to 40 long so that ``g = 16`` leaves
    ragged tails on any axis; the layout is C order, transposed or strided.
    """
    ndim = draw(st.integers(1, 4))
    shape = draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape[axis] = draw(st.integers(1, 40))
    g = draw(st.sampled_from([1, 3, 16, shape[axis] + 1]))
    cfg = BFPConfig(
        draw(st.integers(1, 8)), g, draw(st.sampled_from(["truncate", "nearest"]))
    )
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Magnitudes over 600 decades, subnormals included, plus signed zeros.
    x = gen.normal(size=shape) * 10.0 ** gen.integers(-318, 300, size=shape)
    x[gen.random(shape) < 0.15] = 0.0
    x[gen.random(shape) < 0.1] = -0.0
    layout = draw(st.sampled_from(["c", "transposed", "strided"]))
    if layout == "transposed":
        x = np.ascontiguousarray(x.T).T
    elif layout == "strided":
        every_other = (slice(None, None, -2),) * ndim
        big = np.zeros([2 * n for n in shape])
        big[every_other] = x
        x = big[every_other]
    return x, axis, cfg


class TestQuantizeTensorLanes:
    @given(_operands())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_lane_matches_encode_groups(self, case):
        x, axis, cfg = case
        before = x.copy()
        out = quantize_tensor(x, cfg, axis=axis)
        np.testing.assert_array_equal(_bits(out), _bits(_lanewise(x, cfg, axis)))
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(_bits(x), _bits(before))

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
    def test_inf_maps_to_top_mantissa(self, axis):
        cfg = BFPConfig(4, 16)
        x = np.ones((3, 4, 5))
        x[1, 2, 3] = np.inf
        out = quantize_tensor(x, cfg, axis=axis)
        np.testing.assert_array_equal(_bits(out), _bits(_lanewise(x, cfg, axis)))
        assert out[1, 2, 3] == 15 / 16

    def test_rejects_out_of_range_axis(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.zeros((2, 3)), BFPConfig(4, 16), axis=2)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _ragged() -> np.ndarray:
    """A fixed operand whose every axis leaves a ragged last group at g=4."""
    gen = np.random.default_rng(2024)
    x = gen.normal(size=(6, 10, 37)) * np.logspace(-4, 4, 37)
    x[1, 2] = 0.0
    x[3, :, 5] = -0.0
    return x


class TestStochasticStreams:
    """Golden digests of seeded stochastic rounding.

    Stochastic draws follow the moved, padded ``(..., num_groups, g)``
    layout; these digests pin the streams so FMAC and
    ``backward_rounding="stochastic"`` runs stay bit-identical.  The
    arithmetic is elementwise IEEE, so the digests do not depend on the
    machine.
    """

    CFG = BFPConfig(4, 4, "stochastic")

    def test_quantize_tensor_shared_stream(self):
        rng = np.random.default_rng(0)
        x = _ragged()
        outs = [quantize_tensor(x, self.CFG, axis=a, rng=rng) for a in (0, 1, -1)]
        assert _digest(*outs) == (
            "43f79955ab9f4de2a92b1037a0d304729ef6bac7860a0416bb3b5a70919de8d6"
        )

    def test_encode_groups_stream(self):
        blk = encode_groups(_ragged()[2, 3], self.CFG, np.random.default_rng(1))
        assert _digest(blk.mantissae, blk.exponents) == (
            "6cf8a2f8e48065ae1c9613f02257d7ea1670ff1447952669f310c280d6c11a1e"
        )

    def test_encode_matrix_stream(self):
        mant, exps = bfp_encode_matrix(_ragged()[4], self.CFG, np.random.default_rng(2))
        assert _digest(mant, exps) == (
            "36812639a582b44815bb6af54acd42da357b3cb0de3a3a58ed73df77c96c8cd7"
        )

    def test_encode_matrix_whole_groups_stream(self):
        """Whole groups skip the zero-pad copy; non-C layouts keep the stream."""
        rng = np.random.default_rng(2)
        x = _ragged()[4][:, :36]  # 36 columns at g = 4, a strided view
        first = bfp_encode_matrix(x, self.CFG, rng)
        second = bfp_encode_matrix(x.T.copy().T, self.CFG, rng)  # Fortran order
        assert _digest(*first, *second) == (
            "c9afc07b8c2b1d5e8e64e763ff0c89b58bd9221b8814c449fdbe1b5048745093"
        )

    def test_quantize_tensor_matches_lanes_stream(self):
        """One draw over the padded layout equals per-lane draws in order."""
        x = _ragged()[0]
        out = quantize_tensor(x, self.CFG, axis=-1, rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        lanes = [encode_groups(row, self.CFG, rng).decode() for row in x]
        np.testing.assert_array_equal(_bits(out), _bits(np.stack(lanes)))
