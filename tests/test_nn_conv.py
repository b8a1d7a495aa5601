"""Tests for im2col convolution and pooling, with gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    GlobalAvgPool2d,
    MaxPool2d,
    Tensor,
    col2im,
    im2col,
)
from repro.nn.conv import conv_output_size


def reference_conv2d(x, w, b, stride, padding):
    """Direct (slow) convolution for cross-checking."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.einsum("ncij,ocij->no", patch, w)
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


class TestIm2Col:
    def test_roundtrip_adjointness(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint
        property that guarantees correct gradients."""
        x = rng.normal(size=(2, 3, 6, 6))
        k, s, p = 3, 2, 1
        cols = im2col(x, k, s, p)
        y = rng.normal(size=cols.shape)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * col2im(y, x.shape, k, s, p))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        cols = im2col(x, 1, 1, 0)
        assert np.array_equal(cols.reshape(1, 2, 16), x.reshape(1, 2, 16))

    def test_output_size_formula(self):
        assert conv_output_size(224, 7, 2, 3) == 112
        assert conv_output_size(8, 3, 1, 1) == 8
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_reference(self, stride, padding, rng):
        conv = Conv2d(3, 5, 3, stride=stride, padding=padding, rng=rng)
        x = rng.normal(size=(2, 3, 8, 8))
        out = conv(Tensor(x)).data
        ref = reference_conv2d(x, conv.weight.data, conv.bias.data, stride, padding)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_gradient_numerically(self, rng):
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        t = Tensor(x.copy(), requires_grad=True)
        conv(t).sum().backward()
        analytic = t.grad.copy()
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 0, 4, 4)]:
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            num = (
                float(conv(Tensor(xp)).sum().data)
                - float(conv(Tensor(xm)).sum().data)
            ) / (2 * eps)
            assert analytic[idx] == pytest.approx(num, abs=1e-4)

    def test_weight_gradient_shape(self, rng):
        conv = Conv2d(2, 4, 3, rng=rng)
        conv(Tensor(rng.normal(size=(2, 2, 6, 6)))).sum().backward()
        assert conv.weight.grad.shape == (4, 2, 3, 3)
        assert conv.bias.grad.shape == (4,)

    def test_depthwise_groups(self, rng):
        conv = Conv2d(4, 4, 3, padding=1, groups=4, rng=rng)
        x = rng.normal(size=(2, 4, 6, 6))
        out = conv(Tensor(x))
        assert out.shape == (2, 4, 6, 6)
        # Channel 0's output must be independent of channel 1's input.
        x2 = x.copy()
        x2[:, 1] += 100.0
        out2 = conv(Tensor(x2))
        np.testing.assert_allclose(out.data[:, 0], out2.data[:, 0])

    def test_group_divisibility_check(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, 3, groups=2)

    def test_channel_mismatch_raises(self, rng):
        conv = Conv2d(3, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 2, 5, 5))))


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x)).data
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient_routes_to_max(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        MaxPool2d(2)(t).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.array_equal(t.grad[0, 0], expected)

    def test_maxpool_stride(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        out = MaxPool2d(3, stride=3)(Tensor(x))
        assert out.shape == (1, 2, 2, 2)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = GlobalAvgPool2d()(Tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
