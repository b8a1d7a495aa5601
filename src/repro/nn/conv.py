"""Convolution and pooling layers via im2col.

Convolution lowers to a GEMM between the ``(C_in k k, L)`` patch matrix and
the ``(C_out, C_in k k)`` flattened kernel — precisely the lowering the
Mirage dataflow assumes ("flattened if necessary", Fig. 2 step 1).  Because
the convolution *is* a GEMM here, the quantised variants in
:mod:`repro.nn.quantized` inject the Mirage/baseline quantisers into the
exact operation the accelerator would run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .layers import Module, Parameter
from .tensor import Tensor

__all__ = ["im2col", "col2im", "conv2d", "Conv2d", "MaxPool2d",
           "GlobalAvgPool2d", "conv_output_size"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv/pool window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _patch_view(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sliding-window view of an NCHW array: (N, C, OH, OW, k, k)."""
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input to a patch matrix of shape (N, C*k*k, OH*OW)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    view = _patch_view(x, kernel, stride)
    n, c, oh, ow, _, _ = view.shape
    # (N, C, k, k, OH, OW) -> (N, C*k*k, OH*OW)
    return (
        view.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kernel * kernel, oh * ow).copy()
    )


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add patches back)."""
    n, c, h, w = input_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    patches = cols.reshape(n, c, kernel, kernel, oh, ow)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for ki in range(kernel):
        i_max = ki + stride * oh
        for kj in range(kernel):
            j_max = kj + stride * ow
            out[:, :, ki:i_max:stride, kj:j_max:stride] += patches[:, :, ki, kj]
    if padding:
        return out[:, :, padding:-padding, padding:-padding]
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: int = 1,
    padding: int = 0,
    matmul=None,
) -> Tensor:
    """2-D convolution as an im2col GEMM, differentiable.

    ``matmul(a, b)`` may be supplied to route the GEMM through a quantised
    implementation (takes/returns :class:`Tensor`); default is ``a @ b``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, k, k2 = weight.shape
    if k != k2:
        raise ValueError("only square kernels are supported")
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    oh = conv_output_size(h, k, stride, padding)
    ow = conv_output_size(w, k, stride, padding)

    cols_data = im2col(x.data, k, stride, padding)  # (N, CKK, L)
    input_shape = x.data.shape

    def cols_backward(grad):
        x.accumulate(col2im(grad, input_shape, k, stride, padding))

    cols = Tensor.from_op(cols_data, (x,), cols_backward)
    w_flat = weight.reshape(c_out, c_in * k * k)
    mm = matmul if matmul is not None else (lambda a, b: a @ b)
    # (C_out, CKK) @ (N, CKK, L) -> (N, C_out, L) via batched matmul.
    out = mm(w_flat, cols)
    out = out.reshape(n, c_out, oh, ow) if out.ndim == 3 else out
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


class Conv2d(Module):
    """Standard 2-D convolution; set ``groups=c_in`` for depthwise."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        groups: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError("groups must divide both channel counts")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in=fan_in,
                rng=rng,
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def _matmul(self, a: Tensor, b: Tensor) -> Tensor:
        return a @ b

    def forward(self, x: Tensor) -> Tensor:
        if self.groups == 1:
            return conv2d(
                x, self.weight, self.bias, self.stride, self.padding, self._matmul
            )
        # Grouped convolution: slice channels, convolve per group, concat.
        cig = self.in_channels // self.groups
        cog = self.out_channels // self.groups
        outs = []
        for gidx in range(self.groups):
            xg = x[:, gidx * cig : (gidx + 1) * cig]
            wg = self.weight[gidx * cog : (gidx + 1) * cog]
            bg = self.bias[gidx * cog : (gidx + 1) * cog] if self.bias is not None else None
            outs.append(conv2d(xg, wg, bg, self.stride, self.padding, self._matmul))
        return Tensor.concat(outs, axis=1)


class MaxPool2d(Module):
    """Max pooling with square window."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        k, s = self.kernel_size, self.stride
        n, c, h, w = x.shape
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        view = _patch_view(x.data, k, s).reshape(n, c, oh, ow, k * k)
        argmax = view.argmax(axis=-1)
        out_data = np.take_along_axis(view, argmax[..., None], axis=-1)[..., 0]
        input_shape = x.data.shape

        def backward(grad):
            gx = np.zeros(input_shape, dtype=np.float64)
            ki, kj = np.divmod(argmax, k)
            ns, cs, ohs, ows = np.indices((n, c, oh, ow))
            rows = ohs * s + ki
            cols = ows * s + kj
            np.add.at(gx, (ns, cs, rows, cols), grad)
            x.accumulate(gx)

        return Tensor.from_op(out_data, (x,), backward)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))
