"""Quantised GEMM layers — the Mirage accuracy model (Section V-A).

The paper swaps every GEMM (convolution + linear, forward *and* backward)
with a BFP version parameterised by ``(bm, g)``, keeps FP32 master weights,
and updates weights in FP32.  :func:`quantized_matmul` implements exactly
that contract for an arbitrary :class:`~repro.quant.formats.GemmQuantizer`:

* forward GEMM ``O = A B`` is computed with both operands quantised along
  their reduction axes;
* the input-gradient GEMM ``dA = dO B^T`` and the weight-gradient GEMM
  ``dB = A^T dO`` are *also* computed with quantised operands (the paper
  performs all three training GEMMs on the accelerator);
* parameters themselves stay full precision (master copies), so optimiser
  updates are FP32.

BNS↔RNS conversions are lossless whenever Eq. 13 holds, so — exactly as the
paper argues — they are omitted from the accuracy model; the BFP quantiser
alone determines accuracy.  (The bit-exactness of the RNS/photonic path is
established separately by the :mod:`repro.core` tests.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quant.formats import GemmQuantizer
from . import init
from .conv import Conv2d, conv2d
from .layers import Linear, Module, Parameter
from .tensor import Tensor

__all__ = ["quantized_matmul", "QuantizedLinear", "QuantizedConv2d"]


class _StaticOperandCache:
    """Caches the forward-quantised weight operand of a GEMM layer.

    Quantisation is deterministic for the forward formats used here, so a
    layer whose weights have not changed (inference, or repeated forwards
    within one step) can reuse the quantised tensor.  The cache revalidates
    against the current weight data with one cheap array comparison, so
    training — which updates weights every step — transparently falls back
    to re-quantisation.
    """

    __slots__ = ("_source", "_quantized")

    def __init__(self):
        self._source = None
        self._quantized = None

    def lookup(self, data: np.ndarray, quantize) -> np.ndarray:
        if (
            self._source is not None
            and self._source.shape == data.shape
            and np.array_equal(self._source, data)
        ):
            return self._quantized
        self._source = data.copy()
        self._quantized = quantize(data)
        return self._quantized


def quantized_matmul(
    a: Tensor,
    b: Tensor,
    quantizer: GemmQuantizer,
    qa: Optional[np.ndarray] = None,
    qb: Optional[np.ndarray] = None,
) -> Tensor:
    """``a @ b`` with operands quantised in forward and backward GEMMs.

    Shapes follow numpy matmul broadcasting; reduction axes are ``-1`` for
    ``a`` and ``-2`` for ``b``.  Gradients w.r.t. the quantisation itself
    use the straight-through estimator (standard practice for BFP/INT
    training, and what the paper's PyTorch model does implicitly).

    ``qa``/``qb`` optionally supply an already-quantised forward operand
    (the weight-static fast path used by the layers below); they must be
    the quantiser's output for the corresponding operand data.
    """
    a_data, b_data = a.data, b.data
    if qa is None:
        qa = quantizer.quantize_forward(a_data, axis=-1)
    if qb is None:
        qb = quantizer.quantize_forward(b_data, axis=-2 if b_data.ndim > 1 else -1)
    out_data = qa @ qb

    def backward(grad):
        grad = np.asarray(grad, dtype=np.float64)
        if a_data.ndim == 1 and b_data.ndim == 1:
            a.accumulate(grad * qb)
            b.accumulate(grad * qa)
            return
        # dA = dO @ B^T : reduce over the N axis (last of grad, last of b).
        g_for_a = quantizer.quantize_backward(grad, axis=-1)
        b_for_a = quantizer.quantize_backward(b_data, axis=-1 if b_data.ndim > 1 else -1)
        bt = np.swapaxes(b_for_a, -1, -2) if b_for_a.ndim > 1 else b_for_a
        ga = g_for_a @ bt if b_for_a.ndim > 1 else np.outer(g_for_a, b_for_a)
        # dB = A^T @ dO : reduce over the M axis (-2 of grad, -2 of a).
        g_for_b = quantizer.quantize_backward(grad, axis=-2 if grad.ndim > 1 else -1)
        a_for_b = quantizer.quantize_backward(a_data, axis=-2 if a_data.ndim > 1 else -1)
        at = np.swapaxes(a_for_b, -1, -2) if a_for_b.ndim > 1 else a_for_b
        gb = at @ g_for_b if a_for_b.ndim > 1 else np.outer(a_for_b, g_for_b)
        a.accumulate(ga)
        b.accumulate(gb)

    return Tensor.from_op(out_data, (a, b), backward)


class QuantizedLinear(Linear):
    """Linear layer whose GEMMs run through a :class:`GemmQuantizer`.

    With ``quantizer=None`` it degrades to a plain :class:`Linear`, which
    lets model builders take a single optional quantiser argument.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        quantizer: Optional[GemmQuantizer] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(in_features, out_features, bias=bias, rng=rng)
        self.quantizer = quantizer
        self._wq_cache = _StaticOperandCache()

    def forward(self, x: Tensor) -> Tensor:
        if self.quantizer is None:
            return super().forward(x)
        wt = self.weight.T
        qb = None
        if self.quantizer.deterministic_forward:
            qb = self._wq_cache.lookup(
                wt.data, lambda d: self.quantizer.quantize_forward(d, axis=-2)
            )
        out = quantized_matmul(x, wt, self.quantizer, qb=qb)
        if self.bias is not None:
            out = out + self.bias
        return out


class QuantizedConv2d(Conv2d):
    """Conv2d whose im2col GEMM runs through a :class:`GemmQuantizer`."""

    def __init__(self, *args, quantizer: Optional[GemmQuantizer] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.quantizer = quantizer
        self._wq_cache = _StaticOperandCache()

    def _matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if self.quantizer is None:
            return a @ b
        # ``a`` is the flattened kernel (the weight-static operand).
        qa = None
        if self.quantizer.deterministic_forward:
            qa = self._wq_cache.lookup(
                a.data, lambda d: self.quantizer.quantize_forward(d, axis=-1)
            )
        return quantized_matmul(a, b, self.quantizer, qa=qa)
