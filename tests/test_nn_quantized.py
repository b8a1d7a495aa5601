"""Tests for the quantised GEMM layers — the Mirage accuracy model."""

import numpy as np
import pytest

from repro.bfp import BFPConfig, quantize_tensor
from repro.nn import (
    Conv2d,
    Linear,
    QuantizedConv2d,
    QuantizedLinear,
    Tensor,
    quantized_matmul,
)
from repro.quant import GemmQuantizer, make_quantizer


@pytest.fixture
def mirage_q():
    return make_quantizer("mirage", bm=4, g=16)


class TestQuantizedMatmul:
    def test_forward_matches_manual_quantisation(self, mirage_q, rng):
        a = rng.normal(size=(5, 32))
        b = rng.normal(size=(32, 7))
        out = quantized_matmul(Tensor(a), Tensor(b), mirage_q).data
        cfg = BFPConfig(4, 16)
        expected = quantize_tensor(a, cfg, axis=-1) @ quantize_tensor(b, cfg, axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_backward_uses_quantised_operands(self, rng):
        """The backward GEMMs must also see quantised tensors: with a
        format that zeroes everything in backward, grads must be zero."""
        zero_bwd = GemmQuantizer(
            "probe", lambda x: x, lambda x: np.zeros_like(x)
        )
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        quantized_matmul(a, b, zero_bwd).sum().backward()
        assert np.all(a.grad == 0)
        assert np.all(b.grad == 0)

    def test_fp32_quantizer_matches_plain_matmul_grads(self, rng):
        q = make_quantizer("fp32")
        a_data = rng.normal(size=(3, 5)).astype(np.float32).astype(np.float64)
        b_data = rng.normal(size=(5, 2)).astype(np.float32).astype(np.float64)
        a1 = Tensor(a_data.copy(), requires_grad=True)
        b1 = Tensor(b_data.copy(), requires_grad=True)
        quantized_matmul(a1, b1, q).sum().backward()
        a2 = Tensor(a_data.copy(), requires_grad=True)
        b2 = Tensor(b_data.copy(), requires_grad=True)
        (a2 @ b2).sum().backward()
        np.testing.assert_allclose(a1.grad, a2.grad, atol=1e-6)
        np.testing.assert_allclose(b1.grad, b2.grad, atol=1e-6)

    def test_batched_matmul(self, mirage_q, rng):
        a = Tensor(rng.normal(size=(2, 3, 16)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 16, 4)), requires_grad=True)
        out = quantized_matmul(a, b, mirage_q)
        assert out.shape == (2, 3, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 16)
        assert b.grad.shape == (2, 16, 4)

    def test_broadcast_2d_3d(self, mirage_q, rng):
        """The conv lowering shape: (C_out, K) @ (N, K, L)."""
        a = Tensor(rng.normal(size=(6, 16)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 16, 10)), requires_grad=True)
        out = quantized_matmul(a, b, mirage_q)
        assert out.shape == (3, 6, 10)
        out.sum().backward()
        assert a.grad.shape == (6, 16)
        assert b.grad.shape == (3, 16, 10)

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((6, 16), (3, 16, 10)), ((2, 3, 16), (16, 4)), ((1, 3, 16), (2, 16, 4))],
    )
    def test_broadcast_grads_match_plain_matmul(self, a_shape, b_shape, rng):
        """With identity transforms the grads equal ``Tensor.__matmul__``'s,
        broadcast axes summed back to each operand's shape."""
        ident = GemmQuantizer("identity", lambda x: x, lambda x: x)
        a_data, b_data = rng.normal(size=a_shape), rng.normal(size=b_shape)
        a1, b1 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        quantized_matmul(a1, b1, ident).sum().backward()
        a2, b2 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        (a2 @ b2).sum().backward()
        np.testing.assert_array_equal(a1.grad, a2.grad)
        np.testing.assert_array_equal(b1.grad, b2.grad)


class TestQuantizedLinear:
    def test_none_quantizer_is_plain_linear(self, rng):
        ql = QuantizedLinear(8, 4, quantizer=None, rng=np.random.default_rng(0))
        pl = Linear(8, 4, rng=np.random.default_rng(0))
        x = Tensor(rng.normal(size=(3, 8)))
        np.testing.assert_allclose(ql(x).data, pl(x).data)

    def test_quantisation_error_bounded(self, mirage_q, rng):
        ql = QuantizedLinear(32, 8, quantizer=mirage_q, rng=rng)
        x = Tensor(rng.normal(size=(5, 32)))
        plain = x.data @ ql.weight.data.T + ql.bias.data
        quant = ql(x).data
        # bm=4 mantissa -> per-element relative error ~2^-4; dot over 32.
        assert np.abs(quant - plain).max() < 0.5 * np.abs(plain).max() + 0.5

    def test_master_weights_stay_fp(self, mirage_q, rng):
        """Parameters must remain unquantised (FP32 master copies)."""
        ql = QuantizedLinear(16, 4, quantizer=mirage_q, rng=rng)
        before = ql.weight.data.copy()
        ql(Tensor(rng.normal(size=(2, 16)))).sum().backward()
        np.testing.assert_array_equal(ql.weight.data, before)

    def test_gradients_flow(self, mirage_q, rng):
        ql = QuantizedLinear(16, 4, quantizer=mirage_q, rng=rng)
        ql(Tensor(rng.normal(size=(2, 16)))).sum().backward()
        assert ql.weight.grad is not None
        assert ql.bias.grad is not None


class TestQuantizedConv2d:
    def test_none_quantizer_matches_conv(self, rng):
        qc = QuantizedConv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        pc = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(2, 2, 6, 6)))
        np.testing.assert_allclose(qc(x).data, pc(x).data)

    def test_quantized_close_to_plain(self, mirage_q, rng):
        qc = QuantizedConv2d(2, 3, 3, padding=1, quantizer=mirage_q,
                             rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        plain = Conv2d.forward(qc, x).data if False else None
        qc_plain = QuantizedConv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        ref = qc_plain(x).data
        out = qc(x).data
        assert out.shape == ref.shape
        rel = np.abs(out - ref).max() / (np.abs(ref).max() + 1e-9)
        assert rel < 0.5

    def test_training_step_reduces_loss(self, mirage_q, rng):
        """A quantised conv net must still train (the paper's key accuracy
        claim in miniature)."""
        from repro.nn import SGD, Sequential, Flatten, ReLU, cross_entropy

        model = Sequential(
            QuantizedConv2d(1, 4, 3, padding=1, quantizer=mirage_q, rng=rng),
            ReLU(),
            Flatten(),
            QuantizedLinear(4 * 8 * 8, 4, quantizer=mirage_q, rng=rng),
        )
        x = rng.normal(size=(16, 1, 8, 8))
        y = rng.integers(0, 4, size=16)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5
