"""Tests for the reverse-mode autograd engine, including numerical
gradient checks for every differentiable op."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn wrt x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


def check_op(op, x: np.ndarray, atol: float = 1e-5):
    """Compare autograd against numerical gradients for scalar sum(op(x))."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()
    analytic = t.grad

    def scalar(arr):
        return float(op(Tensor(arr)).sum().data)

    numeric = numerical_grad(scalar, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.x = self.rng.normal(size=(3, 4)) + 0.1

    def test_add(self):
        check_op(lambda t: t + 2.0, self.x)

    def test_mul(self):
        check_op(lambda t: t * 3.5, self.x)

    def test_sub_rsub(self):
        check_op(lambda t: 1.0 - t, self.x)

    def test_div(self):
        check_op(lambda t: t / 2.0, self.x)

    def test_rdiv(self):
        check_op(lambda t: 1.0 / (t + 3.0), self.x)

    def test_pow(self):
        check_op(lambda t: (t + 3.0) ** 2.5, self.x)

    def test_neg(self):
        check_op(lambda t: -t, self.x)

    def test_exp(self):
        check_op(lambda t: t.exp(), self.x)

    def test_log(self):
        check_op(lambda t: (t + 3.0).log(), self.x)

    def test_sqrt(self):
        check_op(lambda t: (t + 3.0).sqrt(), self.x)

    def test_tanh(self):
        check_op(lambda t: t.tanh(), self.x)

    def test_sigmoid(self):
        check_op(lambda t: t.sigmoid(), self.x)

    def test_relu(self):
        check_op(lambda t: t.relu(), self.x)

    def test_leaky_relu(self):
        check_op(lambda t: t.leaky_relu(0.2), self.x)

    def test_clip(self):
        check_op(lambda t: t.clip(-0.5, 0.5), self.x + 0.001)

    def test_softmax(self):
        check_op(lambda t: t.softmax(axis=-1) * np.arange(4), self.x)

    def test_log_softmax(self):
        check_op(lambda t: t.log_softmax(axis=-1) * np.arange(4), self.x)


class TestShapeOpGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.x = self.rng.normal(size=(2, 3, 4))

    def test_reshape(self):
        check_op(lambda t: t.reshape(6, 4) * np.arange(4), self.x)

    def test_transpose(self):
        check_op(lambda t: t.transpose(2, 0, 1) * 1.5, self.x)

    def test_T(self):
        x2 = self.rng.normal(size=(3, 5))
        check_op(lambda t: t.T * np.arange(3), x2)

    def test_getitem_slice(self):
        check_op(lambda t: t[:, 1:, :] * 2.0, self.x)

    def test_getitem_int_index(self):
        check_op(lambda t: t[1] * 3.0, self.x)

    def test_swapaxes(self):
        check_op(lambda t: t.swapaxes(0, 2) * 0.7, self.x)

    def test_concat(self):
        a = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        Tensor.concat([a, b], axis=1).sum().backward()
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, np.ones((2, 3)))

    def test_stack(self):
        a = Tensor(self.rng.normal(size=(2,)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(2,)), requires_grad=True)
        (Tensor.stack([a, b], axis=0) * np.array([[1.0], [2.0]])).sum().backward()
        assert np.array_equal(a.grad, [1.0, 1.0])
        assert np.array_equal(b.grad, [2.0, 2.0])


class TestReductionGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(2)
        self.x = self.rng.normal(size=(3, 4))

    def test_sum_all(self):
        check_op(lambda t: t.sum(), self.x)

    def test_sum_axis_keepdims(self):
        check_op(lambda t: t.sum(axis=1, keepdims=True) * np.ones((3, 1)), self.x)

    def test_mean(self):
        check_op(lambda t: t.mean(axis=0) * np.arange(4), self.x)

    def test_max(self):
        # Perturb to avoid ties, where max has no unique gradient.
        x = self.x + np.arange(12).reshape(3, 4) * 1e-3
        check_op(lambda t: t.max(axis=1) * np.arange(3), x)

    def test_var(self):
        check_op(lambda t: t.var(axis=1) * np.arange(3), self.x)


class TestMatmulGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_2d_2d(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4, 5))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 5)) @ b.T)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 5)))

    def test_batched(self):
        a = self.rng.normal(size=(2, 3, 4))
        b = self.rng.normal(size=(4, 2))
        check_op(lambda t: t @ b, a, atol=1e-4)

    def test_broadcast_2d_3d(self):
        """(M, K) @ (B, K, N): gradient to the 2-D operand sums over B."""
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(5, 4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta @ tb).sum().backward()
        assert ta.grad.shape == (3, 4)
        assert tb.grad.shape == (5, 4, 2)
        numeric = numerical_grad(
            lambda arr: float((Tensor(arr) @ Tensor(b)).sum().data), a.copy()
        )
        np.testing.assert_allclose(ta.grad, numeric, atol=1e-5)

    def test_vector_vector(self):
        a = self.rng.normal(size=4)
        b = self.rng.normal(size=4)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta @ tb).backward()
        np.testing.assert_allclose(ta.grad, b)
        np.testing.assert_allclose(tb.grad, a)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad[0] == 7.0

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 2.0
        (a * a).backward()  # d/dx (2x)^2 = 8x = 16
        assert x.grad[0] == 16.0

    def test_no_grad_blocks_tracking(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()
        (x * 2).backward(np.ones(3))
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.array([1.0])).backward()

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_broadcasting_add_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert np.array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()  # iterative topo sort must handle deep graphs
        assert x.grad is not None
