"""Tests for Module machinery and basic layers."""

from operator import methodcaller

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Tanh,
    Tensor,
)


class TestModule:
    def test_named_parameters_recursive(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        names = [n for n, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names
        assert len(model.parameters()) == 4

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), Dropout(0.5))
        model.eval()
        assert not model.layers[1].training
        model.train()
        assert model.layers[1].training

    def test_state_dict_roundtrip(self, rng):
        m1 = Sequential(Linear(4, 3, rng=rng), Linear(3, 2, rng=rng))
        m2 = Sequential(Linear(4, 3, rng=rng), Linear(3, 2, rng=rng))
        m2.load_state_dict(m1.state_dict())
        x = Tensor(rng.normal(size=(5, 4)))
        assert np.array_equal(m1(x).data, m2(x).data)

    def test_state_dict_mismatch_raises(self, rng):
        m1 = Linear(4, 3, rng=rng)
        m2 = Linear(4, 2, rng=rng)
        with pytest.raises((KeyError, ValueError)):
            m2.load_state_dict(m1.state_dict())

    def test_zero_grad_clears(self, rng):
        model = Linear(3, 2, rng=rng)
        model(Tensor(rng.normal(size=(4, 3)))).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(rng.normal(size=(2, 4)))).shape == (2, 3)

    def test_gradients_flow_to_params(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer(Tensor(rng.normal(size=(5, 4)))).sum().backward()
        assert layer.weight.grad.shape == (3, 4)
        assert layer.bias.grad.shape == (3,)


class TestActivations:
    @pytest.mark.parametrize("act,check", [
        (ReLU(), lambda y, x: np.array_equal(y, np.maximum(x, 0))),
        (Tanh(), lambda y, x: np.allclose(y, np.tanh(x))),
        (methodcaller("sigmoid"), lambda y, x: np.allclose(y, 1 / (1 + np.exp(-x)))),
    ])
    def test_forward_values(self, act, check, rng):
        x = rng.normal(size=(3, 4))
        assert check(act(Tensor(x)).data, x)


class TestFlatten:
    def test_shape(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(2, 3, 4, 5))))
        assert out.shape == (2, 60)


class TestDropout:
    def test_eval_is_identity(self, rng):
        d = Dropout(0.7, rng=rng)
        d.training = False
        x = rng.normal(size=(10, 10))
        assert np.array_equal(d(Tensor(x)).data, x)

    def test_training_scales_survivors(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 100))
        out = d(Tensor(x)).data
        survivors = out[out != 0]
        assert np.allclose(survivors, 2.0)
        assert 0.4 < (out != 0).mean() < 0.6

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalises_batch(self, rng):
        bn = BatchNorm2d(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).data
        assert abs(out.mean()) < 1e-7
        assert abs(out.std() - 1.0) < 1e-2

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = rng.normal(loc=3.0, size=(16, 2, 4, 4))
        bn(Tensor(x))
        assert np.all(bn.running_mean > 1.0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = rng.normal(size=(8, 2, 4, 4))
        for _ in range(20):
            bn(Tensor(x))
        bn.training = False
        out = bn(Tensor(x)).data
        assert abs(out.mean()) < 0.2

    def test_bn2d_shape_check(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(4)(Tensor(rng.normal(size=(2, 4))))

    def test_gradients_flow(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(4, 3, 2, 2)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.weight.grad is not None


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        ln = LayerNorm(8)
        x = rng.normal(loc=4.0, scale=3.0, size=(5, 8))
        out = ln(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_affine_params_applied(self, rng):
        ln = LayerNorm(4)
        ln.weight.data = np.full(4, 2.0)
        ln.bias.data = np.full(4, 1.0)
        out = ln(Tensor(rng.normal(size=(3, 4)))).data
        np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-6)


class TestEmbedding:
    def test_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], emb.weight.data[1])

    def test_gradient_scatter(self, rng):
        emb = Embedding(5, 3, rng=rng)
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        # id 1 used twice -> its gradient row is 2, id 2 once -> 1.
        np.testing.assert_allclose(emb.weight.grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(emb.weight.grad[2], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(emb.weight.grad[0], 0.0)
