"""Tests for loss functions, optimisers and LR schedules."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Parameter,
    SGD,
    StepLR,
    Tensor,
    cross_entropy,
    mse_loss,
    nll_loss,
)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(8))

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = logits[1, 2] = 100.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(3, 4)),
                        requires_grad=True)
        targets = np.array([0, 1, 2])
        cross_entropy(logits, targets).backward()
        soft = np.exp(logits.data - logits.data.max(-1, keepdims=True))
        soft /= soft.sum(-1, keepdims=True)
        onehot = np.eye(4)[targets]
        np.testing.assert_allclose(logits.grad, (soft - onehot) / 3, atol=1e-10)

    def test_sequence_shape(self):
        logits = Tensor(np.zeros((2, 5, 7)))
        loss = cross_entropy(logits, np.zeros((2, 5), dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(7))

    def test_ignore_index_excludes_positions(self):
        logits = np.zeros((1, 3, 4))
        logits[0, 0, 2] = 50.0  # correct and confident at position 0
        targets = np.array([[2, 0, 0]])
        full = cross_entropy(Tensor(logits), targets).item()
        masked = cross_entropy(Tensor(logits), np.array([[2, -1, -1]]),
                               ignore_index=-1).item()
        assert masked < full
        assert masked == pytest.approx(0.0, abs=1e-6)

    def test_all_ignored_raises(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((1, 2, 3))).log_softmax(),
                     np.full((1, 2), -1), ignore_index=-1)


class TestOtherLosses:
    def test_mse(self):
        loss = mse_loss(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)


class TestSGD:
    def test_plain_step_is_eq4(self):
        """w <- w - eta * grad (Eq. 4)."""
        p = Parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()  # v=1, w=-1
        p.grad = np.array([1.0])
        opt.step()  # v=1.9, w=-2.9
        assert p.data[0] == pytest.approx(-2.9)

    def test_weight_decay(self):
        p = Parameter(np.array([10.0]))
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.1).step()
        assert p.data[0] == pytest.approx(10.0 - 0.1 * 1.0)

    def test_none_grad_skipped(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            loss = (Tensor(p.data) * 0).sum()  # placeholder
            p.grad = 2 * p.data  # grad of x^2
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, |first step| == lr regardless of grad scale."""
        for scale in (1e-3, 1.0, 1e3):
            p = Parameter(np.array([0.0]))
            opt = Adam([p], lr=0.01)
            p.grad = np.array([scale])
            opt.step()
            assert abs(p.data[0]) == pytest.approx(0.01, rel=1e-4)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(300):
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay_applied(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.01, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 10.0


class TestSchedules:
    def test_step_lr_matches_paper_protocol(self):
        """LR /10 every 20 epochs from 0.01 (Section VI-B)."""
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=0.01)
        sched = StepLR(opt, step_size=20, gamma=0.1)
        lrs = []
        for _ in range(60):
            lrs.append(opt.lr)
            sched.step()
        assert lrs[0] == pytest.approx(0.01)
        assert lrs[25] == pytest.approx(0.001)
        assert lrs[45] == pytest.approx(0.0001)
