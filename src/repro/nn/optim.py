"""Optimisers and LR schedules.

The paper trains CNNs/YOLO with SGD (momentum, step decay) and the
transformer with Adam (β1=0.9, β2=0.999) — Section VI-B.  Weight updates
always happen on the FP32 master copy (Section V-A); in this framework
parameters *are* the master copy, and quantisation only ever happens inside
the GEMM ops, so the semantics match by construction.
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .layers import Parameter

__all__ = ["SGD", "Adam", "StepLR", "clip_grad_norm"]


def clip_grad_norm(params: Iterable["Parameter"], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  Standard stabiliser for transformer
    training; essential here when the backward GEMMs are quantised (the
    occasional mis-scaled gradient otherwise derails Adam's moments).
    """
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got no parameters")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum and L2 weight decay (Eq. 4 when plain)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.data -= self.lr * update


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class StepLR:
    """Decay LR by ``gamma`` every ``step_size`` epochs (paper: /10 per 20)."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self.base_lr * (self.gamma ** (self.epoch // self.step_size))
