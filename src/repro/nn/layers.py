"""Module system and basic layers (numpy autograd backend).

Mirrors the torch.nn surface closely enough that the paper's models read
naturally: :class:`Module` with recursive parameter discovery,
:class:`Linear`, activations, :class:`BatchNorm2d`, :class:`LayerNorm`,
:class:`Embedding` and :class:`Sequential`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..determinism import resolve_rng
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Flatten",
    "BatchNorm2d",
    "LayerNorm",
    "Embedding",
]


class Parameter(Tensor):
    """A tensor registered as a trainable parameter."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter / submodule discovery."""

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        mine = dict(self.named_parameters())
        missing = set(mine) - set(state)
        extra = set(state) - set(mine)
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={missing}, extra={extra}")
        for name, p in mine.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].astype(np.float64).copy()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, i):
        return self.layers[i]

    def append(self, layer: Module) -> None:
        self.layers.append(layer)


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), fan_in=in_features, rng=rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.1):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class _BatchNorm(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def _normalize(self, x: Tensor, axes: Tuple[int, ...], shape) -> Tensor:
        if self.training:
            mu = x.mean(axis=axes, keepdims=True)
            centered = x - mu
            var_t = (centered * centered).mean(axis=axes, keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mu.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var_t.data.reshape(-1)
            )
            inv = (var_t + self.eps) ** -0.5
            norm = centered * inv
        else:
            mu = Tensor(self.running_mean.reshape(shape))
            var_t = Tensor(self.running_var.reshape(shape))
            norm = (x - mu) * ((var_t + self.eps) ** -0.5)
        w = self.weight.reshape(shape)
        b = self.bias.reshape(shape)
        return norm * w + b


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over (N, C, H, W)."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW, got {x.shape}")
        return self._normalize(x, (0, 2, 3), (1, self.num_features, 1, 1))


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        norm = centered * ((var + self.eps) ** -0.5)
        return norm * self.weight + self.bias


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        return self.weight[ids]
