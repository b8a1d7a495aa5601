"""Reverse-mode automatic differentiation over numpy arrays.

This is the training substrate standing in for PyTorch (which is not
available offline): a dynamic tape of :class:`Tensor` nodes, each holding a
float64 array, an optional gradient, and a backward closure.  The op set is
exactly what the paper's models need — broadcast arithmetic, matmul,
reductions, indexing, reshaping and the usual nonlinearities — plus a
``from_op`` hook that lets :mod:`repro.nn.quantized` inject Mirage's
quantised GEMMs as custom nodes.

Gradient semantics match PyTorch: gradients accumulate into ``.grad`` on
leaf tensors with ``requires_grad=True``; broadcasting is handled by
summing gradients over broadcast axes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (like torch.no_grad)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


TensorLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """A differentiable array node.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        Track operations on this tensor for backprop.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a node from a custom op.

        ``backward(grad_out)`` must call ``parent.accumulate(...)`` for each
        differentiable parent.  When grad is globally disabled or no parent
        requires grad, a detached tensor is returned.
        """
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this node (creating storage on first use)."""
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this node through the tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        # Topological order over the dynamic graph.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free interior gradients to bound memory (leaves keep theirs).
                if node._parents:
                    node.grad = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: TensorLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def backward(grad):
            self.accumulate(grad)
            other.accumulate(grad)

        return Tensor.from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(grad):
            self.accumulate(grad * other.data)
            other.accumulate(grad * self.data)

        return Tensor.from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self.accumulate(-grad)

        return Tensor.from_op(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data - other.data

        def backward(grad):
            self.accumulate(grad)
            other.accumulate(-grad)

        return Tensor.from_op(out_data, (self, other), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return Tensor._lift(other) - self

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data / other.data

        def backward(grad):
            self.accumulate(grad / other.data)
            other.accumulate(-grad * self.data / (other.data**2))

        return Tensor.from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return Tensor._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            self.accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor.from_op(out_data, (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = Tensor._lift(other)
        out_data = self.data @ other.data
        a, b = self.data, other.data

        def backward(grad):
            if a.ndim == 1 and b.ndim == 1:
                self.accumulate(grad * b)
                other.accumulate(grad * a)
                return
            ga = grad @ np.swapaxes(b, -1, -2) if b.ndim > 1 else np.outer(grad, b)
            gb = np.swapaxes(a, -1, -2) @ grad if a.ndim > 1 else np.outer(a, grad)
            self.accumulate(_unbroadcast(np.asarray(ga), a.shape))
            other.accumulate(_unbroadcast(np.asarray(gb), b.shape))

        return Tensor.from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            self.accumulate(grad.reshape(orig))

        return Tensor.from_op(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(grad):
            self.accumulate(grad.transpose(inverse))

        return Tensor.from_op(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]
        shape = self.data.shape

        def backward(grad):
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, idx, grad)
            self.accumulate(full)

        return Tensor.from_op(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            for t, piece in zip(tensors, np.split(grad, splits, axis=axis)):
                t.accumulate(piece)

        return Tensor.from_op(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            for i, t in enumerate(tensors):
                t.accumulate(np.take(grad, i, axis=axis))

        return Tensor.from_op(out_data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.accumulate(np.broadcast_to(g, shape))

        return Tensor.from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else np.prod(
                [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
            )
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = self.data == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            self.accumulate(mask * (g / counts))

        return Tensor.from_op(out_data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            self.accumulate(grad * out_data)

        return Tensor.from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            self.accumulate(grad / self.data)

        return Tensor.from_op(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            self.accumulate(grad * (1.0 - out_data**2))

        return Tensor.from_op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            self.accumulate(grad * out_data * (1.0 - out_data))

        return Tensor.from_op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            self.accumulate(grad * mask)

        return Tensor.from_op(out_data, (self,), backward)

    def leaky_relu(self, slope: float = 0.1) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(grad):
            self.accumulate(grad * np.where(mask, 1.0, slope))

        return Tensor.from_op(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)
        out_data = np.clip(self.data, lo, hi)

        def backward(grad):
            self.accumulate(grad * mask)

        return Tensor.from_op(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self.accumulate(out_data * (grad - dot))

        return Tensor.from_op(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsum
        soft = np.exp(out_data)

        def backward(grad):
            self.accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

        return Tensor.from_op(out_data, (self,), backward)
