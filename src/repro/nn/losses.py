"""Loss functions."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor

__all__ = ["cross_entropy", "mse_loss", "nll_loss"]


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross entropy from raw logits.

    ``logits``: (N, C) or (N, T, C); ``targets``: int array of matching
    leading shape.  ``ignore_index`` positions contribute nothing (used for
    padding in the translation task).
    """
    log_probs = logits.log_softmax(axis=-1)
    return nll_loss(log_probs, targets, ignore_index)


def nll_loss(log_probs: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Mean negative log likelihood from log probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    flat_lp = log_probs.reshape(-1, log_probs.shape[-1])
    flat_t = targets.reshape(-1)
    if ignore_index is not None:
        keep = flat_t != ignore_index
        idx = np.nonzero(keep)[0]
        if idx.size == 0:
            raise ValueError("all targets are ignore_index")
        picked = flat_lp[(idx, flat_t[idx])]
    else:
        picked = flat_lp[(np.arange(flat_t.size), flat_t)]
    return -picked.mean()


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = pred - target
    return (diff * diff).mean()
