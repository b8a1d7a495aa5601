"""Weight initialisers."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..determinism import resolve_rng

__all__ = ["kaiming_uniform"]


def kaiming_uniform(
    shape: Tuple[int, ...],
    fan_in: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """He-style uniform init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = resolve_rng(rng)
    bound = 1.0 / math.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)
