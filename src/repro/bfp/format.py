"""Block Floating Point (BFP) encoding.

BFP splits a tensor into groups of ``g`` elements; each group shares a
single exponent (the maximum exponent among its members) and each element
keeps a sign plus ``bm`` mantissa bits.  Within a group, arithmetic is pure
integer arithmetic on the mantissae; the shared exponent restores dynamic
range at reconstruction time.

This mirrors Fig. 2 step 2 of the paper: mantissae of group elements are
shifted right by the difference between the shared exponent and their own
exponent, then truncated to ``bm`` bits.  Truncation is the paper's default;
nearest and stochastic rounding are provided for the FMAC baseline and for
ablations.

One kernel does the absmax / exponent / round / clip arithmetic for every
entry point.  :func:`quantize_tensor` runs it on the operand in its own
layout: groups run along ``axis`` as reshape views of the input, and the
result is a new C-contiguous array.  :func:`encode_groups` and
:func:`repro.bfp.bfp_encode_matrix` run it on their zero-padded
``(..., num_groups, g)`` layout.  Stochastic rounding always draws in the
moved, padded ``(..., num_groups, g)`` order, so one seeded stream gives
the same values through every entry point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..determinism import resolve_rng

__all__ = [
    "BFPConfig",
    "BFPBlock",
    "encode_groups",
    "decode_groups",
    "quantize_tensor",
]

_ROUNDING_MODES = ("truncate", "nearest", "stochastic")


@dataclass(frozen=True)
class BFPConfig:
    """A BFP format: ``bm`` mantissa bits, group size ``g``.

    ``rounding`` selects how mantissa LSBs are dropped during alignment:
    ``"truncate"`` (paper default, round toward zero), ``"nearest"`` or
    ``"stochastic"``.
    """

    bm: int
    g: int
    rounding: str = "truncate"

    def __post_init__(self):
        if self.bm < 1:
            raise ValueError(f"bm must be >= 1, got {self.bm}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if self.rounding not in _ROUNDING_MODES:
            raise ValueError(
                f"rounding must be one of {_ROUNDING_MODES}, got {self.rounding!r}"
            )

    @property
    def mantissa_range(self) -> int:
        """Mantissae are signed integers in ``[-(2^bm - 1), 2^bm - 1]``...

        strictly ``|mantissa| < 2^bm``: the top value ``2^bm`` cannot occur
        because the element with the max exponent has mantissa < 2^bm after
        normalisation.
        """
        return (1 << self.bm) - 1

    def output_bits(self) -> int:
        """Information bits of a ``g``-long dot product (Eq. 13 RHS)."""
        return 2 * (self.bm + 1) + math.ceil(math.log2(self.g)) - 1


@dataclass(frozen=True)
class BFPBlock:
    """Encoded BFP groups.

    Attributes
    ----------
    mantissae:
        Signed integer mantissae, shape ``(num_groups, g)`` (zero padded in
        the last group when the source length is not a multiple of ``g``).
    exponents:
        Shared per-group exponents, shape ``(num_groups,)``.  The decoded
        value of element ``j`` of group ``i`` is
        ``mantissae[i, j] * 2^(exponents[i] - bm)``.
    config:
        The :class:`BFPConfig` used for encoding.
    valid_length:
        Number of real (non padding) elements.
    """

    mantissae: np.ndarray
    exponents: np.ndarray
    config: BFPConfig
    valid_length: int

    def decode(self) -> np.ndarray:
        """Reconstruct the float vector (padding stripped)."""
        return decode_groups(self.mantissae, self.exponents, self.config)[
            : self.valid_length
        ]


def _group_max(a: np.ndarray, axis: int) -> np.ndarray:
    """Max of ``a`` over ``axis``, keeping the axis.

    Along the innermost axis numpy's reduce runs one short inner loop per
    group.  For a power-of-two width, maxima of the even and odd members
    halve every group at once in long strided loops instead.
    """
    width = a.shape[axis]
    if axis != a.ndim - 1 or width & (width - 1):
        return a.max(axis=axis, keepdims=True)
    while a.shape[-1] > 1:
        a = np.maximum(a[..., 0::2], a[..., 1::2])
    return a


def _round_groups(
    x: np.ndarray,
    out: np.ndarray,
    axis: int,
    config: BFPConfig,
    noise: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Write the mantissae of ``x``'s groups into ``out``; return the
    exponents and the group maxima of ``|x|``.

    Each group runs along ``axis`` of the views ``x`` and ``out`` (every
    other axis indexes groups); ``out`` must not overlap ``x``.  The
    exponents and maxima keep ``axis`` with length 1, so
    ``np.ldexp(out, exps - bm)`` dequantises in place.  A group holding a
    NaN has a NaN maximum.  ``noise`` holds the uniform draws of
    stochastic rounding in ``x``'s layout.
    """
    absmax = _group_max(np.abs(x, out=out), axis)
    # frexp: |v| = frac * 2^e with frac in [0.5, 1), so every scaled
    # magnitude is below 2^bm; +-0 gives e = 0.
    exps = np.frexp(absmax)[1]
    finite = np.isfinite(absmax).all()
    # Scale the values by exponent arithmetic: forming 2^(bm - e) first
    # overflows to inf for groups below about 2^(bm - 1023).
    np.ldexp(x, config.bm - exps, out=out)
    if config.rounding == "truncate":
        np.trunc(out, out=out)
    elif config.rounding == "nearest":
        np.rint(out, out=out)
    else:
        floor = np.floor(out)
        frac = np.subtract(out, floor, out=out)
        np.add(floor, noise < frac, out=out)
    # Truncation below 2^bm stays in range; rounding up can reach 2^bm, and
    # a non-finite group max (an inf input maps to +-(2^bm - 1) / 2^bm)
    # leaves every mantissa unbounded.
    if config.rounding != "truncate" or not finite:
        limit = float(config.mantissa_range)
        np.clip(out, -limit, limit, out=out)
    return exps, absmax


def _encode_grouped(
    grouped: np.ndarray,
    config: BFPConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer mantissae and exponents of the groups on the last axis of
    ``grouped``, the zero-padded ``(..., num_groups, g)`` layout that
    :func:`encode_groups` and :func:`repro.bfp.bfp_encode_matrix` return.

    NaN has no integer mantissa, so a NaN operand raises ``ValueError``.
    """
    noise = None
    if config.rounding == "stochastic":
        noise = resolve_rng(rng).random(grouped.shape)
    mant = np.empty_like(grouped)
    exps, absmax = _round_groups(grouped, mant, grouped.ndim - 1, config, noise)
    if np.isnan(absmax).any():
        raise ValueError("cannot BFP-encode NaN: the operand holds a NaN")
    return mant.astype(np.int64), exps[..., 0].astype(np.int64)


def encode_groups(
    values: np.ndarray,
    config: BFPConfig,
    rng: Optional[np.random.Generator] = None,
) -> BFPBlock:
    """Encode a 1-D float vector into BFP groups.

    The shared exponent of a group is the max element exponent, computed as
    ``floor(log2(|v|)) + 1`` of the largest magnitude (so that every
    mantissa satisfies ``|m| <= 2^bm``).  Zero groups get exponent 0 and
    all-zero mantissae.
    """
    vec = np.asarray(values, dtype=np.float64).ravel()
    n = vec.size
    g = config.g
    num_groups = max(1, -(-n // g))
    padded = np.zeros(num_groups * g, dtype=np.float64)
    padded[:n] = vec
    mant, exps = _encode_grouped(padded.reshape(num_groups, g), config, rng)
    return BFPBlock(mant, exps, config, n)


def decode_groups(
    mantissae: np.ndarray, exponents: np.ndarray, config: BFPConfig
) -> np.ndarray:
    """Inverse of :func:`encode_groups` (returns the padded flat vector)."""
    mant = np.asarray(mantissae, dtype=np.float64)
    exps = np.asarray(exponents, dtype=np.int64)
    return np.ldexp(mant, exps[:, None] - config.bm).ravel()


def _split_axis(a: np.ndarray, axis: int, width: int) -> np.ndarray:
    """View of ``a`` with ``axis`` split into ``(groups, width)``."""
    shape = a.shape[:axis] + (a.shape[axis] // width, width) + a.shape[axis + 1 :]
    return a.reshape(shape)


def quantize_tensor(
    values: np.ndarray,
    config: BFPConfig,
    axis: int = -1,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Fake-quantise a tensor through BFP along ``axis`` (encode + decode).

    This is the building block of the accuracy model: it reproduces exactly
    the value error a Mirage GEMM operand incurs, while keeping float64
    layout for the surrounding autograd code.

    Groups of ``g`` consecutive elements run along ``axis`` in the input's
    own layout; a last group shorter than ``g`` stands for one zero padded
    to ``g``.  The input is never copied or modified: the result is a new
    C-contiguous array of the input's shape.  Stochastic rounding draws
    ``rng.random`` in the order of the moved, padded layout
    ``(*other_axes, num_groups, g)``, so a seeded stream gives the values
    of :func:`encode_groups` applied to each lane in turn.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not -arr.ndim <= axis < arr.ndim:
        raise ValueError(f"axis {axis} is out of bounds for a {arr.ndim}-d array")
    axis %= arr.ndim
    length = arr.shape[axis]
    g = config.g
    noise = None
    if config.rounding == "stochastic":
        num_groups = max(1, -(-length // g))
        lanes = arr.shape[:axis] + arr.shape[axis + 1 :]
        draws = resolve_rng(rng).random(lanes + (num_groups * g,))
        noise = np.moveaxis(draws, -1, axis)
    out = np.empty(arr.shape)
    # The full groups, then the ragged last group, each as one view.
    full = length - length % g
    for lo, hi in ((0, full), (full, length)):
        if lo == hi:
            continue
        width = min(g, hi - lo)
        index = (slice(None),) * axis + (slice(lo, hi),)
        view = _split_axis(out[index], axis, width)
        exps, _ = _round_groups(
            _split_axis(arr[index], axis, width),
            view,
            axis + 1,
            config,
            None if noise is None else _split_axis(noise[index], axis, width),
        )
        np.ldexp(view, exps - config.bm, out=view)
    return out
