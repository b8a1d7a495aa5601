"""Nonlinear functions evaluated *inside* the RNS domain.

The Section VII alternatives (Res-DNN, RNSnet) keep the whole network in
residue form, so their activation functions must be computed without
leaving the RNS — via polynomial approximations (Taylor / least-squares
fits) whose every multiplication needs an in-RNS rescale, plus sign
detection for piecewise functions like ReLU.  Mirage instead decodes to
BFP/FP32 and applies nonlinearities digitally; this module makes the
alternative executable so the accuracy/cost trade-off can be measured.

Pieces:

* :class:`FixedPointCodec` — maps real values to signed fixed-point
  integers carried in RNS (``value * 2^frac_bits``), with range checks
  against the moduli set's signed range.
* :func:`rns_polynomial` — Horner evaluation of a fixed-point polynomial
  on residue tensors; every multiply is followed by a ``2^-frac_bits``
  rescale (:func:`repro.rns.scaling.approximate_scale`) and the rescale
  count is reported (it is the dominant hardware cost).
* :func:`rns_relu` — exact ReLU via mixed-radix sign detection.
* :func:`lsq_coefficients` — least-squares polynomial fits of the
  :data:`REFERENCE_FUNCTIONS` (sigmoid / tanh / GELU / exp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .arithmetic import mod_add, mod_mul
from .conversion import crt_reverse_signed, forward_convert_signed
from .moduli import ModuliSet
from .scaling import approximate_scale, mrc_sign

__all__ = [
    "FixedPointCodec",
    "rns_polynomial",
    "rns_relu",
    "lsq_coefficients",
    "REFERENCE_FUNCTIONS",
]

REFERENCE_FUNCTIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
    "exp": np.exp,
    "gelu": lambda x: 0.5 * x * (1.0 + np.tanh(
        math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3))),
}


@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point values carried as RNS residues.

    A real ``v`` is stored as ``round(v * 2^frac_bits)`` mapped into
    ``[0, M)``; the representable magnitude is ``psi / 2^frac_bits``.
    """

    mset: ModuliSet
    frac_bits: int

    def __post_init__(self):
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be >= 0")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def max_value(self) -> float:
        """Largest representable magnitude."""
        return self.mset.psi / self.scale

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Real array -> residue tensor of shape ``(n, ...)`` (clamping)."""
        v = np.clip(np.asarray(values, dtype=np.float64),
                    -self.max_value, self.max_value)
        return forward_convert_signed(np.rint(v * self.scale).astype(np.int64),
                                      self.mset)

    def decode(self, residues: np.ndarray) -> np.ndarray:
        """Residue tensor -> real array."""
        return crt_reverse_signed(residues, self.mset).astype(np.float64) / self.scale


def rns_polynomial(
    residues: np.ndarray,
    codec: FixedPointCodec,
    coefficients: Sequence[float],
) -> Tuple[np.ndarray, int]:
    """Evaluate ``sum_i c_i x^i`` on fixed-point RNS values (Horner).

    ``coefficients`` are real, ordered low-to-high degree, and quantised
    to the codec's fixed-point grid.  After each Horner multiply the
    accumulator carries ``2 * frac_bits`` fractional bits and is rescaled
    back — the operation a pure-RNS pipeline must pay for in hardware.

    Returns ``(result_residues, rescale_count)``.

    The caller must keep intermediate magnitudes inside
    ``codec.max_value`` (clamp the input interval and fit the polynomial
    over it); overflow wraps silently, exactly as it would on chip.
    """
    coeffs = list(coefficients)
    if not coeffs:
        raise ValueError("need at least one coefficient")
    mset = codec.mset
    quantised = [int(np.rint(c * codec.scale)) for c in coeffs]
    acc = forward_convert_signed(
        np.full(np.asarray(residues).shape[1:], quantised[-1], dtype=np.int64),
        mset,
    )
    rescales = 0
    for c_int in reversed(quantised[:-1]):
        prod = mod_mul(acc, residues, mset)  # 2*frac_bits fractional bits
        prod = approximate_scale(prod, mset, codec.frac_bits)
        rescales += 1
        c_res = forward_convert_signed(
            np.full(prod.shape[1:], c_int, dtype=np.int64), mset
        )
        acc = mod_add(prod, c_res, mset)
    return acc, rescales


def rns_relu(residues: np.ndarray, mset: ModuliSet) -> np.ndarray:
    """Exact ReLU on signed RNS values via mixed-radix sign detection.

    ``relu(x) = x * [x > 0]``: the mask is computed by
    :func:`repro.rns.scaling.mrc_sign` (an ``O(n^2)`` carry chain per
    value — the sequential cost pure-RNS designs hide in their
    activation units).
    """
    sign = mrc_sign(residues, mset)
    mask = (sign > 0).astype(np.int64)
    return mod_mul(residues, np.broadcast_to(mask, np.asarray(residues).shape),
                   mset)


def lsq_coefficients(
    fn: Callable[[np.ndarray], np.ndarray],
    interval: Tuple[float, float],
    degree: int,
    points: int = 512,
) -> Tuple[float, ...]:
    """Least-squares polynomial fit of ``fn`` over ``interval``.

    Returns coefficients low-to-high degree — drop-in for
    :func:`rns_polynomial`.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    x = np.linspace(lo, hi, points)
    return tuple(np.polynomial.polynomial.polyfit(x, fn(x), degree))
