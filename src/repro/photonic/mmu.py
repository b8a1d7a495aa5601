"""Functional model of the Modular Multiplication Unit (MMU).

An MMU multiplies an input residue ``x`` by a weight residue ``w`` modulo
``m`` *in the optical phase*: ``w`` sets the drive voltage of a digit-sliced
phase shifter bank (programmed once per tile), the binary digits of ``x``
route the light through or around each segment, and the accumulated phase
is ``(2π/m) · x · w`` — which the physics wraps modulo 2π, i.e. the product
arrives already reduced mod ``m`` (Eq. 10).

The model computes the *physical* (unwrapped) phase in float64, applies the
2π wrap, and optionally injects phase-encoding errors for the Section VI-E
studies.  In the noiseless case it is bit-exact against integer modular
arithmetic for any practical modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..determinism import RngLike, resolve_rng
from .devices import MMUGeometry, PhaseShifterBank

__all__ = ["MMU", "wrap_phase", "phase_to_level", "popcount"]

TWO_PI = 2.0 * math.pi


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of non-negative integer residues.

    The digit-sliced MMU routes the light through one shifter segment per
    set bit of the input residue, so the number of traversed segments — and
    hence the number of independent per-digit phase-error draws — is the
    popcount of the residue.
    """
    arr = np.asarray(values, dtype=np.int64)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(arr).astype(np.int64)
    # SWAR fallback for older numpy.
    v = arr.astype(np.uint64)
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + (
        (v >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def wrap_phase(phase: np.ndarray) -> np.ndarray:
    """Wrap phases into [0, 2π) — what the optical field does for free."""
    return np.mod(phase, TWO_PI)


def phase_to_level(phase: np.ndarray, modulus: int) -> np.ndarray:
    """Decide the nearest of ``m`` phase levels and return the residue."""
    level = np.rint(np.asarray(phase) / (TWO_PI / modulus)).astype(np.int64)
    return np.mod(level, modulus)


@dataclass
class MMU:
    """One modular multiplier for modulus ``m``.

    Parameters
    ----------
    modulus:
        The modulus this unit computes under.
    phase_error_std:
        Std-dev of Gaussian phase error injected per traversed digit
        segment (models DAC-limited drive precision / process bias);
        0 disables noise.
    rng:
        Error-injection stream: a Generator or an int seed for
        bit-reproducible noise; ``None`` is the documented
        nondeterministic opt-in (fresh OS entropy).
    """

    modulus: int
    phase_error_std: float = 0.0
    rng: RngLike = None

    def __post_init__(self):
        self.bank = PhaseShifterBank(self.modulus)
        self.geometry = MMUGeometry(self.bank)
        self.rng = resolve_rng(self.rng)

    # ------------------------------------------------------------------
    def _check_residues(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.modulus):
            raise ValueError(f"residues must be in [0, {self.modulus})")
        return arr

    def phase(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Unwrapped physical phase for residue operands (vectorised).

        ``x`` is digit-decomposed (the MRR routing); ``w`` scales the
        per-digit phase.  Noise, when enabled, enters per *set* digit.
        """
        x = self._check_residues(x)
        w = self._check_residues(w)
        step = TWO_PI / self.modulus
        phase = (x * w).astype(np.float64) * step
        if self.phase_error_std > 0.0:
            set_bits = np.broadcast_to(popcount(x), phase.shape)
            phase = phase + self.rng.normal(
                0.0, self.phase_error_std, size=phase.shape
            ) * np.sqrt(set_bits)
        return phase

    def multiply(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``|x w|_m`` through the optical path (wrap + level decision)."""
        return phase_to_level(wrap_phase(self.phase(x, w)), self.modulus)
