"""Process-variation and DAC-limited encoding Monte Carlo (Section VI-E).

Eq. 14 bounds the accumulated encoding error analytically; this module
*simulates* it: every phase-shifter bank gets a static per-digit phase
bias, every MRR a static detuning-induced phase perturbation, and the
weight drive voltage is quantised to ``b_DAC`` bits.  Running the MDPU
forward under these imperfections measures the end-to-end residue error
rate, letting the paper's "8-bit DACs suffice" conclusion be checked as an
experiment rather than a formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DEFAULT_MRR_ERROR
from .mmu import TWO_PI, phase_to_level, wrap_phase

__all__ = ["VariationModel", "VariedMDPU", "encoding_error_rate"]


@dataclass(frozen=True)
class VariationModel:
    """Static device imperfections for one fabricated instance.

    Attributes
    ----------
    dac_bits:
        Weight-drive DAC precision; the per-MMU drive phase is rounded to
        a ``2^-b_DAC`` grid (relative to the full phase scale).
    mrr_rel_error:
        Per-MRR static phase perturbation, as a fraction of 2π, applied
        once per traversed switch (std of a zero-mean Gaussian drawn at
        "fabrication" time).
    ps_rel_bias_std:
        Relative random bias of each phase-shifter segment's ``VπL``
        (process variation), as a fraction.
    seed:
        Fabrication seed — fixed per instance, shared across all inputs.
    """

    dac_bits: int = 8
    mrr_rel_error: float = DEFAULT_MRR_ERROR
    ps_rel_bias_std: float = 0.0
    seed: int = 0


class VariedMDPU:
    """An MDPU whose devices carry static fabrication-time imperfections.

    The forward path mirrors :class:`repro.photonic.mdpu.MDPU` but builds
    the phase digit-by-digit so per-segment biases and per-switch errors
    land where they do in hardware.
    """

    def __init__(self, modulus: int, g: int, variation: VariationModel):
        if modulus < 2 or g < 1:
            raise ValueError("modulus must be >= 2 and g >= 1")
        self.modulus = modulus
        self.g = g
        self.variation = variation
        self.digits = max(1, math.ceil(math.log2(modulus)))
        rng = np.random.default_rng(variation.seed)
        # Static per-MMU drive-encoding error from the b_DAC-bit weight
        # DAC: Eq. 14's eps_PS <= 2^-b_DAC, expressed as a fraction of the
        # 2π phase circle, realised when the light traverses the *whole*
        # bank (and pro-rated by the traversed length otherwise).
        q = TWO_PI * 2.0 ** -variation.dac_bits
        self._dac_err = rng.uniform(-q / 2, q / 2, size=g)
        # Static per-(MMU, digit) phase perturbation picked up in the
        # shifter arm from the MRR switch pair detuning.  Eq. 14 counts
        # 2 * ceil(log2 m) switches per MMU with eps_MRR a *worst-case
        # bound*; the Monte Carlo draws Gaussians with that bound at 3σ.
        self._mrr_phase = rng.normal(
            0.0, variation.mrr_rel_error / 3.0 * TWO_PI,
            size=(g, self.digits),
        ) * math.sqrt(2.0)
        # Static relative gain error per (MMU, digit) segment (VπL bias).
        self._ps_gain = 1.0 + rng.normal(
            0.0, variation.ps_rel_bias_std, size=(g, self.digits)
        )

    # ------------------------------------------------------------------
    def phase(
        self,
        x: np.ndarray,
        w: np.ndarray,
        drive_scale: Optional[np.ndarray] = None,
        trim_phase: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Analog (wrapped) output phase under static imperfections.

        ``x``, ``w``: residue vectors of shape ``(..., g)``.  This is what
        the phase-detection unit sees before the level decision — the
        observable a calibration routine can probe.  ``drive_scale`` and
        ``trim_phase`` (both shape ``(g, digits)``) are the calibration
        knobs: a multiplicative drive correction and a static additive
        trim applied when light traverses a segment's arm (see
        :mod:`repro.photonic.calibration`).
        """
        x = np.asarray(x, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        if x.shape[-1] != self.g or w.shape[-1] != self.g:
            raise ValueError(f"operand g-axis must be {self.g}")
        step = TWO_PI / self.modulus
        full = float((1 << self.digits) - 1)
        total = np.zeros(np.broadcast_shapes(x.shape, w.shape)[:-1])
        for j in range(self.g):
            traversed = np.zeros_like(total)
            for d in range(self.digits):
                bit = ((x[..., j] >> d) & 1).astype(np.float64)
                drive = step * w[..., j] * (1 << d)
                if drive_scale is not None:
                    drive = drive * drive_scale[j, d]
                seg = drive * self._ps_gain[j, d]
                if trim_phase is not None:
                    seg = seg + trim_phase[j, d]
                total = total + bit * (seg + self._mrr_phase[j, d])
                traversed = traversed + bit * (1 << d)
            # DAC error scales with the traversed shifter length.
            total = total + self._dac_err[j] * traversed / full
        return wrap_phase(total)

    def dot(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Modular dot product under static imperfections.

        ``x``, ``w``: residue vectors of shape ``(..., g)``.
        """
        return phase_to_level(self.phase(x, w), self.modulus)

    def exact(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        return np.mod((x.astype(object) * w).sum(axis=-1), self.modulus).astype(
            np.int64
        )


def encoding_error_rate(
    modulus: int,
    g: int,
    dac_bits: int,
    trials: int = 200,
    mrr_rel_error: float = DEFAULT_MRR_ERROR,
    ps_rel_bias_std: float = 0.0,
    seed: int = 0,
) -> float:
    """Fraction of modular dot products decided wrongly under variations.

    The Section VI-E experiment: sweep ``dac_bits`` and watch the error
    rate fall to zero at ~8 bits for the k=5 moduli at g=16.
    """
    variation = VariationModel(dac_bits, mrr_rel_error, ps_rel_bias_std, seed)
    mdpu = VariedMDPU(modulus, g, variation)
    rng = np.random.default_rng(seed + 1)
    x = rng.integers(0, modulus, size=(trials, g))
    w = rng.integers(0, modulus, size=(trials, g))
    got = mdpu.dot(x, w)
    want = mdpu.exact(x, w)
    return float(np.mean(got != want))
