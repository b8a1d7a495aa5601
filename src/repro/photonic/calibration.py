"""Post-fabrication calibration of MDPU phase errors (Section VI-E).

The paper argues that process-variation biases in phase shifters and MRR
detuning "can be minimised or calibrated away" with the error-correction
methods of the MZI/MRR literature [5], [25], [37], [55].  This module
makes that claim executable: it *characterises* a fabricated
(:class:`~repro.photonic.variation.VariedMDPU`) instance purely through
phase measurements — the only observable real hardware exposes — fits a
per-segment gain + offset model, and applies the inverse as drive-scale
and trim corrections.

Two correction modes mirror what hardware can actually do:

* ``per_digit`` — every shifter segment has its own trimmer (e.g. a
  thermal trim pad next to each MRR pair): both the multiplicative VπL
  bias and the additive detuning phase are corrected; the residual floor
  is set by probe measurement noise.
* ``per_mmu`` — only the shared weight-drive voltage can be adjusted
  (no per-segment trimmers): one gain correction per MMU, additive
  offsets stay — the cheaper packaging option, partially effective.

:func:`calibration_error_rates` runs the before/after experiment the
related-work bench reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .mmu import TWO_PI, phase_to_level
from .variation import VariationModel, VariedMDPU

__all__ = [
    "CalibrationTable",
    "characterize",
    "CalibratedMDPU",
    "calibration_error_rates",
]


def _wrap_to_pi(phase: np.ndarray) -> np.ndarray:
    """Map phases to (-pi, pi] — residuals must be compared near zero."""
    return (np.asarray(phase) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class CalibrationTable:
    """Fitted corrections for one fabricated MDPU instance.

    ``drive_scale`` multiplies each segment's drive phase and
    ``trim_phase`` adds a static arm phase; both have shape
    ``(g, digits)``.  ``mode`` records how the table was built and
    ``probes`` how many phase measurements it cost.
    """

    drive_scale: np.ndarray
    trim_phase: np.ndarray
    mode: str
    probes: int

    def __post_init__(self):
        if self.drive_scale.shape != self.trim_phase.shape:
            raise ValueError("drive_scale and trim_phase shapes must match")


def characterize(
    mdpu: VariedMDPU,
    mode: str = "per_digit",
    measurement_noise: float = 0.0,
    repeats: int = 3,
    refine_iters: int = 2,
    seed: int = 0,
) -> CalibrationTable:
    """Fit per-segment gain/offset corrections from probe measurements.

    Two stages, both using only the phases real hardware can read:

    1. **Coarse fit** — for every MMU ``j`` and digit ``d``, drive one-hot
       inputs (only bit ``d`` of element ``j`` lit) at a ladder of probe
       weights capped so the nominal phase stays below ~0.9 * 2pi (no
       wrap ambiguity), and least-squares fit
       ``measured - nominal = (gain - 1) * nominal + offset``.
    2. **Closed-loop refinement** (``refine_iters`` rounds, ``per_digit``
       only) — re-probe *through the current corrections* at the full
       runtime drive (``w = m - 1``), where a segment's unwrapped phase
       reaches ``~(m-1) 2^d * 2pi / m``.  The wrapped residual is valid
       because the coarse fit already pinned it inside ±pi, and the long
       lever arm divides the gain uncertainty by the full drive — this
       is what lets the calibration hit the ~``2^-b_DAC``-of-2pi absolute
       accuracy Eq. 14 budgets per MMU, which small-signal probes cannot
       reach under read noise.

    Every probe carries ``measurement_noise`` rad of Gaussian read noise,
    averaged over ``repeats`` reads.
    """
    if mode not in ("per_digit", "per_mmu"):
        raise ValueError(f"mode must be 'per_digit' or 'per_mmu', got {mode!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    g, digits, m = mdpu.g, mdpu.digits, mdpu.modulus
    step = TWO_PI / m
    rng = np.random.default_rng(seed)

    gains = np.ones((g, digits))
    offsets = np.zeros((g, digits))
    probes = 0
    for j in range(g):
        for d in range(digits):
            # Probe weights whose nominal phase cannot wrap.
            w_max = max(1, min(m - 1, int(0.9 * m / (1 << d))))
            w_probes = sorted({0, max(1, w_max // 2), w_max})
            x = np.zeros(g, dtype=np.int64)
            x[j] = 1 << d
            nominals: List[float] = []
            residuals: List[float] = []
            for w_p in w_probes:
                w = np.zeros(g, dtype=np.int64)
                w[j] = w_p
                nominal = step * w_p * (1 << d)
                reads = []
                for _ in range(repeats):
                    measured = float(mdpu.phase(x, w))
                    if measurement_noise > 0.0:
                        measured += rng.normal(0.0, measurement_noise)
                    reads.append(measured)
                    probes += 1
                mean_read = float(np.mean(reads))
                residuals.append(float(_wrap_to_pi(mean_read - nominal)))
                nominals.append(nominal)
            # residual = (gain - 1) * nominal + offset, least squares.
            a = np.stack([np.asarray(nominals), np.ones(len(nominals))], axis=1)
            slope, intercept = np.linalg.lstsq(a, np.asarray(residuals),
                                               rcond=None)[0]
            gains[j, d] = 1.0 + slope
            offsets[j, d] = intercept

    if mode == "per_digit":
        drive_scale = 1.0 / np.clip(gains, 0.1, 10.0)
        trim_phase = -offsets
        # Closed-loop refinement at full drive (stage 2 above).
        for _ in range(refine_iters):
            for j in range(g):
                for d in range(digits):
                    x = np.zeros(g, dtype=np.int64)
                    x[j] = 1 << d
                    # Offset residual at zero drive.
                    w0 = np.zeros(g, dtype=np.int64)
                    r0 = np.mean([
                        float(mdpu.phase(x, w0, drive_scale, trim_phase))
                        + (rng.normal(0.0, measurement_noise)
                           if measurement_noise > 0.0 else 0.0)
                        for _ in range(repeats)
                    ])
                    r0 = float(_wrap_to_pi(r0))
                    probes += repeats
                    trim_phase = trim_phase.copy()
                    trim_phase[j, d] -= r0
                    # Gain residual at the full runtime drive.
                    w1 = np.zeros(g, dtype=np.int64)
                    w1[j] = m - 1
                    drive = step * (m - 1) * (1 << d)
                    r1 = np.mean([
                        float(mdpu.phase(x, w1, drive_scale, trim_phase))
                        + (rng.normal(0.0, measurement_noise)
                           if measurement_noise > 0.0 else 0.0)
                        for _ in range(repeats)
                    ])
                    r1 = float(_wrap_to_pi(r1 - drive % TWO_PI))
                    probes += repeats
                    drive_scale = drive_scale.copy()
                    drive_scale[j, d] /= 1.0 + r1 / drive
    else:
        # One shared voltage knob per MMU: correct the drive-weighted
        # mean gain, leave additive offsets uncorrected.
        weights = np.asarray([1 << d for d in range(digits)], dtype=np.float64)
        mean_gain = (gains * weights).sum(axis=1) / weights.sum()
        drive_scale = np.repeat(
            (1.0 / np.clip(mean_gain, 0.1, 10.0))[:, None], digits, axis=1
        )
        trim_phase = np.zeros((g, digits))
    return CalibrationTable(drive_scale, trim_phase, mode, probes)


class CalibratedMDPU:
    """A fabricated MDPU operated through its calibration table."""

    def __init__(self, mdpu: VariedMDPU, table: CalibrationTable):
        if table.drive_scale.shape != (mdpu.g, mdpu.digits):
            raise ValueError(
                f"table shape {table.drive_scale.shape} does not match "
                f"MDPU ({mdpu.g}, {mdpu.digits})"
            )
        self.mdpu = mdpu
        self.table = table

    def dot(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Corrected modular dot product."""
        phase = self.mdpu.phase(
            x, w,
            drive_scale=self.table.drive_scale,
            trim_phase=self.table.trim_phase,
        )
        return phase_to_level(phase, self.mdpu.modulus)

    def exact(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.mdpu.exact(x, w)


def calibration_error_rates(
    modulus: int,
    g: int,
    variation: Optional[VariationModel] = None,
    trials: int = 300,
    measurement_noise: float = 0.002,
    seed: int = 0,
) -> Dict[str, float]:
    """Residue error rates before and after calibration.

    Returns ``{"uncalibrated", "per_mmu", "per_digit"}`` fractions of
    modular dot products decided wrongly, for one fabricated instance
    with deliberately coarse imperfections (so the uncalibrated rate is
    visible) unless ``variation`` overrides them.
    """
    if variation is None:
        variation = VariationModel(
            dac_bits=8, mrr_rel_error=0.01, ps_rel_bias_std=0.02, seed=seed
        )
    mdpu = VariedMDPU(modulus, g, variation)
    rng = np.random.default_rng(seed + 1)
    x = rng.integers(0, modulus, size=(trials, g))
    w = rng.integers(0, modulus, size=(trials, g))
    want = mdpu.exact(x, w)

    rates = {"uncalibrated": float(np.mean(mdpu.dot(x, w) != want))}
    for mode in ("per_mmu", "per_digit"):
        table = characterize(mdpu, mode=mode,
                             measurement_noise=measurement_noise,
                             seed=seed + 2)
        corrected = CalibratedMDPU(mdpu, table)
        rates[mode] = float(np.mean(corrected.dot(x, w) != want))
    return rates
