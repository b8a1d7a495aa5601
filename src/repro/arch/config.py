"""Accelerator configurations.

Defaults reproduce the paper's chosen design point (Section VI-A): eight
RNS-MMVMUs, each holding three 16x32 MMVMUs (one per modulus of the
``{2^k-1, 2^k, 2^k+1}`` set with ``k = 5``), a 10 GHz photonic clock, a
1 GHz digital clock with 10-way interleaving, and a 5 ns phase-shifter
reprogramming time per tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..rns.moduli import ModuliSet, special_moduli_set

__all__ = ["MirageConfig", "SystolicConfig", "DataFormat", "TABLE_II_FORMATS"]


@dataclass(frozen=True)
class MirageConfig:
    """Architecture parameters of a Mirage instance.

    Attributes
    ----------
    num_arrays:
        Number of RNS-MMVMUs.
    v:
        MDPUs per MMVMU (vertical size — output rows per tile).
    g:
        MMUs per MDPU (horizontal size — dot-product length / BFP group).
    k:
        Special-moduli parameter; moduli are ``{2^k-1, 2^k, 2^k+1}``.
    bm:
        BFP mantissa bits.
    photonic_clock_hz / digital_clock_hz:
        Clock rates; ``interleave_factor`` digital copies bridge the gap.
    reprogram_time_s:
        Phase-shifter settle time per weight-tile load (5 ns).
    sram_bytes:
        Per-type on-chip SRAM (three arrays: activations/weights/gradients).
    """

    num_arrays: int = 8
    v: int = 32
    g: int = 16
    k: int = 5
    bm: int = 4
    photonic_clock_hz: float = 10e9
    digital_clock_hz: float = 1e9
    interleave_factor: int = 10
    reprogram_time_s: float = 5e-9
    sram_bytes: int = 8 * 2**20
    dac_bits_override: int = 0  # 0 = derive from moduli (Sec. VI-E uses 8)

    @property
    def moduli(self) -> ModuliSet:
        return special_moduli_set(self.k)

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.photonic_clock_hz

    @property
    def macs_per_cycle(self) -> int:
        """Logical (full-precision) MACs per photonic cycle."""
        return self.num_arrays * self.v * self.g

    @property
    def peak_macs_per_s(self) -> float:
        return self.macs_per_cycle * self.photonic_clock_hz

    @property
    def residue_bits(self) -> Tuple[int, ...]:
        return self.moduli.residue_bits()

    @property
    def dac_bits(self) -> Tuple[int, ...]:
        if self.dac_bits_override:
            return tuple(self.dac_bits_override for _ in self.moduli)
        return self.residue_bits

    def validate_bfp(self) -> bool:
        """Eq. 13 check for the configured ``(bm, g, k)``."""
        return self.moduli.supports_bfp(self.bm, self.g)


@dataclass(frozen=True)
class DataFormat:
    """A MAC-unit implementation point for the systolic baseline (Table II).

    ``energy_per_mac`` in J, ``area_per_mac`` in m², ``clock_hz`` in Hz.
    ``trains_accurately`` marks formats meeting the paper's accuracy bar
    (INT8 does not).
    """

    name: str
    energy_per_mac: float
    area_per_mac: float
    clock_hz: float
    trains_accurately: bool = True


# Table II constants (paper; synthesis at TSMC 40 nm, FMAC from [69]).
_MM2 = 1e-6  # mm^2 in m^2
TABLE_II_FORMATS = {
    "FP32": DataFormat("FP32", 12.42e-12, 9.6e-3 * _MM2, 500e6),
    "BFLOAT16": DataFormat("BFLOAT16", 3.20e-12, 3.5e-3 * _MM2, 500e6),
    "HFP8": DataFormat("HFP8", 1.47e-12, 1.4e-3 * _MM2, 500e6),
    "INT12": DataFormat("INT12", 0.71e-12, 7.7e-4 * _MM2, 1e9),
    "INT8": DataFormat("INT8", 0.42e-12, 4.1e-4 * _MM2, 1e9, trains_accurately=False),
    "FMAC": DataFormat("FMAC", 0.11e-12, float("nan"), 500e6),
}


@dataclass(frozen=True)
class SystolicConfig:
    """A systolic-array baseline: ``num_arrays`` arrays of ``rows x cols``
    MAC units running ``fmt``.

    The paper keeps the 16x32 array geometry fixed and scales the *number*
    of arrays for iso-energy / iso-area comparisons (Section VI-C).
    """

    fmt: DataFormat
    num_arrays: int = 8
    rows: int = 32
    cols: int = 16

    @property
    def macs_per_cycle(self) -> int:
        return self.num_arrays * self.rows * self.cols

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.fmt.clock_hz

    @property
    def peak_macs_per_s(self) -> float:
        return self.macs_per_cycle * self.fmt.clock_hz
