"""Architectural cost of Redundant RNS protection (Section VI-E).

The paper closes its noise discussion with: *"Adding redundant moduli to
the set increases the power and area roughly linearly with the number of
moduli as the number of components scales linearly with the number of
moduli, while throughput stays the same."*  This module prices that
statement against our own power/area models: every redundant modulus
adds one MMVMU per RNS-MMVMU array (its lasers, MRRs, TIAs, ADCs and
RNS-converter slice) while the SRAM, BFP conversion and accumulator
sides are untouched, and the added MMVMUs work in parallel so the
latency of every GEMM is unchanged.

* :func:`redundant_ladder` — pick ``r`` redundant moduli co-prime with
  the base special set (largest-first, so correction strength per added
  bit is maximal);
* :func:`rrns_overhead` — power/area/EDP ratios versus the unprotected
  design plus the error-correction capability bought;
* :func:`rrns_design_table` — one row per ``r`` (the Section VI-E
  trade study).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..photonic import constants as PC
from ..photonic.noise import laser_power_for_modulus
from ..rns.moduli import pairwise_coprime
from ..rns.rrns import RRNSCodec
from .area import area_breakdown
from .config import MirageConfig
from .converters import adc_energy_per_conversion
from .energy import EnergyParams, peak_power_breakdown

__all__ = [
    "redundant_ladder",
    "RrnsOverhead",
    "rrns_overhead",
    "rrns_design_table",
]


def redundant_ladder(config: MirageConfig, r: int) -> Tuple[int, ...]:
    """``r`` redundant moduli for the configured special set.

    RRNS error correction needs every redundant modulus to exceed the
    information moduli (so any corrupted legal value stays inside the
    redundant range); we walk upward from ``2^k + 1`` keeping pairwise
    co-primality.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    base = list(config.moduli.moduli)
    chosen: List[int] = []
    candidate = max(base) + 1
    while len(chosen) < r:
        if pairwise_coprime(base + chosen + [candidate]):
            chosen.append(candidate)
        candidate += 1
    return tuple(chosen)


def _per_modulus_power(config: MirageConfig, moduli: Sequence[int],
                       params: EnergyParams) -> float:
    """Power (W) of the modulus-proportional components for ``moduli``.

    Mirrors the per-modulus loop of
    :func:`repro.arch.energy.peak_power_breakdown`: lasers, MRR tuning,
    TIAs and ADCs, plus the per-channel share of the RNS converters.
    """
    v, g, arrays = config.v, config.g, config.num_arrays
    rate = config.photonic_clock_hz
    total = 0.0
    for m in moduli:
        bits = max(1, math.ceil(math.log2(m)))
        total += (
            laser_power_for_modulus(m, g, duty=params.duty,
                                    snr_margin=params.snr_margin)
            * v * arrays
        )
        total += 2 * v * arrays * adc_energy_per_conversion(bits) \
            * params.adc_energy_scale * rate
        total += v * arrays * PC.TIA_ENERGY_PER_BIT * bits * rate
        total += v * g * arrays * PC.MRR_SWITCH_POWER * 2 * bits
    return total


@dataclass(frozen=True)
class RrnsOverhead:
    """Cost/benefit of ``r`` redundant moduli on one Mirage instance."""

    r: int
    redundant_moduli: Tuple[int, ...]
    power_ratio: float
    area_ratio: float
    detectable_errors: int
    correctable_errors: int

    @property
    def edp_ratio(self) -> float:
        """Throughput is unchanged, so EDP scales with power alone."""
        return self.power_ratio

    @property
    def throughput_ratio(self) -> float:
        return 1.0


def rrns_overhead(
    config: Optional[MirageConfig] = None,
    r: int = 1,
    params: EnergyParams = EnergyParams(),
) -> RrnsOverhead:
    """Price ``r`` redundant moduli against the unprotected design."""
    config = config or MirageConfig()
    redundant = redundant_ladder(config, r)
    base_moduli = config.moduli.moduli

    base_power = sum(peak_power_breakdown(config, params).values())
    extra_power = _per_modulus_power(config, redundant, params)
    # The RNS reverse converter grows with the channel count.
    rns_share = peak_power_breakdown(config, params)["rns_conversion"]
    extra_power += rns_share * r / len(base_moduli)

    areas = area_breakdown(config)
    base_area = sum(areas.values())
    # Photonic area and ADCs scale per modulus; one extra reverse-
    # converter slice per added channel.
    per_modulus_area = (areas["photonic"] + areas["adc"]) / len(base_moduli)
    extra_area = per_modulus_area * r \
        + areas["digital_conversion"] * r / len(base_moduli)

    codec = RRNSCodec(base_moduli, redundant) if r else None
    return RrnsOverhead(
        r=r,
        redundant_moduli=redundant,
        power_ratio=(base_power + extra_power) / base_power,
        area_ratio=(base_area + extra_area) / base_area,
        detectable_errors=r,
        correctable_errors=codec.max_correctable() if codec else 0,
    )


def rrns_design_table(
    config: Optional[MirageConfig] = None,
    r_values: Sequence[int] = (0, 1, 2, 3, 4),
) -> List[RrnsOverhead]:
    """The Section VI-E trade study: protection vs power/area, per ``r``."""
    config = config or MirageConfig()
    return [rrns_overhead(config, r) for r in r_values]
