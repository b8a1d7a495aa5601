"""Area model (Fig. 9 right; Section VI-C).

The photonic chiplet holds the MMU arrays (phase shifters + MRR switches +
detection); the electronic chiplet holds SRAM, data converters and the
digital conversion circuitry.  3D integration stacks the two, so the
package footprint is the larger of the pair — the paper quotes 234 mm²
photonic, 242.7 mm² electronic, 476.6 mm² combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..photonic.devices import MMUGeometry, PhaseShifterBank
from .config import MirageConfig

__all__ = ["area_breakdown", "mirage_total_area", "mirage_footprint_area",
           "MM2", "AreaParams"]

MM2 = 1e-6  # m^2 per mm^2

# Converter areas (Section V-B2).
DAC_AREA = 0.072 * MM2  # 6-bit 20 GS/s DAC [32]
ADC_AREA = 0.03 * MM2  # 6-bit 24 GS/s ADC [66]
BFP_UNIT_AREA = 1318.4e-12  # m^2 per FP-BFP unit
FWD_RNS_UNIT_AREA = 231.7e-12  # m^2 per BNS-RNS unit
REV_RNS_UNIT_AREA = 1545.8e-12  # m^2 per RNS-BNS unit
# SRAM macro density, calibrated to Fig. 9 (36% of 476.6 mm^2 for 24 MB).
SRAM_AREA_PER_BYTE = 171.6 * MM2 / (24 * 2**20)
# Waveguide row pitch on the photonic chiplet (MRR diameter + clearance),
# calibrated so the default config lands on the paper's 234 mm^2.
ROW_PITCH = 23.5e-6


@dataclass(frozen=True)
class AreaParams:
    row_pitch: float = ROW_PITCH
    dac_per_mdpu: bool = True  # one weight DAC per MDPU (time-shared per tile)


def area_breakdown(config: MirageConfig, params: AreaParams = AreaParams()) -> Dict[str, float]:
    """Component areas (m²) for a Mirage instance."""
    arrays, v, g = config.num_arrays, config.v, config.g
    mset = config.moduli

    photonic = 0.0
    adc_count = 0
    for m in mset.moduli:
        geom = MMUGeometry(PhaseShifterBank(m))
        # One MMVMU: v rows of g MMUs laid on the row pitch.
        photonic += arrays * v * g * geom.horizontal_length * params.row_pitch
        adc_count += arrays * v * 2  # I and Q per MDPU
    # One weight DAC per MDPU, time-shared across moduli and the g columns
    # during the 5 ns reprogram window (matches the paper's ~4% DAC share).
    dac_count = arrays * (v if params.dac_per_mdpu else v * g)
    # Interleaved digital circuitry (Section IV-C): 10 copies per array.
    copies = arrays * config.interleave_factor
    bfp_area = copies * BFP_UNIT_AREA
    rns_area = copies * (FWD_RNS_UNIT_AREA + REV_RNS_UNIT_AREA)
    sram = 3 * config.sram_bytes * SRAM_AREA_PER_BYTE

    return {
        "photonic": photonic,
        "adc": adc_count * ADC_AREA,
        "dac": dac_count * DAC_AREA,
        "sram": sram,
        "digital_conversion": bfp_area + rns_area,
    }


def mirage_total_area(config: MirageConfig, params: AreaParams = AreaParams()) -> float:
    """Sum of all component areas (the paper's 476.6 mm² figure)."""
    return sum(area_breakdown(config, params).values())


def mirage_footprint_area(config: MirageConfig, params: AreaParams = AreaParams()) -> float:
    """Package footprint under 3D stacking: max(photonic, electronic)."""
    parts = area_breakdown(config, params)
    photonic = parts["photonic"]
    electronic = sum(v for k, v in parts.items() if k != "photonic")
    return max(photonic, electronic)
