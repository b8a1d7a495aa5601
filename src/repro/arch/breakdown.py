"""Fig. 9 power and area breakdowns with pretty aggregation."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .area import area_breakdown, mirage_footprint_area
from .config import MirageConfig
from .energy import EnergyParams, peak_power_breakdown

__all__ = ["power_pie", "area_pie", "PAPER_POWER_SHARES", "PAPER_AREA_SHARES"]

# Fig. 9 percentages as printed in the paper (for shape validation).
PAPER_POWER_SHARES = {
    "laser": 14.4,
    "bfp_conversion": 0.5,
    "rns_conversion": 6.2,
    "sram": 61.9,
    "accumulator": 1.4,
    "tia": 14.4,
    "dac_adc": 1.1,
}
PAPER_AREA_SHARES = {
    "photonic": 49.1,
    "sram": 36.0,
    "adc": 9.7,
    "dac": 4.0,
    "others": 1.2,
}
PAPER_TOTAL_POWER_W = 19.95
PAPER_TOTAL_AREA_MM2 = 476.6


def power_pie(
    config: Optional[MirageConfig] = None,
    params: Optional[EnergyParams] = None,
) -> Tuple[float, Dict[str, float]]:
    """(total W, {component: percent}) matching the Fig. 9 left pie."""
    config = config or MirageConfig()
    parts = peak_power_breakdown(config, params or EnergyParams())
    # Merge the negligible MRR tuning into the laser slice, as the paper
    # groups photonic supply power.
    merged = dict(parts)
    merged["laser"] = merged.pop("laser") + merged.pop("mrr_tuning")
    total = sum(merged.values())
    return total, {k: 100.0 * v / total for k, v in merged.items()}


def area_pie(
    config: Optional[MirageConfig] = None,
) -> Tuple[float, float, Dict[str, float]]:
    """(total mm², footprint mm², {component: percent}) — Fig. 9 right."""
    config = config or MirageConfig()
    parts = area_breakdown(config)
    total = sum(parts.values())
    shares = {k: 100.0 * v / total for k, v in parts.items()}
    shares["others"] = shares.pop("digital_conversion")
    return (
        total / 1e-6,
        mirage_footprint_area(config) / 1e-6,
        shares,
    )
