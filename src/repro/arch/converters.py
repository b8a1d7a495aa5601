"""Data-converter energy models (Fig. 1b; Murmann [40]).

ADC energy per conversion follows the two-regime Murmann picture:

* low/medium resolution — technology (Walden) limited, ``E ∝ 2^b``;
* high resolution — thermal-noise (Schreier) limited, ``E ∝ 4^b``
  (the paper's "roughly 4x higher energy per conversion for each
  additional bit").

The Walden coefficient is calibrated to the paper's cited 6-bit / 24 GS/s
part (23 mW → ≈0.96 pJ/conversion, Xu et al. [66]); the thermal
coefficient is calibrated so a 16-bit conversion costs ≈1 nJ — the paper's
"a single A-to-D conversion would require >= 1 nJ" example.  DACs are two
orders of magnitude cheaper at equal resolution (Fig. 1b), calibrated to
the 6-bit / 20 GS/s part of Kim et al. [32] with capacitive ``E ∝ 2^b``
scaling.
"""

from __future__ import annotations

__all__ = [
    "adc_energy_per_conversion",
    "dac_energy_per_conversion",
    "fig1b_series",
]

# 6-bit, 24 GS/s, 23 mW -> 23e-3 / 24e9 J per conversion.
_ADC_6BIT_ENERGY = 23e-3 / 24e9
_ADC_WALDEN_COEFF = _ADC_6BIT_ENERGY / 2**6  # ~15 fJ per conversion-step
# 16-bit conversion ~1 nJ in the thermal regime.
_ADC_THERMAL_COEFF = 1e-9 / 4**16

# 6-bit, 20 GS/s, 136 mW DAC -> 6.8 pJ/conv; but that part drives a 50-ohm
# link.  On-chip capacitive DACs sit ~2 orders below the ADC curve
# (Fig. 1b): calibrate at 6 bits to 1/100 of the ADC energy.
_DAC_6BIT_ENERGY = _ADC_6BIT_ENERGY / 100.0
_DAC_COEFF = _DAC_6BIT_ENERGY / 2**6


def adc_energy_per_conversion(bits: int) -> float:
    """Energy (J) of one A-to-D conversion at ``bits`` resolution."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    walden = _ADC_WALDEN_COEFF * 2**bits
    thermal = _ADC_THERMAL_COEFF * 4**bits
    return max(walden, thermal)


def dac_energy_per_conversion(bits: int) -> float:
    """Energy (J) of one D-to-A conversion at ``bits`` resolution."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return _DAC_COEFF * 2**bits


def fig1b_series(max_bits: int = 16):
    """(bits, E_ADC, E_DAC) rows reproducing the Fig. 1b curves."""
    rows = []
    for b in range(1, max_bits + 1):
        rows.append((b, adc_energy_per_conversion(b), dac_energy_per_conversion(b)))
    return rows
