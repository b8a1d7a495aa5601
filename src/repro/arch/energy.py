"""Component-level energy/power model for Mirage.

Accounts for every component of Fig. 9 / Table II / Fig. 5b: lasers, MRR
tuning, TIAs, DACs/ADCs, FP↔BFP and BNS↔RNS converters, FP32 accumulators
and SRAM.  Constants cited in the paper are used directly; constants the
paper leaves implicit are module-level calibration values, each documented
in place and probed by the ablation benches.

Two views of the same model:

* :func:`mac_energy_breakdown` — pJ/MAC of the *compute path* (what Table
  II and Fig. 5b report; excludes SRAM, like the paper's Table II),
  parameterised by ``(bm, g)`` so the Fig. 5b sweep falls out.
* :func:`peak_power_breakdown` — whole-accelerator peak power including
  SRAM (the Fig. 9 pie).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..photonic import constants as PC
from ..photonic.noise import laser_power_for_modulus
from ..rns.moduli import choose_k_min, special_moduli_set
from .config import MirageConfig
from .converters import adc_energy_per_conversion, dac_energy_per_conversion

__all__ = [
    "EnergyParams",
    "mac_energy_breakdown",
    "mirage_energy_per_mac",
    "peak_power_breakdown",
    "MirageEnergyModel",
]

# ----------------------------------------------------------------------
# Digital-unit constants (Section V-B2; RTL synthesis at TSMC 40 nm)
# ----------------------------------------------------------------------
BFP_CONVERSION_ENERGY = 1.32e-12  # J per FP<->BFP conversion
FWD_RNS_CONVERSION_ENERGY = 0.17e-12  # J per BNS->RNS conversion
REV_RNS_CONVERSION_ENERGY = 0.48e-12  # J per RNS->BNS conversion
ACCUMULATOR_ENERGY = 0.11e-12  # J per FP32 read-accumulate-write (calibrated
# to Fig. 9's 1.4% accumulator share; the paper does not state it directly)
SRAM_ENERGY_PER_ACCESS = 1.93e-12  # J per 32-bit access (calibrated to
# Fig. 9's 61.9% SRAM share for the stated access pattern; consistent with
# 32 kB banks at TSMC 40 nm)
TIA_ENERGY_PER_BIT = PC.TIA_ENERGY_PER_BIT

# The Fig. 9 breakdown (DAC & ADC = 1.1% of 19.95 W over ~1536 ADCs at
# 10 GS/s) implies an *effective* ~14 fJ/conversion at 6 bits — far below
# the 0.96 pJ/conversion of the cited stand-alone part.  We expose the
# discrepancy: `adc_energy_scale` defaults to the paper-implied effective
# value; the ablation bench re-runs the breakdown with the conservative
# part energy.
ADC_EFFECTIVE_SCALE = 0.015
# Input-side FP->BFP/BNS->RNS conversions are reused across the row tiles
# of a GEMM (the same input vector meets every weight-row tile), so their
# rate is divided by a typical reuse factor.
INPUT_CONVERSION_REUSE = 16.0


@dataclass(frozen=True)
class EnergyParams:
    """Tunable calibration knobs (defaults reproduce the paper)."""

    adc_energy_scale: float = ADC_EFFECTIVE_SCALE
    input_conversion_reuse: float = INPUT_CONVERSION_REUSE
    cycles_per_tile: float = 256.0  # DAC amortisation horizon (batch size)
    duty: float = PC.AVERAGE_INPUT_DUTY
    snr_margin: float = PC.SNR_MARGIN


def mac_energy_breakdown(
    bm: int,
    g: int,
    v: int = 32,
    k: Optional[int] = None,
    params: EnergyParams = EnergyParams(),
) -> Dict[str, float]:
    """Energy per logical MAC (J) by component, for a BFP/RNS design point.

    A *logical* MAC covers all ``n`` modular MACs (one per modulus).  This
    is the Fig. 5b quantity: lasers, MRR tuning, DACs/ADCs, TIAs, FP-BFP
    and RNS-BNS conversions (SRAM excluded, as in the paper's Table II).

    ``k`` defaults to the smallest special-set parameter satisfying Eq. 13
    for ``(bm, g)`` — the paper's k_min rule.
    """
    if k is None:
        k = choose_k_min(bm, g)
    mset = special_moduli_set(k)
    if not mset.supports_bfp(bm, g):
        raise ValueError(f"k={k} violates Eq. 13 for bm={bm}, g={g}")
    cycle = 1.0 / PC.PHOTONIC_CLOCK_HZ
    macs_per_mdpu_cycle = float(g)

    laser = 0.0
    adc = 0.0
    tia = 0.0
    dac = 0.0
    mrr = 0.0
    for m in mset.moduli:
        bits = max(1, math.ceil(math.log2(m)))
        # Laser power feeds one MDPU path; it performs g MACs per cycle.
        laser += (
            laser_power_for_modulus(m, g, duty=params.duty, snr_margin=params.snr_margin)
            * cycle
            / macs_per_mdpu_cycle
        )
        # Two I/Q conversions per MDPU output per cycle.
        adc += 2 * adc_energy_per_conversion(bits) * params.adc_energy_scale / g
        # One balanced TIA drives each output conversion; the 57 fJ/bit
        # figure is charged per output bit (I/Q splitting shares the pair).
        tia += TIA_ENERGY_PER_BIT * bits / g
        # One weight DAC load per MMU per tile, amortised over the tile's
        # stream cycles; each MMU does one MAC per cycle.
        dac += dac_energy_per_conversion(bits) / params.cycles_per_tile
        # MRR switching energy: 2*bits rings per MMU.
        mrr += PC.MRR_SWITCH_POWER * cycle * 2 * bits
    # Digital conversions (per logical value, not per modulus):
    # input-side FP->BFP + BNS->RNS, reused across v rows and row tiles.
    # The output-side BFP->FP reconstruction (Fig. 2 step 8) is an exponent
    # add folded into the FP32 accumulator cost.
    bfp = BFP_CONVERSION_ENERGY / (v * params.input_conversion_reuse)
    fwd_rns = FWD_RNS_CONVERSION_ENERGY / (v * params.input_conversion_reuse)
    rev_rns = REV_RNS_CONVERSION_ENERGY / g
    acc = ACCUMULATOR_ENERGY / g
    return {
        "laser": laser,
        "adc": adc,
        "dac": dac,
        "tia": tia,
        "mrr_tuning": mrr,
        "bfp_conversion": bfp,
        "rns_conversion": fwd_rns + rev_rns,
        "accumulator": acc,
    }


def mirage_energy_per_mac(
    config: MirageConfig, params: EnergyParams = EnergyParams()
) -> float:
    """Total compute-path energy per logical MAC (J) — the Table II entry."""
    parts = mac_energy_breakdown(config.bm, config.g, config.v, config.k, params)
    return sum(parts.values())


# ----------------------------------------------------------------------
# Whole-accelerator peak power (Fig. 9)
# ----------------------------------------------------------------------
def peak_power_breakdown(
    config: MirageConfig, params: EnergyParams = EnergyParams()
) -> Dict[str, float]:
    """Peak power (W) by component for a full Mirage instance.

    SRAM traffic per photonic cycle per RNS-MMVMU: ``g`` FP32 input reads
    plus ``2 v`` FP32 partial-output read+write (the read-accumulate-write
    of Fig. 2 step 9); weight reads are amortised over tiles.
    """
    mset = config.moduli
    cycle = config.cycle_time_s
    arrays = config.num_arrays
    v, g = config.v, config.g

    laser = sum(
        laser_power_for_modulus(m, g, duty=params.duty, snr_margin=params.snr_margin)
        for m in mset.moduli
    ) * v * arrays

    adc = tia = dac = mrr = 0.0
    rate = config.photonic_clock_hz
    for m in mset.moduli:
        bits = max(1, math.ceil(math.log2(m)))
        adc += 2 * v * arrays * adc_energy_per_conversion(bits) * params.adc_energy_scale * rate
        tia += v * arrays * TIA_ENERGY_PER_BIT * bits * rate
        dac += (
            v * g * arrays * dac_energy_per_conversion(bits)
            / (params.cycles_per_tile * cycle)
        )
        mrr += v * g * arrays * PC.MRR_SWITCH_POWER * 2 * bits

    values_per_s_in = g * arrays * rate / params.input_conversion_reuse
    values_per_s_out = v * arrays * rate
    bfp = BFP_CONVERSION_ENERGY * values_per_s_in
    rns = (
        FWD_RNS_CONVERSION_ENERGY * values_per_s_in
        + REV_RNS_CONVERSION_ENERGY * values_per_s_out
    )
    acc = ACCUMULATOR_ENERGY * values_per_s_out

    accesses_per_s = (g + 2 * v) * arrays * rate
    sram = SRAM_ENERGY_PER_ACCESS * accesses_per_s

    return {
        "laser": laser,
        "mrr_tuning": mrr,
        "tia": tia,
        "dac_adc": adc + dac,
        "bfp_conversion": bfp,
        "rns_conversion": rns,
        "accumulator": acc,
        "sram": sram,
    }


class MirageEnergyModel:
    """Convenience wrapper bundling config + params with cached totals."""

    def __init__(self, config: MirageConfig, params: EnergyParams = EnergyParams()):
        self.config = config
        self.params = params

    def energy_per_mac(self) -> float:
        return mirage_energy_per_mac(self.config, self.params)

    def peak_power(self) -> float:
        return sum(peak_power_breakdown(self.config, self.params).values())

    def power_breakdown(self) -> Dict[str, float]:
        return peak_power_breakdown(self.config, self.params)

    def step_energy(self, total_macs: int, runtime_s: float = 0.0,
                    include_sram: bool = False) -> float:
        """Energy of a training step.

        The default matches the paper's Fig. 8 accounting: compute-path
        energy (lasers, photonic devices, TIAs, converters, accumulators)
        for the useful MACs, with SRAM excluded — the systolic baseline is
        likewise charged for its MAC units only.  Pass
        ``include_sram=True`` (with the runtime) for whole-chip energy.
        """
        compute = self.energy_per_mac() * total_macs
        if include_sram:
            compute += self.power_breakdown()["sram"] * runtime_s
        return compute
