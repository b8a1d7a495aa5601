"""Geometry, electrical drive and loss models for the photonic devices.

The modular multiplier encodes one operand in the voltage applied to a
digit-sliced bank of phase shifters and the other operand in which digits
the light traverses (MRR-routed).  This module captures the device-level
relations used throughout the paper:

* Eq. (9): ``ΔΦ = V L / (Vπ·L)`` — phase is proportional to voltage times
  length.
* Eq. (11): ``L_total = (Vπ·L / V_bias) * (ΔΦ_max / π)`` — the shifter
  length needed to reach the worst-case phase at full bias.
* per-digit lengths ``2^d * L_unit`` for bit-weighted modular products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from . import constants as C

__all__ = ["PhaseShifterBank", "MMUGeometry", "max_phase_shift"]


def max_phase_shift(modulus: int) -> float:
    """Worst-case phase an MMU must reach: ``ceil((m-1)^2 / 2) * 2π/m``.

    Residues mapped around zero span ``[-(m-1)/2, (m-1)/2]``; the largest
    |x*w| is ``ceil((m-1)^2 / 2)`` and each unit corresponds to ``2π/m``.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return math.ceil((modulus - 1) ** 2 / 2) * 2.0 * math.pi / modulus


@dataclass(frozen=True)
class PhaseShifterBank:
    """The digit-sliced phase shifter bank of one MMU.

    Parameters
    ----------
    modulus:
        The modulus ``m`` this MMU computes under.
    v_pi_l, v_bias, loss_db_per_m:
        Device metrics (defaults: paper values).
    """

    modulus: int
    v_pi_l: float = C.V_PI_L
    v_bias: float = C.V_BIAS
    loss_db_per_m: float = C.PHASE_SHIFTER_LOSS_DB_PER_M

    @property
    def digits(self) -> int:
        """Number of binary digits: ``ceil(log2(m))``."""
        return max(1, math.ceil(math.log2(self.modulus)))

    @property
    def total_length(self) -> float:
        """Eq. (11): total shifter length in metres."""
        return (self.v_pi_l / self.v_bias) * max_phase_shift(self.modulus) / math.pi

    @property
    def unit_length(self) -> float:
        """Length of the LSB segment; digit ``d`` has ``2^d`` units."""
        return self.total_length / (2**self.digits - 1)

    def digit_lengths(self) -> List[float]:
        """Lengths of all segments from LSB to MSB."""
        return [self.unit_length * (1 << d) for d in range(self.digits)]


@dataclass(frozen=True)
class MMUGeometry:
    """Floorplan and loss budget of one modular multiplication unit.

    The MMU comprises the shifter bank plus two MRR switches per digit
    (route-in and route-out) and two 180° bends.
    """

    bank: PhaseShifterBank
    mrr_coupled_loss_db: float = C.EFFECTIVE_BYPASS_LOSS_DB
    mrr_through_loss_db: float = C.MRR_THROUGH_LOSS_DB
    bend_loss_db: float = C.BEND_LOSS_DB

    @property
    def mrr_count(self) -> int:
        """Two MRR switches per digit."""
        return 2 * self.bank.digits

    @property
    def horizontal_length(self) -> float:
        """Shifters laid end to end plus the MRR footprints (paper: 0.8 mm
        for the largest modulus of the k=5 set)."""
        return self.bank.total_length + self.mrr_count * C.MRR_DIAMETER

    def loss_db(self, duty: float = C.AVERAGE_INPUT_DUTY) -> float:
        """Expected per-MMU loss for an input bit density ``duty``.

        A set digit routes through its shifter segment (propagation loss)
        past two detuned MRRs; a cleared digit couples through both MRRs of
        the bypass path.
        """
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must be in [0,1], got {duty}")
        set_loss = 0.0
        clear_loss = 0.0
        for length in self.bank.digit_lengths():
            set_loss += self.bank.loss_db_per_m * length + 2 * self.mrr_through_loss_db
            # The 0.2 dB figure from Ohno et al. is the total loss of one
            # switching event (coupling in and out of the ring pair), so a
            # bypassed digit costs one coupled-loss unit, not two.
            clear_loss += self.mrr_coupled_loss_db
        per_digit = duty * set_loss + (1 - duty) * clear_loss
        return per_digit + 2 * self.bend_loss_db
