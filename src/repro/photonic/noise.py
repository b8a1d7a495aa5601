"""Analog noise models and laser-power sizing (Section II-E2 / V-B1).

Shot noise (Eq. 6) and thermal noise (Eq. 7) set the current-domain noise
floor at the balanced detectors.  To resolve ``m`` phase levels the
amplitude SNR at the detector must exceed ``m`` (Section V-B1: "SNR > m"),
so the required photocurrent — and from it, walking the loss budget
backwards, the laser wall-plug power — follows from the moduli and the
optical path length (which grows with the dot-product length ``g``).

The exponential loss-vs-``g`` dependence produced here is what turns the
energy-per-MAC curve of Fig. 5b upward at large group sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants as C
from .devices import MMUGeometry, PhaseShifterBank

__all__ = [
    "shot_noise_std",
    "thermal_noise_std",
    "total_noise_std",
    "required_photocurrent",
    "OpticalPathBudget",
    "laser_power_for_modulus",
]


def shot_noise_std(photocurrent: float, bandwidth: float = C.DETECTION_BANDWIDTH_HZ) -> float:
    """Eq. (6): ``σ_shot = sqrt(2 q I Δf)`` (A)."""
    if photocurrent < 0:
        raise ValueError("photocurrent must be non-negative")
    return math.sqrt(2.0 * C.ELEMENTARY_CHARGE * photocurrent * bandwidth)


def thermal_noise_std(
    resistance: float = C.TIA_FEEDBACK_RESISTOR,
    temperature: float = C.TEMPERATURE,
    bandwidth: float = C.DETECTION_BANDWIDTH_HZ,
) -> float:
    """Eq. (7): ``σ_thermal = sqrt(4 k_B T Δf / R)`` (A)."""
    return math.sqrt(4.0 * C.BOLTZMANN * temperature * bandwidth / resistance)


def total_noise_std(photocurrent: float, **kwargs) -> float:
    """Shot and thermal noise added in quadrature."""
    bandwidth = kwargs.get("bandwidth", C.DETECTION_BANDWIDTH_HZ)
    resistance = kwargs.get("resistance", C.TIA_FEEDBACK_RESISTOR)
    temperature = kwargs.get("temperature", C.TEMPERATURE)
    s = shot_noise_std(photocurrent, bandwidth)
    t = thermal_noise_std(resistance, temperature, bandwidth)
    return math.hypot(s, t)


def required_photocurrent(
    snr_target: float,
    bandwidth: float = C.DETECTION_BANDWIDTH_HZ,
    resistance: float = C.TIA_FEEDBACK_RESISTOR,
    temperature: float = C.TEMPERATURE,
    iterations: int = 20,
) -> float:
    """Smallest photocurrent with amplitude SNR >= ``snr_target``.

    SNR depends on the current through the shot-noise term, so solve
    ``I = snr * σ(I)`` by fixed-point iteration (converges in a few
    rounds because shot noise grows only as sqrt(I)).
    """
    if snr_target <= 0:
        raise ValueError("snr_target must be positive")
    current = snr_target * thermal_noise_std(resistance, temperature, bandwidth)
    for _ in range(iterations):
        sigma = total_noise_std(
            current,
            bandwidth=bandwidth,
            resistance=resistance,
            temperature=temperature,
        )
        current = snr_target * sigma
    return current


@dataclass
class OpticalPathBudget:
    """End-to-end loss of one MDPU optical path.

    The path: laser -> chip coupler -> ``g`` cascaded MMUs -> 50/50 I/Q
    split -> balanced detectors.

    Parameters
    ----------
    modulus:
        Modulus of the MMVMU this path belongs to.
    g:
        Number of cascaded MMUs (dot-product length).
    duty:
        Average fraction of input digits set (loss averaging).
    """

    modulus: int
    g: int
    duty: float = C.AVERAGE_INPUT_DUTY

    def __post_init__(self):
        self.geometry = MMUGeometry(PhaseShifterBank(self.modulus))

    def mmu_loss_db(self) -> float:
        return self.geometry.loss_db(self.duty)

    def total_loss_db(self) -> float:
        """Coupler + g MMUs + I/Q splitter + detection overhead."""
        return (
            C.COUPLER_LOSS_DB
            + self.g * self.mmu_loss_db()
            + C.SPLITTER_LOSS_DB
            + C.DETECTION_OVERHEAD_DB
        )

    def linear_loss(self) -> float:
        return C.db_to_linear(self.total_loss_db())


def laser_power_for_modulus(
    modulus: int,
    g: int,
    duty: float = C.AVERAGE_INPUT_DUTY,
    snr_margin: float = C.SNR_MARGIN,
    responsivity: float = C.PHOTODETECTOR_RESPONSIVITY,
    laser_efficiency: float = C.LASER_WALL_PLUG_EFFICIENCY,
    dual_detection: bool = True,
) -> float:
    """Wall-plug laser power (W) for ONE MDPU optical path.

    Back-calculation (Section V-B1): target amplitude SNR is
    ``margin * m``; the photocurrent it implies, divided by responsivity,
    gives the optical power needed at the detector; multiplying by the
    linear path loss and dividing by the laser efficiency gives wall-plug
    power.  Dual detection (I and Q) doubles the injected power.
    """
    snr = snr_margin * modulus
    current = required_photocurrent(snr)
    power_at_detector = current / responsivity
    budget = OpticalPathBudget(modulus, g, duty)
    optical_at_laser = power_at_detector * budget.linear_loss()
    if dual_detection:
        optical_at_laser *= 2.0
    return optical_at_laser / laser_efficiency
