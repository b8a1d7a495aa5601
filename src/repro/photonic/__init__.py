"""Photonic device substrate: MMU/MDPU/MMVMU functional models, loss and
noise physics, encoding-error analysis."""

from . import constants
from .calibration import (
    CalibratedMDPU,
    CalibrationTable,
    calibration_error_rates,
    characterize,
)
from .crosstalk import (
    FREE_CARRIER,
    NOEMS,
    TECHNOLOGIES,
    THERMO_OPTIC,
    DeviceTechnology,
    coupling_matrix,
    crosstalk_error_rate,
    mmu_length_for,
    technology_comparison,
)
from .detection import PhaseDetector, quantize_adc
from .devices import MMUGeometry, PhaseShifterBank, max_phase_shift
from .errors import (
    mdpu_output_error,
    min_dac_bits,
    mrr_error,
    output_error_bound,
    phase_shifter_error,
)
from .mdpu import MDPU, MMVMU, NoiseModel, RnsMMVMU
from .mmu import MMU, phase_to_level, wrap_phase
from .variation import VariationModel, VariedMDPU, encoding_error_rate
from .noise import (
    OpticalPathBudget,
    laser_power_for_modulus,
    required_photocurrent,
    shot_noise_std,
    thermal_noise_std,
    total_noise_std,
)

__all__ = [
    "constants",
    "PhaseShifterBank",
    "MMUGeometry",
    "max_phase_shift",
    "MMU",
    "wrap_phase",
    "phase_to_level",
    "PhaseDetector",
    "quantize_adc",
    "MDPU",
    "MMVMU",
    "RnsMMVMU",
    "NoiseModel",
    "shot_noise_std",
    "thermal_noise_std",
    "total_noise_std",
    "required_photocurrent",
    "OpticalPathBudget",
    "laser_power_for_modulus",
    "mdpu_output_error",
    "min_dac_bits",
    "phase_shifter_error",
    "mrr_error",
    "output_error_bound",
    "VariationModel",
    "VariedMDPU",
    "encoding_error_rate",
    "CalibrationTable",
    "characterize",
    "CalibratedMDPU",
    "calibration_error_rates",
    "DeviceTechnology",
    "THERMO_OPTIC",
    "FREE_CARRIER",
    "NOEMS",
    "TECHNOLOGIES",
    "coupling_matrix",
    "crosstalk_error_rate",
    "mmu_length_for",
    "technology_comparison",
]
