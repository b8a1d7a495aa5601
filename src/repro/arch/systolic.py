"""Systolic-array baseline and the iso-energy / iso-area scaling rules.

Following Section VI-C: the baseline's energy consists of its MAC units
only (a deliberately generous baseline); the array geometry stays 16x32 and
the *number* of arrays scales —

* **iso-energy**: the baseline gets as many MAC units as match Mirage's
  energy per (logical) MAC, i.e. ``N_sa = N_mirage * E_mirage / E_fmt``;
* **iso-area**: the baseline gets as many MAC units as fit in Mirage's
  total area, ``N_sa = A_mirage / a_fmt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .config import DataFormat, MirageConfig, SystolicConfig
from .dataflow import SYSTOLIC_DATAFLOWS
from .latency import step_latency, systolic_latency_fn
from .workloads import LayerShape, total_training_macs

__all__ = [
    "systolic_step_energy",
    "systolic_step_latency",
    "iso_energy_config",
    "iso_area_config",
    "SystolicResult",
    "evaluate_systolic",
]


def systolic_step_energy(layers: Sequence[LayerShape], fmt: DataFormat) -> float:
    """Energy (J) of one training step: MAC energy for the useful work."""
    return total_training_macs(layers) * fmt.energy_per_mac


def systolic_step_latency(
    layers: Sequence[LayerShape],
    config: SystolicConfig,
    policy: str = "OPT2",
) -> float:
    """Latency (s) of one training step under a scheduling policy."""
    return step_latency(
        layers, systolic_latency_fn(config), SYSTOLIC_DATAFLOWS, policy
    )


def _arrays_for_macs(target_macs: float, rows: int, cols: int) -> int:
    return max(1, round(target_macs / (rows * cols)))


def iso_energy_config(
    fmt: DataFormat,
    mirage: MirageConfig,
    mirage_energy_per_mac: float,
    rows: int = 32,
    cols: int = 16,
) -> SystolicConfig:
    """Baseline sized to the same energy per MAC operation as Mirage."""
    target = mirage.macs_per_cycle * (mirage_energy_per_mac / fmt.energy_per_mac)
    return SystolicConfig(fmt, _arrays_for_macs(target, rows, cols), rows, cols)


def iso_area_config(
    fmt: DataFormat,
    mirage_area: float,
    rows: int = 32,
    cols: int = 16,
) -> SystolicConfig:
    """Baseline sized to the same silicon area as Mirage."""
    if not (fmt.area_per_mac > 0):  # NaN (FMAC) or zero
        raise ValueError(f"format {fmt.name} has no published area per MAC")
    target = mirage_area / fmt.area_per_mac
    return SystolicConfig(fmt, _arrays_for_macs(target, rows, cols), rows, cols)


@dataclass(frozen=True)
class SystolicResult:
    """Training-step metrics of one baseline design point."""

    fmt: str
    num_arrays: int
    runtime_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        return self.runtime_s * self.energy_j

    @property
    def power_w(self) -> float:
        return self.energy_j / self.runtime_s


def evaluate_systolic(
    layers: Sequence[LayerShape],
    config: SystolicConfig,
    policy: str = "OPT2",
) -> SystolicResult:
    """Run the latency + energy models for one baseline configuration."""
    runtime = systolic_step_latency(layers, config, policy)
    energy = systolic_step_energy(layers, config.fmt)
    return SystolicResult(config.fmt.name, config.num_arrays, runtime, energy)
