"""Top-level Mirage accelerator model and the Fig. 8 comparison harness.

Combines the latency, energy and area models into training-step metrics
(runtime, energy, EDP, power) and runs the iso-energy and iso-area
comparisons against the systolic baselines of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .area import mirage_total_area
from .config import DataFormat, MirageConfig, TABLE_II_FORMATS
from .dataflow import MIRAGE_DATAFLOWS
from .energy import EnergyParams, MirageEnergyModel
from .latency import mirage_latency_fn, step_latency
from .systolic import evaluate_systolic, iso_area_config, iso_energy_config
from .workloads import LayerShape, total_training_macs, workload

__all__ = ["MirageResult", "MirageAccelerator", "ComparisonRow", "compare_workload"]


@dataclass(frozen=True)
class MirageResult:
    """Training-step metrics of a Mirage instance."""

    runtime_s: float
    energy_j: float
    area_m2: float

    @property
    def edp(self) -> float:
        return self.runtime_s * self.energy_j

    @property
    def power_w(self) -> float:
        return self.energy_j / self.runtime_s


class MirageAccelerator:
    """Facade over the architectural models for a single configuration."""

    def __init__(
        self,
        config: Optional[MirageConfig] = None,
        energy_params: Optional[EnergyParams] = None,
    ):
        self.config = config or MirageConfig()
        if not self.config.validate_bfp():
            raise ValueError(
                f"configuration violates Eq. 13: bm={self.config.bm}, "
                f"g={self.config.g}, k={self.config.k}"
            )
        self.energy_model = MirageEnergyModel(
            self.config, energy_params or EnergyParams()
        )

    # ------------------------------------------------------------------
    def step_latency(self, layers: Sequence[LayerShape], policy: str = "OPT2") -> float:
        """Seconds per training step (batch of the workload's batch size)."""
        return step_latency(
            layers, mirage_latency_fn(self.config), MIRAGE_DATAFLOWS, policy
        )

    def step_energy(self, layers: Sequence[LayerShape], runtime_s: float) -> float:
        return self.energy_model.step_energy(total_training_macs(layers), runtime_s)

    def evaluate(self, layers: Sequence[LayerShape], policy: str = "OPT2") -> MirageResult:
        runtime = self.step_latency(layers, policy)
        energy = self.step_energy(layers, runtime)
        return MirageResult(runtime, energy, mirage_total_area(self.config))

    # ------------------------------------------------------------------
    @property
    def energy_per_mac(self) -> float:
        return self.energy_model.energy_per_mac()

    @property
    def total_area(self) -> float:
        return mirage_total_area(self.config)


@dataclass(frozen=True)
class ComparisonRow:
    """Mirage-normalised metrics of one baseline in one scenario."""

    workload: str
    fmt: str
    scenario: str  # iso_energy | iso_area
    num_arrays: int
    runtime_ratio: float  # baseline / Mirage (>1 => Mirage faster)
    edp_ratio: float
    power_ratio: float


def compare_workload(
    name: str,
    accelerator: Optional[MirageAccelerator] = None,
    formats: Optional[Dict[str, DataFormat]] = None,
    policy: str = "OPT2",
) -> Dict[str, object]:
    """Run the full Fig. 8 comparison for one workload.

    Returns the Mirage result plus one :class:`ComparisonRow` per
    (format, scenario).  FMAC has no published area, so it appears in the
    iso-energy scenario only — as in the paper's Fig. 8.
    """
    accelerator = accelerator or MirageAccelerator()
    formats = formats or TABLE_II_FORMATS
    layers = workload(name)
    mirage_result = accelerator.evaluate(layers, policy)
    rows = []
    for fmt in formats.values():
        cfg_e = iso_energy_config(fmt, accelerator.config, accelerator.energy_per_mac)
        res_e = evaluate_systolic(layers, cfg_e, policy)
        rows.append(
            ComparisonRow(
                name,
                fmt.name,
                "iso_energy",
                cfg_e.num_arrays,
                res_e.runtime_s / mirage_result.runtime_s,
                res_e.edp / mirage_result.edp,
                res_e.power_w / mirage_result.power_w,
            )
        )
        if fmt.area_per_mac > 0:  # NaN-safe: excludes FMAC
            cfg_a = iso_area_config(fmt, accelerator.total_area)
            res_a = evaluate_systolic(layers, cfg_a, policy)
            rows.append(
                ComparisonRow(
                    name,
                    fmt.name,
                    "iso_area",
                    cfg_a.num_arrays,
                    res_a.runtime_s / mirage_result.runtime_s,
                    res_a.edp / mirage_result.edp,
                    res_a.power_w / mirage_result.power_w,
                )
            )
    return {"mirage": mirage_result, "rows": rows}
