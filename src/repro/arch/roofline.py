"""Roofline analysis of Mirage and the systolic baselines.

The paper sizes Mirage's digital side so that SRAM and conversion
bandwidth exactly feed the 10 GHz photonic core (Section IV-C) and notes
that SRAM dominates power because everything is stored in FP32.  A
roofline view makes both statements quantitative: each training GEMM has
an *arithmetic intensity* (MACs per byte moved between SRAM and the
compute units), and the achievable throughput is
``min(peak_macs, intensity * bandwidth)``.

* :func:`gemm_intensity` — MACs/byte for one tiled training GEMM under
  Mirage's dataflow (stationary operand loaded once per tile, streaming
  operand re-read per tile row, partial outputs read+written per tile
  column).
* :func:`mirage_bandwidth` — the interleaved-SRAM bandwidth the
  Section IV-C design provides.
* :func:`roofline_point` / :func:`workload_roofline` — where each layer
  of a workload lands: photonic-bound or SRAM-bound, and the utilisation
  the memory system permits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .config import MirageConfig
from .tiling import map_gemm
from .workloads import LayerShape, TrainingGemm, training_gemms

__all__ = [
    "BYTES_PER_VALUE",
    "gemm_traffic_bytes",
    "gemm_intensity",
    "mirage_bandwidth",
    "RooflinePoint",
    "roofline_point",
    "workload_roofline",
]

BYTES_PER_VALUE = 4  # everything is stored in FP32 (Section IV-C)


def gemm_traffic_bytes(gemm, v: int, g: int) -> int:
    """SRAM bytes moved for one tiled GEMM (``m x k @ k x n``).

    Accounting mirrors the Fig. 2 dataflow:

    * the stationary operand tile is loaded once per tile:
      ``m * k`` values in total;
    * the streaming operand is re-read for every tile row it meets:
      ``k * n * ceil(m / v)`` values;
    * every partial output is read-accumulate-written per tile column:
      ``2 * m * n * ceil(k / g)`` values.
    """
    mapping = map_gemm(gemm, v, g)
    stationary = gemm.m * gemm.k
    streaming = gemm.k * gemm.n * mapping.row_tiles
    # The reduction (k) axis is tiled across the g columns of the array:
    # each output element accumulates one partial per column tile.
    partials = 2 * gemm.m * gemm.n * mapping.col_tiles
    return (stationary + streaming + partials) * BYTES_PER_VALUE


def gemm_intensity(gemm, v: int, g: int) -> float:
    """Arithmetic intensity (MACs per SRAM byte) of one tiled GEMM."""
    return gemm.macs / gemm_traffic_bytes(gemm, v, g)


def mirage_bandwidth(config: MirageConfig, line_words: Optional[int] = None) -> float:
    """Aggregate SRAM bandwidth (bytes/s) of the interleaved design.

    Each RNS-MMVMU owns ``interleave_factor`` sub-arrays per SRAM type
    (three types), each completing one *vector-wide* transaction per
    digital clock (the Section IV-C provisioning rule and the unit used
    by :class:`repro.arch.memory.MemorySystemModel`).  ``line_words``
    defaults to the ``v``-wide output line, the widest transaction.
    """
    if line_words is None:
        line_words = config.v
    words_per_s = (
        config.num_arrays
        * config.interleave_factor
        * 3  # activation / weight / gradient arrays
        * config.digital_clock_hz
        * line_words
    )
    return words_per_s * BYTES_PER_VALUE


@dataclass(frozen=True)
class RooflinePoint:
    """One GEMM's position on the roofline."""

    layer: str
    role: str
    intensity: float  # MACs/byte
    peak_macs_per_s: float
    bandwidth_bound: float  # MACs/s allowed by SRAM traffic
    attainable: float  # min(peak, bound)

    @property
    def memory_bound(self) -> bool:
        return self.bandwidth_bound < self.peak_macs_per_s


def roofline_point(
    tg: TrainingGemm, config: MirageConfig
) -> RooflinePoint:
    """Roofline placement of one training GEMM on a Mirage instance."""
    intensity = gemm_intensity(tg.gemm, config.v, config.g)
    peak = config.peak_macs_per_s
    bound = intensity * mirage_bandwidth(config)
    return RooflinePoint(
        layer=tg.layer,
        role=tg.role,
        intensity=intensity,
        peak_macs_per_s=peak,
        bandwidth_bound=bound,
        attainable=min(peak, bound),
    )


def workload_roofline(
    layers: Sequence[LayerShape],
    config: Optional[MirageConfig] = None,
) -> List[RooflinePoint]:
    """Roofline points for every training GEMM of a workload."""
    config = config or MirageConfig()
    points = []
    for layer in layers:
        for tg in training_gemms(layer):
            points.append(roofline_point(tg, config))
    return points
