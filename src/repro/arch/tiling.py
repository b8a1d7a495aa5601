"""GEMM tiling and spatial-utilisation accounting.

A Mirage tile is a ``v x g`` weight block programmed into one MMVMU; a
GEMM ``(M, K) @ (K, N)`` therefore needs ``ceil(M/v) * ceil(K/g)`` tiles
(stationary-operand mapping), each streaming one vector per cycle.
Utilisation has two components the paper's Fig. 6 sweeps expose:

* **spatial fill** — real operand cells over padded tile cells (drops when
  layer dimensions don't divide the array; catastrophic for depthwise
  convolutions, hence MobileNet's curve);
* **array balance** — tiles distributed over ``A`` arrays leave some idle
  in the last round (drops when tile count isn't a multiple of ``A``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .workloads import GemmShape, LayerShape, training_gemms

__all__ = ["TileMapping", "map_gemm", "spatial_utilization", "workload_utilization"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class TileMapping:
    """How one GEMM maps onto stationary ``v x g`` tiles.

    Attributes
    ----------
    gemm:
        The GEMM being mapped.
    stationary_rows / stationary_cols:
        Dimensions of the stationary operand (rows -> MDPUs, cols -> MMUs).
    stream_len:
        Vectors streamed through each tile (cycles per tile).
    row_tiles / col_tiles:
        Tile grid; total tiles include the GEMM ``count``.
    v, g:
        Array geometry used for the mapping.
    """

    gemm: GemmShape
    stationary_rows: int
    stationary_cols: int
    stream_len: int
    v: int
    g: int

    @property
    def row_tiles(self) -> int:
        return _ceil_div(self.stationary_rows, self.v)

    @property
    def col_tiles(self) -> int:
        return _ceil_div(self.stationary_cols, self.g)

    @property
    def tiles(self) -> int:
        return self.row_tiles * self.col_tiles * self.gemm.count

    @property
    def cycles_per_tile(self) -> int:
        return self.stream_len

    @property
    def useful_macs(self) -> int:
        return self.gemm.macs


def map_gemm(gemm: GemmShape, v: int, g: int, stationary: str = "first") -> TileMapping:
    """Map a GEMM with the chosen operand stationary.

    ``stationary="first"`` holds ``A(M, K)`` in the arrays and streams the
    ``N`` columns of ``B`` (DF1); ``"second"`` holds ``B^T(N, K)`` and
    streams the ``M`` rows of ``A`` (DF2), producing the transposed output.
    """
    if stationary == "first":
        return TileMapping(gemm, gemm.m, gemm.k, gemm.n, v, g)
    if stationary == "second":
        return TileMapping(gemm, gemm.n, gemm.k, gemm.m, v, g)
    raise ValueError(f"stationary must be 'first' or 'second', got {stationary!r}")


def spatial_utilization(
    gemms: Iterable[GemmShape], v: int, g: int, num_arrays: int = 1
) -> float:
    """Work-weighted utilisation of the MMU cells across a GEMM list.

    Combines spatial fill with array balance: a GEMM occupying ``t`` tiles
    runs in ``ceil(t / A)`` rounds of ``A`` arrays.
    """
    useful = 0
    provisioned = 0
    for gemm in gemms:
        mapping = map_gemm(gemm, v, g, "first")
        rounds = _ceil_div(mapping.tiles, num_arrays)
        useful += mapping.useful_macs
        provisioned += rounds * num_arrays * v * g * mapping.stream_len
    if provisioned == 0:
        raise ValueError("empty GEMM list")
    return useful / provisioned


def workload_utilization(
    layers: Iterable[LayerShape], v: int, g: int, num_arrays: int = 1
) -> float:
    """Utilisation over all three training GEMMs of every layer (Fig. 6)."""
    gemms = [tg.gemm for layer in layers for tg in training_gemms(layer)]
    return spatial_utilization(gemms, v, g, num_arrays)
