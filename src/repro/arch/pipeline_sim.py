"""Cycle-level discrete-event simulation of the Fig. 2 pipeline.

The closed-form latency model (:mod:`repro.arch.latency`) and the static
demand/capacity model (:mod:`repro.arch.memory`) both *assume* the
Section IV-C pipeline reaches one modular MVM per 0.1 ns once the
interleaved digital copies are provisioned.  This module checks the
assumption by actually simulating the pipeline: every streamed vector is
a job flowing through the stage chain

    SRAM read -> FP->BFP -> BNS->RNS -> [MVM] -> detect+ADC
    -> RNS->BNS -> accumulate -> SRAM write

where each digital stage is a multi-server FIFO queue with
``interleave_factor`` 1 GHz servers (1 ns service each) and the MVM
stage is a single 10 GHz server that stalls for the 5 ns phase-shifter
reprogram at every tile boundary.

* :class:`PipelineSimulator` — generic multi-server stage-chain engine;
* :func:`simulate_gemm` — a tiled GEMM through the chain, returning
  total cycles and per-stage busy fractions;
* :func:`validate_closed_form` — simulated vs analytic latency (they
  must agree to within the pipeline fill/drain constant).

Units: one simulator cycle = one photonic cycle (0.1 ns).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import MirageConfig
from .latency import mirage_gemm_latency
from .tiling import map_gemm
from .workloads import GemmShape

__all__ = [
    "Stage",
    "StageStats",
    "PipelineSimulator",
    "mirage_stage_chain",
    "simulate_gemm",
    "validate_closed_form",
]


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: ``copies`` identical servers, FIFO service.

    ``service_cycles`` is the occupancy of one server per job (a 1 GHz
    digital unit holds its server for 10 photonic cycles).
    """

    name: str
    service_cycles: int
    copies: int

    def __post_init__(self):
        if self.service_cycles < 1 or self.copies < 1:
            raise ValueError(f"stage {self.name!r}: service_cycles and "
                             "copies must be >= 1")


@dataclass
class StageStats:
    """Aggregate occupancy of one stage after a simulation run."""

    name: str
    jobs: int = 0
    busy_cycles: int = 0
    total_wait: int = 0

    def utilisation(self, makespan: int, copies: int) -> float:
        """Busy fraction of the stage's aggregate server capacity."""
        if makespan <= 0:
            return 0.0
        return self.busy_cycles / (makespan * copies)


class PipelineSimulator:
    """Jobs flow through the stage chain in order; stages never reorder.

    Each stage keeps a min-heap of server free times.  A job entering a
    stage starts at ``max(arrival, earliest_free_server)`` and departs
    ``service_cycles`` later; the departure is its arrival at the next
    stage.  This is the standard tandem-queue recurrence, so a full GEMM
    simulates in O(jobs * stages * log copies).
    """

    def __init__(self, stages: Sequence[Stage]):
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = list(stages)

    def run(self, arrivals: Iterable[int]) -> Tuple[int, Dict[str, StageStats]]:
        """Push jobs arriving at the given cycles; return
        ``(makespan_cycles, stats_by_stage)``."""
        servers: List[List[int]] = [[0] * s.copies for s in self.stages]
        stats = {s.name: StageStats(s.name) for s in self.stages}
        for heap in servers:
            heapq.heapify(heap)
        makespan = 0
        for arrival in arrivals:
            t = int(arrival)
            for stage, heap in zip(self.stages, servers):
                free = heapq.heappop(heap)
                start = max(t, free)
                depart = start + stage.service_cycles
                heapq.heappush(heap, depart)
                st = stats[stage.name]
                st.jobs += 1
                st.busy_cycles += stage.service_cycles
                st.total_wait += start - t
                t = depart
            makespan = max(makespan, t)
        return makespan, stats


def mirage_stage_chain(config: Optional[MirageConfig] = None) -> List[Stage]:
    """The Fig. 2 / Section IV-C stage chain for one RNS-MMVMU."""
    config = config or MirageConfig()
    digital_cycles = max(
        1, round(config.photonic_clock_hz / config.digital_clock_hz)
    )
    copies = config.interleave_factor
    return [
        Stage("sram_read", digital_cycles, copies),
        Stage("fp_bfp", digital_cycles, copies),
        Stage("bns_rns", digital_cycles, copies),
        Stage("mvm", 1, 1),  # the photonic core: one MVM per 0.1 ns
        Stage("detect_adc", 1, 2),  # I/Q pair, pipelined at >= 10 GS/s
        Stage("rns_bns", digital_cycles, copies),
        Stage("accumulate", digital_cycles, copies),
        Stage("sram_write", digital_cycles, copies),
    ]


def _tile_arrivals(stream_len: int, tiles: int, reprogram_cycles: int) -> List[int]:
    """Vector issue times: one per cycle within a tile, with a reprogram
    gap between tiles."""
    arrivals: List[int] = []
    t = 0
    for _ in range(tiles):
        t += reprogram_cycles
        for _ in range(stream_len):
            arrivals.append(t)
            t += 1
    return arrivals


def simulate_gemm(
    gemm: GemmShape,
    config: Optional[MirageConfig] = None,
    dataflow: str = "DF1",
    max_jobs: int = 200_000,
) -> Tuple[float, Dict[str, StageStats]]:
    """Simulate one GEMM on one array-round basis; returns
    ``(seconds, stage_stats)``.

    Tiles are distributed over ``num_arrays`` identical arrays exactly as
    the closed-form model assumes, so simulating the per-array round
    sequence suffices.  ``max_jobs`` guards against accidentally
    simulating a billion-vector layer cycle-by-cycle.
    """
    config = config or MirageConfig()
    stationary = "first" if dataflow == "DF1" else "second"
    mapping = map_gemm(gemm, config.v, config.g, stationary)
    rounds = math.ceil(mapping.tiles / config.num_arrays)
    jobs = rounds * mapping.stream_len
    if jobs > max_jobs:
        raise ValueError(
            f"simulation would enqueue {jobs} vectors (> {max_jobs}); "
            "use the closed-form model for layers this large"
        )
    reprogram_cycles = round(config.reprogram_time_s / config.cycle_time_s)
    arrivals = _tile_arrivals(mapping.stream_len, rounds, reprogram_cycles)
    sim = PipelineSimulator(mirage_stage_chain(config))
    makespan, stats = sim.run(arrivals)
    return makespan * config.cycle_time_s, stats


def validate_closed_form(
    gemm: GemmShape,
    config: Optional[MirageConfig] = None,
    dataflow: str = "DF1",
) -> Dict[str, float]:
    """Simulated vs analytic GEMM latency.

    The closed form counts issue slots; the simulation adds the constant
    pipeline fill/drain (8 stages' worth), so the two agree to within
    that constant — returned as ``gap_cycles`` for inspection.
    """
    config = config or MirageConfig()
    simulated, _ = simulate_gemm(gemm, config, dataflow)
    analytic = mirage_gemm_latency(gemm, config, dataflow)
    gap_cycles = (simulated - analytic) / config.cycle_time_s
    return {
        "simulated_s": simulated,
        "analytic_s": analytic,
        "ratio": simulated / analytic,
        "gap_cycles": gap_cycles,
    }
