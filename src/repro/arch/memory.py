"""Interleaved SRAM and digital-pipeline model (Section IV-C).

The photonic core retires one modular MVM every 0.1 ns, but SRAM banks and
the digital conversion circuits run at 1 GHz.  Mirage bridges the gap with
``interleave_factor`` (10) copies of each digital resource per RNS-MMVMU,
phase-offset by 0.1 ns, so in aggregate one digital *transaction* —
vector-wide: a whole ``v``-long output vector or ``g``-long input vector —
completes per photonic cycle.

This module makes that sizing argument executable: per photonic cycle it
computes the transaction demand on every digital resource, the capacity
the interleaved copies provide, and the resulting throughput bound on the
photonic core.  With the paper's parameters every resource sits at
utilisation <= 1.0 (the design is *exactly* balanced); the ablation bench
sweeps the interleave factor to show where the digital side would start
throttling the optics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .config import MirageConfig

__all__ = ["ResourceDemand", "MemorySystemModel"]

_STAGES = (
    "sram_read",
    "sram_write",
    "fp_bfp",
    "bns_rns",
    "rns_bns",
    "accumulate",
)


@dataclass(frozen=True)
class ResourceDemand:
    """Demand vs capacity of one digital resource class (per RNS-MMVMU).

    Units are vector-wide transactions per 0.1 ns photonic cycle.
    """

    name: str
    demand_per_cycle: float
    capacity_per_cycle: float

    @property
    def utilisation(self) -> float:
        return self.demand_per_cycle / self.capacity_per_cycle

    @property
    def is_bottleneck(self) -> bool:
        return self.demand_per_cycle > self.capacity_per_cycle * (1 + 1e-12)


class MemorySystemModel:
    """Demand/capacity accounting for the electronic chiplet.

    Per streaming cycle one RNS-MMVMU needs (Fig. 2 steps 2-3 and 7-9):

    * one ``g``-wide activation read + FP→BFP + BNS→RNS on the input side,
      amortised over ``input_reuse`` row tiles that share the vector;
    * one ``v``-wide partial-output read, one ``v``-wide write
      (read-accumulate-write), one ``v``-wide RNS→BNS conversion and one
      ``v``-wide FP32 accumulation on the output side.

    Parameters
    ----------
    config:
        The Mirage configuration (interleave factor, clocks, geometry).
    input_reuse:
        Photonic cycles an input-side conversion is reused for (matches
        :class:`repro.arch.energy.EnergyParams.input_conversion_reuse`).
    """

    def __init__(self, config: Optional[MirageConfig] = None,
                 input_reuse: float = 16.0):
        self.config = config or MirageConfig()
        if input_reuse < 1:
            raise ValueError("input_reuse must be >= 1")
        self.input_reuse = input_reuse

    # ------------------------------------------------------------------
    def capacity_per_cycle(self) -> float:
        """Transactions per photonic cycle from the interleaved copies."""
        cfg = self.config
        speedup = cfg.photonic_clock_hz / cfg.digital_clock_hz
        return cfg.interleave_factor / speedup

    def demands(self) -> Dict[str, ResourceDemand]:
        """Per-RNS-MMVMU demand vs capacity for every pipeline stage."""
        cap = self.capacity_per_cycle()
        inv_reuse = 1.0 / self.input_reuse
        per_cycle = {
            "sram_read": 1.0 + inv_reuse,  # output partials + input vectors
            "sram_write": 1.0,  # accumulated partials
            "fp_bfp": inv_reuse,
            "bns_rns": inv_reuse,
            "rns_bns": 1.0,
            "accumulate": 1.0,
        }
        # The SRAM provides interleave_factor banks per *type* and there
        # are three types (activation / weight / gradient, Section IV-C),
        # so read traffic spreads over two types and writes over one.
        out: Dict[str, ResourceDemand] = {}
        for name in _STAGES:
            capacity = cap * (2.0 if name == "sram_read" else 1.0)
            out[name] = ResourceDemand(name, per_cycle[name], capacity)
        return out

    # ------------------------------------------------------------------
    def throughput_bound(self) -> float:
        """Achievable photonic-core throughput fraction in (0, 1].

        1.0 means the digital side keeps up (the paper's design point);
        below 1.0 the worst-utilised resource throttles the core.
        """
        worst = max(d.utilisation for d in self.demands().values())
        return min(1.0, 1.0 / worst) if worst > 0 else 1.0

    def bottlenecks(self) -> List[ResourceDemand]:
        """Resources whose demand exceeds capacity."""
        return [d for d in self.demands().values() if d.is_bottleneck]

    def effective_macs_per_s(self) -> float:
        """Peak MAC rate after the digital throughput bound."""
        return self.config.peak_macs_per_s * self.throughput_bound()
