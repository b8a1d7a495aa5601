"""Dataflow definitions and schedulers (Section VI-A3).

Training renames the classic stationarity choices:

* **DF1** (weight-stationary analogue): the *first* GEMM operand is held in
  the arrays — ``W`` for the forward pass, ``W^T`` for the input-gradient
  GEMM, ``dO`` for the weight-gradient GEMM.
* **DF2** (input-stationary analogue): the *second* operand is held.
* **DF3** (output-stationary): outputs accumulate in place.  Only systolic
  arrays support it; in Mirage both operands would need per-cycle phase
  shifter updates, which the MRR-switched design exists to avoid.

Schedulers:

* fixed dataflow (DF1/DF2/DF3 for every GEMM);
* **OPT1** — best dataflow per computation *role* (fwd / dx / dw), chosen
  once per model;
* **OPT2** — best dataflow per individual layer GEMM.

Both optimisations run offline from the analytical latency model, exactly
as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .workloads import LayerShape, TrainingGemm, training_gemms

__all__ = [
    "MIRAGE_DATAFLOWS",
    "SYSTOLIC_DATAFLOWS",
    "Schedule",
    "schedule_fixed",
    "schedule_opt1",
    "schedule_opt2",
]

MIRAGE_DATAFLOWS = ("DF1", "DF2")
SYSTOLIC_DATAFLOWS = ("DF1", "DF2", "DF3")
_ROLES = ("fwd", "dx", "dw")

# A latency function maps (TrainingGemm, dataflow) -> seconds.
LatencyFn = Callable[[TrainingGemm, str], float]


@dataclass(frozen=True)
class Schedule:
    """A dataflow assignment for every training GEMM of a workload."""

    assignments: Tuple[Tuple[str, str, str], ...]  # (layer, role, dataflow)
    total_latency: float

    def histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _, _, df in self.assignments:
            counts[df] = counts.get(df, 0) + 1
        return counts


def _all_gemms(layers: Iterable[LayerShape]) -> List[TrainingGemm]:
    return [tg for layer in layers for tg in training_gemms(layer)]


def schedule_fixed(
    layers: Sequence[LayerShape],
    latency_fn: LatencyFn,
    dataflow: str,
    allowed: Sequence[str] = MIRAGE_DATAFLOWS,
) -> Schedule:
    """Use one dataflow everywhere."""
    if dataflow not in allowed:
        raise ValueError(f"dataflow {dataflow!r} not in {allowed}")
    gemms = _all_gemms(layers)
    assigns = tuple((tg.layer, tg.role, dataflow) for tg in gemms)
    total = sum(latency_fn(tg, dataflow) for tg in gemms)
    return Schedule(assigns, total)


def schedule_opt1(
    layers: Sequence[LayerShape],
    latency_fn: LatencyFn,
    allowed: Sequence[str] = MIRAGE_DATAFLOWS,
) -> Schedule:
    """OPT1: best dataflow per role (fwd/dx/dw), same across layers."""
    gemms = _all_gemms(layers)
    best_per_role: Dict[str, str] = {}
    for role in _ROLES:
        role_gemms = [tg for tg in gemms if tg.role == role]
        if not role_gemms:
            continue
        best_per_role[role] = min(
            allowed, key=lambda df: sum(latency_fn(tg, df) for tg in role_gemms)
        )
    assigns = tuple((tg.layer, tg.role, best_per_role[tg.role]) for tg in gemms)
    total = sum(latency_fn(tg, best_per_role[tg.role]) for tg in gemms)
    return Schedule(assigns, total)


def schedule_opt2(
    layers: Sequence[LayerShape],
    latency_fn: LatencyFn,
    allowed: Sequence[str] = MIRAGE_DATAFLOWS,
) -> Schedule:
    """OPT2: best dataflow independently for every layer GEMM."""
    gemms = _all_gemms(layers)
    assigns = []
    total = 0.0
    for tg in gemms:
        best = min(allowed, key=lambda df: latency_fn(tg, df))
        assigns.append((tg.layer, tg.role, best))
        total += latency_fn(tg, best)
    return Schedule(tuple(assigns), total)
