"""Deterministic simulated clock for the serving runtime.

All serving-time quantities (arrivals, batching deadlines, service
latencies from the analytic hardware model) advance a single
:class:`SimulatedClock` — wall-clock time never enters the simulation, so
every scenario is exactly reproducible from its seed.

Timestamp comparisons across the serving stack go through
:func:`time_at_or_before`, which uses a tolerance *relative* to the
magnitude of the timestamps being compared.  An absolute epsilon (the old
``1e-15``) underflows double-precision spacing once simulated time grows
past ~1 s — at ``t = 1e9`` the representable spacing is ~1.2e-7 s, so an
absolute 1e-15 slack can never absorb the rounding of ``t + service_s``
and "free at exactly now" workers would read as busy forever.
"""

from __future__ import annotations

import sys

__all__ = ["SimulatedClock", "time_tolerance", "time_at_or_before"]

_EPS = sys.float_info.epsilon  # 2**-52


def time_tolerance(t: float, now: float) -> float:
    """Comparison slack for simulated timestamps: a few ulps, scaled.

    ``4 * eps * max(1, |t|, |now|)`` matches the old absolute ``1e-15``
    for sub-second simulations (where ``max(...)`` clamps to 1) and
    scales with the floating-point spacing for large timestamps.
    """
    return 4.0 * _EPS * max(1.0, abs(t), abs(now))


def time_at_or_before(t: float, now: float) -> bool:
    """True when ``t <= now`` up to relative timestamp tolerance."""
    return t <= now + time_tolerance(t, now)


class SimulatedClock:
    """A monotonically advancing simulated time source (seconds from 0)."""

    def __init__(self):
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> float:
        """Move time forward to ``t``; rejects travel into the past."""
        if t < self._now - time_tolerance(t, self._now):
            raise ValueError(
                f"clock cannot move backwards: {t} < {self._now}"
            )
        self._now = max(self._now, float(t))
        return self._now
