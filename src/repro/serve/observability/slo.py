"""Multi-window SLO burn-rate monitors.

Implements the SRE-style multi-window, multi-burn-rate alerting policy
on the live metric stream of the simulation: an SLO with objective
``p`` (e.g. 0.95 TTFT attainment) has an error budget ``1 - p``; the
**burn rate** over a window is ``error_rate / (1 - p)`` — 1.0 means the
budget is consumed exactly at the sustainable pace, 14.4 means it is
gone in 1/14.4 of the budget period.  An alert fires only when *both* a
long window and its short confirmation window exceed the threshold,
which keeps a brief spike from paging while still catching fast burns
quickly (the short window also makes the alert reset promptly once the
burn stops).

Windows are expressed in **simulated seconds** and should be scaled to
the scenario horizon (the benchmark uses fractions of the fault-free
makespan); :func:`default_windows` encodes the classic fast/slow pair
for a given horizon.

Monitors are fed per good/bad event (:meth:`SLOTracker.observe`) keyed
by class/tenant; :meth:`SLOTracker.check` collects the alerts firing at
a given time, and the flight report counts them.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BurnWindow",
    "SLOSpec",
    "BurnRateMonitor",
    "SLOTracker",
    "default_windows",
]


@dataclass(frozen=True)
class BurnWindow:
    """A long window plus its short confirmation window.

    ``threshold`` is the burn-rate multiple both windows must exceed for
    the alert to fire.
    """

    long_s: float
    short_s: float
    threshold: float

    def __post_init__(self):
        if self.long_s <= 0 or self.short_s <= 0:
            raise ValueError("burn windows must be positive")
        if self.short_s > self.long_s:
            raise ValueError(
                f"short window {self.short_s} exceeds long window {self.long_s}"
            )
        if self.threshold <= 0:
            raise ValueError("burn threshold must be positive")


def default_windows(horizon_s: float) -> Tuple[BurnWindow, ...]:
    """The classic fast/slow pair scaled to a scenario horizon.

    Mirrors the 1h/5m + 6h/30m shape of the SRE workbook, expressed as
    fractions of the horizon: a fast-burn page (5% of the horizon,
    confirmed over 1/12 of that) and a slow-burn ticket (30% of the
    horizon, confirmed over 1/12 of that).
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be positive, got {horizon_s}")
    return (
        BurnWindow(0.05 * horizon_s, 0.05 * horizon_s / 12.0, 14.4),
        BurnWindow(0.30 * horizon_s, 0.30 * horizon_s / 12.0, 3.0),
    )


@dataclass(frozen=True)
class SLOSpec:
    """An objective (good fraction) plus its alerting windows."""

    name: str
    objective: float
    windows: Tuple[BurnWindow, ...]

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if not self.windows:
            raise ValueError("at least one burn window is required")
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


class BurnRateMonitor:
    """Good/bad event stream for one key, queryable over any window."""

    def __init__(self, spec: SLOSpec, key: str = "all"):
        self.spec = spec
        self.key = key
        # Sorted event times; bad events are kept in a parallel sorted
        # list so any window reduces to two bisects per list.
        self._times: List[float] = []
        self._bad_times: List[float] = []
        self.good = 0
        self.bad = 0

    def observe(self, t: float, good: bool) -> None:
        if not math.isfinite(t):
            raise ValueError(
                f"SLO monitor {self.key!r} observed non-finite time {t!r}"
            )
        if not self._times or t >= self._times[-1]:
            self._times.append(t)
        else:
            insort(self._times, t)
        if good:
            self.good += 1
        else:
            self.bad += 1
            if not self._bad_times or t >= self._bad_times[-1]:
                self._bad_times.append(t)
            else:
                insort(self._bad_times, t)

    @property
    def total(self) -> int:
        return self.good + self.bad

    def _window_counts(self, window_s: float, now: float) -> Tuple[int, int]:
        """(events, bad events) with time in ``(now - window_s, now]``."""
        lo = now - window_s
        n = bisect_right(self._times, now) - bisect_right(self._times, lo)
        b = bisect_right(self._bad_times, now) - bisect_right(
            self._bad_times, lo
        )
        return n, b

    def error_rate(self, window_s: float, now: float) -> Optional[float]:
        n, b = self._window_counts(window_s, now)
        if n == 0:
            return None
        return b / n

    def burn_rate(self, window_s: float, now: float) -> Optional[float]:
        rate = self.error_rate(window_s, now)
        if rate is None:
            return None
        return rate / self.spec.error_budget

    def check(self, now: float) -> List[Dict[str, Any]]:
        """Alerts whose long *and* short windows both exceed threshold."""
        alerts = []
        for window in self.spec.windows:
            long_burn = self.burn_rate(window.long_s, now)
            short_burn = self.burn_rate(window.short_s, now)
            if (
                long_burn is not None
                and short_burn is not None
                and long_burn >= window.threshold
                and short_burn >= window.threshold
            ):
                alerts.append(
                    {
                        "slo": self.spec.name,
                        "key": self.key,
                        "t": now,
                        "threshold": window.threshold,
                        "long_s": window.long_s,
                        "short_s": window.short_s,
                        "long_burn": long_burn,
                        "short_burn": short_burn,
                    }
                )
        return alerts

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        if now is None:
            now = self._times[-1] if self._times else 0.0
        out: Dict[str, Any] = {
            "events": self.total,
            "bad": self.bad,
            "error_rate": (self.bad / self.total) if self.total else None,
            "windows": [],
        }
        for window in self.spec.windows:
            out["windows"].append(
                {
                    "long_s": window.long_s,
                    "short_s": window.short_s,
                    "threshold": window.threshold,
                    "long_burn": self.burn_rate(window.long_s, now),
                    "short_burn": self.burn_rate(window.short_s, now),
                }
            )
        return out


class SLOTracker:
    """Per-class/tenant burn monitors for one SLO spec.

    Keys are free-form strings (``"class2"``, ``"chat/class0"``); a
    monitor is created lazily on first observation of a key.
    """

    def __init__(self, spec: SLOSpec):
        self.spec = spec
        self.monitors: Dict[str, BurnRateMonitor] = {}
        self.alerts_fired: List[Dict[str, Any]] = []

    def observe(self, key: str, t: float, good: bool) -> None:
        # Checked before the lazy monitor creation so a poisoned
        # timestamp cannot leave an empty monitor behind.
        if not math.isfinite(t):
            raise ValueError(
                f"SLO tracker key {key!r} observed non-finite time {t!r}"
            )
        monitor = self.monitors.get(key)
        if monitor is None:
            monitor = self.monitors[key] = BurnRateMonitor(self.spec, key)
        monitor.observe(t, good)

    def check(self, now: float) -> List[Dict[str, Any]]:
        """All currently-firing alerts across keys (also recorded)."""
        alerts = []
        for key in sorted(self.monitors):
            alerts.extend(self.monitors[key].check(now))
        self.alerts_fired.extend(alerts)
        return alerts

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        return {
            "slo": self.spec.name,
            "objective": self.spec.objective,
            "keys": {
                key: self.monitors[key].summary(now)
                for key in sorted(self.monitors)
            },
            "alerts_fired": len(self.alerts_fired),
        }
