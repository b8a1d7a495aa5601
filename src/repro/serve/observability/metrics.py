"""Typed metrics registry with Prometheus text export.

The serving stack's telemetry (:mod:`repro.serve.telemetry`) records
through a :class:`MetricsRegistry`: typed **counters**, **gauges** and
**histograms**, each carrying a label schema (e.g. ``{model, priority}``)
and a family of children keyed by label values.  Three properties the
simulation needs:

* **cheap hot path** — ``metric.labels(...)`` returns a cached child
  whose ``inc``/``set``/``observe`` is a couple of attribute writes, so
  always-on metrics do not distort the wall-clock overhead gate;
* **lossless export** — :meth:`MetricsRegistry.prometheus_text` renders
  the standard Prometheus text exposition format with ``repr(float)``
  values, and :func:`parse_prometheus_text` parses it back, so
  ``parse(render()) == samples()`` holds *exactly* (the round-trip gate
  in ``benchmarks/bench_observability.py``);
* **streaming series** — a gauge ``set`` with a timestamp appends to a
  per-child ``(t, value)`` series (KV occupancy over time, queue depth
  over time) without touching the exported last-value sample.

Determinism: rendering iterates metrics in registration order and
children in first-touch order — both deterministic for a deterministic
run — so two runs of the same seeded scenario dump byte-identical text.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from .sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
]

# Log-spaced default buckets covering the simulated-seconds scale the
# analytic hardware model produces (nanoseconds .. seconds).
DEFAULT_TIME_BUCKETS = tuple(10.0 ** e for e in range(-9, 1))

_NAME_OK = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> None:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Lossless float rendering: ``float(_fmt(x)) == x`` exactly."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


class _Child:
    """One labelled instance of a metric (a Prometheus 'child')."""

    __slots__ = (
        "labels",
        "value",
        "series",
        "bucket_counts",
        "sum",
        "count",
        "sketch",
    )

    def __init__(self, labels: Tuple[str, ...], buckets: int = 0):
        self.labels = labels
        self.value = 0.0
        self.series: List[Tuple[float, float]] = []
        if buckets:
            self.bucket_counts = [0] * buckets
            self.sum = 0.0
            self.count = 0

    # Counter -----------------------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    # Gauge -------------------------------------------------------------
    def set(self, value: float, t: Optional[float] = None) -> None:
        self.value = float(value)
        if t is not None:
            self.series.append((t, self.value))


class _Metric:
    """Base metric: a name, a help string, a label schema, children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]):
        _check_name(name)
        for label in labelnames:
            _check_name(label)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def _make_child(self, key: Tuple[str, ...]) -> _Child:
        return _Child(key)

    def labels(self, *values) -> _Child:
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(key) != len(self.labelnames):
                raise ValueError(
                    f"{self.name} takes labels {self.labelnames}, got {key}"
                )
            child = self._make_child(key)
            self._children[key] = child
        return child

    def children(self) -> List[_Child]:
        return list(self._children.values())

    # Export ------------------------------------------------------------
    def _series_name(self, labels: Tuple[str, ...], suffix: str = "") -> str:
        name = self.name + suffix
        if not labels:
            return name
        inner = ",".join(
            f'{ln}="{_escape_label(lv)}"'
            for ln, lv in zip(self.labelnames, labels)
        )
        return f"{name}{{{inner}}}"

    def samples(self) -> Dict[str, float]:
        return {
            self._series_name(key): child.value
            for key, child in self._children.items()
        }

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self._children.items():
            lines.append(f"{self._series_name(key)} {_fmt(child.value)}")
        return lines


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Convenience kwargs path; hot code should cache ``labels(...)``."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = tuple(str(labels[ln]) for ln in self.labelnames)
        self.labels(*key).inc(amount)


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, t: Optional[float] = None, **labels) -> None:
        key = tuple(str(labels[ln]) for ln in self.labelnames)
        self.labels(*key).set(value, t)

    def series(self, *label_values) -> List[Tuple[float, float]]:
        """The streaming ``(t, value)`` series of one child (a copy)."""
        return list(self.labels(*label_values).series)


class Histogram(_Metric):
    """Bucketed by default; ``sketch_alpha`` switches the backend.

    With ``sketch_alpha`` set, each child holds a
    :class:`~repro.serve.observability.sketch.QuantileSketch` instead of
    fixed bucket counts: memory follows the observed dynamic range
    rather than a pre-declared bucket list, each child's sketch answers
    any percentile within ``alpha``, and the Prometheus rendering stays a
    valid cumulative histogram (the sketch's log buckets *are* the
    ``le`` boundaries) that round-trips through
    :func:`parse_prometheus_text`.  Sketch-backed histograms accept only
    non-negative values — Prometheus ``le`` boundaries must ascend from
    the zero bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        sketch_alpha: Optional[float] = None,
    ):
        if sketch_alpha is not None:
            sketch_alpha = float(sketch_alpha)
            if not 0.0 < sketch_alpha < 1.0:
                raise ValueError(
                    f"sketch_alpha must be in (0, 1), got {sketch_alpha}"
                )
            self.buckets: Tuple[float, ...] = ()
        else:
            uppers = tuple(float(b) for b in buckets)
            if not uppers or any(
                b >= c for b, c in zip(uppers, uppers[1:])
            ):
                raise ValueError(
                    f"buckets must be non-empty and strictly increasing: "
                    f"{buckets}"
                )
            self.buckets = uppers
        self.sketch_alpha = sketch_alpha
        super().__init__(name, help, labelnames)

    def _make_child(self, key: Tuple[str, ...]) -> _Child:
        if self.sketch_alpha is not None:
            child = _Child(key)
            child.sketch = QuantileSketch(alpha=self.sketch_alpha)
            return child
        return _Child(key, buckets=len(self.buckets) + 1)  # + the +Inf bucket

    def observe(self, value: float, *label_values) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name!r} observed non-finite value {value!r}"
            )
        child = self.labels(*label_values)
        if self.sketch_alpha is not None:
            if value < 0.0:
                raise ValueError(
                    f"sketch-backed histogram {self.name!r} observed "
                    f"negative value {value}"
                )
            child.sketch.add(value)
            return
        child.bucket_counts[bisect_left(self.buckets, value)] += 1
        child.sum += value
        child.count += 1

    # Export: the standard bucket/sum/count explosion -------------------
    def _bucket_name(self, labels: Tuple[str, ...], le: str) -> str:
        inner = ",".join(
            f'{ln}="{_escape_label(lv)}"'
            for ln, lv in zip(self.labelnames, labels)
        )
        sep = "," if inner else ""
        return f'{self.name}_bucket{{{inner}{sep}le="{le}"}}'

    def _sketch_buckets(self, child: _Child) -> List[Tuple[str, int]]:
        """Cumulative ``(le, count)`` pairs of one sketch-backed child.

        The zero bucket renders at ``le="0.0"`` and each occupied sketch
        bucket at its exact upper boundary ``gamma**k`` — ascending, so
        the output is a standard valid Prometheus cumulative histogram.
        """
        sketch = child.sketch
        acc = sketch.zero_count
        out = [(_fmt(0.0), acc)]
        for k, n in sketch.positive_bin_items():
            acc += n
            out.append((_fmt(sketch.bin_upper(k)), acc))
        return out

    def samples(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, child in self._children.items():
            if self.sketch_alpha is not None:
                for le, acc in self._sketch_buckets(child):
                    out[self._bucket_name(key, le)] = float(acc)
                sketch = child.sketch
                out[self._bucket_name(key, "+Inf")] = float(sketch.count)
                out[self._series_name(key, "_sum")] = sketch.sum
                out[self._series_name(key, "_count")] = float(sketch.count)
                continue
            acc = 0
            for upper, n in zip(self.buckets, child.bucket_counts):
                acc += n
                out[self._bucket_name(key, _fmt(upper))] = float(acc)
            out[self._bucket_name(key, "+Inf")] = float(child.count)
            out[self._series_name(key, "_sum")] = child.sum
            out[self._series_name(key, "_count")] = float(child.count)
        return out

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self._children.items():
            if self.sketch_alpha is not None:
                for le, acc in self._sketch_buckets(child):
                    lines.append(f"{self._bucket_name(key, le)} {acc}")
                sketch = child.sketch
                lines.append(
                    f'{self._bucket_name(key, "+Inf")} {sketch.count}'
                )
                lines.append(
                    f"{self._series_name(key, '_sum')} {_fmt(sketch.sum)}"
                )
                lines.append(
                    f"{self._series_name(key, '_count')} {sketch.count}"
                )
                continue
            acc = 0
            for upper, n in zip(self.buckets, child.bucket_counts):
                acc += n
                lines.append(f"{self._bucket_name(key, _fmt(upper))} {acc}")
            lines.append(f'{self._bucket_name(key, "+Inf")} {child.count}')
            lines.append(f"{self._series_name(key, '_sum')} {_fmt(child.sum)}")
            lines.append(f"{self._series_name(key, '_count')} {child.count}")
        return lines


class MetricsRegistry:
    """All metrics of one deployment, in registration order."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(
                labelnames
            ):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}{existing.labelnames}"
                )
            return existing
        metric = cls(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        sketch_alpha: Optional[float] = None,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            help,
            labelnames,
            buckets=buckets,
            sketch_alpha=sketch_alpha,
        )

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        return list(self._metrics.values())

    def samples(self) -> Dict[str, float]:
        """Every exported sample as ``{series_name: value}`` — the exact
        dict :func:`parse_prometheus_text` recovers from the text dump."""
        out: Dict[str, float] = {}
        for metric in self._metrics.values():
            out.update(metric.samples())
        return out

    def prometheus_text(self) -> str:
        """The Prometheus text exposition format dump (deterministic)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a Prometheus text dump back to ``{series_name: value}``.

    The inverse of :meth:`MetricsRegistry.prometheus_text` for the
    round-trip gate: values render via ``repr(float)``, so
    ``parse_prometheus_text(registry.prometheus_text()) ==
    registry.samples()`` must hold with exact float equality.

    A line that is not a comment and not ``name[{labels}] value`` raises
    ``ValueError`` naming the offending line — silent skips would let a
    truncated dump "round-trip" to a subset.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # The series name may contain spaces (and even ``}``) only
        # inside the label braces; the value never contains ``}``, so
        # the *last* closing brace ends the name.
        if "}" in line:
            brace = line.rindex("}")
            name, value_str = line[: brace + 1], line[brace + 1 :].strip()
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"malformed Prometheus sample line: {line!r}")
            name, value_str = parts
        if not name or not value_str:
            raise ValueError(f"malformed Prometheus sample line: {line!r}")
        try:
            out[name] = float(value_str)
        except ValueError:
            raise ValueError(
                f"malformed Prometheus sample value in line: {line!r}"
            ) from None
    return out
