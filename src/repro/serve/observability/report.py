"""Deterministic "flight reports" for traced serving runs.

A flight report is the one-stop post-run artifact the serving benches
emit: run config, the fleet critical-path rollup
(:func:`~repro.serve.observability.critical_path.fleet_rollup`),
bit-exact hardware attribution
(:class:`~repro.serve.observability.profiler.HardwareAttributionProfiler`),
SLO attainment, trace volume, and the worst-session outlier exemplars —
bundled into one JSON-safe dict (:func:`build_flight_report`) and one
markdown rendering (:func:`report_to_markdown`), both pure functions of
the recorded run, so two seeded replays produce byte-identical
artifacts.

``telemetry`` is duck-typed: an
:class:`~repro.serve.telemetry.EngineTelemetry` contributes its
completed sessions to the critical-path rollup and (with ``profile``)
its step records to the attribution; passing neither still yields a
valid report over the trace/metrics/SLO planes alone.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .critical_path import PHASE_NAMES, fleet_rollup
from .profiler import HardwareAttributionProfiler

__all__ = ["build_flight_report", "report_to_markdown"]

SCHEMA_VERSION = 1


def build_flight_report(
    observability,
    *,
    name: str = "serving run",
    config: Optional[Dict[str, Any]] = None,
    telemetry=None,
    profile=None,
    accelerator=None,
    worst_k: int = 3,
    now: Optional[float] = None,
    sampled=None,
) -> Dict[str, Any]:
    """Bundle one traced run's analysis into a single report dict.

    ``sampled`` (a :class:`~.streaming.TailSampler`) switches the
    critical-path section to sketch mode: exact exemplars over the
    surviving timelines plus population-wide sketched percentiles.
    """
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "config": dict(config) if config else {},
    }

    tracer = observability.tracer
    report["trace"] = tracer.summary() if tracer is not None else None

    sessions = getattr(telemetry, "sessions", None)
    if tracer is not None and sessions:
        report["critical_path"] = fleet_rollup(
            tracer, sessions, worst_k=worst_k, sampled=sampled
        )
    else:
        report["critical_path"] = None

    if telemetry is not None and profile is not None:
        attribution = HardwareAttributionProfiler(
            accelerator
        ).attribute_engine(profile, telemetry)
        report["attribution"] = attribution
    else:
        report["attribution"] = None

    report["metrics"] = {
        "metrics": len(observability.registry.metrics()),
        "samples": len(observability.registry.samples()),
    }
    report["slo"] = (
        observability.slo.summary(now)
        if observability.slo is not None
        else None
    )
    return report


def _md_row(cells) -> str:
    return "| " + " | ".join(str(c) for c in cells) + " |"


def _fmt_s(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds:.6e}"


def _exemplar_line(tag: str, exemplar: Optional[Dict[str, Any]]) -> str:
    if exemplar is None:
        return f"- {tag}: (no sessions)"
    phases = exemplar["phases"] or {}
    split = ", ".join(
        f"{name} {_fmt_s(phases[name])}" for name in PHASE_NAMES if name in phases
    )
    return (
        f"- {tag}: session {exemplar['session_id']} "
        f"(class {exemplar['priority']}) {_fmt_s(exemplar['value_s'])} s — "
        f"{split}"
    )


def report_to_markdown(report: Dict[str, Any]) -> str:
    """Deterministic markdown rendering of :func:`build_flight_report`."""
    lines = [f"# Flight report — {report['name']}", ""]

    config = report.get("config") or {}
    if config:
        lines += ["## Config", "", _md_row(["key", "value"]), _md_row(["---", "---"])]
        lines += [_md_row([key, config[key]]) for key in sorted(config)]
        lines.append("")

    trace = report.get("trace")
    if trace is not None:
        lines += [
            "## Trace",
            "",
            f"{trace['spans']} spans, {trace['instants']} instants "
            f"(by track: {trace['spans_by_track']})",
            "",
        ]

    rollup = report.get("critical_path")
    if rollup is not None:
        lines += [
            "## Critical path",
            "",
            f"{rollup['sessions']} completed sessions, "
            f"{rollup['exact_sessions']} with bit-exact phase decompositions",
            "",
            _md_row(["phase", "total_s", "share"]),
            _md_row(["---", "---", "---"]),
        ]
        for phase in PHASE_NAMES:
            lines.append(
                _md_row(
                    [
                        phase,
                        _fmt_s(rollup["phase_totals_s"][phase]),
                        f"{rollup['phase_shares'][phase]:.2%}",
                    ]
                )
            )
        lines.append("")
        sampled = rollup.get("sampled")
        if sampled is not None:
            lines += [
                "### Tail-sampled fleet (sketch mode)",
                "",
                f"{sampled['folded']} sessions folded into sketches "
                f"(alpha {sampled['alpha']}), {sampled['kept']} kept at "
                f"full fidelity, {sampled['dropped']} dropped",
                "",
                _md_row(["distribution", "count", "p50_s", "p99_s"]),
                _md_row(["---", "---", "---", "---"]),
            ]
            for name in sorted(sampled["sketches"]):
                sketch = sampled["sketches"][name]
                lines.append(
                    _md_row(
                        [
                            name,
                            sketch["count"],
                            _fmt_s(sketch["p50_s"]),
                            _fmt_s(sketch["p99_s"]),
                        ]
                    )
                )
            lines.append("")
        for metric, title in (("ttft", "TTFT"), ("e2e", "E2E")):
            block = rollup.get(metric)
            if block is None:
                continue
            lines.append(f"### {title} percentile attribution")
            lines.append("")
            lines.append(_exemplar_line("p50", block["p50"]))
            lines.append(_exemplar_line("p99", block["p99"]))
            lines.append("")
        if rollup["classes"]:
            lines += ["### Blocking sessions per class", ""]
            for cls in sorted(rollup["classes"]):
                info = rollup["classes"][cls]
                lines.append(
                    f"- **{cls}** ({info['sessions']} sessions, "
                    f"{info['outliers']} MAD outliers):"
                )
                for b in info["worst"]:
                    tag = " [outlier]" if b["outlier"] else ""
                    lines.append(
                        f"  - session {b['session_id']}: "
                        f"{_fmt_s(b['e2e_s'])} s, dominated by "
                        f"{b['dominant_phase']}{tag}"
                    )
            lines.append("")

    attribution = report.get("attribution")
    if attribution is not None:
        lines += [
            "## Hardware attribution",
            "",
            f"{attribution['checked_spans']} steps re-priced, max abs error "
            f"{_fmt_s(attribution['max_abs_error_s'])} s (bit-exact), busy "
            f"{_fmt_s(attribution['total_busy_s'])} s, stall "
            f"{_fmt_s(attribution['stall_s'])} s",
            "",
            _md_row(["component", "seconds", "share", "spans"]),
            _md_row(["---", "---", "---", "---"]),
        ]
        for row in attribution["components"]:
            lines.append(
                _md_row(
                    [
                        row["path"],
                        _fmt_s(row["seconds"]),
                        f"{row['share']:.2%}",
                        row["spans"],
                    ]
                )
            )
        lines.append("")

    slo = report.get("slo")
    if slo is not None:
        lines += [
            "## SLO",
            "",
            f"objective {slo['objective']} ({slo['slo']}), "
            f"{slo['alerts_fired']} burn alerts fired",
            "",
        ]
        for key in sorted(slo["keys"]):
            info = slo["keys"][key]
            rate = info["error_rate"]
            lines.append(
                f"- {key}: {info['events']} events, "
                f"error rate {'-' if rate is None else f'{rate:.4f}'}"
            )
        lines.append("")

    metrics = report.get("metrics")
    if metrics is not None:
        lines += [
            "## Metrics",
            "",
            f"{metrics['metrics']} metric families, "
            f"{metrics['samples']} exported samples",
            "",
        ]
    return "\n".join(lines)
