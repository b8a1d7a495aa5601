"""Bench trajectory: every standing gate's headline number in one table.

Each PR's benchmark writes its committed ``BENCH_*.json`` at the repo
root, but until now nothing collected the headline numbers — the gain
factors, p99 ratios and overhead budgets the ROADMAP's standing gates
are stated in — into one place.  This module does exactly that, and
nothing else: read the committed artifacts, pull each gate's headline
metric, render a deterministic fixed-width table.

Run::

    python -m benchmarks.trajectory            # table
    python -m benchmarks.trajectory --json     # machine-readable rows

Missing artifacts (a bench not yet regenerated) render as ``missing``
rather than failing, so the table is useful mid-migration; the exit
code is 0 either way.  Output is a pure function of the JSON files —
byte-identical across invocations.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["HEADLINES", "collect", "render", "main"]

# (artifact, bench, ((metric path, gate bar), ...)) — one entry per
# standing gate in ROADMAP.md, headline metrics only.
HEADLINES = (
    (
        "BENCH_core_gemm.json",
        "core_gemm",
        (
            ("speedup_vs_seed/gemm_512x512x256", ">= seed (budget gate)"),
            ("current_s/gemm_512x512x256", "<= budget_s"),
            ("current_s/weight_static_96x48x16", "decode-layer call (s)"),
            ("budget_s", "REPRO_BENCH_BUDGET"),
        ),
    ),
    (
        "BENCH_serving.json",
        "serving",
        (("microbatch_throughput_gain_vs_batch1", ">= 3x"),),
    ),
    (
        "BENCH_autoscale.json",
        "autoscale",
        (
            ("p99_vs_static_peak", "<= 1.2x"),
            ("replica_seconds_vs_static_peak", "<= 0.70"),
        ),
    ),
    (
        "BENCH_continuous.json",
        "continuous",
        (("token_throughput_gain_vs_static", ">= 2x"),),
    ),
    (
        "BENCH_prefix.json",
        "prefix",
        (
            ("prefill_token_reduction", ">= 2x"),
            ("ttft_p99_cold_over_shared", ">= 1 (no worse than cold)"),
        ),
    ),
    (
        "BENCH_resilience.json",
        "resilience",
        (
            ("goodput_ratio_vs_fault_free", ">= 0.9"),
            ("interactive_ttft_slo_attainment", ">= 0.95"),
        ),
    ),
    (
        "BENCH_observability.json",
        "observability",
        (
            ("overhead_ratio", "<= 1.25x"),
            ("analysis_overhead_ratio", "<= 0.10x"),
        ),
    ),
    (
        "BENCH_obs_scale.json",
        "obs_scale",
        (
            ("alpha", "sketch rel-error bound"),
            ("retained_fraction", "tail-kept share of sessions"),
            ("memory_budget_ratio", "<= 1.0"),
        ),
    ),
    (
        "BENCH_reach.json",
        "reach",
        (
            ("totals/executable_lines", "src/repro, python -m benchmarks.reach"),
            ("totals/unreached_lines", "run by no non-test entry point"),
            ("totals/never_entered_functions", "each deleted or kept for a reason"),
        ),
    ),
)


def _lookup(payload: Dict[str, Any], path: str) -> Optional[Any]:
    node: Any = payload
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def collect(root: Path) -> List[Dict[str, Any]]:
    """One row per headline metric, in HEADLINES (gate) order."""
    rows: List[Dict[str, Any]] = []
    for artifact, bench, metrics in HEADLINES:
        path = root / artifact
        payload: Optional[Dict[str, Any]] = None
        if path.is_file():
            payload = json.loads(path.read_text())
        for metric, bar in metrics:
            value = _lookup(payload, metric) if payload is not None else None
            rows.append(
                {
                    "bench": bench,
                    "artifact": artifact,
                    "metric": metric,
                    "bar": bar,
                    "value": value,
                    "present": value is not None,
                }
            )
    return rows


def _fmt_value(value: Any) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render(rows: Sequence[Dict[str, Any]]) -> str:
    """Deterministic fixed-width trajectory table."""
    header = ("bench", "metric", "value", "gate bar")
    cells = [header] + [
        (r["bench"], r["metric"], _fmt_value(r["value"]), r["bar"])
        for r in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append(
            "  ".join(col.ljust(width) for col, width in zip(row, widths)).rstrip()
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    present = sum(1 for r in rows if r["present"])
    lines.append("")
    lines.append(
        f"{present}/{len(rows)} headline metrics recorded "
        f"across {len(HEADLINES)} standing gates"
    )
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.trajectory",
        description="Summarize every standing gate's headline numbers.",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parents[1],
        help="repo root holding the BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit rows as JSON instead"
    )
    args = parser.parse_args(argv)
    rows = collect(args.root)
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=2))
    else:
        print(render(rows), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
