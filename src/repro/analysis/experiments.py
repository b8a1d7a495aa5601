"""Experiment generators — one function per paper table/figure.

Each ``run_*`` returns structured data; each ``report_*`` renders the same
rows/series the paper plots.  The benchmark harness under ``benchmarks/``
invokes these one-to-one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch import (
    MIRAGE_DATAFLOWS,
    MirageAccelerator,
    MirageConfig,
    SYSTOLIC_DATAFLOWS,
    SystolicConfig,
    TABLE_II_FORMATS,
    compare_workload,
    fig1b_series,
    mac_energy_breakdown,
    mirage_latency_fn,
    per_layer_latencies,
    step_latency,
    systolic_latency_fn,
    table3_rows,
    workload,
    workload_names,
    workload_utilization,
)
from ..arch.breakdown import (
    PAPER_AREA_SHARES,
    PAPER_POWER_SHARES,
    PAPER_TOTAL_AREA_MM2,
    PAPER_TOTAL_POWER_W,
    area_pie,
    power_pie,
)
from ..photonic.errors import mdpu_output_error, min_dac_bits
from .accuracy import AccuracySetup, run_accuracy
from .reporting import format_series, format_table

__all__ = [
    "run_fig1b",
    "run_fig5a",
    "run_fig5b",
    "run_fig6a",
    "run_fig6b",
    "run_fig7a",
    "run_fig7b",
    "run_fig8",
    "run_fig9",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_noise_study",
]

_FIG8_FORMAT_ORDER = ("FP32", "BFLOAT16", "HFP8", "INT12", "INT8", "FMAC")


# ----------------------------------------------------------------------
# Fig. 1b — converter energy vs precision
# ----------------------------------------------------------------------
def run_fig1b(max_bits: int = 16) -> str:
    rows = [
        (b, adc * 1e12, dac * 1e12, adc / dac)
        for b, adc, dac in fig1b_series(max_bits)
    ]
    return format_table(
        ["bits", "ADC pJ/conv", "DAC pJ/conv", "ADC/DAC"],
        rows,
        title="Fig. 1b: energy per conversion vs bit precision (Murmann model)",
    )


# ----------------------------------------------------------------------
# Fig. 5a — accuracy vs (bm, g)
# ----------------------------------------------------------------------
def run_fig5a(
    g_values: Sequence[int] = (4, 8, 16, 32, 64),
    bm_values: Sequence[int] = (3, 4, 5),
    setup: Optional[AccuracySetup] = None,
    task: str = "resnet18",
) -> Tuple[str, Dict[str, List[float]]]:
    setup = setup or AccuracySetup(epochs=3)
    fp32 = run_accuracy(task, "fp32", setup=setup)
    series: Dict[str, List[float]] = {"FP32": [fp32] * len(g_values)}
    for bm in bm_values:
        vals = []
        for g in g_values:
            vals.append(run_accuracy(task, "mirage", bm=bm, g=g, setup=setup))
        series[f"bm={bm}"] = vals
    text = format_series(
        "g",
        list(g_values),
        series,
        title=f"Fig. 5a: {task} validation accuracy vs BFP group size",
    )
    return text, series


# ----------------------------------------------------------------------
# Fig. 5b — energy per MAC vs (bm, g)
# ----------------------------------------------------------------------
def run_fig5b(
    g_values: Sequence[int] = (4, 8, 16, 32, 64, 128),
    bm_values: Sequence[int] = (3, 4, 5),
) -> Tuple[str, Dict[str, List[float]]]:
    series: Dict[str, List[float]] = {}
    for bm in bm_values:
        vals = []
        for g in g_values:
            try:
                vals.append(sum(mac_energy_breakdown(bm, g).values()) * 1e12)
            except ValueError:
                vals.append(float("nan"))
        series[f"bm={bm}"] = vals
    text = format_series(
        "g",
        list(g_values),
        series,
        title="Fig. 5b: pJ/MAC vs group size (k = k_min(bm, g))",
    )
    return text, series


# ----------------------------------------------------------------------
# Fig. 6 — spatial utilisation sweeps
# ----------------------------------------------------------------------
def run_fig6a(
    mdpu_counts: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 256),
    g: int = 16,
) -> Tuple[str, Dict[str, List[float]]]:
    series = {}
    for name in workload_names():
        layers = workload(name)
        series[name] = [
            100.0 * workload_utilization(layers, v, g, 1) for v in mdpu_counts
        ]
    text = format_series(
        "#MDPUs",
        list(mdpu_counts),
        series,
        title="Fig. 6a: spatial utilisation (%) vs MDPUs per MMVMU (g=16)",
        float_fmt="{:.1f}",
    )
    return text, series


def run_fig6b(
    array_counts: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 256),
    v: int = 32,
    g: int = 16,
) -> Tuple[str, Dict[str, List[float]]]:
    series = {}
    for name in workload_names():
        layers = workload(name)
        series[name] = [
            100.0 * workload_utilization(layers, v, g, a) for a in array_counts
        ]
    text = format_series(
        "#RNS-MMVMUs",
        list(array_counts),
        series,
        title="Fig. 6b: spatial utilisation (%) vs number of RNS-MMVMUs (16x32)",
        float_fmt="{:.1f}",
    )
    return text, series


# ----------------------------------------------------------------------
# Fig. 7 — per-layer latency and dataflow comparison
# ----------------------------------------------------------------------
def run_fig7a(config: Optional[MirageConfig] = None) -> str:
    """Per-layer AlexNet latencies under each dataflow, Mirage + 1 GHz SA."""
    config = config or MirageConfig()
    layers = workload("AlexNet")
    mir = per_layer_latencies(layers, mirage_latency_fn(config), MIRAGE_DATAFLOWS)
    sa_cfg = SystolicConfig(TABLE_II_FORMATS["INT12"], num_arrays=config.num_arrays)
    sa = per_layer_latencies(layers, systolic_latency_fn(sa_cfg), SYSTOLIC_DATAFLOWS)
    rows = []
    for m_entry, s_entry in zip(mir, sa):
        rows.append(
            (
                m_entry.layer,
                m_entry.role,
                m_entry.latency_by_dataflow["DF1"] * 1e9,
                m_entry.latency_by_dataflow["DF2"] * 1e9,
                s_entry.latency_by_dataflow["DF1"] * 1e9,
                s_entry.latency_by_dataflow["DF2"] * 1e9,
                s_entry.latency_by_dataflow["DF3"] * 1e9,
            )
        )
    return format_table(
        ["layer", "role", "Mirage DF1 ns", "Mirage DF2 ns",
         "SA DF1 ns", "SA DF2 ns", "SA DF3 ns"],
        rows,
        title="Fig. 7a: AlexNet per-layer training-step latency by dataflow",
    )


def run_fig7b(config: Optional[MirageConfig] = None) -> Tuple[str, Dict[str, Dict[str, float]]]:
    """Step latency per workload for DF1/DF2(/DF3)/OPT1/OPT2, normalised to DF1."""
    config = config or MirageConfig()
    results: Dict[str, Dict[str, float]] = {}
    rows = []
    for name in workload_names():
        layers = workload(name)
        mfn = mirage_latency_fn(config)
        mir = {
            policy: step_latency(layers, mfn, MIRAGE_DATAFLOWS, policy)
            for policy in ("DF1", "DF2", "OPT1", "OPT2")
        }
        sa_cfg = SystolicConfig(TABLE_II_FORMATS["INT12"], num_arrays=config.num_arrays)
        sfn = systolic_latency_fn(sa_cfg)
        sa = {
            policy: step_latency(layers, sfn, SYSTOLIC_DATAFLOWS, policy)
            for policy in ("DF1", "DF2", "DF3", "OPT1", "OPT2")
        }
        results[name] = {"mirage": mir, "systolic": sa}
        rows.append(
            (
                name,
                1.0,
                mir["DF2"] / mir["DF1"],
                mir["OPT1"] / mir["DF1"],
                mir["OPT2"] / mir["DF1"],
                sa["DF2"] / sa["DF1"],
                sa["DF3"] / sa["DF1"],
                sa["OPT1"] / sa["DF1"],
                sa["OPT2"] / sa["DF1"],
            )
        )
    text = format_table(
        ["model", "Mir DF1", "Mir DF2", "Mir OPT1", "Mir OPT2",
         "SA DF2", "SA DF3", "SA OPT1", "SA OPT2"],
        rows,
        title="Fig. 7b: step latency normalised to DF1",
        float_fmt="{:.3f}",
    )
    return text, results


# ----------------------------------------------------------------------
# Fig. 8 — iso-energy / iso-area comparison
# ----------------------------------------------------------------------
def run_fig8(
    workloads: Optional[Sequence[str]] = None,
    accelerator: Optional[MirageAccelerator] = None,
) -> Tuple[str, Dict[str, object]]:
    accelerator = accelerator or MirageAccelerator()
    workloads = list(workloads or workload_names())
    all_rows = []
    data: Dict[str, object] = {}
    for name in workloads:
        res = compare_workload(name, accelerator)
        data[name] = res
        for row in res["rows"]:
            all_rows.append(
                (
                    row.workload,
                    row.fmt,
                    row.scenario,
                    row.num_arrays,
                    row.runtime_ratio,
                    row.edp_ratio,
                    1.0 / row.power_ratio,
                )
            )
    text = format_table(
        ["workload", "format", "scenario", "#arrays",
         "runtime (SA/Mirage)", "EDP (SA/Mirage)", "power (Mirage/SA)"],
        all_rows,
        title=("Fig. 8: training runtime / EDP / power vs systolic arrays "
               "(ratios > 1 favour Mirage for runtime & EDP, < 1 for power)"),
        float_fmt="{:.3g}",
    )
    # Paper-style geomean summary vs best accurate format per scenario.
    summary = _fig8_summary(data)
    return text + "\n\n" + summary, data


def _geomean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0 and not math.isnan(v)]
    return math.exp(sum(math.log(v) for v in vals) / len(vals)) if vals else float("nan")


def _fig8_summary(data: Dict[str, object]) -> str:
    rows = []
    for fmt in _FIG8_FORMAT_ORDER:
        for scenario in ("iso_energy", "iso_area"):
            rts, edps, pws = [], [], []
            for res in data.values():
                for row in res["rows"]:
                    if row.fmt == fmt and row.scenario == scenario:
                        rts.append(row.runtime_ratio)
                        edps.append(row.edp_ratio)
                        pws.append(1.0 / row.power_ratio)
            if rts:
                rows.append(
                    (fmt, scenario, _geomean(rts), _geomean(edps), _geomean(pws))
                )
    return format_table(
        ["format", "scenario", "runtime SA/Mirage", "EDP SA/Mirage",
         "power Mirage/SA"],
        rows,
        title="Fig. 8 summary (geomean across workloads; >1 in the first two "
              "columns means Mirage wins, <1 in the third means Mirage draws "
              "less power; paper: 23.8x runtime and 32.1x EDP vs FMAC "
              "iso-energy, 42.8x lower power iso-area)",
        float_fmt="{:.3g}",
    )


# ----------------------------------------------------------------------
# Fig. 9 — power & area breakdown
# ----------------------------------------------------------------------
def run_fig9(config: Optional[MirageConfig] = None) -> str:
    total_w, power_shares = power_pie(config)
    total_mm2, footprint, area_shares = area_pie(config)
    rows = []
    for key, share in sorted(power_shares.items(), key=lambda kv: -kv[1]):
        rows.append((key, share, PAPER_POWER_SHARES.get(key, float("nan"))))
    t1 = format_table(
        ["component", "measured %", "paper %"],
        rows,
        title=(f"Fig. 9 (power): total {total_w:.2f} W "
               f"(paper {PAPER_TOTAL_POWER_W:.2f} W)"),
        float_fmt="{:.1f}",
    )
    rows2 = []
    for key, share in sorted(area_shares.items(), key=lambda kv: -kv[1]):
        rows2.append((key, share, PAPER_AREA_SHARES.get(key, float("nan"))))
    t2 = format_table(
        ["component", "measured %", "paper %"],
        rows2,
        title=(f"Fig. 9 (area): total {total_mm2:.1f} mm2, 3D footprint "
               f"{footprint:.1f} mm2 (paper {PAPER_TOTAL_AREA_MM2:.1f} / "
               "242.7 mm2)"),
        float_fmt="{:.1f}",
    )
    return t1 + "\n\n" + t2


# ----------------------------------------------------------------------
# Table I — accuracy across number formats
# ----------------------------------------------------------------------
def run_table1(
    tasks: Sequence[str] = ("resnet18", "mobilenet", "yolo", "transformer"),
    formats: Sequence[str] = ("mirage", "fp32", "bfloat16", "int8", "int12",
                              "hfp8", "fmac"),
    setup: Optional[AccuracySetup] = None,
) -> Tuple[str, Dict[str, Dict[str, float]]]:
    setup = setup or AccuracySetup(epochs=3)
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for task in tasks:
        data[task] = {}
        row = [task]
        for fmt in formats:
            metric = run_accuracy(task, fmt, setup=setup)
            data[task][fmt] = metric
            row.append(100.0 * metric)
        rows.append(tuple(row))
    text = format_table(
        ["model"] + [f.upper() for f in formats],
        rows,
        title=("Table I: validation metric (%) by number format "
               "(synthetic tasks; ordering, not absolute values, is the "
               "reproduction target)"),
        float_fmt="{:.1f}",
    )
    return text, data


# ----------------------------------------------------------------------
# Table II — MAC-unit comparison
# ----------------------------------------------------------------------
def run_table2(accelerator: Optional[MirageAccelerator] = None) -> str:
    accelerator = accelerator or MirageAccelerator()
    rows = [
        (
            "Mirage (measured)",
            accelerator.energy_per_mac * 1e12,
            accelerator.total_area / accelerator.config.macs_per_cycle / 1e-6,
            accelerator.config.photonic_clock_hz / 1e9,
        )
    ]
    paper_mirage = ("Mirage (paper)", 0.21, 0.12, 10.0)
    rows.append(paper_mirage)
    for fmt in TABLE_II_FORMATS.values():
        rows.append(
            (
                fmt.name,
                fmt.energy_per_mac * 1e12,
                fmt.area_per_mac / 1e-6 if fmt.area_per_mac > 0 else float("nan"),
                fmt.clock_hz / 1e9,
            )
        )
    return format_table(
        ["MAC unit", "pJ/MAC", "mm2/MAC", "f (GHz)"],
        rows,
        title="Table II: performance, power and area of MAC units",
        float_fmt="{:.3g}",
    )


# ----------------------------------------------------------------------
# Table III — inference comparison
# ----------------------------------------------------------------------
def run_table3(accelerator: Optional[MirageAccelerator] = None) -> str:
    rows = table3_rows(accelerator)
    fmt_rows = [
        (acc, model,
         ips if ips is not None else float("nan"),
         ipw if ipw is not None else float("nan"),
         ipm if ipm is not None else float("nan"))
        for acc, model, ips, ipw, ipm in rows
    ]
    return format_table(
        ["accelerator", "model", "IPS", "IPS/W", "IPS/mm2"],
        fmt_rows,
        title="Table III: Mirage vs published DNN inference accelerators",
        float_fmt="{:.5g}",
    )


# ----------------------------------------------------------------------
# Section VI-E — noise, DAC precision, RRNS
# ----------------------------------------------------------------------
def run_noise_study(
    h: int = 16,
    moduli: Sequence[int] = (31, 32, 33),
    dac_bits: Sequence[int] = (4, 5, 6, 7, 8, 9, 10, 12),
) -> str:
    rows = []
    for m in moduli:
        b_out = max(1, math.ceil(math.log2(m)))
        for bits in dac_bits:
            err = mdpu_output_error(h, m, bits)
            rows.append((m, bits, err, 2.0**-b_out, "yes" if err <= 2.0**-b_out else "no"))
    table = format_table(
        ["modulus", "DAC bits", "output error", "budget 2^-bout", "meets?"],
        rows,
        title=f"Sec. VI-E: Eq. 14 accumulated error at h={h}",
        float_fmt="{:.4g}",
    )
    mins = [(m, min_dac_bits(h, m, max(1, math.ceil(math.log2(m))))) for m in moduli]
    table += "\n\nminimum DAC precision per modulus: " + ", ".join(
        f"m={m}: {b} bits" for m, b in mins
    ) + "  (paper: b_DAC >= 8 suffices)"
    return table
