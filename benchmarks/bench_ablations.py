"""Ablation benches for the design choices DESIGN.md calls out.

* special vs arbitrary moduli (reverse-converter cost — Section IV-B);
* BFP rounding mode (accuracy);
* 6- vs 8-bit weight DACs (paper: 1.09x power — Section VI-E);
* conservative vs paper-implied ADC energy (breakdown sensitivity);
* dataflow flexibility gains on the systolic baseline (paper: ~12%).
"""

import pytest

from repro.analysis import (
    run_adc_energy_ablation,
    run_batch_sweep,
    run_dac_precision_ablation,
    run_dataflow_ablation,
    run_inference_qat,
    run_interleave_sweep,
    run_moduli_ablation,
    run_rounding_ablation,
)


def test_moduli_ablation(benchmark):
    text = benchmark.pedantic(lambda: run_moduli_ablation(n_values=100_000),
                              rounds=1, iterations=1)
    print("\n" + text)
    assert "special k=5" in text


def test_rounding_ablation(benchmark, accuracy_setup):
    text = benchmark.pedantic(
        lambda: run_rounding_ablation(setup=accuracy_setup),
        rounds=1, iterations=1,
    )
    print("\n" + text)
    assert "truncate" in text and "stochastic" in text


def test_dac_precision_ablation(benchmark):
    text = benchmark(run_dac_precision_ablation)
    print("\n" + text)
    # The 8-bit DAC overhead must be small (paper: 1.09x).
    lines = [l for l in text.splitlines() if "8-bit" in l]
    ratio = float(lines[0].split("|")[-1])
    assert 1.0 <= ratio <= 1.25


def test_adc_energy_ablation(benchmark):
    text = benchmark(run_adc_energy_ablation)
    print("\n" + text)
    assert "conservative" in text


def test_interleave_sweep(benchmark):
    """Section IV-C: the 10-way digital interleaving exactly feeds the
    10 GHz optics; fewer copies throttle the core proportionally."""
    text = benchmark(run_interleave_sweep)
    print("\n" + text)
    assert "bottlenecks" in text
    lines = [l for l in text.splitlines() if l.strip().startswith("10 ")]
    assert lines and "-" in lines[0].split("|")[-1]


def test_inference_qat(benchmark, accuracy_setup):
    """Section VI-D: QAT recovers low-bm inference accuracy that
    post-training quantisation loses."""
    text = benchmark.pedantic(
        lambda: run_inference_qat(setup=accuracy_setup, bm=3),
        rounds=1, iterations=1,
    )
    print("\n" + text)
    assert "QAT" in text and "PTQ" in text


def test_master_weight_ablation(benchmark, accuracy_setup):
    """Section V-A's FP32 master-weight decision: quantising the stored
    weights (no master copy) loses the sub-quantisation-step updates and
    training collapses."""
    from repro.analysis import run_master_weight_ablation

    text = benchmark.pedantic(
        lambda: run_master_weight_ablation(setup=accuracy_setup),
        rounds=1, iterations=1,
    )
    print("\n" + text)
    # Lines containing "|": the header row then the two data rows.
    rows = [l for l in text.splitlines() if "|" in l][1:]
    fp32 = float(rows[0].split("|")[-1])
    bfp = float(rows[1].split("|")[-1])
    assert fp32 > bfp + 10.0


def test_design_space_sweep(benchmark):
    """Section VI-A as a tool: the paper's design point must sit on the
    accuracy-feasible Pareto frontier."""
    from repro.arch import pareto_frontier, sweep_designs

    def run():
        return pareto_frontier(sweep_designs(workloads=("ResNet18", "VGG16")))

    frontier = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nPareto frontier (bm, g, v, arrays):")
    for p in frontier:
        print(f"  bm={p.bm} g={p.g} v={p.v} A={p.num_arrays}: "
              f"{p.energy_per_mac * 1e12:.3f} pJ/MAC, {p.area / 1e-6:.0f} mm2")
    assert any(p.bm == 4 and p.g == 16 and p.v == 32 for p in frontier)


def test_batch_sweep(benchmark):
    """Batch size amortises the 5 ns tile reprogram on FC-heavy models:
    per-sample latency improves from batch 1 to 64 and then saturates."""
    text = benchmark(run_batch_sweep)
    print("\n" + text)
    rows = [l for l in text.splitlines() if "|" in l][1:]
    per_sample = [float(r.split("|")[2]) for r in rows]
    assert per_sample[0] > 1.5 * per_sample[-1]  # amortisation gain
    assert per_sample[-2] == pytest.approx(per_sample[-1], rel=0.05)  # saturated


def test_dataflow_ablation(benchmark):
    text = benchmark(run_dataflow_ablation)
    print("\n" + text)
    avg = [l for l in text.splitlines() if l.startswith("average")][0]
    opt2_gain = float(avg.split("|")[-1])
    assert opt2_gain >= 0.0
