"""Section VII / VI-E studies: the comparator and robustness experiments.

One runner per study, each returning a printable report (matching the
:mod:`repro.analysis.experiments` convention):

* :func:`run_dnnara_scaling` — one-hot switching networks vs Mirage MMUs,
  devices per MAC as the modulus grows (Section VII's DNNARA paragraph);
* :func:`run_pim_study` — bit-sliced ReRAM partial-sum truncation sweep
  and the PipeLayer power/area-efficiency ratios;
* :func:`run_pure_rns_study` — stay-in-RNS inference (Res-DNN / RNSnet
  style) vs Mirage's hybrid arithmetic on a trained MLP;
* :func:`run_base_extension_study` — exact vs approximate base extension
  cost and failure rates (the hidden tax of pure-RNS pipelines);
* :func:`run_calibration_study` — Section VI-E's "process variations can
  be calibrated away" claim, before/after error rates;
* :func:`run_technology_tradeoff` — the Section II-E1 actuation-mechanism
  table, quantified;
* :func:`run_roofline` — arithmetic intensity and memory-boundedness of
  every workload on the Section IV-C memory system.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..arch import (
    DenseLayer,
    HybridRnsNetwork,
    MirageConfig,
    PimConfig,
    PimCostModel,
    PureRnsConfig,
    PureRnsNetwork,
    adc_bits_required,
    float_reference_forward,
    mirage_bandwidth,
    mirage_total_area,
    pim_relative_error,
    scaling_comparison,
    workload,
    workload_names,
    workload_roofline,
)
from ..arch.energy import MirageEnergyModel
from ..nn import (
    Flatten,
    Linear,
    ReLU,
    Sequential,
    Tanh,
    make_shape_images,
    train_classifier,
)
from ..photonic import calibration_error_rates, technology_comparison
from ..rns import (
    approx_base_extend,
    extension_op_counts,
    forward_convert,
    special_moduli_set,
)
from .accuracy import AccuracySetup
from .reporting import format_table

__all__ = [
    "run_dnnara_scaling",
    "run_pim_study",
    "run_pure_rns_study",
    "run_base_extension_study",
    "run_calibration_study",
    "run_technology_tradeoff",
    "run_roofline",
    "run_rrns_cost_study",
    "run_inference_mode_study",
    "run_pipeline_validation",
    "run_moduli_search",
]


def run_dnnara_scaling() -> str:
    """Devices per modular MAC: DNNARA ``O(m log m)`` vs Mirage ``O(log m)``."""
    rows = scaling_comparison()
    return format_table(
        ["modulus", "DNNARA switches", "Mirage devices", "ratio"],
        [(r["modulus"], r["dnnara_devices"], r["mirage_devices"],
          f"{r['ratio']:.1f}") for r in rows],
        title="Section VII: one-hot switching vs phase-encoded MACs",
    )


def run_pim_study(adc_bits: Sequence[int] = (11, 9, 7, 5)) -> str:
    """Bit-sliced ReRAM truncation sweep + PipeLayer efficiency ratios."""
    lossless = adc_bits_required(PimConfig())
    sweep_rows = []
    for bits in adc_bits:
        err = pim_relative_error(PimConfig(adc_bits=bits), trials=3,
                                 size=(8, 256, 2))
        sweep_rows.append((bits, "exact" if err == 0 else f"{err:.2e}"))
    sweep = format_table(
        ["ADC bits", "mean rel. GEMM error"],
        sweep_rows,
        title=(f"Bit-sliced PIM partial-sum truncation (lossless needs "
               f"{lossless} bits; RNS residues never grow)"),
    )
    cfg = MirageConfig()
    model = MirageEnergyModel(cfg)
    cmp = PimCostModel().compare(
        2 * cfg.peak_macs_per_s, model.peak_power(),
        mirage_total_area(cfg) / 1e-6,
    )
    ratios = format_table(
        ["metric", "Mirage / PipeLayer"],
        [("OPs/s/W", f"{cmp['power_efficiency_ratio']:.1f}x"),
         ("OPs/s/mm2", f"{cmp['area_efficiency_ratio']:.2f}x")],
        title="Section VII efficiency ratios (paper: 14.4x and 1/8.8x)",
    )
    return sweep + "\n\n" + ratios


def _train_float_mlp(
    setup: AccuracySetup, activation: str = "relu", hidden: int = 64
) -> Tuple[list, np.ndarray, np.ndarray]:
    """Train a small float MLP; return (DenseLayers, test_x, test_y)."""
    train_set, test_set = make_shape_images(
        num_classes=setup.num_classes,
        samples_per_class=setup.samples_per_class,
        image_size=setup.image_size,
        seed=setup.seed,
    )
    features = setup.image_size ** 2
    rng = np.random.default_rng(setup.seed)
    act_module = ReLU() if activation == "relu" else Tanh()
    model = Sequential(
        Flatten(),
        Linear(features, hidden, rng=rng),
        act_module,
        Linear(hidden, setup.num_classes, rng=rng),
    )
    train_classifier(model, train_set, test_set, epochs=setup.epochs,
                     batch_size=setup.batch_size, seed=setup.seed)
    linears = [m for m in model.layers if isinstance(m, Linear)]
    layers = []
    for i, lin in enumerate(linears):
        layers.append(DenseLayer(
            np.asarray(lin.weight.data, dtype=np.float64),
            np.asarray(lin.bias.data, dtype=np.float64),
            apply_activation=(i < len(linears) - 1),
        ))
    test_x = np.asarray(test_set.inputs, dtype=np.float64)
    test_x = test_x.reshape(test_x.shape[0], -1).T  # (features, batch)
    test_y = np.asarray(test_set.targets, dtype=np.int64)
    return layers, test_x, test_y


def run_pure_rns_study(setup: Optional[AccuracySetup] = None) -> str:
    """Stay-in-RNS vs hybrid inference accuracy and operation census.

    The Section VII argument, in two halves:

    * **ReLU** (exact in RNS via sign detection) — the pure pipeline only
      fails when the moduli set is too narrow for a layer's accumulator
      (silent wraps); the hybrid one cannot wrap because it rescales in
      float after every GEMM.
    * **tanh** (polynomial in RNS) — pre-activations outside the fit
      interval hit the diverging polynomial tail, an error the hybrid
      scheme's exact float activation never makes.
    """
    setup = setup or AccuracySetup()

    def accuracy(logits: np.ndarray, test_y: np.ndarray) -> float:
        return float(np.mean(np.argmax(logits, axis=0) == test_y))

    sections = []
    study = {
        "relu": (
            PureRnsConfig(k=5, activation_frac_bits=4, weight_frac_bits=4),
            PureRnsConfig(k=6, activation_frac_bits=5, weight_frac_bits=5),
            PureRnsConfig(k=8, activation_frac_bits=7, weight_frac_bits=7),
        ),
        "tanh": (
            PureRnsConfig(k=8, activation_frac_bits=6, weight_frac_bits=6,
                          activation="tanh"),
            PureRnsConfig(k=10, activation_frac_bits=8, weight_frac_bits=8,
                          activation="tanh"),
            PureRnsConfig(k=12, activation_frac_bits=10, weight_frac_bits=10,
                          activation="tanh"),
        ),
    }
    for activation, configs in study.items():
        layers, test_x, test_y = _train_float_mlp(setup, activation)
        float_acc = accuracy(
            float_reference_forward(layers, test_x, activation), test_y
        )
        rows = []
        for cfg in configs:
            pure_logits, pure_ops = PureRnsNetwork(layers, cfg).forward(test_x)
            hybrid_logits, hybrid_ops = HybridRnsNetwork(layers, cfg).forward(
                test_x
            )
            rows.append((
                f"k={cfg.k} ({cfg.operand_bits}-bit residues)",
                f"{accuracy(pure_logits, test_y) * 100:.1f}",
                f"{accuracy(hybrid_logits, test_y) * 100:.1f}",
                pure_ops.rescales + pure_ops.sign_detections,
                hybrid_ops.reverse_conversions + hybrid_ops.forward_conversions,
                pure_ops.overflows,
            ))
        sections.append(format_table(
            ["config", "pure-RNS acc %", "hybrid acc %", "in-RNS ops",
             "hybrid conversions", "overflows"],
            rows,
            title=(f"Stay-in-RNS vs hybrid, {activation} activation "
                   f"(float accuracy {float_acc * 100:.1f}%)"),
        ))
    return "\n\n".join(sections)


def run_base_extension_study(
    frac_bits: Sequence[int] = (4, 8, 12, 16, 24),
    n_values: int = 20_000,
    seed: int = 0,
) -> str:
    """Approximate-CRT base extension failure rate vs fixed-point width,
    plus the per-method modular-operation budget."""
    mset = special_moduli_set(5)
    targets = (7, 13)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, mset.dynamic_range, size=n_values)
    res = forward_convert(values, mset)
    want = np.stack([values % p for p in targets])
    rows = []
    for fb in frac_bits:
        got = approx_base_extend(res, mset, targets, frac_bits=fb)
        rate = float(np.mean(np.any(got != want, axis=0)))
        rows.append((fb, f"{rate:.2%}"))
    sweep = format_table(
        ["rank frac bits", "extension error rate"],
        rows,
        title="Approximate-CRT base extension (exact methods: 0 %)",
    )
    counts = extension_op_counts(mset, num_targets=len(targets))
    ops = format_table(
        ["method", "modular ops", "sequential depth"],
        [("Szabo-Tanaka (MRC)", counts["mrc"], counts["mrc_sequential_depth"]),
         ("Shenoy-Kumaresan", counts["shenoy_kumaresan"],
          counts["sk_sequential_depth"]),
         ("approximate CRT", counts["approx_crt"], counts["sk_sequential_depth"])],
        title="Per-value cost of regenerating residues (the pure-RNS tax)",
    )
    return sweep + "\n\n" + ops


def run_calibration_study(
    modulus: int = 33, g: int = 16, trials: int = 300, seed: int = 0
) -> str:
    """Section VI-E: process variations before/after calibration."""
    rates = calibration_error_rates(modulus, g, trials=trials, seed=seed)
    return format_table(
        ["operating mode", "residue error rate"],
        [("uncalibrated", f"{rates['uncalibrated']:.2%}"),
         ("per-MMU drive correction", f"{rates['per_mmu']:.2%}"),
         ("per-digit trim + closed-loop", f"{rates['per_digit']:.2%}")],
        title=(f"Calibration of fabrication errors (m={modulus}, g={g}; "
               "Section VI-E claim: errors calibrate away)"),
    )


def run_technology_tradeoff(trials: int = 200) -> str:
    """Section II-E1 quantified: why NOEMS shifters + MRR gating."""
    rows = technology_comparison(trials=trials)
    return format_table(
        ["technology", "MMU length mm", "loss dB", "tile-load overhead",
         "heater mW/MMU", "crosstalk err"],
        [(r["technology"], f"{r['mmu_length_mm']:.2f}", f"{r['mmu_loss_db']:.2f}",
          f"{r['tile_load_overhead']:.1%}", f"{r['static_power_mw_per_mmu']:.0f}",
          f"{r['crosstalk_error_rate']:.2%}") for r in rows],
        title="Actuation-mechanism trade-off at m=33, g=16 (Section II-E1)",
    )


def run_rrns_cost_study(r_values: Sequence[int] = (0, 1, 2, 3, 4)) -> str:
    """Section VI-E closing claim: RRNS protection costs power/area
    roughly linearly in the added moduli, at unchanged throughput."""
    from ..arch import rrns_design_table

    rows = []
    for o in rrns_design_table(r_values=r_values):
        rows.append((
            o.r,
            ",".join(str(m) for m in o.redundant_moduli) or "-",
            o.detectable_errors,
            o.correctable_errors,
            f"{o.power_ratio:.2f}x",
            f"{o.area_ratio:.2f}x",
            f"{o.throughput_ratio:.1f}x",
        ))
    return format_table(
        ["r", "redundant moduli", "detect", "correct", "power", "area",
         "throughput"],
        rows,
        title="RRNS protection cost (Section VI-E: ~linear power/area, "
              "constant throughput)",
    )


def run_pipeline_validation(
    shapes: Sequence[Tuple[int, int, int]] = (
        (64, 64, 256), (256, 363, 1024), (512, 512, 512)),
    interleave_factors: Sequence[int] = (10, 5, 2),
) -> str:
    """Cycle-level simulation vs the closed-form latency model, plus the
    interleave-starvation behaviour (Section IV-C, simulated)."""
    from ..arch import MirageConfig, simulate_gemm, validate_closed_form
    from ..arch.workloads import GemmShape

    rows = []
    for m, k, n in shapes:
        v = validate_closed_form(GemmShape(m, k, n))
        rows.append((f"{m}x{k}x{n}", f"{v['analytic_s'] * 1e9:.0f}",
                     f"{v['simulated_s'] * 1e9:.0f}", f"{v['ratio']:.3f}",
                     f"{v['gap_cycles']:.0f}"))
    agreement = format_table(
        ["GEMM", "analytic ns", "simulated ns", "ratio", "fill/drain cyc"],
        rows,
        title="Closed-form latency vs discrete-event simulation",
    )
    starve_rows = []
    for il in interleave_factors:
        cfg = MirageConfig(interleave_factor=il)
        secs, stats = simulate_gemm(GemmShape(256, 363, 1024), cfg)
        makespan = round(secs / cfg.cycle_time_s)
        starve_rows.append((
            il,
            f"{secs * 1e6:.2f}",
            f"{stats['mvm'].utilisation(makespan, 1):.2f}",
            f"{stats['sram_read'].utilisation(makespan, il):.2f}",
        ))
    starve = format_table(
        ["interleave", "latency us", "MVM util.", "SRAM-read util."],
        starve_rows,
        title="Interleave starvation, simulated (10 copies keep the "
              "optics at ~1 MVM/0.1 ns)",
    )
    return agreement + "\n\n" + starve


def run_moduli_search(bm: int = 4, g: int = 16) -> str:
    """Moduli-set design space for the paper's BFP config (Section IV-B):
    arbitrary co-prime sets vs the shift-friendly special family."""
    from ..rns import (
        required_output_bits,
        search_moduli_sets,
        set_cost_summary,
        special_moduli_set,
    )

    target = required_output_bits(bm, g)
    rows = []
    special = set_cost_summary(special_moduli_set(5), bm, g)
    rows.append((
        "special k=5",
        "{" + ",".join(str(m) for m in special["moduli"]) + "}",
        special["channels"],
        special["dac_adc_bits"],
        f"{special['dynamic_range_bits']:.1f}",
        special["conversion"],
    ))
    for p in search_moduli_sets(target):
        summary = set_cost_summary(p.mset, bm, g)
        rows.append((
            f"search n={p.count}",
            "{" + ",".join(str(m) for m in p.mset.moduli) + "}",
            p.count,
            p.max_residue_bits,
            f"{p.dynamic_range_bits:.1f}",
            summary["conversion"],
        ))
    return format_table(
        ["candidate", "moduli", "channels", "DAC/ADC bits", "range bits",
         "conversion"],
        rows,
        title=(f"Moduli sets covering Eq. 13 for bm={bm}, g={g} "
               f"(needs {target} bits)"),
    )


def run_inference_mode_study() -> str:
    """Section VI-D's closing claim: with QAT, inference can run at a
    lower ``bm`` and a much smaller ``M``, "resulting in significantly
    better hardware performance" — quantified.

    The inference design point drops to bm=3 with the k=4 special set
    (5-bit residues, Eq. 13 still satisfied at g=16); the ablation-qat
    study shows QAT recovers the bm=3 accuracy.  Smaller moduli shrink
    the data converters and, more importantly, the SNR (hence laser
    power) the photonic core must hold.
    """
    from ..arch import MirageAccelerator, MirageConfig
    from ..arch.inference import inference_metrics

    configs = {
        "training (bm=4, k=5)": MirageConfig(),
        "inference (bm=3, k=4)": MirageConfig(bm=3, k=4),
    }
    rows = []
    for label, cfg in configs.items():
        acc = MirageAccelerator(cfg)
        r50 = inference_metrics("ResNet50", accelerator=acc)
        rows.append((
            label,
            max(cfg.residue_bits),
            f"{acc.energy_per_mac * 1e12:.3f}",
            f"{r50['ips']:.0f}",
            f"{r50['ips_per_w']:.0f}",
        ))
    return format_table(
        ["design point", "DAC/ADC bits", "pJ/MAC", "ResNet50 IPS", "IPS/W"],
        rows,
        title="Section VI-D: inference-mode configuration gains "
              "(accuracy via QAT, see ablation-qat)",
    )


def run_roofline(names: Optional[Sequence[str]] = None) -> str:
    """Arithmetic intensity and SRAM-boundedness per workload."""
    config = MirageConfig()
    names = tuple(names) if names else tuple(workload_names())
    ridge = config.peak_macs_per_s / mirage_bandwidth(config)
    rows = []
    for name in names:
        points = workload_roofline(workload(name), config)
        intensities = [p.intensity for p in points]
        bound = sum(p.memory_bound for p in points)
        eff = (sum(p.attainable for p in points)
               / sum(p.peak_macs_per_s for p in points))
        rows.append((
            name,
            f"{min(intensities):.2f}",
            f"{float(np.median(intensities)):.2f}",
            f"{bound}/{len(points)}",
            f"{eff:.2f}",
        ))
    return format_table(
        ["workload", "min MACs/B", "median MACs/B", "memory-bound GEMMs",
         "permitted eff."],
        rows,
        title=(f"Roofline on the Section IV-C memory system "
               f"(ridge point {ridge:.2f} MACs/B)"),
    )
