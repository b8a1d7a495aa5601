"""Ablation studies for the design choices DESIGN.md calls out.

* special vs. arbitrary moduli sets — reverse-conversion cost and dynamic
  range (justifies the ``{2^k-1, 2^k, 2^k+1}`` choice, Section IV-B);
* BFP rounding mode (truncate vs. nearest vs. stochastic) — accuracy;
* DAC precision 6 vs. 8 bits — power delta (the paper reports 1.09x);
* conservative vs. paper-implied ADC energy — power-breakdown sensitivity;
* dataflow flexibility (OPT1/OPT2) gains on the systolic baseline
  (paper: 11.7% and 12.5%).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..arch import (
    MirageConfig,
    SYSTOLIC_DATAFLOWS,
    SystolicConfig,
    TABLE_II_FORMATS,
    step_latency,
    systolic_latency_fn,
    workload,
    workload_names,
)
from ..arch.converters import dac_energy_per_conversion
from ..arch.energy import EnergyParams, peak_power_breakdown
from ..quant import make_quantizer
from ..rns import (
    ModuliSet,
    crt_reverse,
    forward_convert,
    special_moduli_set,
    special_set_reverse,
)
from .accuracy import AccuracySetup, run_accuracy
from .reporting import format_table

__all__ = [
    "run_moduli_ablation",
    "run_rounding_ablation",
    "run_dac_precision_ablation",
    "run_adc_energy_ablation",
    "run_batch_sweep",
    "run_dataflow_ablation",
    "run_inference_qat",
    "run_interleave_sweep",
    "run_master_weight_ablation",
]


def run_moduli_ablation(k: int = 5, n_values: int = 200_000, seed: int = 0) -> str:
    """Special-set vs arbitrary-moduli reverse conversion (Section IV-B).

    The hardware argument is *circuit cost*: the {2^k-1, 2^k, 2^k+1}
    converter needs only shifts and narrow end-around adds, while general
    CRT needs one wide multiply per modulus plus a reduction modulo the
    full M.  The table reports those per-conversion operation counts (the
    hardware proxy); every converter is first checked exact over
    ``n_values`` random values.  Host timing is left out: it does not
    reflect circuit cost and would make the text differ between runs.
    """
    rng = np.random.default_rng(seed)
    special = special_moduli_set(k)
    # An arbitrary co-prime set with a similar dynamic range.
    arbitrary = ModuliSet((29, 33, 35))

    rows = []
    for mset, name, wide_muls, mod_width, fn in (
        (special, f"special k={k} (shift/add)", 0, 2 * k,
         lambda r: special_set_reverse(r, k)),
        (special, "special via generic CRT", special.n,
         int(math.ceil(special.dynamic_range_bits)),
         lambda r: crt_reverse(r, special)),
        (arbitrary, "arbitrary {29,33,35} CRT", arbitrary.n,
         int(math.ceil(arbitrary.dynamic_range_bits)),
         lambda r: crt_reverse(r, arbitrary)),
    ):
        values = rng.integers(0, mset.dynamic_range, size=n_values)
        residues = forward_convert(values, mset)
        if not np.array_equal(np.asarray(fn(residues)), values):
            raise RuntimeError(
                f"{name}: reverse conversion is not exact"
            )
        rows.append((name, mset.dynamic_range_bits, wide_muls, mod_width))
    return format_table(
        ["reverse converter", "log2 M", "wide multiplies/conv",
         "reduction width (bits)"],
        rows,
        title=("Ablation: special vs arbitrary moduli reverse conversion "
               "(hardware cost = multiplies + reduction width)"),
        float_fmt="{:.3g}",
    )


def run_rounding_ablation(
    setup: Optional[AccuracySetup] = None,
    task: str = "resnet18",
    bm: int = 4,
    g: int = 16,
) -> str:
    """BFP rounding-mode accuracy ablation (truncate is the paper default)."""
    setup = setup or AccuracySetup(epochs=3)
    from ..bfp import BFPConfig, quantize_tensor
    from ..quant.formats import GemmQuantizer
    from ..nn import MODEL_BUILDERS, make_shape_images, train_classifier

    rows = []
    for rounding in ("truncate", "nearest", "stochastic"):
        cfg = BFPConfig(bm, g, rounding)
        rng_q = np.random.default_rng(setup.seed + 7)
        fn = lambda x, axis, c=cfg, r=rng_q: quantize_tensor(x, c, axis=axis, rng=r)
        quantizer = GemmQuantizer(f"BFP-{rounding}", fn, fn, axis_aware=True)
        train_set, test_set = make_shape_images(
            num_classes=setup.num_classes,
            samples_per_class=setup.samples_per_class,
            image_size=setup.image_size,
            seed=setup.seed,
        )
        model = MODEL_BUILDERS[task](
            setup.num_classes, quantizer=quantizer,
            rng=np.random.default_rng(setup.seed),
        )
        result = train_classifier(
            model, train_set, test_set, epochs=setup.epochs,
            batch_size=setup.batch_size, seed=setup.seed,
        )
        rows.append((rounding, 100.0 * result.final_metric))
    fp32 = 100.0 * run_accuracy(task, "fp32", setup=setup)
    rows.append(("fp32 reference", fp32))
    return format_table(
        ["rounding", "val accuracy %"],
        rows,
        title=f"Ablation: BFP rounding mode ({task}, bm={bm}, g={g})",
        float_fmt="{:.1f}",
    )


def run_dac_precision_ablation(config: Optional[MirageConfig] = None) -> str:
    """Power with 6-bit vs 8-bit weight DACs (paper: 1.09x average)."""
    config = config or MirageConfig()
    rows = []
    base_total = None
    for bits_override, label in ((0, "per-moduli (5/5/6 bits)"), (8, "8-bit DACs")):
        cfg = MirageConfig(
            num_arrays=config.num_arrays, v=config.v, g=config.g, k=config.k,
            bm=config.bm, dac_bits_override=bits_override,
        )
        params = EnergyParams()
        parts = peak_power_breakdown(cfg, params)
        # Re-price the DAC slice at the overridden precision.
        if bits_override:
            ratio = dac_energy_per_conversion(bits_override) / dac_energy_per_conversion(6)
            parts = dict(parts)
            parts["dac_adc"] = parts["dac_adc"] * (0.5 + 0.5 * ratio)
        total = sum(parts.values())
        if base_total is None:
            base_total = total
        rows.append((label, total, total / base_total))
    return format_table(
        ["DAC precision", "peak power W", "vs baseline"],
        rows,
        title="Ablation: DAC precision (Sec. VI-E; paper reports 1.09x)",
        float_fmt="{:.3g}",
    )


def run_adc_energy_ablation(config: Optional[MirageConfig] = None) -> str:
    """Breakdown sensitivity to the ADC energy assumption."""
    config = config or MirageConfig()
    rows = []
    for scale, label in (
        (EnergyParams().adc_energy_scale, "paper-implied effective (default)"),
        (1.0, "conservative stand-alone part (Xu et al.)"),
    ):
        params = EnergyParams(adc_energy_scale=scale)
        parts = peak_power_breakdown(config, params)
        total = sum(parts.values())
        rows.append((label, total, 100.0 * parts["dac_adc"] / total,
                     100.0 * parts["sram"] / total))
    return format_table(
        ["ADC energy assumption", "total W", "DAC&ADC %", "SRAM %"],
        rows,
        title="Ablation: ADC energy-per-conversion assumption",
        float_fmt="{:.3g}",
    )


def run_master_weight_ablation(
    setup: Optional[AccuracySetup] = None,
    task: str = "resnet18",
    bm: int = 4,
    g: int = 16,
) -> str:
    """Section V-A's design decision: weights are *stored* in FP32 and
    updated in FP32, with BFP applied only inside the GEMMs.

    The ablation trains the same model with the weights re-quantised to
    BFP after every optimiser step (no master copy).  Without the master
    copy, small SGD updates fall below the BFP quantisation step and are
    lost — accuracy degrades, justifying the paper's choice.
    """
    setup = setup or AccuracySetup(epochs=4)
    from ..bfp import BFPConfig, quantize_tensor
    from ..nn import MODEL_BUILDERS, SGD, StepLR, Tensor, cross_entropy
    from ..nn.data import batches, make_shape_images
    from ..nn.trainer import evaluate_classifier

    cfg = BFPConfig(bm, g)
    quantizer = make_quantizer("mirage", bm=bm, g=g)
    train_set, test_set = make_shape_images(
        num_classes=setup.num_classes,
        samples_per_class=setup.samples_per_class,
        image_size=setup.image_size,
        seed=setup.seed,
    )

    rows = []
    for label, quantize_master in (("FP32 master weights (paper)", False),
                                   ("BFP-stored weights", True)):
        rng = np.random.default_rng(setup.seed)
        model = MODEL_BUILDERS[task](setup.num_classes, quantizer=quantizer,
                                     rng=np.random.default_rng(setup.seed))
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        for _ in range(setup.epochs):
            for xb, yb in batches(train_set, setup.batch_size, rng):
                opt.zero_grad()
                loss = cross_entropy(model(Tensor(xb)), yb)
                loss.backward()
                opt.step()
                if quantize_master:
                    for p in model.parameters():
                        p.data = quantize_tensor(p.data, cfg, axis=-1)
            sched.step()
        rows.append((label, 100.0 * evaluate_classifier(model, test_set)))
    return format_table(
        ["weight storage", "val accuracy %"],
        rows,
        title=f"Ablation: FP32 master weights vs BFP-stored weights "
              f"({task}, bm={bm}, g={g})",
        float_fmt="{:.1f}",
    )


def run_inference_qat(
    setup: Optional[AccuracySetup] = None,
    task: str = "resnet18",
    bm: int = 3,
    g: int = 16,
) -> str:
    """Section VI-D: quantisation-aware training for inference.

    The paper argues that, like other photonic inference accelerators,
    Mirage can use a *lower* bm for inference when the model is trained
    with the inference quantisation in the loop.  Three arms:

    * FP32 train, FP32 eval (reference);
    * FP32 train, BFP(bm) eval — post-training quantisation;
    * QAT: BFP(bm) forward / FP32 backward train, BFP(bm) eval.
    """
    setup = setup or AccuracySetup(epochs=4)
    from ..bfp import BFPConfig, quantize_tensor
    from ..nn import MODEL_BUILDERS, evaluate_classifier, make_shape_images, train_classifier
    from ..quant.formats import GemmQuantizer

    cfg = BFPConfig(bm, g)
    q_fn = lambda x, axis: quantize_tensor(x, cfg, axis=axis)
    id_fn = lambda x, axis: np.asarray(x, dtype=np.float64)
    qat_quantizer = GemmQuantizer(f"QAT-bm{bm}", q_fn, id_fn, axis_aware=True)
    eval_quantizer = GemmQuantizer(f"PTQ-bm{bm}", q_fn, id_fn, axis_aware=True)

    train_set, test_set = make_shape_images(
        num_classes=setup.num_classes,
        samples_per_class=setup.samples_per_class,
        image_size=setup.image_size,
        seed=setup.seed,
    )

    def build(quantizer):
        return MODEL_BUILDERS[task](
            setup.num_classes, quantizer=quantizer,
            rng=np.random.default_rng(setup.seed),
        )

    # FP32 training.
    fp_model = build(None)
    fp_result = train_classifier(
        fp_model, train_set, test_set, epochs=setup.epochs,
        batch_size=setup.batch_size, seed=setup.seed,
    )
    # PTQ: move the FP32 weights into a quantised-forward model.
    ptq_model = build(eval_quantizer)
    ptq_model.load_state_dict(fp_model.state_dict())
    # Copy batchnorm running stats as well (not part of state_dict).
    for src, dst in zip(fp_model.modules(), ptq_model.modules()):
        if hasattr(src, "running_mean"):
            dst.running_mean = src.running_mean.copy()
            dst.running_var = src.running_var.copy()
    ptq_acc = evaluate_classifier(ptq_model, test_set)
    # QAT from scratch.
    qat_model = build(qat_quantizer)
    qat_result = train_classifier(
        qat_model, train_set, test_set, epochs=setup.epochs,
        batch_size=setup.batch_size, seed=setup.seed,
    )
    rows = [
        ("FP32 train / FP32 eval", 100.0 * fp_result.final_metric),
        (f"FP32 train / BFP(bm={bm}) eval (PTQ)", 100.0 * ptq_acc),
        (f"QAT BFP(bm={bm}) train / eval", 100.0 * qat_result.final_metric),
    ]
    return format_table(
        ["arm", "val accuracy %"],
        rows,
        title=f"Sec. VI-D: inference QAT at bm={bm}, g={g} ({task})",
        float_fmt="{:.1f}",
    )


def run_interleave_sweep(factors: Sequence[int] = (1, 2, 4, 8, 10, 12, 16)) -> str:
    """Section IV-C: digital-pipeline throughput bound vs interleave factor.

    At the paper's factor of 10 every resource keeps up with the 10 GHz
    optics; below that the SRAM/conversion pipeline throttles the core.
    """
    from ..arch.config import MirageConfig
    from ..arch.memory import MemorySystemModel

    rows = []
    for f in factors:
        cfg = MirageConfig(interleave_factor=f)
        model = MemorySystemModel(cfg)
        bound = model.throughput_bound()
        bottlenecks = ",".join(d.name for d in model.bottlenecks()) or "-"
        rows.append((f, bound, model.effective_macs_per_s() / 1e12, bottlenecks))
    return format_table(
        ["interleave factor", "throughput bound", "eff. TMAC/s", "bottlenecks"],
        rows,
        title="Ablation: digital interleaving vs photonic throughput "
              "(paper: 10 copies keep the optics fed)",
        float_fmt="{:.3g}",
    )


def run_batch_sweep(
    batches: Sequence[int] = (1, 4, 16, 64, 256),
    model: str = "AlexNet",
) -> str:
    """Training-step latency and per-sample efficiency vs batch size.

    The paper evaluates at batch 256 (Section VI-A3 notes dataflow
    performance depends on the batch).  Batch size is the streamed
    dimension of every FC tile, so it amortises the 5 ns phase-shifter
    reprogram: AlexNet's per-sample latency improves ~2.4x from batch 1
    to 64 and saturates there (conv layers stream out_hw^2 * batch and
    are insensitive), while Mirage's edge over the systolic baseline
    widens accordingly.
    """
    from ..arch.config import MirageConfig, SystolicConfig, TABLE_II_FORMATS
    from ..arch.dataflow import MIRAGE_DATAFLOWS, SYSTOLIC_DATAFLOWS
    from ..arch.latency import (
        mirage_latency_fn,
        step_latency,
        systolic_latency_fn,
    )

    mirage_cfg = MirageConfig()
    systolic_cfg = SystolicConfig(TABLE_II_FORMATS["INT12"])
    rows = []
    for batch in batches:
        layers = workload(model, batch=batch)
        mirage = step_latency(layers, mirage_latency_fn(mirage_cfg),
                              MIRAGE_DATAFLOWS, "OPT2")
        systolic = step_latency(layers, systolic_latency_fn(systolic_cfg),
                                SYSTOLIC_DATAFLOWS, "OPT2")
        rows.append((
            batch,
            mirage * 1e6,
            mirage / batch * 1e9,
            systolic / mirage,
        ))
    return format_table(
        ["batch", "Mirage step us", "Mirage ns/sample", "SA(INT12)/Mirage"],
        rows,
        title=f"Ablation: batch-size sensitivity ({model}, OPT2 schedules)",
        float_fmt="{:.3g}",
    )


def run_dataflow_ablation(num_arrays: int = 8) -> str:
    """OPT1/OPT2 gains over the best fixed dataflow on the systolic
    baseline (paper: 11.7% / 12.5% average)."""
    rows = []
    gains1, gains2 = [], []
    for name in workload_names():
        layers = workload(name)
        cfg = SystolicConfig(TABLE_II_FORMATS["INT12"], num_arrays=num_arrays)
        fn = systolic_latency_fn(cfg)
        fixed = {
            df: step_latency(layers, fn, SYSTOLIC_DATAFLOWS, df)
            for df in SYSTOLIC_DATAFLOWS
        }
        best_fixed = min(fixed.values())
        opt1 = step_latency(layers, fn, SYSTOLIC_DATAFLOWS, "OPT1")
        opt2 = step_latency(layers, fn, SYSTOLIC_DATAFLOWS, "OPT2")
        g1 = 100.0 * (best_fixed - opt1) / best_fixed
        g2 = 100.0 * (best_fixed - opt2) / best_fixed
        gains1.append(g1)
        gains2.append(g2)
        rows.append((name, min(fixed, key=fixed.get), g1, g2))
    rows.append(("average", "-", float(np.mean(gains1)), float(np.mean(gains2))))
    return format_table(
        ["model", "best fixed DF", "OPT1 gain %", "OPT2 gain %"],
        rows,
        title="Ablation: dataflow flexibility on the systolic baseline",
        float_fmt="{:.1f}",
    )
