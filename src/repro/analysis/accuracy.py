"""Shared accuracy-experiment machinery for Table I and Fig. 5a.

Trains the scaled models on the synthetic tasks under a chosen number
format and reports the final validation metric.  ``quick`` presets keep a
full Table I run in CPU-minutes; the defaults are already statistically
meaningful for *ordering* formats, which is what the paper's Table I
establishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import (
    MODEL_BUILDERS,
    TinyYolo,
    TranslationTransformer,
    make_detection_set,
    make_shape_images,
    make_translation_set,
    train_classifier,
    train_detector,
    train_translator,
)
from ..quant import make_quantizer

__all__ = ["AccuracySetup", "run_accuracy", "TASKS"]

TASKS = ("alexnet", "resnet18", "resnet50", "vgg16", "mobilenet", "yolo", "transformer")


@dataclass(frozen=True)
class AccuracySetup:
    """Hyper-parameters for one accuracy run."""

    epochs: int = 4
    batch_size: int = 32
    num_classes: int = 8
    samples_per_class: int = 40
    image_size: int = 16
    seed: int = 0


def run_accuracy(
    task: str,
    fmt: str,
    bm: int = 4,
    g: int = 16,
    setup: Optional[AccuracySetup] = None,
) -> float:
    """Train ``task`` under number format ``fmt``; return the val metric.

    ``fmt`` is any :func:`repro.quant.make_quantizer` name; ``"fp32"``
    trains unquantised.  Metrics: top-1 accuracy (classification),
    detection score (yolo), token accuracy (transformer) — all in [0, 1].
    """
    setup = setup or AccuracySetup()
    rng = np.random.default_rng(setup.seed)
    if fmt.lower() == "fp32":
        quantizer = None
    else:
        # Deterministically-rounded BFP gradients destabilise Adam on the
        # miniature transformer (see EXPERIMENTS.md); stochastic rounding
        # of the backward GEMMs — the FAST/HFP8 practice — restores the
        # paper's result.  CNN tasks train fine with pure truncation.
        bwd = "stochastic" if (task == "transformer" and fmt.lower() == "mirage") else None
        quantizer = make_quantizer(
            fmt, bm=bm, g=g, rng=np.random.default_rng(setup.seed + 1),
            backward_rounding=bwd,
        )

    if task in MODEL_BUILDERS:
        train_set, test_set = make_shape_images(
            num_classes=setup.num_classes,
            samples_per_class=setup.samples_per_class,
            image_size=setup.image_size,
            seed=setup.seed,
        )
        model = MODEL_BUILDERS[task](setup.num_classes, quantizer=quantizer, rng=rng)
        result = train_classifier(
            model, train_set, test_set,
            epochs=setup.epochs, batch_size=setup.batch_size, seed=setup.seed,
        )
        return result.final_metric
    if task == "yolo":
        train_set, test_set = make_detection_set(
            num_classes=4, num_samples=setup.samples_per_class * 6,
            image_size=setup.image_size, seed=setup.seed,
        )
        model = TinyYolo(4, quantizer=quantizer, rng=rng)
        # Detection needs a longer schedule than classification before the
        # IoU >= 0.5 criterion separates from chance.
        result = train_detector(
            model, train_set, test_set,
            epochs=max(2 * setup.epochs, 8), batch_size=setup.batch_size,
            seed=setup.seed,
        )
        return result.final_metric
    if task == "transformer":
        train_set, test_set = make_translation_set(
            num_samples=setup.samples_per_class * 16, length=8,
            seed=setup.seed,
        )
        model = TranslationTransformer(quantizer=quantizer, rng=rng)
        # Seq2seq needs both more data and more passes than the CNN tasks.
        result = train_translator(
            model, train_set, test_set,
            epochs=max(2 * setup.epochs, 8), batch_size=setup.batch_size,
            seed=setup.seed,
        )
        return result.final_metric
    raise ValueError(f"unknown task {task!r}; known: {TASKS}")
