"""Training/evaluation loops for the three task families.

These implement the Section VI-B protocol at reproduction scale: SGD with
step decay for CNNs and YOLO, Adam for the transformer, weight updates in
FP32 (parameters are always the FP32 master copy — quantisation lives only
inside the GEMM ops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .data import PAD_ID, ArrayDataset, batches
from .layers import Module
from .losses import cross_entropy, mse_loss
from .models import TinyYolo, TranslationTransformer
from .optim import Adam, SGD, StepLR, clip_grad_norm
from .tensor import Tensor, no_grad

__all__ = [
    "TrainResult",
    "train_classifier",
    "evaluate_classifier",
    "train_detector",
    "evaluate_detector",
    "train_translator",
    "evaluate_translator",
]


@dataclass
class TrainResult:
    """Per-epoch history plus final evaluation metric."""

    history: List[float] = field(default_factory=list)
    final_metric: float = 0.0
    metric_name: str = "accuracy"


def train_classifier(
    model: Module,
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    epochs: int = 4,
    batch_size: int = 32,
    lr: float = 0.05,
    momentum: float = 0.9,
    lr_step: int = 2,
    seed: int = 0,
) -> TrainResult:
    """SGD + step-decay training of an image classifier."""
    rng = np.random.default_rng(seed)
    opt = SGD(model.parameters(), lr=lr, momentum=momentum)
    sched = StepLR(opt, step_size=lr_step, gamma=0.1)
    result = TrainResult(metric_name="accuracy")
    model.train()
    for _ in range(epochs):
        losses = []
        for xb, yb in batches(train_set, batch_size, rng):
            opt.zero_grad()
            logits = model(Tensor(xb))
            loss = cross_entropy(logits, yb)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        sched.step()
        result.history.append(float(np.mean(losses)))
    result.final_metric = evaluate_classifier(model, test_set)
    return result


def evaluate_classifier(model: Module, test_set: ArrayDataset,
                        batch_size: int = 64) -> float:
    """Top-1 accuracy in [0, 1]."""
    model.eval()
    correct = total = 0
    with no_grad():
        for xb, yb in batches(test_set, batch_size, shuffle=False):
            pred = model(Tensor(xb)).data.argmax(axis=-1)
            correct += int((pred == yb).sum())
            total += len(yb)
    model.train()
    return correct / max(1, total)


def train_detector(
    model: TinyYolo,
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    epochs: int = 4,
    batch_size: int = 32,
    lr: float = 0.02,
    box_weight: float = 5.0,
    seed: int = 0,
) -> TrainResult:
    """YOLO-style joint classification + box-regression training."""
    rng = np.random.default_rng(seed)
    opt = SGD(model.parameters(), lr=lr, momentum=0.9)
    sched = StepLR(opt, step_size=max(1, epochs // 2), gamma=0.1)
    result = TrainResult(metric_name="detection_score")
    model.train()
    for _ in range(epochs):
        losses = []
        for xb, yb, bb in batches(train_set, batch_size, rng):
            opt.zero_grad()
            logits, boxes = model(Tensor(xb))
            loss = cross_entropy(logits, yb) + box_weight * mse_loss(boxes, bb)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        sched.step()
        result.history.append(float(np.mean(losses)))
    result.final_metric = evaluate_detector(model, test_set)
    return result


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU between (cx, cy, w, h) boxes, vectorised."""
    ax0, ay0 = a[:, 0] - a[:, 2] / 2, a[:, 1] - a[:, 3] / 2
    ax1, ay1 = a[:, 0] + a[:, 2] / 2, a[:, 1] + a[:, 3] / 2
    bx0, by0 = b[:, 0] - b[:, 2] / 2, b[:, 1] - b[:, 3] / 2
    bx1, by1 = b[:, 0] + b[:, 2] / 2, b[:, 1] + b[:, 3] / 2
    iw = np.maximum(0.0, np.minimum(ax1, bx1) - np.maximum(ax0, bx0))
    ih = np.maximum(0.0, np.minimum(ay1, by1) - np.maximum(ay0, by0))
    inter = iw * ih
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return inter / np.maximum(union, 1e-9)


def evaluate_detector(model: TinyYolo, test_set: ArrayDataset,
                      iou_threshold: float = 0.5) -> float:
    """Detection score: fraction with correct class AND IoU >= threshold
    (a mAP-like proxy adequate for format comparisons)."""
    model.eval()
    hits = total = 0
    with no_grad():
        for xb, yb, bb in batches(test_set, 64, shuffle=False):
            logits, boxes = model(Tensor(xb))
            cls_ok = logits.data.argmax(axis=-1) == yb
            iou_ok = _iou(boxes.data, bb) >= iou_threshold
            hits += int((cls_ok & iou_ok).sum())
            total += len(yb)
    model.train()
    return hits / max(1, total)


def train_translator(
    model: TranslationTransformer,
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    epochs: int = 6,
    batch_size: int = 32,
    lr: float = 3e-3,
    grad_clip: float = 1.0,
    seed: int = 0,
) -> TrainResult:
    """Adam training with teacher forcing (paper: Adam, b1=.9, b2=.999).

    Gradients are clipped to a global norm of ``grad_clip`` — standard
    transformer practice, and required for stability once the backward
    GEMMs are quantised.
    """
    rng = np.random.default_rng(seed)
    opt = Adam(model.parameters(), lr=lr, betas=(0.9, 0.999))
    result = TrainResult(metric_name="token_accuracy")
    model.train()
    for _ in range(epochs):
        losses = []
        for src, tgt in batches(train_set, batch_size, rng):
            opt.zero_grad()
            logits = model(src, tgt[:, :-1])
            loss = cross_entropy(logits, tgt[:, 1:], ignore_index=PAD_ID)
            loss.backward()
            if grad_clip:
                clip_grad_norm(model.parameters(), grad_clip)
            opt.step()
            losses.append(loss.item())
        result.history.append(float(np.mean(losses)))
    result.final_metric = evaluate_translator(model, test_set)
    return result


def evaluate_translator(model: TranslationTransformer,
                        test_set: ArrayDataset) -> float:
    """Teacher-forced token accuracy over non-pad positions (BLEU proxy)."""
    model.eval()
    correct = total = 0
    with no_grad():
        for src, tgt in batches(test_set, 64, shuffle=False):
            logits = model(src, tgt[:, :-1])
            pred = logits.data.argmax(axis=-1)
            ref = tgt[:, 1:]
            mask = ref != PAD_ID
            correct += int((pred[mask] == ref[mask]).sum())
            total += int(mask.sum())
    model.train()
    return correct / max(1, total)
