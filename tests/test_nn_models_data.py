"""Tests for synthetic datasets, model builders and training loops."""

import numpy as np
import pytest

from repro.nn import (
    MODEL_BUILDERS,
    Tensor,
    TinyYolo,
    TranslationTransformer,
    batches,
    cross_entropy,
    evaluate_classifier,
    make_detection_set,
    make_shape_images,
    make_translation_set,
    train_classifier,
    train_detector,
    train_translator,
)
from repro.nn.data import BOS_ID, EOS_ID


class TestShapeImages:
    def test_shapes_and_split(self):
        train, test = make_shape_images(num_classes=4, samples_per_class=10,
                                        image_size=12)
        assert train.inputs.shape == (32, 1, 12, 12)
        assert test.inputs.shape == (8, 1, 12, 12)
        assert set(np.unique(train.targets)) <= set(range(4))

    def test_deterministic(self):
        a, _ = make_shape_images(seed=3, samples_per_class=5)
        b, _ = make_shape_images(seed=3, samples_per_class=5)
        assert np.array_equal(a.inputs, b.inputs)

    def test_different_seeds_differ(self):
        a, _ = make_shape_images(seed=1, samples_per_class=5)
        b, _ = make_shape_images(seed=2, samples_per_class=5)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_classes_distinguishable(self):
        """Class-mean images must differ far more than noise."""
        train, _ = make_shape_images(num_classes=4, samples_per_class=20,
                                     noise=0.2, seed=0)
        means = [train.inputs[train.targets == c].mean(axis=0) for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(means[i] - means[j]).mean() > 0.05


class TestDetectionSet:
    def test_box_targets_normalised(self):
        train, test = make_detection_set(num_samples=40)
        assert train.extras.shape == (32, 4)
        assert train.extras.min() >= 0.0 and train.extras.max() <= 1.0

    def test_object_brighter_inside_box(self):
        train, _ = make_detection_set(num_samples=20, noise=0.05, seed=1)
        img = train.inputs[0, 0]
        cx, cy, w, h = train.extras[0]
        size = img.shape[0]
        x0, x1 = int((cx - w / 2) * size), int((cx + w / 2) * size)
        y0, y1 = int((cy - h / 2) * size), int((cy + h / 2) * size)
        inside = img[y0:y1, x0:x1].mean()
        assert inside > img.mean()


class TestTranslationSet:
    def test_format(self):
        train, test = make_translation_set(num_samples=20, length=6)
        assert train.targets.shape[1] == 8
        assert np.all(train.targets[:, 0] == BOS_ID)
        assert np.all(train.targets[:, -1] == EOS_ID)
        assert train.inputs.min() >= 3  # content tokens only

    def test_mapping_deterministic_and_bijective(self):
        train, _ = make_translation_set(num_samples=50, length=5, seed=0)
        # Same source token at mirrored position maps to the same target.
        src, tgt = train.inputs, train.targets[:, 1:-1]
        mapping = {}
        for s_row, t_row in zip(src, tgt):
            for s_tok, t_tok in zip(s_row, t_row[::-1]):
                mapping.setdefault(int(s_tok), set()).add(int(t_tok))
        assert all(len(v) == 1 for v in mapping.values())

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_translation_set(vocab_size=3)


class TestBatches:
    def test_covers_all_samples(self):
        train, _ = make_shape_images(num_classes=2, samples_per_class=10)
        seen = 0
        for xb, yb in batches(train, 7, shuffle=False):
            seen += len(yb)
        assert seen == len(train)

    def test_shuffle_changes_order(self):
        train, _ = make_shape_images(num_classes=2, samples_per_class=20)
        b1 = next(iter(batches(train, 8, np.random.default_rng(0))))
        b2 = next(iter(batches(train, 8, np.random.default_rng(1))))
        assert not np.array_equal(b1[1], b2[1])


class TestModelBuilders:
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_forward_backward(self, name, rng):
        model = MODEL_BUILDERS[name](4, rng=rng)
        x = Tensor(rng.normal(size=(2, 1, 16, 16)))
        logits = model(x)
        assert logits.shape == (2, 4)
        cross_entropy(logits, np.array([0, 1])).backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.any(g != 0) for g in grads)

    def test_yolo_outputs(self, rng):
        model = TinyYolo(4, rng=rng)
        logits, boxes = model(Tensor(rng.normal(size=(3, 1, 16, 16))))
        assert logits.shape == (3, 4)
        assert boxes.shape == (3, 4)
        assert boxes.data.min() >= 0.0 and boxes.data.max() <= 1.0

    def test_transformer_forward(self, rng):
        model = TranslationTransformer(vocab_size=16, dim=16, num_heads=2,
                                       num_layers=1, ff_hidden=32, rng=rng)
        src = rng.integers(3, 16, size=(2, 5))
        tgt = rng.integers(3, 16, size=(2, 4))
        logits = model(src, tgt)
        assert logits.shape == (2, 4, 16)


class TestTrainingLoops:
    def test_classifier_learns(self):
        train, test = make_shape_images(num_classes=4, samples_per_class=20,
                                        image_size=12, noise=0.2, seed=0)
        model = MODEL_BUILDERS["alexnet"](4, rng=np.random.default_rng(0))
        # AlexNet builder assumes 16x16; use a simpler model for 12x12.
        from repro.nn import Flatten, Linear, ReLU, Sequential
        model = Sequential(Flatten(), Linear(144, 32), ReLU(), Linear(32, 4))
        result = train_classifier(model, train, test, epochs=6, batch_size=16)
        assert result.history[-1] < result.history[0]
        assert result.final_metric > 0.5

    def test_detector_learns(self):
        train, test = make_detection_set(num_classes=2, num_samples=80,
                                         noise=0.1, seed=0)
        model = TinyYolo(2, rng=np.random.default_rng(0))
        result = train_detector(model, train, test, epochs=3, batch_size=16)
        assert result.history[-1] < result.history[0]

    def test_translator_learns(self):
        train, test = make_translation_set(num_samples=120, length=6, seed=0)
        model = TranslationTransformer(vocab_size=32, dim=32, num_heads=2,
                                       num_layers=1, ff_hidden=64,
                                       rng=np.random.default_rng(0))
        result = train_translator(model, train, test, epochs=8, batch_size=16)
        assert result.history[-1] < result.history[0]
        assert result.final_metric > 0.12  # chance level is 1/29 ~ 0.034

    def test_evaluate_classifier_range(self, rng):
        from repro.nn import Flatten, Linear, Sequential
        train, test = make_shape_images(num_classes=2, samples_per_class=5)
        model = Sequential(Flatten(), Linear(256, 2, rng=rng))
        acc = evaluate_classifier(model, test)
        assert 0.0 <= acc <= 1.0
