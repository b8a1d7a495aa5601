"""Cross-module integration tests: the full pipelines the paper claims.

These are the "does the whole system hold together" checks — training with
the Mirage accuracy model beats broken configurations, the photonic device
model agrees with the accuracy model's quantiser, and format ordering
matches Table I's qualitative result.
"""

import numpy as np
import pytest

from repro.analysis import AccuracySetup, run_accuracy
from repro.bfp import BFPConfig, quantize_tensor
from repro.core import PhotonicRnsTensorCore
from repro.nn import (
    Flatten,
    QuantizedLinear,
    ReLU,
    SGD,
    Sequential,
    Tensor,
    cross_entropy,
    make_shape_images,
    train_classifier,
)
from repro.quant import make_quantizer

SETUP = AccuracySetup(epochs=4, samples_per_class=40, num_classes=8,
                      image_size=16)


class TestAccuracyOrdering:
    """The Table I / Fig. 5a qualitative result at miniature scale."""

    @pytest.fixture(scope="class")
    def metrics(self):
        out = {}
        for fmt, bm in (("fp32", None), ("mirage4", 4), ("mirage2", 2)):
            name = "mirage" if fmt.startswith("mirage") else fmt
            out[fmt] = run_accuracy("vgg16", name, bm=bm or 4, g=16, setup=SETUP)
        return out

    def test_mirage4_tracks_fp32(self, metrics):
        """bm=4 must stay within 15 accuracy points of FP32."""
        assert metrics["mirage4"] >= metrics["fp32"] - 0.15

    def test_mirage2_collapses(self, metrics):
        """bm=2 (below the paper's bm=3 floor) must clearly lose."""
        assert metrics["mirage2"] < metrics["mirage4"] - 0.2
        assert metrics["mirage2"] < metrics["fp32"] - 0.2


class TestCoreVsAccuracyModel:
    def test_photonic_core_equals_fast_quantiser(self, rng):
        """The device-level core and the training-time BFP quantiser must
        compute the same function — otherwise the accuracy model would not
        predict the hardware."""
        core = PhotonicRnsTensorCore()
        w = rng.normal(size=(24, 48))
        x = rng.normal(size=(48, 6))
        photonic = core.matmul(w, x)
        cfg = BFPConfig(4, 16)
        fast = quantize_tensor(w, cfg, axis=-1) @ quantize_tensor(x, cfg, axis=0)
        np.testing.assert_allclose(photonic, fast, rtol=0, atol=1e-9)

    def test_trained_weights_transfer_to_core(self, rng):
        """Train with the accuracy model, deploy on the device model —
        predictions agree (the paper's implicit deployment story)."""
        q = make_quantizer("mirage", bm=4, g=16)
        train_set, test_set = make_shape_images(
            num_classes=4, samples_per_class=16, image_size=8, seed=0
        )
        model = Sequential(
            Flatten(),
            QuantizedLinear(64, 32, quantizer=q, rng=rng),
            ReLU(),
            QuantizedLinear(32, 4, quantizer=q, rng=rng),
        )
        train_classifier(model, train_set, test_set, epochs=4, batch_size=16)

        core = PhotonicRnsTensorCore()
        x = test_set.inputs.reshape(len(test_set), -1)
        h = core.matmul(model.layers[1].weight.data, x.T).T + model.layers[1].bias.data
        h = np.maximum(h, 0)
        logits = core.matmul(model.layers[3].weight.data, h.T).T + model.layers[3].bias.data

        digital = model(Tensor(test_set.inputs.reshape(len(test_set), 1, 8, 8)
                               .reshape(len(test_set), -1)))
        # Run digital path on the flattened input directly:
        digital = model(Tensor(x))
        agreement = np.mean(logits.argmax(-1) == digital.data.argmax(-1))
        assert agreement >= 0.85


class TestEndToEndTrainingSmoke:
    def test_mirage_quantized_training_converges(self, rng):
        """Full quantised training loop drives the loss down."""
        q = make_quantizer("mirage", bm=4, g=16)
        x = rng.normal(size=(32, 20))
        w_true = rng.normal(size=(20, 3))
        y = (x @ w_true).argmax(-1)
        model = Sequential(QuantizedLinear(20, 16, quantizer=q, rng=rng),
                           ReLU(),
                           QuantizedLinear(16, 3, quantizer=q, rng=rng))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        first = last = None
        for step in range(60):
            opt.zero_grad()
            loss = cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            if step == 0:
                first = loss.item()
            last = loss.item()
        assert last < first * 0.5

    def test_int8_worse_than_int12_on_hard_task(self):
        """Table I's INT8 degradation direction (single seed, soft check:
        INT8 must not *beat* INT12 by a wide margin)."""
        a8 = run_accuracy("vgg16", "int8", setup=SETUP)
        a12 = run_accuracy("vgg16", "int12", setup=SETUP)
        assert a8 <= a12 + 0.10
