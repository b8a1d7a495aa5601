"""Tests for the full-size workload definitions."""

import pytest

from repro.arch import (
    GemmShape,
    total_training_macs,
    workload,
    workload_names,
)


class TestWorkloadCatalogue:
    def test_all_seven_present(self):
        assert set(workload_names()) == {
            "AlexNet", "ResNet18", "ResNet50", "VGG16", "MobileNet", "YOLO",
            "Transformer",
        }

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            workload("LeNet")

    @pytest.mark.parametrize("name", ["AlexNet", "ResNet18", "ResNet50",
                                      "VGG16", "MobileNet", "YOLO",
                                      "Transformer"])
    def test_positive_dims(self, name):
        for layer in workload(name):
            g = layer.gemm
            assert g.m > 0 and g.k > 0 and g.n > 0 and g.count > 0


class TestAlexNet:
    def test_eight_layers(self):
        """Fig. 7a plots 8 AlexNet layers."""
        assert len(workload("AlexNet")) == 8

    def test_conv1_shape(self):
        conv1 = workload("AlexNet")[0].gemm
        assert conv1.m == 96
        assert conv1.k == 3 * 11 * 11
        assert conv1.n == 256 * 55 * 55

    def test_fc_layers(self):
        fcs = [l for l in workload("AlexNet") if l.kind == "linear"]
        assert [l.gemm.m for l in fcs] == [4096, 4096, 1000]


class TestMacCounts:
    """MACs per image must be in the right ballpark of the published
    model complexities (forward pass, batch normalised out)."""

    @pytest.mark.parametrize("name,expected_gmacs,tol", [
        ("AlexNet", 0.7, 0.5),        # ~0.7 GMAC/image
        ("ResNet18", 1.8, 0.5),       # ~1.8
        ("ResNet50", 4.1, 0.5),       # ~4.1
        ("VGG16", 15.5, 0.3),         # ~15.5
        ("MobileNet", 0.3, 0.7),      # ~0.3
    ])
    def test_forward_gmacs_per_image(self, name, expected_gmacs, tol):
        layers = workload(name, batch=1)
        fwd = sum(l.gemm.macs for l in layers) / 1e9
        assert expected_gmacs * (1 - tol) <= fwd <= expected_gmacs * (1 + tol * 2)

    def test_training_is_3x_forward(self):
        layers = workload("AlexNet")
        fwd = sum(l.gemm.macs for l in layers)
        assert total_training_macs(layers) == 3 * fwd

    def test_vgg_heaviest_cnn(self):
        macs = {n: total_training_macs(workload(n))
                for n in ("AlexNet", "ResNet18", "ResNet50", "VGG16", "MobileNet")}
        assert max(macs, key=macs.get) == "VGG16"


class TestMobileNet:
    def test_contains_depthwise(self):
        kinds = {l.kind for l in workload("MobileNet")}
        assert "depthwise" in kinds

    def test_depthwise_gemm_shape(self):
        dw = [l for l in workload("MobileNet") if l.kind == "depthwise"][0]
        assert dw.gemm.m == 1
        assert dw.gemm.k == 9
        assert dw.gemm.count > 1


class TestTransformer:
    def test_structure(self):
        layers = workload("Transformer")
        projs = [l for l in layers if "q_proj" in l.name]
        assert len(projs) == 12  # 12 layers
        scores = [l for l in layers if "scores" in l.name]
        assert len(scores) == 12
        assert scores[0].gemm.count == 32 * 12  # batch * heads

    def test_hidden_dims(self):
        layers = workload("Transformer")
        ff1 = [l for l in layers if "ff1" in l.name][0]
        assert ff1.gemm.m == 4 * 768
        assert ff1.gemm.k == 768

    def test_custom_batch(self):
        layers = workload("Transformer", batch=8, seq_len=64)
        q = [l for l in layers if "q_proj" in l.name][0]
        assert q.gemm.n == 8 * 64


class TestGemmShape:
    def test_macs(self):
        assert GemmShape(2, 3, 4, count=5).macs == 120

    def test_transpose(self):
        t = GemmShape(2, 3, 4).transpose()
        assert (t.m, t.k, t.n) == (4, 3, 2)
