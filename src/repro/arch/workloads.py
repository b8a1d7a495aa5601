"""Full-size layer shapes of the paper's seven benchmark DNNs.

The performance/energy simulation operates on GEMM dimensions only, so the
real (paper-scale) models are represented exactly: ImageNet CNNs at
224x224, YOLOv2 at 416x416, and the 12-layer / 12-head / hidden-768
transformer.  Each layer yields the three training GEMMs (forward,
input-gradient, weight-gradient) of Section II-A.

GEMM convention: ``C(M, N) = A(M, K) @ B(K, N)``; convolutions are lowered
im2col-style (``M = C_out``, ``K = C_in k^2``, ``N = batch * H_out W_out``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

__all__ = [
    "GemmShape",
    "LayerShape",
    "training_gemms",
    "WORKLOADS",
    "workload",
    "workload_names",
    "total_training_macs",
]

DEFAULT_BATCH = 256


@dataclass(frozen=True)
class GemmShape:
    """One GEMM instance: ``(M, K) @ (K, N)``, repeated ``count`` times."""

    m: int
    k: int
    n: int
    count: int = 1

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n * self.count

    def transpose(self) -> "GemmShape":
        return GemmShape(self.n, self.k, self.m, self.count)


@dataclass(frozen=True)
class LayerShape:
    """A DNN layer reduced to its forward GEMM."""

    name: str
    gemm: GemmShape
    kind: str = "conv"  # conv | linear | attention | depthwise


@dataclass(frozen=True)
class TrainingGemm:
    """A GEMM instance tagged with its role in the training step."""

    layer: str
    role: str  # fwd | dx | dw
    gemm: GemmShape


def training_gemms(layer: LayerShape, include_dx_first_layer: bool = True) -> List[TrainingGemm]:
    """The three training GEMMs of a layer (Eqs. 1-3).

    * forward: ``O(M,N) = W(M,K) X(K,N)``
    * input grad: ``dX(K,N) = W^T(K,M) dO(M,N)``
    * weight grad: ``dW(M,K) = dO(M,N) X^T(N,K)``
    """
    g = layer.gemm
    out = [TrainingGemm(layer.name, "fwd", g)]
    if include_dx_first_layer:
        out.append(TrainingGemm(layer.name, "dx", GemmShape(g.k, g.m, g.n, g.count)))
    out.append(TrainingGemm(layer.name, "dw", GemmShape(g.m, g.n, g.k, g.count)))
    return out


def _conv(name: str, cout: int, cin: int, k: int, out_hw: int,
          batch: int, kind: str = "conv") -> LayerShape:
    return LayerShape(name, GemmShape(cout, cin * k * k, batch * out_hw * out_hw), kind)


def _fc(name: str, cout: int, cin: int, batch: int) -> LayerShape:
    return LayerShape(name, GemmShape(cout, cin, batch), "linear")


# ----------------------------------------------------------------------
# Model definitions
# ----------------------------------------------------------------------
def alexnet(batch: int = DEFAULT_BATCH) -> List[LayerShape]:
    """AlexNet (8 learned layers, as plotted in Fig. 7a)."""
    return [
        _conv("conv1", 96, 3, 11, 55, batch),
        _conv("conv2", 256, 96, 5, 27, batch),
        _conv("conv3", 384, 256, 3, 13, batch),
        _conv("conv4", 384, 384, 3, 13, batch),
        _conv("conv5", 256, 384, 3, 13, batch),
        _fc("fc6", 4096, 256 * 6 * 6, batch),
        _fc("fc7", 4096, 4096, batch),
        _fc("fc8", 1000, 4096, batch),
    ]


def _resnet_stage(layers, name, blocks, cin, width, hw, batch, bottleneck):
    for b in range(blocks):
        stride_hw = hw
        if bottleneck:
            cout = width * 4
            layers.append(_conv(f"{name}.{b}.conv1", width, cin, 1, stride_hw, batch))
            layers.append(_conv(f"{name}.{b}.conv2", width, width, 3, stride_hw, batch))
            layers.append(_conv(f"{name}.{b}.conv3", cout, width, 1, stride_hw, batch))
            if b == 0:
                layers.append(_conv(f"{name}.{b}.down", cout, cin, 1, stride_hw, batch))
            cin = cout
        else:
            layers.append(_conv(f"{name}.{b}.conv1", width, cin, 3, stride_hw, batch))
            layers.append(_conv(f"{name}.{b}.conv2", width, width, 3, stride_hw, batch))
            if b == 0 and cin != width:
                layers.append(_conv(f"{name}.{b}.down", width, cin, 1, stride_hw, batch))
            cin = width
    return cin


def resnet18(batch: int = DEFAULT_BATCH) -> List[LayerShape]:
    layers = [_conv("conv1", 64, 3, 7, 112, batch)]
    cin = 64
    for i, (blocks, width, hw) in enumerate([(2, 64, 56), (2, 128, 28),
                                             (2, 256, 14), (2, 512, 7)]):
        cin = _resnet_stage(layers, f"layer{i+1}", blocks, cin, width, hw, batch, False)
    layers.append(_fc("fc", 1000, 512, batch))
    return layers


def resnet50(batch: int = DEFAULT_BATCH) -> List[LayerShape]:
    layers = [_conv("conv1", 64, 3, 7, 112, batch)]
    cin = 64
    for i, (blocks, width, hw) in enumerate([(3, 64, 56), (4, 128, 28),
                                             (6, 256, 14), (3, 512, 7)]):
        cin = _resnet_stage(layers, f"layer{i+1}", blocks, cin, width, hw, batch, True)
    layers.append(_fc("fc", 1000, 2048, batch))
    return layers


def vgg16(batch: int = DEFAULT_BATCH) -> List[LayerShape]:
    cfg = [  # (cout, cin, out_hw, convs)
        (64, 3, 224, 1), (64, 64, 224, 1),
        (128, 64, 112, 1), (128, 128, 112, 1),
        (256, 128, 56, 1), (256, 256, 56, 2),
        (512, 256, 28, 1), (512, 512, 28, 2),
        (512, 512, 14, 3),
    ]
    layers: List[LayerShape] = []
    idx = 1
    for cout, cin, hw, convs in cfg:
        for _ in range(convs):
            layers.append(_conv(f"conv{idx}", cout, cin, 3, hw, batch))
            cin = cout
            idx += 1
    layers.append(_fc("fc1", 4096, 512 * 7 * 7, batch))
    layers.append(_fc("fc2", 4096, 4096, batch))
    layers.append(_fc("fc3", 1000, 4096, batch))
    return layers


def mobilenet_v2(batch: int = DEFAULT_BATCH) -> List[LayerShape]:
    """MobileNetV2 inverted residual stacks (expand / depthwise / project)."""
    layers = [_conv("stem", 32, 3, 3, 112, batch)]
    cin, hw = 32, 112
    cfg = [  # (expansion t, cout, repeats, stride)
        (1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
        (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1),
    ]
    idx = 0
    for t, cout, reps, stride in cfg:
        for r in range(reps):
            s = stride if r == 0 else 1
            out_hw = hw // s
            cmid = cin * t
            if t != 1:
                layers.append(_conv(f"block{idx}.expand", cmid, cin, 1, hw, batch))
            # Depthwise: one k^2-deep dot product per channel.
            layers.append(
                LayerShape(
                    f"block{idx}.dw",
                    GemmShape(1, 9, batch * out_hw * out_hw, count=cmid),
                    "depthwise",
                )
            )
            layers.append(_conv(f"block{idx}.project", cout, cmid, 1, out_hw, batch))
            cin, hw = cout, out_hw
            idx += 1
    layers.append(_conv("head", 1280, 320, 1, 7, batch))
    layers.append(_fc("fc", 1000, 1280, batch))
    return layers


def yolo_v2(batch: int = DEFAULT_BATCH) -> List[LayerShape]:
    """Darknet-19 backbone + YOLOv2 detection head at 416x416."""
    seq = [  # (cout, cin, k, out_hw)
        (32, 3, 3, 416), (64, 32, 3, 208),
        (128, 64, 3, 104), (64, 128, 1, 104), (128, 64, 3, 104),
        (256, 128, 3, 52), (128, 256, 1, 52), (256, 128, 3, 52),
        (512, 256, 3, 26), (256, 512, 1, 26), (512, 256, 3, 26),
        (256, 512, 1, 26), (512, 256, 3, 26),
        (1024, 512, 3, 13), (512, 1024, 1, 13), (1024, 512, 3, 13),
        (512, 1024, 1, 13), (1024, 512, 3, 13),
        (1024, 1024, 3, 13), (1024, 1024, 3, 13),  # detection convs
        (1024, 3072, 3, 13),  # after passthrough concat
    ]
    layers = [
        _conv(f"conv{i+1}", cout, cin, k, hw, batch)
        for i, (cout, cin, k, hw) in enumerate(seq)
    ]
    layers.append(_conv("detect", 425, 1024, 1, 13, batch))  # 5*(5+80)
    return layers


def transformer(batch: int = 32, seq_len: int = 128, hidden: int = 768,
                heads: int = 12, num_layers: int = 12,
                ff_mult: int = 4) -> List[LayerShape]:
    """12-layer 12-head hidden-768 transformer (IWSLT14 setup)."""
    tokens = batch * seq_len
    head_dim = hidden // heads
    layers: List[LayerShape] = []
    for i in range(num_layers):
        for proj in ("q", "k", "v", "o"):
            layers.append(
                LayerShape(f"layer{i}.{proj}_proj",
                           GemmShape(hidden, hidden, tokens), "linear")
            )
        layers.append(
            LayerShape(f"layer{i}.scores",
                       GemmShape(seq_len, head_dim, seq_len, count=batch * heads),
                       "attention")
        )
        layers.append(
            LayerShape(f"layer{i}.context",
                       GemmShape(seq_len, seq_len, head_dim, count=batch * heads),
                       "attention")
        )
        layers.append(
            LayerShape(f"layer{i}.ff1",
                       GemmShape(ff_mult * hidden, hidden, tokens), "linear")
        )
        layers.append(
            LayerShape(f"layer{i}.ff2",
                       GemmShape(hidden, ff_mult * hidden, tokens), "linear")
        )
    layers.append(LayerShape("lm_head", GemmShape(32768, hidden, tokens), "linear"))
    return layers


WORKLOADS = {
    "AlexNet": alexnet,
    "ResNet18": resnet18,
    "ResNet50": resnet50,
    "VGG16": vgg16,
    "MobileNet": mobilenet_v2,
    "YOLO": yolo_v2,
    "Transformer": transformer,
}


def workload_names() -> List[str]:
    return list(WORKLOADS)


def workload(name: str, **kwargs) -> List[LayerShape]:
    """Layer shapes of a named workload (paper-scale dimensions)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {workload_names()}")
    return WORKLOADS[name](**kwargs)


def total_training_macs(layers: Iterable[LayerShape]) -> int:
    """MACs of one training step (3 GEMMs per layer)."""
    return sum(tg.gemm.macs for layer in layers for tg in training_gemms(layer))
