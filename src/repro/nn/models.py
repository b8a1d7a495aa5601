"""Scaled-down versions of the paper's seven benchmark models.

The performance simulator (:mod:`repro.arch.workloads`) uses the *full-size*
layer shapes; the models here are topology-faithful but width/depth-scaled
so the accuracy experiments run on a CPU with numpy.  Every GEMM-bearing
layer takes the shared optional ``quantizer`` so the same builder serves
FP32 and every quantised format.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..quant.formats import GemmQuantizer
from .attention import (
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    causal_mask,
    positional_encoding,
)
from .conv import GlobalAvgPool2d, MaxPool2d
from .layers import (
    BatchNorm2d,
    Embedding,
    Flatten,
    LeakyReLU,
    Module,
    ReLU,
    Sequential,
)
from .quantized import QuantizedConv2d, QuantizedLinear
from .tensor import Tensor

__all__ = [
    "build_alexnet_small",
    "build_resnet18_small",
    "build_resnet50_small",
    "build_vgg_small",
    "build_mobilenet_small",
    "TinyYolo",
    "TranslationTransformer",
    "MODEL_BUILDERS",
]


def _conv_bn_relu(cin, cout, k, stride, pad, quantizer, rng) -> Sequential:
    return Sequential(
        QuantizedConv2d(cin, cout, k, stride=stride, padding=pad, bias=False,
                        quantizer=quantizer, rng=rng),
        BatchNorm2d(cout),
        ReLU(),
    )


def build_alexnet_small(
    num_classes: int = 8,
    quantizer: Optional[GemmQuantizer] = None,
    rng: Optional[np.random.Generator] = None,
) -> Module:
    """AlexNet topology (5 conv + 3 FC) scaled to 16x16 inputs.

    Batch norm is added after each conv: at this miniature scale the
    original normalisation-free stack does not train from random init
    (the full-size network relies on LRN + careful schedules).
    """
    return Sequential(
        QuantizedConv2d(1, 12, 3, stride=1, padding=1, quantizer=quantizer, rng=rng),
        BatchNorm2d(12),
        ReLU(),
        MaxPool2d(2),
        QuantizedConv2d(12, 24, 3, padding=1, quantizer=quantizer, rng=rng),
        BatchNorm2d(24),
        ReLU(),
        MaxPool2d(2),
        QuantizedConv2d(24, 32, 3, padding=1, quantizer=quantizer, rng=rng),
        BatchNorm2d(32),
        ReLU(),
        QuantizedConv2d(32, 32, 3, padding=1, quantizer=quantizer, rng=rng),
        BatchNorm2d(32),
        ReLU(),
        QuantizedConv2d(32, 24, 3, padding=1, quantizer=quantizer, rng=rng),
        BatchNorm2d(24),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        QuantizedLinear(24 * 2 * 2, 64, quantizer=quantizer, rng=rng),
        ReLU(),
        QuantizedLinear(64, 48, quantizer=quantizer, rng=rng),
        ReLU(),
        QuantizedLinear(48, num_classes, quantizer=quantizer, rng=rng),
    )


class _BasicBlock(Module):
    """ResNet v1 basic block."""

    def __init__(self, cin, cout, stride, quantizer, rng):
        super().__init__()
        self.conv1 = QuantizedConv2d(cin, cout, 3, stride=stride, padding=1,
                                     bias=False, quantizer=quantizer, rng=rng)
        self.bn1 = BatchNorm2d(cout)
        self.conv2 = QuantizedConv2d(cout, cout, 3, padding=1, bias=False,
                                     quantizer=quantizer, rng=rng)
        self.bn2 = BatchNorm2d(cout)
        if stride != 1 or cin != cout:
            self.shortcut = Sequential(
                QuantizedConv2d(cin, cout, 1, stride=stride, bias=False,
                                quantizer=quantizer, rng=rng),
                BatchNorm2d(cout),
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        skip = x if self.shortcut is None else self.shortcut(x)
        return (out + skip).relu()


class _Bottleneck(Module):
    """ResNet v1 bottleneck block (1x1 -> 3x3 -> 1x1, expansion 4)."""

    expansion = 4

    def __init__(self, cin, width, stride, quantizer, rng):
        super().__init__()
        cout = width * self.expansion
        self.conv1 = QuantizedConv2d(cin, width, 1, bias=False,
                                     quantizer=quantizer, rng=rng)
        self.bn1 = BatchNorm2d(width)
        self.conv2 = QuantizedConv2d(width, width, 3, stride=stride, padding=1,
                                     bias=False, quantizer=quantizer, rng=rng)
        self.bn2 = BatchNorm2d(width)
        self.conv3 = QuantizedConv2d(width, cout, 1, bias=False,
                                     quantizer=quantizer, rng=rng)
        self.bn3 = BatchNorm2d(cout)
        if stride != 1 or cin != cout:
            self.shortcut = Sequential(
                QuantizedConv2d(cin, cout, 1, stride=stride, bias=False,
                                quantizer=quantizer, rng=rng),
                BatchNorm2d(cout),
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out)).relu()
        out = self.bn3(self.conv3(out))
        skip = x if self.shortcut is None else self.shortcut(x)
        return (out + skip).relu()


class _ResNet(Module):
    def __init__(self, block, layers, widths, num_classes, quantizer, rng):
        super().__init__()
        self.stem = _conv_bn_relu(1, widths[0], 3, 1, 1, quantizer, rng)
        blocks = []
        cin = widths[0]
        for stage, (count, width) in enumerate(zip(layers, widths)):
            for b in range(count):
                stride = 2 if (stage > 0 and b == 0) else 1
                blk = block(cin, width, stride, quantizer, rng)
                cin = width * getattr(block, "expansion", 1)
                blocks.append(blk)
        self.blocks = blocks
        self.pool = GlobalAvgPool2d()
        self.fc = QuantizedLinear(cin, num_classes, quantizer=quantizer, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        for blk in self.blocks:
            x = blk(x)
        return self.fc(self.pool(x))


def build_resnet18_small(num_classes=8, quantizer=None, rng=None) -> Module:
    """ResNet18 topology (basic blocks x [2,2,2,2]) with scaled widths."""
    return _ResNet(_BasicBlock, [2, 2, 2, 2], [8, 16, 24, 32],
                   num_classes, quantizer, rng)


def build_resnet50_small(num_classes=8, quantizer=None, rng=None) -> Module:
    """ResNet50-style bottleneck network with scaled depth/width."""
    return _ResNet(_Bottleneck, [1, 2, 2, 1], [4, 8, 12, 16],
                   num_classes, quantizer, rng)


def build_vgg_small(num_classes=8, quantizer=None, rng=None) -> Module:
    """VGG16 topology (stacked 3x3 conv stages + FC head), scaled.

    Uses the VGG-BN variant — the plain stack does not train at this
    miniature scale.
    """
    cfg = [(1, 8, 2), (8, 16, 2), (16, 24, 2)]  # (cin, cout, convs per stage)
    layers = []
    for cin, cout, convs in cfg:
        for c in range(convs):
            layers.append(QuantizedConv2d(cin if c == 0 else cout, cout, 3,
                                          padding=1, quantizer=quantizer, rng=rng))
            layers.append(BatchNorm2d(cout))
            layers.append(ReLU())
        layers.append(MaxPool2d(2))
    layers += [
        Flatten(),
        QuantizedLinear(24 * 2 * 2, 64, quantizer=quantizer, rng=rng),
        ReLU(),
        QuantizedLinear(64, num_classes, quantizer=quantizer, rng=rng),
    ]
    return Sequential(*layers)


class _DepthwiseSeparable(Module):
    """MobileNet-style depthwise + pointwise block."""

    def __init__(self, cin, cout, stride, quantizer, rng):
        super().__init__()
        self.dw = QuantizedConv2d(cin, cin, 3, stride=stride, padding=1,
                                  groups=cin, bias=False, quantizer=quantizer, rng=rng)
        self.bn1 = BatchNorm2d(cin)
        self.pw = QuantizedConv2d(cin, cout, 1, bias=False,
                                  quantizer=quantizer, rng=rng)
        self.bn2 = BatchNorm2d(cout)

    def forward(self, x: Tensor) -> Tensor:
        x = self.bn1(self.dw(x)).relu()
        return self.bn2(self.pw(x)).relu()


def build_mobilenet_small(num_classes=8, quantizer=None, rng=None) -> Module:
    """MobileNetV2-flavoured network of depthwise-separable blocks."""

    class _Net(Module):
        def __init__(self):
            super().__init__()
            self.stem = _conv_bn_relu(1, 8, 3, 1, 1, quantizer, rng)
            self.blocks = [
                _DepthwiseSeparable(8, 16, 2, quantizer, rng),
                _DepthwiseSeparable(16, 24, 2, quantizer, rng),
                _DepthwiseSeparable(24, 32, 2, quantizer, rng),
            ]
            self.pool = GlobalAvgPool2d()
            self.fc = QuantizedLinear(32, num_classes, quantizer=quantizer, rng=rng)

        def forward(self, x: Tensor) -> Tensor:
            x = self.stem(x)
            for blk in self.blocks:
                x = blk(x)
            return self.fc(self.pool(x))

    return _Net()


class TinyYolo(Module):
    """YOLO-style single-object detector.

    Backbone of strided convs, head predicting class logits plus a
    normalised (cx, cy, w, h) box; mirrors YOLOv2's conv-only regression
    structure at toy scale.
    """

    def __init__(self, num_classes=4, quantizer=None, rng=None):
        super().__init__()
        self.backbone = Sequential(
            QuantizedConv2d(1, 8, 3, padding=1, quantizer=quantizer, rng=rng),
            BatchNorm2d(8),
            LeakyReLU(),
            MaxPool2d(2),
            QuantizedConv2d(8, 16, 3, padding=1, quantizer=quantizer, rng=rng),
            BatchNorm2d(16),
            LeakyReLU(),
            MaxPool2d(2),
            QuantizedConv2d(16, 24, 3, padding=1, quantizer=quantizer, rng=rng),
            BatchNorm2d(24),
            LeakyReLU(),
            MaxPool2d(2),
            Flatten(),
        )
        feat = 24 * 2 * 2
        self.cls_head = QuantizedLinear(feat, num_classes, quantizer=quantizer, rng=rng)
        self.box_head = QuantizedLinear(feat, 4, quantizer=quantizer, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor):
        feats = self.backbone(x)
        return self.cls_head(feats), self.box_head(feats).sigmoid()


class TranslationTransformer(Module):
    """Scaled IWSLT-style encoder-decoder transformer."""

    def __init__(
        self,
        vocab_size: int = 32,
        dim: int = 48,
        num_heads: int = 4,
        num_layers: int = 2,
        ff_hidden: int = 96,
        max_len: int = 32,
        quantizer: Optional[GemmQuantizer] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.src_embed = Embedding(vocab_size, dim, rng=rng)
        self.tgt_embed = Embedding(vocab_size, dim, rng=rng)
        self.pos = positional_encoding(max_len, dim)
        self.encoder = [
            TransformerEncoderLayer(dim, num_heads, ff_hidden, quantizer, rng=rng)
            for _ in range(num_layers)
        ]
        self.decoder = [
            TransformerDecoderLayer(dim, num_heads, ff_hidden, quantizer, rng=rng)
            for _ in range(num_layers)
        ]
        self.out = QuantizedLinear(dim, vocab_size, quantizer=quantizer, rng=rng)

    def encode(self, src: np.ndarray) -> Tensor:
        x = self.src_embed(src) + Tensor(self.pos[: src.shape[1]])
        for layer in self.encoder:
            x = layer(x)
        return x

    def decode(self, tgt_in: np.ndarray, memory: Tensor) -> Tensor:
        x = self.tgt_embed(tgt_in) + Tensor(self.pos[: tgt_in.shape[1]])
        mask = causal_mask(tgt_in.shape[1])
        for layer in self.decoder:
            x = layer(x, memory, self_mask=mask)
        return self.out(x)

    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> Tensor:
        return self.decode(tgt_in, self.encode(src))


MODEL_BUILDERS = {
    "alexnet": build_alexnet_small,
    "resnet18": build_resnet18_small,
    "resnet50": build_resnet50_small,
    "vgg16": build_vgg_small,
    "mobilenet": build_mobilenet_small,
}
