"""Model → GEMM-shape extraction (feeds the analytic latency model).

Below both the runtime, which prices dispatches from these shapes, and
the attribution profiler, which reprices finished runs from them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..arch.workloads import GemmShape, LayerShape
from ..nn.conv import Conv2d, conv_output_size
from ..nn.layers import Linear, Sequential

__all__ = ["model_layer_shapes"]


def model_layer_shapes(
    name: str,
    model: Sequential,
    batch: int,
    input_hw: Optional[Tuple[int, int]] = None,
) -> List[LayerShape]:
    """Forward GEMM shapes of a Sequential model at a given batch size.

    Linear layers map to ``(out, in) @ (in, batch)``; Conv2d layers use
    the im2col convention and need ``input_hw`` to track spatial sizes.
    """
    shapes: List[LayerShape] = []
    hw = input_hw
    for i, layer in enumerate(model):
        if isinstance(layer, Linear):
            shapes.append(
                LayerShape(
                    f"{name}.{i}",
                    GemmShape(layer.out_features, layer.in_features, batch),
                    "linear",
                )
            )
        elif isinstance(layer, Conv2d):
            if hw is None:
                raise ValueError(
                    f"model {name!r} has Conv2d layers; pass input_hw"
                )
            k, s, p = layer.kernel_size, layer.stride, layer.padding
            oh = conv_output_size(hw[0], k, s, p)
            ow = conv_output_size(hw[1], k, s, p)
            shapes.append(
                LayerShape(
                    f"{name}.{i}",
                    GemmShape(
                        layer.out_channels,
                        layer.in_channels * k * k // layer.groups,
                        batch * oh * ow,
                    ),
                    "conv",
                )
            )
            hw = (oh, ow)
    if not shapes:
        raise ValueError(f"model {name!r} has no GEMM layers to serve")
    return shapes
