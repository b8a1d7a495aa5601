"""Layer- and network-level orchestration over the photonic core.

Ties the functional tensor core to the nn substrate: a
:class:`PhotonicExecutor` runs Linear/Conv2d layers of a trained model
through the full device-model dataflow (including, optionally, analog
noise), enabling end-to-end "would this network still work on the real
hardware" evaluations — the Monte-Carlo noise studies of Section VI-E.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, Optional

import numpy as np

from ..nn.conv import Conv2d, conv_output_size, im2col
from ..nn.layers import Linear, Module, Sequential
from ..nn.tensor import Tensor, no_grad
from ..photonic.mdpu import NoiseModel
from .tensor_core import CoreConfig, PhotonicRnsTensorCore

__all__ = ["PhotonicExecutor", "compare_with_reference"]


class PhotonicExecutor:
    """Executes a model's GEMM layers on the photonic tensor core.

    Non-GEMM layers (activations, pooling, norm) run digitally in FP32 —
    exactly the paper's split (Fig. 2 step 10).

    Weights are programmed onto the array once per layer and cached
    (validated against the current weight data on every call, so updating
    a layer's weights transparently reprograms it).  Repeated inference
    therefore only streams activations — the weight-static fast path.

    Cache entries are keyed by a per-layer monotonic token rather than
    ``id(layer)``: ``id`` values are recycled after garbage collection, so
    a long transient-model sweep could otherwise look up a dead layer's
    entry and lean on the ``matches(w)`` copy check as the only guard.
    Tokens are handed out once per live layer object (tracked weakly) and
    never reused, so a recycled ``id`` can never alias a stale entry.

    ``cache_info()`` exposes hit/miss/eviction counters so pooled serving
    deployments (:mod:`repro.serve`) can report programmed-cache hit
    rates per core.
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
        max_cached_layers: int = 256,
    ):
        self.core = PhotonicRnsTensorCore(config, noise, rng)
        self._programmed: Dict[int, object] = {}
        self._max_cached_layers = max_cached_layers
        self._layer_tokens: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._token_counter = itertools.count()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def _layer_token(self, layer: Module) -> int:
        """Monotonic cache token for ``layer`` (allocated once, never reused)."""
        token = self._layer_tokens.get(layer)
        if token is None:
            token = next(self._token_counter)
            self._layer_tokens[layer] = token
        return token

    def _program_cached(self, key: int, w: np.ndarray):
        """Programmed weights for ``w``, reusing the cache when unchanged.

        The cache is LRU-bounded so long-lived executors sweeping many
        transient models cannot grow without limit (each entry holds the
        residue tiles plus a weight copy).
        """
        entry = self._programmed.pop(key, None)
        if entry is None or not entry.matches(w):
            self._misses += 1
            entry = self.core.program(w)
        else:
            self._hits += 1
        self._programmed[key] = entry  # (re)insert as most recent
        while len(self._programmed) > self._max_cached_layers:
            self._programmed.pop(next(iter(self._programmed)))
            self._evictions += 1
        return entry

    def cache_info(self) -> Dict[str, int]:
        """Programmed-weight cache counters (for pool telemetry)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": len(self._programmed),
            "max_size": self._max_cached_layers,
        }

    def prewarm(self, model: Sequential) -> int:
        """Program every GEMM layer of ``model`` ahead of traffic.

        Returns the number of layers programmed.  Serving pools call this
        when placing a model replica on a core so the first request does
        not pay the programming latency.
        """
        count = 0
        for layer in model:
            if isinstance(layer, Linear):
                self._program_cached(
                    self._layer_token(layer), layer.weight.data
                )
                count += 1
            elif isinstance(layer, Conv2d) and layer.groups == 1:
                w_flat = layer.weight.data.reshape(layer.out_channels, -1)
                self._program_cached(self._layer_token(layer), w_flat)
                count += 1
        return count

    def linear(self, layer: Linear, x: np.ndarray) -> np.ndarray:
        """Run a Linear layer: ``x @ W^T + b`` via the core."""
        pw = self._program_cached(self._layer_token(layer), layer.weight.data)
        out = self.core.matmul_programmed(pw, np.asarray(x).T).T
        if layer.bias is not None:
            out = out + layer.bias.data
        return out

    def conv2d(self, layer: Conv2d, x: np.ndarray) -> np.ndarray:
        """Run a Conv2d layer via its im2col GEMM on the core.

        The whole image batch is folded into one GEMM: program the kernel
        tiles once, stream ``N * L`` activation columns in a single pass.
        """
        if layer.groups != 1:
            raise NotImplementedError("grouped conv on the photonic core")
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        n, c_in, h, w_dim = x.shape
        oh = conv_output_size(h, k, s, p)
        ow = conv_output_size(w_dim, k, s, p)
        cols = im2col(np.asarray(x, dtype=np.float64), k, s, p)  # (N, CKK, L)
        w_flat = layer.weight.data.reshape(layer.out_channels, -1)
        pw = self._program_cached(self._layer_token(layer), w_flat)
        ckk = cols.shape[1]
        stacked = cols.transpose(1, 0, 2).reshape(ckk, -1)  # (CKK, N*L)
        out = self.core.matmul_programmed(pw, stacked)  # (C_out, N*L)
        out = (
            out.reshape(layer.out_channels, n, oh * ow)
            .transpose(1, 0, 2)
            .reshape(n, layer.out_channels, oh, ow)
        )
        if layer.bias is not None:
            out = out + layer.bias.data.reshape(1, -1, 1, 1)
        return out

    # ------------------------------------------------------------------
    def run_sequential(self, model: Sequential, x: np.ndarray) -> np.ndarray:
        """Forward a Sequential model, routing GEMM layers to the core."""
        data = np.asarray(x, dtype=np.float64)
        with no_grad():
            for layer in model:
                if isinstance(layer, Conv2d) and layer.groups == 1:
                    data = self.conv2d(layer, data)
                elif isinstance(layer, Linear):
                    data = self.linear(layer, data)
                else:
                    data = layer(Tensor(data)).data
        return data


def compare_with_reference(
    model: Sequential,
    x: np.ndarray,
    config: Optional[CoreConfig] = None,
    noise: Optional[NoiseModel] = None,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, float]:
    """Run a model digitally (FP64) and on the photonic core; report the
    output deviation and prediction agreement."""
    executor = PhotonicExecutor(config, noise, rng)
    photonic = executor.run_sequential(model, x)
    with no_grad():
        reference = model(Tensor(np.asarray(x, dtype=np.float64))).data
    denom = np.maximum(np.max(np.abs(reference)), 1e-12)
    max_rel = float(np.max(np.abs(photonic - reference)) / denom)
    agree = float(
        np.mean(photonic.argmax(axis=-1) == reference.argmax(axis=-1))
    )
    return {"max_rel_error": max_rel, "prediction_agreement": agree}
