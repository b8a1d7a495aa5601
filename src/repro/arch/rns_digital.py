"""Stay-in-RNS digital inference — the Res-DNN / RNSnet alternative.

Section VII contrasts Mirage's hybrid arithmetic (RNS for the GEMM,
binary/FP for everything else) with digital accelerators that keep the
*whole* network in residue form.  Staying in RNS saves the per-GEMM
reverse conversions but forces three awkward operations:

1. **periodic rescaling** — after every GEMM the fixed-point result
   carries twice the fractional bits and must be scaled back *in residue
   form* (an approximate, reconstruct-class operation);
2. **polynomial nonlinearities** — no comparisons in RNS, so sigmoids
   and tanhs become Taylor/least-squares polynomials whose every
   multiply needs another rescale (:mod:`repro.rns.nonlinear`);
3. **wide moduli** — the value never leaves the RNS, so the moduli set
   must absorb the worst-case layer output; the related works use
   >= 16-bit operand precision where Mirage needs 5.

:class:`PureRnsNetwork` runs a float-trained MLP end-to-end in the RNS
domain under a given :class:`PureRnsConfig`, counting every modular MAC,
rescale and sign detection, and flagging silent range overflows.
:class:`HybridRnsNetwork` is the Mirage-style reference: the *same*
quantised weights and the same moduli, but each GEMM result is decoded,
activated exactly in float and re-encoded.  The accuracy gap between the
two, at matched bit budgets, is the paper's Section VII argument made
runnable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..rns.arithmetic import mod_add, mod_matmul
from ..rns.conversion import crt_reverse_signed, forward_convert_signed
from ..rns.moduli import ModuliSet, special_moduli_set
from ..rns.nonlinear import (
    REFERENCE_FUNCTIONS,
    FixedPointCodec,
    lsq_coefficients,
    rns_polynomial,
    rns_relu,
)
from ..rns.scaling import approximate_scale

__all__ = [
    "PureRnsConfig",
    "DenseLayer",
    "OpCounters",
    "PureRnsNetwork",
    "HybridRnsNetwork",
    "float_reference_forward",
]


@dataclass(frozen=True)
class PureRnsConfig:
    """Numeric configuration of a stay-in-RNS inference pipeline.

    Attributes
    ----------
    k:
        Special-moduli parameter; the set is ``{2^k-1, 2^k, 2^k+1}``
        giving ~``3k`` bits of dynamic range that must hold the
        worst-case GEMM output.
    activation_frac_bits / weight_frac_bits:
        Fixed-point fractional bits for activations and weights.
    activation:
        ``"relu"`` (exact, via sign detection) or a name from
        :data:`repro.rns.nonlinear.REFERENCE_FUNCTIONS` (polynomial).
    poly_degree / poly_interval:
        Least-squares fit parameters for polynomial activations.
    """

    k: int = 8
    activation_frac_bits: int = 8
    weight_frac_bits: int = 8
    activation: str = "relu"
    poly_degree: int = 5
    poly_interval: Tuple[float, float] = (-4.0, 4.0)

    def __post_init__(self):
        if self.activation != "relu" and self.activation not in REFERENCE_FUNCTIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; use 'relu' or one of "
                f"{sorted(REFERENCE_FUNCTIONS)}"
            )
        if self.activation_frac_bits < 1 or self.weight_frac_bits < 1:
            raise ValueError("fractional bit widths must be >= 1")

    @property
    def mset(self) -> ModuliSet:
        return special_moduli_set(self.k)

    @property
    def operand_bits(self) -> int:
        """Residue-channel operand precision (the >= 16-bit claim)."""
        return self.mset.max_residue_bits()


@dataclass(frozen=True)
class DenseLayer:
    """One float-trained dense layer: ``y = act(W x + b)``."""

    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    apply_activation: bool = True

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be (out, in) and bias (out,)")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} != rows {self.weight.shape[0]}"
            )


@dataclass
class OpCounters:
    """Digital-operation census of one inference pass."""

    modular_macs: int = 0
    rescales: int = 0
    sign_detections: int = 0
    overflows: int = 0
    reverse_conversions: int = 0
    forward_conversions: int = 0

    def merge(self, other: "OpCounters") -> None:
        self.modular_macs += other.modular_macs
        self.rescales += other.rescales
        self.sign_detections += other.sign_detections
        self.overflows += other.overflows
        self.reverse_conversions += other.reverse_conversions
        self.forward_conversions += other.forward_conversions


class _RnsMlpBase:
    """Shared weight quantisation and bookkeeping for both pipelines."""

    def __init__(self, layers: Sequence[DenseLayer], config: PureRnsConfig):
        if not layers:
            raise ValueError("need at least one layer")
        self.layers = list(layers)
        self.config = config
        self.mset = config.mset
        self.codec = FixedPointCodec(self.mset, config.activation_frac_bits)
        w_scale = 1 << config.weight_frac_bits
        self._w_int = [
            np.clip(
                np.rint(layer.weight * w_scale),
                -self.mset.psi,
                self.mset.psi,
            ).astype(np.int64)
            for layer in self.layers
        ]
        # Biases join the accumulator before rescaling, so they carry
        # activation + weight fractional bits.
        b_scale = 1 << (config.activation_frac_bits + config.weight_frac_bits)
        self._b_int = [
            np.clip(np.rint(layer.bias * b_scale), -self.mset.psi, self.mset.psi)
            .astype(np.int64)
            for layer in self.layers
        ]
        self._poly = None
        if config.activation != "relu":
            self._poly = lsq_coefficients(
                REFERENCE_FUNCTIONS[config.activation],
                config.poly_interval,
                config.poly_degree,
            )

    # ------------------------------------------------------------------
    def _gemm_residues(
        self, layer_idx: int, x_res: np.ndarray, counters: OpCounters
    ) -> np.ndarray:
        """Modular ``W x + b`` on residues; x_res is ``(n, in, batch)``."""
        w_res = forward_convert_signed(self._w_int[layer_idx], self.mset)
        out = mod_matmul(w_res, x_res, self.mset)
        b_res = forward_convert_signed(
            self._b_int[layer_idx][:, None], self.mset
        )
        out = mod_add(out, np.broadcast_to(b_res, out.shape), self.mset)
        rows, cols = out.shape[1], out.shape[2]
        counters.modular_macs += self.mset.n * rows * cols * x_res.shape[1]
        return out

    def _count_overflows(
        self, layer_idx: int, x_int: np.ndarray, counters: OpCounters
    ) -> np.ndarray:
        """Exact integer accumulator (simulator's eye view) for overflow
        detection; returns the exact pre-rescale integers."""
        exact = self._w_int[layer_idx].astype(object) @ x_int.astype(object)
        exact = exact + self._b_int[layer_idx][:, None]
        wrapped = np.abs(exact.astype(np.float64)) > self.mset.psi
        counters.overflows += int(np.count_nonzero(wrapped))
        return exact


class PureRnsNetwork(_RnsMlpBase):
    """MLP inference that never leaves the RNS domain until the output.

    The forward pass per layer: modular GEMM -> in-RNS rescale by the
    weight fractional bits -> in-RNS activation (sign-detected ReLU or a
    fixed-point polynomial).  One single reverse conversion at the very
    end — the selling point of the Section VII designs, bought at the
    cost counted in :class:`OpCounters`.
    """

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, OpCounters]:
        """Run ``x`` of shape ``(features, batch)``; returns logits and
        the operation census."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (features, batch), got {x.shape}")
        counters = OpCounters(forward_conversions=x.size)
        res = self.codec.encode(x)
        x_int = np.rint(np.clip(x, -self.codec.max_value, self.codec.max_value)
                        * self.codec.scale).astype(np.int64)
        for idx, layer in enumerate(self.layers):
            out = self._gemm_residues(idx, res, counters)
            exact = self._count_overflows(idx, x_int, counters)
            # Rescale the accumulator (fa + fw fractional bits) back to fa.
            out = approximate_scale(out, self.mset, self.config.weight_frac_bits)
            counters.rescales += out.shape[1] * out.shape[2]
            exact = exact >> self.config.weight_frac_bits
            if layer.apply_activation:
                if self.config.activation == "relu":
                    out = rns_relu(out, self.mset)
                    counters.sign_detections += out.shape[1] * out.shape[2]
                    exact = np.where(exact > 0, exact, 0)
                else:
                    out, per_value = rns_polynomial(out, self.codec, self._poly)
                    counters.rescales += per_value * out.shape[1] * out.shape[2]
                    fn = REFERENCE_FUNCTIONS[self.config.activation]
                    rounded = np.rint(
                        fn(exact.astype(np.float64) / self.codec.scale)
                        * self.codec.scale
                    )
                    exact = np.frompyfunc(int, 1, 1)(rounded)
            res = out
            x_int = np.asarray(exact, dtype=object)
        counters.reverse_conversions += res.shape[1] * res.shape[2]
        logits = crt_reverse_signed(res, self.mset).astype(np.float64)
        return logits / self.codec.scale, counters


class HybridRnsNetwork(_RnsMlpBase):
    """Mirage-style hybrid: RNS GEMM, float rescale/activation outside.

    Identical quantised weights and moduli; after each modular GEMM the
    result is reverse-converted, rescaled and activated exactly in
    FP64, then re-encoded.  Conversion counts grow, awkward in-RNS ops
    disappear — the other side of the Section VII trade.
    """

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, OpCounters]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected (features, batch), got {x.shape}")
        counters = OpCounters()
        act = np.clip(x, -self.codec.max_value, self.codec.max_value)
        for idx, layer in enumerate(self.layers):
            res = self.codec.encode(act)
            counters.forward_conversions += act.size
            out = self._gemm_residues(idx, res, counters)
            self._count_overflows(
                idx,
                np.rint(act * self.codec.scale).astype(np.int64),
                counters,
            )
            ints = crt_reverse_signed(out, self.mset).astype(np.float64)
            counters.reverse_conversions += ints.size
            scale = float(
                1 << (self.config.activation_frac_bits + self.config.weight_frac_bits)
            )
            act = ints / scale
            if layer.apply_activation:
                if self.config.activation == "relu":
                    act = np.maximum(act, 0.0)
                else:
                    act = REFERENCE_FUNCTIONS[self.config.activation](act)
        return act, counters


def float_reference_forward(
    layers: Sequence[DenseLayer], x: np.ndarray, activation: str = "relu"
) -> np.ndarray:
    """FP64 forward pass (the accuracy ceiling for both pipelines)."""
    act = np.asarray(x, dtype=np.float64)
    fn = (lambda v: np.maximum(v, 0.0)) if activation == "relu" else (
        REFERENCE_FUNCTIONS[activation]
    )
    for layer in layers:
        act = layer.weight @ act + layer.bias[:, None]
        if layer.apply_activation:
            act = fn(act)
    return act
