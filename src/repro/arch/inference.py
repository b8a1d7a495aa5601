"""Inference-mode throughput and the Table III comparison.

Inference runs the forward GEMMs only.  Throughput is reported as
inferences per second (IPS), IPS/W and IPS/mm² for ResNet50 and AlexNet at
batch 1 — matching the published accelerator numbers the paper compares
against, which are reproduced here as reference constants.

Besides the one-shot forward-pass helpers, this module carries the
autoregressive-decode latency model the token serving engine
(:mod:`repro.serve.engine`) dispatches against:
:func:`decode_step_latency` prices one iteration-level decode step (one
token per running session, attention read over each session's KV
context) and :func:`chunked_prefill_components` prices one slice of the
prompt pass that builds a session's KV state (the whole prompt with no
resident context is the monolithic pass).

Each quantity is priced by one function returning its components
(``total_s`` plus the phase-shifter ``reprogram_s`` share); the
``*_latency`` functions beside them return that ``total_s``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .accelerator import MirageAccelerator
from .area import mirage_footprint_area
from .dataflow import MIRAGE_DATAFLOWS
from .latency import mirage_gemm_components
from .workloads import GemmShape, LayerShape, TrainingGemm, training_gemms, workload

__all__ = [
    "attention_token_latency",
    "attention_token_components",
    "chunked_prefill_latency",
    "chunked_prefill_components",
    "decode_step_latency",
    "inference_latency",
    "inference_latency_components",
    "inference_metrics",
    "per_request_latency",
    "PUBLISHED_INFERENCE_ACCELERATORS",
    "table3_rows",
]


def _forward_gemms(layers: Sequence[LayerShape]) -> List[TrainingGemm]:
    return [tg for layer in layers for tg in training_gemms(layer) if tg.role == "fwd"]


def inference_latency_components(
    layers: Sequence[LayerShape],
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Seconds for one forward pass, split into reprogram vs stream time.

    Each forward GEMM runs under its faster Mirage dataflow (OPT2; the
    first listed wins a tie) and the chosen totals add in layer order.
    ``reprogram_s`` sums each chosen mapping's exact phase-shifter
    settle time; ``stream_s`` is the residual ``total_s - reprogram_s``
    — a reporting split, never re-added when asserting exactness.

    An empty layer list (or one with no forward GEMMs) is rejected: a
    silent 0.0 here used to propagate into serving dispatch as a
    zero-length busy window, which reads as infinite throughput.
    """
    accelerator = accelerator or MirageAccelerator()
    config = accelerator.config
    gemms = _forward_gemms(layers)
    if not gemms:
        raise ValueError(
            "layers contain no forward GEMMs to price (empty layer list?)"
        )
    total = 0.0
    reprogram = 0.0
    for tg in gemms:
        best = None
        for df in MIRAGE_DATAFLOWS:
            cand = mirage_gemm_components(tg.gemm, config, df)
            if best is None or cand["total_s"] < best["total_s"]:
                best = cand
        total += best["total_s"]
        reprogram += best["reprogram_s"]
    return {
        "total_s": total,
        "reprogram_s": reprogram,
        "stream_s": total - reprogram,
    }


def inference_latency(
    layers: Sequence[LayerShape],
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds for one forward pass: the ``total_s`` of
    :func:`inference_latency_components`."""
    return inference_latency_components(layers, accelerator)["total_s"]


def inference_metrics(
    name: str,
    batch: int = 16,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """IPS, IPS/W and IPS/mm² for a named workload at a given batch."""
    accelerator = accelerator or MirageAccelerator()
    layers = workload(name, batch=batch)
    latency = inference_latency(layers, accelerator)
    ips = batch / latency
    fwd_macs = sum(tg.gemm.macs for tg in _forward_gemms(layers))
    energy = accelerator.energy_per_mac * fwd_macs
    power = energy / latency
    area_mm2 = mirage_footprint_area(accelerator.config) / 1e-6
    return {
        "ips": ips,
        "ips_per_w": ips / power,
        "ips_per_mm2": ips / area_mm2,
        "power_w": power,
        "latency_s": latency,
    }


def per_request_latency(
    layers: Sequence[LayerShape],
    batch: int,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Per-request latency accounting for a micro-batch of ``batch`` requests.

    ``layers`` must already be shaped at ``batch`` (their forward GEMMs
    carry ``N = batch * spatial``, per the im2col convention).  Returns
    the batch service latency and the amortized per-request share.
    Comparing ``per_request_s`` across batch sizes exposes the effect
    dynamic micro-batching (:mod:`repro.serve`) is built to exploit:
    weight-tile reprogramming is paid per tile, not per streamed vector,
    so batching amortizes the 5 ns phase-shifter settles across requests.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    batch_s = inference_latency(layers, accelerator)
    per_request_s = batch_s / batch
    return {
        "batch": float(batch),
        "batch_latency_s": batch_s,
        "per_request_s": per_request_s,
    }


# ----------------------------------------------------------------------
# Autoregressive decode (token serving engine)
# ----------------------------------------------------------------------
def _check_kv_spec(kv) -> None:
    """``kv`` is duck-typed (``repro.nn.attention.KVCacheSpec`` in
    practice; ``arch`` stays import-independent of ``nn``)."""
    for attr in ("num_layers", "num_heads", "head_dim"):
        value = getattr(kv, attr, None)
        if not isinstance(value, int) or value < 1:
            raise ValueError(
                f"kv.{attr} must be a positive int, got {value!r}"
            )


def _decode_attention_layers(kv, context_len: int) -> List[LayerShape]:
    _check_kv_spec(kv)
    if context_len < 1:
        raise ValueError(f"context_len must be >= 1, got {context_len}")
    count = kv.num_layers * kv.num_heads
    return [
        LayerShape(
            "decode.scores",
            GemmShape(1, kv.head_dim, context_len, count=count),
            "attention",
        ),
        LayerShape(
            "decode.context",
            GemmShape(1, context_len, kv.head_dim, count=count),
            "attention",
        ),
    ]


def attention_token_components(
    kv,
    context_len: int,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Attention work to decode **one token** of one session, by component.

    Per transformer layer and head, the new query reads its KV context:
    a score GEMM ``(1, head_dim) @ (head_dim, L)`` and a context GEMM
    ``(1, L) @ (L, head_dim)`` with ``L = context_len`` — the part of a
    decode step that grows with the session's sequence length (the
    token-parallel projections are priced separately by
    :func:`decode_step_latency`).  All heads and layers ride in one GEMM
    descriptor via ``count = num_layers * num_heads``, whose tiles the
    latency model spreads across the ``num_arrays`` RNS-MMVMUs.  The
    keys are those of :func:`inference_latency_components`.
    """
    return inference_latency_components(
        _decode_attention_layers(kv, context_len), accelerator
    )


def attention_token_latency(
    kv,
    context_len: int,
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds of attention work to decode one token: the ``total_s`` of
    :func:`attention_token_components`."""
    return attention_token_components(kv, context_len, accelerator)["total_s"]


def decode_step_latency(
    layers: Sequence[LayerShape],
    context_lens: Sequence[int],
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Price one iteration-level decode step of a continuous batch.

    ``layers`` are the model's token-parallel GEMMs shaped at
    ``batch = len(context_lens)`` (one new token per running session);
    ``context_lens[i]`` is session *i*'s resident KV length, each adding
    the per-session attention read of :func:`attention_token_components`.
    ``kv=None`` models a KV-free network (pure MLP surrogate): the step
    is just the batched token GEMMs.

    Returns ``step_latency_s = token_parallel_s + attention_s``, its
    ``per_token_s`` share and ``batch``, and each term's phase-shifter
    settle time (``token_reprogram_s``, ``attention_reprogram_s``; the
    streams are the residuals, see :func:`inference_latency_components`).
    The attention term sums in ``context_lens`` order with a per-``L``
    memo, so a caller that memoises the per-token attention price per
    distinct length and sums in the same order reproduces this number
    bit-exactly — the engine's pricing and the hardware-attribution
    profiler both do.
    """
    batch = len(context_lens)
    if batch < 1:
        raise ValueError("context_lens must name at least one session")
    accelerator = accelerator or MirageAccelerator()
    token = inference_latency_components(layers, accelerator)
    attention_s = 0.0
    attention_reprogram_s = 0.0
    if kv is not None:
        per_len: Dict[int, Dict[str, float]] = {}
        for length in context_lens:
            if length not in per_len:
                per_len[length] = attention_token_components(
                    kv, length, accelerator
                )
            attention_s += per_len[length]["total_s"]
            attention_reprogram_s += per_len[length]["reprogram_s"]
    step_s = token["total_s"] + attention_s
    return {
        "batch": float(batch),
        "token_parallel_s": token["total_s"],
        "token_reprogram_s": token["reprogram_s"],
        "attention_s": attention_s,
        "attention_reprogram_s": attention_reprogram_s,
        "step_latency_s": step_s,
        "per_token_s": step_s / batch,
    }


def _prefill_attention_layers(
    kv, chunk_len: int, context_len: int
) -> List[LayerShape]:
    _check_kv_spec(kv)
    count = kv.num_layers * kv.num_heads
    span = context_len + chunk_len
    return [
        LayerShape(
            "prefill.scores",
            GemmShape(chunk_len, kv.head_dim, span, count=count),
            "attention",
        ),
        LayerShape(
            "prefill.context",
            GemmShape(chunk_len, span, kv.head_dim, count=count),
            "attention",
        ),
    ]


def chunked_prefill_components(
    layers: Sequence[LayerShape],
    chunk_len: int,
    context_len: int = 0,
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> Dict[str, float]:
    """Price one ``chunk_len``-token slice of a prompt, by component.

    Chunked prefill splits a long prompt into slices interleaved with
    running decode steps (bounding the TTFT jitter a monolithic prefill
    inflicts on co-scheduled sessions).  ``context_len`` tokens of KV
    are already resident — from earlier chunks *or* from a shared-prefix
    cache hit — so the slice's cost is its token-parallel GEMMs
    (``layers`` shaped at ``batch = chunk_len``) plus causal attention
    of the chunk's queries over everything resident so far: per layer
    and head a ``(Q, head_dim) @ (head_dim, C + Q)`` score GEMM and a
    ``(Q, C + Q) @ (C + Q, head_dim)`` context GEMM.  The whole prompt
    as one chunk with ``context_len = 0`` is the monolithic prompt pass,
    quadratic in the prompt length.

    Returns ``total_s = gemm_s + attention_s`` and each term's
    phase-shifter settle time (``gemm_reprogram_s``,
    ``attention_reprogram_s``).  ``chunk_len = 0`` — a fully cached
    slice — is **defined** as all-zero components (no GEMMs stream;
    ``layers`` and ``kv`` are not consulted): the scheduling step it
    rides in still happens, it just adds no prefill time.
    """
    if chunk_len < 0:
        raise ValueError(f"chunk_len must be >= 0, got {chunk_len}")
    if context_len < 0:
        raise ValueError(f"context_len must be >= 0, got {context_len}")
    if chunk_len == 0:
        return {
            "total_s": 0.0,
            "gemm_s": 0.0,
            "gemm_reprogram_s": 0.0,
            "attention_s": 0.0,
            "attention_reprogram_s": 0.0,
        }
    accelerator = accelerator or MirageAccelerator()
    gemm = inference_latency_components(layers, accelerator)
    total = gemm["total_s"]
    attention_s = 0.0
    attention_reprogram_s = 0.0
    if kv is not None:
        attn = inference_latency_components(
            _prefill_attention_layers(kv, chunk_len, context_len), accelerator
        )
        attention_s = attn["total_s"]
        attention_reprogram_s = attn["reprogram_s"]
        total += attention_s
    return {
        "total_s": total,
        "gemm_s": gemm["total_s"],
        "gemm_reprogram_s": gemm["reprogram_s"],
        "attention_s": attention_s,
        "attention_reprogram_s": attention_reprogram_s,
    }


def chunked_prefill_latency(
    layers: Sequence[LayerShape],
    chunk_len: int,
    context_len: int = 0,
    kv=None,
    accelerator: Optional[MirageAccelerator] = None,
) -> float:
    """Seconds to prefill one prompt slice: the ``total_s`` of
    :func:`chunked_prefill_components`."""
    return chunked_prefill_components(
        layers, chunk_len, context_len, kv, accelerator
    )["total_s"]


# Published numbers reproduced from Table III (reference constants; the
# cited accelerators are not re-simulated).  None = not reported (N/A).
PUBLISHED_INFERENCE_ACCELERATORS = {
    "ADEPT": {
        "ResNet50": (35698, 1587.99, 50.57),
        "AlexNet": (217201, 7476.78, 307.64),
    },
    "Albireo-C": {"ResNet50": None, "AlexNet": (7692, 344.17, 61.46)},
    "DNNARA": {"ResNet50": (9345, 100.0, 42.05), "AlexNet": None},
    "HolyLight": {"ResNet50": None, "AlexNet": (50000, 900.0, 2226.11)},
    "Eyeriss": {"ResNet50": None, "AlexNet": (35, 124.80, 2.85)},
    "Eyeriss v2": {"ResNet50": None, "AlexNet": (102, 174.80, None)},
    "TPU v3": {"ResNet50": (32716, 18.18, 18.00), "AlexNet": None},
    "UNPU": {"ResNet50": None, "AlexNet": (346, 1097.50, 21.62)},
    "Res-DNN": {"ResNet50": None, "AlexNet": (386.11, 427.78, None)},
}

# Paper-reported Mirage row of Table III, for shape validation.
PAPER_MIRAGE_TABLE3 = {
    "ResNet50": (10474, 1540.6, 43.2),
    "AlexNet": (64963, 1904.5, 267.67),
}


def table3_rows(accelerator: Optional[MirageAccelerator] = None, batch: int = 16):
    """(accelerator, model, ips, ips_per_w, ips_per_mm2) rows for Table III."""
    accelerator = accelerator or MirageAccelerator()
    rows = []
    for model in ("ResNet50", "AlexNet"):
        metrics = inference_metrics(model, batch=batch, accelerator=accelerator)
        rows.append(
            ("Mirage (measured)", model, metrics["ips"], metrics["ips_per_w"],
             metrics["ips_per_mm2"])
        )
    for name, per_model in PUBLISHED_INFERENCE_ACCELERATORS.items():
        for model, vals in per_model.items():
            if vals is None:
                continue
            rows.append((name, model, vals[0], vals[1], vals[2]))
    return rows
