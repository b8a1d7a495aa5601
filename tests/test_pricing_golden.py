"""Golden digest of the analytic Mirage pricing (paper Sec. V-B1).

Every pricing entry point of ``repro.arch`` — plus the prewarm charge
the serving runtime derives from it — is evaluated over a fixed grid;
every key each call returns is rendered with ``float.hex`` and the lines
are hashed.  The digest was recorded when each quantity still had a
scalar twin beside its components function, taking every ``total_s``
from the scalar twin, so a one-ulp change to any price fails here.
"""

import hashlib

import numpy as np

from repro.arch.accelerator import MirageAccelerator
from repro.arch.config import MirageConfig
from repro.arch.dataflow import MIRAGE_DATAFLOWS
from repro.arch.inference import (
    attention_token_components,
    attention_token_latency,
    chunked_prefill_components,
    chunked_prefill_latency,
    decode_step_latency,
    inference_latency,
    inference_latency_components,
    per_request_latency,
)
from repro.arch.latency import (
    mirage_gemm_components,
    mirage_gemm_latency,
    mirage_latency_fn,
    step_latency,
)
from repro.arch.workloads import GemmShape, LayerShape, workload
from repro.nn import Conv2d, KVCacheSpec, Linear, ReLU, Sequential, Tanh
from repro.serve.runtime import ModelProfile, ServiceModel

GOLDEN_SHA256 = "b85fb40790eea9587cbb5c2a11c2c1c45f7efebaed8921a8e748ef09a624e6fc"
GOLDEN_ROWS = 2018

ACCELERATORS = (
    MirageAccelerator(),
    MirageAccelerator(
        MirageConfig(num_arrays=16, v=16, reprogram_time_s=3e-9)
    ),
)
MLP_DIMS = ((48, 96, 48), (64, 24, 64), (16, 32, 16))
BATCHES = (1, 2, 4, 7, 16, 33)
CONTEXTS = (1, 4, 17, 96, 400)
# (chunk_len, resident context); context 0 is a monolithic prompt pass.
CHUNKS = ((0, 16), (1, 0), (8, 0), (8, 16), (16, 48), (17, 0), (32, 100))
DECODE_STEPS = ((5, 9, 5, 33), (24, 25, 40, 96, 24), (1,))
KVS = (KVCacheSpec(2, 4, 8), KVCacheSpec(4, 8, 16))
GEMMS = (
    GemmShape(32, 16, 100),
    GemmShape(512, 16, 10),
    GemmShape(4, 4, 4),
    GemmShape(96, 48, 16),
    GemmShape(1, 16, 255, count=32),
    GemmShape(300, 200, 7, count=3),
)
WORKLOADS = (("AlexNet", 1), ("ResNet50", 2), ("Transformer", 1))


def mlp_layers(dims, batch):
    return [
        LayerShape(f"fc{i}", GemmShape(d_out, d_in, batch), "linear")
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:]))
    ]


def served_models():
    rng = np.random.default_rng(0)
    yield ModelProfile(
        "mlp", Sequential(Linear(48, 96, rng=rng), Tanh(), Linear(96, 48, rng=rng))
    )
    yield ModelProfile(
        "wide", Sequential(Linear(128, 512, rng=rng), ReLU(), Linear(512, 10, rng=rng))
    )
    yield ModelProfile(
        "cnn",
        Sequential(
            Conv2d(3, 8, 3, padding=1, rng=rng),
            ReLU(),
            Conv2d(8, 16, 3, stride=2, rng=rng),
            ReLU(),
            Linear(16, 10, rng=rng),
        ),
        input_hw=(12, 12),
    )


def pricing_rows():
    """``(label, key, value)`` for every price in the grid, in grid order."""
    rows = []

    def add(label, value):
        if isinstance(value, dict):
            for key in sorted(value):
                rows.append((label, key, float(value[key])))
        else:
            rows.append((label, "", float(value)))

    for a, acc in enumerate(ACCELERATORS):
        config = acc.config
        for gemm in GEMMS:
            for df in MIRAGE_DATAFLOWS:
                add(f"gemm_latency a{a} {gemm} {df}", mirage_gemm_latency(gemm, config, df))
                add(f"gemm_components a{a} {gemm} {df}", mirage_gemm_components(gemm, config, df))
        for name, batch in WORKLOADS:
            layers = workload(name, batch=batch)
            add(f"inference_latency a{a} {name}@{batch}", inference_latency(layers, acc))
            add(
                f"inference_components a{a} {name}@{batch}",
                inference_latency_components(layers, acc),
            )
            for policy in ("DF1", "DF2", "OPT1", "OPT2"):
                add(
                    f"step_latency a{a} {name}@{batch} {policy}",
                    step_latency(
                        layers, mirage_latency_fn(config), MIRAGE_DATAFLOWS, policy
                    ),
                )
        for dims in MLP_DIMS:
            for batch in BATCHES:
                layers = mlp_layers(dims, batch)
                add(f"inference_latency a{a} {dims}@{batch}", inference_latency(layers, acc))
                add(
                    f"inference_components a{a} {dims}@{batch}",
                    inference_latency_components(layers, acc),
                )
                add(
                    f"per_request a{a} {dims}@{batch}",
                    per_request_latency(layers, batch, acc),
                )
            for k, kv in enumerate(KVS):
                for lens in DECODE_STEPS:
                    layers = mlp_layers(dims, len(lens))
                    add(
                        f"decode_step a{a} {dims} kv{k} {lens}",
                        decode_step_latency(layers, lens, kv, acc),
                    )
                    add(
                        f"decode_step a{a} {dims} kv- {lens}",
                        decode_step_latency(layers, lens, None, acc),
                    )
                for chunk, ctx in CHUNKS:
                    layers = mlp_layers(dims, max(chunk, 1))
                    for kv_name, spec in ((f"kv{k}", kv), ("kv-", None)):
                        label = f"a{a} {dims} {kv_name} {chunk}+{ctx}"
                        add(
                            f"chunked_prefill_latency {label}",
                            chunked_prefill_latency(layers, chunk, ctx, spec, acc),
                        )
                        add(
                            f"chunked_prefill_components {label}",
                            chunked_prefill_components(layers, chunk, ctx, spec, acc),
                        )
        for k, kv in enumerate(KVS):
            for ctx in CONTEXTS:
                add(f"attention_latency a{a} kv{k} {ctx}", attention_token_latency(kv, ctx, acc))
                add(
                    f"attention_components a{a} kv{k} {ctx}",
                    attention_token_components(kv, ctx, acc),
                )
        service = ServiceModel(acc)
        for profile in served_models():
            service.register(profile)
            add(f"prewarm a{a} {profile.name}", service.prewarm_latency(profile.name))
    return rows


def digest(rows):
    text = "".join(f"{label}|{key}|{value.hex()}\n" for label, key, value in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_pricing_grid_matches_the_golden_digest():
    rows = pricing_rows()
    assert len(rows) == GOLDEN_ROWS
    assert digest(rows) == GOLDEN_SHA256


def test_stream_is_the_residual_of_total_minus_reprogram():
    by_call = {}
    for label, key, value in pricing_rows():
        by_call.setdefault(label, {})[key] = value
    checked = 0
    for label, parts in by_call.items():
        if "reprogram_s" in parts and "total_s" in parts:
            assert parts["stream_s"] == parts["total_s"] - parts["reprogram_s"], label
            checked += 1
    assert checked == 86
