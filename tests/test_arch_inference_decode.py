"""arch.inference hardening + the autoregressive decode latency model."""

import pytest

from repro.arch.accelerator import MirageAccelerator
from repro.arch.inference import (
    attention_token_components,
    attention_token_latency,
    chunked_prefill_latency,
    decode_step_latency,
    inference_latency,
    inference_latency_components,
    per_request_latency,
)
from repro.arch.workloads import GemmShape, LayerShape
from repro.nn import KVCacheSpec


def mlp_layers(batch=4, d_in=16, hidden=32, d_out=16):
    return [
        LayerShape("fc1", GemmShape(hidden, d_in, batch), "linear"),
        LayerShape("fc2", GemmShape(d_out, hidden, batch), "linear"),
    ]


KV = KVCacheSpec(num_layers=2, num_heads=2, head_dim=8)


class TestHardening:
    def test_per_request_latency_rejects_nonpositive_batch(self):
        layers = mlp_layers()
        for batch in (0, -3):
            with pytest.raises(ValueError):
                per_request_latency(layers, batch)

    def test_empty_layer_lists_rejected(self):
        with pytest.raises(ValueError):
            inference_latency(())
        with pytest.raises(ValueError):
            inference_latency([])
        with pytest.raises(ValueError):
            per_request_latency([], 4)

    def test_positive_batch_still_works(self):
        out = per_request_latency(mlp_layers(batch=8), 8)
        assert out["batch_latency_s"] > 0
        assert out["per_request_s"] == pytest.approx(out["batch_latency_s"] / 8)


class TestAttentionTokenLatency:
    def test_grows_with_context(self):
        short = attention_token_latency(KV, 4)
        long = attention_token_latency(KV, 400)
        assert 0 < short < long

    def test_monotone_in_heads_and_layers(self):
        # Head/layer tiles spread over the num_arrays RNS-MMVMUs, so a
        # handful rides free but a deep stack must cost strictly more.
        small = attention_token_latency(KVCacheSpec(1, 2, 8), 32)
        big = attention_token_latency(KVCacheSpec(24, 16, 8), 32)
        assert small <= big
        assert big > attention_token_latency(KVCacheSpec(12, 16, 8), 32)

    def test_validation(self):
        with pytest.raises(ValueError):
            attention_token_latency(KV, 0)
        with pytest.raises(ValueError):
            attention_token_latency(object(), 4)  # no kv attributes

    def test_kv_is_duck_typed(self):
        class Spec:
            num_layers = 2
            num_heads = 2
            head_dim = 8

        assert attention_token_latency(Spec(), 16) == attention_token_latency(
            KV, 16
        )


class TestDecodeStepLatency:
    def test_composition_matches_parts(self):
        lens = [5, 9, 5, 17]
        layers = mlp_layers(batch=len(lens))
        out = decode_step_latency(layers, lens, KV)
        token = inference_latency_components(layers)
        assert out["token_parallel_s"] == token["total_s"]
        assert out["token_reprogram_s"] == token["reprogram_s"]
        attention = 0.0
        attention_reprogram = 0.0
        cache = {}
        for length in lens:
            if length not in cache:
                cache[length] = attention_token_components(KV, length)
            attention += cache[length]["total_s"]
            attention_reprogram += cache[length]["reprogram_s"]
        assert out["attention_s"] == attention
        assert out["attention_reprogram_s"] == attention_reprogram
        assert out["step_latency_s"] == token["total_s"] + attention
        assert out["per_token_s"] == pytest.approx(out["step_latency_s"] / 4)

    def test_kv_none_is_token_parallel_only(self):
        layers = mlp_layers(batch=2)
        out = decode_step_latency(layers, [3, 7], kv=None)
        assert out["attention_s"] == 0.0
        assert out["attention_reprogram_s"] == 0.0
        assert out["step_latency_s"] == inference_latency(layers)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            decode_step_latency(mlp_layers(batch=1), [], KV)

    def test_longer_contexts_cost_more(self):
        layers = mlp_layers(batch=2)
        cheap = decode_step_latency(layers, [2, 2], KV)["step_latency_s"]
        costly = decode_step_latency(layers, [200, 200], KV)["step_latency_s"]
        assert cheap < costly


class TestPrefillLatency:
    """The monolithic prompt pass: the whole prompt as one chunk over no
    resident context."""

    def test_quadratic_attention_term(self):
        accelerator = MirageAccelerator()
        short = chunked_prefill_latency(mlp_layers(batch=8), 8, 0, KV, accelerator)
        long = chunked_prefill_latency(mlp_layers(batch=32), 32, 0, KV, accelerator)
        assert 0 < short < long
        # Without KV the prompt pass is just the token-parallel GEMMs.
        bare = chunked_prefill_latency(mlp_layers(batch=8), 8, 0, None, accelerator)
        assert bare == inference_latency(mlp_layers(batch=8), accelerator)
        assert bare < short

    def test_zero_prompt_is_defined_as_free(self):
        # A fully cached prefix: no GEMM streams (layers and kv are not
        # consulted), but the admission still costs a scheduling step —
        # the engine boundary relies on this being exactly 0.0.
        assert chunked_prefill_latency(mlp_layers(), 0, 0, KV) == 0.0
        assert chunked_prefill_latency([], 0, 0, None) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            chunked_prefill_latency(mlp_layers(), -1, 0, None)
        with pytest.raises(ValueError):
            chunked_prefill_latency([], 4, 0, None)


class TestChunkedPrefillLatency:
    def test_single_chunk_matches_prefill_exactly(self):
        # One chunk over no context is the token GEMMs plus one pass of
        # causal attention over the prompt: per layer and head a
        # (P, head_dim) @ (head_dim, P) score GEMM and a (P, P) @
        # (P, head_dim) context GEMM.
        accelerator = MirageAccelerator()
        count = KV.num_layers * KV.num_heads
        for p in (1, 8, 17):
            attention = [
                LayerShape("scores", GemmShape(p, KV.head_dim, p, count), "attention"),
                LayerShape("context", GemmShape(p, p, KV.head_dim, count), "attention"),
            ]
            assert chunked_prefill_latency(
                mlp_layers(batch=p), p, 0, KV, accelerator
            ) == inference_latency(mlp_layers(batch=p), accelerator) + (
                inference_latency(attention, accelerator)
            )

    def test_zero_chunk_is_free(self):
        assert chunked_prefill_latency(mlp_layers(), 0, 12, KV) == 0.0
        assert chunked_prefill_latency([], 0, 0, None) == 0.0

    def test_resident_context_raises_attention_cost(self):
        accelerator = MirageAccelerator()
        cold = chunked_prefill_latency(mlp_layers(batch=4), 4, 0, KV, accelerator)
        warm = chunked_prefill_latency(
            mlp_layers(batch=4), 4, 200, KV, accelerator
        )
        assert 0 < cold < warm  # the chunk attends over more history

    def test_kv_none_is_token_parallel_only(self):
        layers = mlp_layers(batch=4)
        assert chunked_prefill_latency(layers, 4, 100, None) == (
            inference_latency(layers)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            chunked_prefill_latency(mlp_layers(), -1, 0, KV)
        with pytest.raises(ValueError):
            chunked_prefill_latency(mlp_layers(), 4, -1, KV)
        with pytest.raises(ValueError):
            chunked_prefill_latency([], 4, 0, KV)
