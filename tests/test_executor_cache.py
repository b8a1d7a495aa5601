"""PhotonicExecutor programmed-weight cache: LRU, reprogramming, bounds.

Also regression-tests the cache keying: entries are keyed by per-layer
monotonic tokens, not ``id(layer)``, so a garbage-collected layer whose
``id`` is recycled can never alias a stale cache entry.
"""

import gc

import numpy as np

from repro.core import PhotonicExecutor
from repro.nn import Linear


def run_linear(ex, layer, rng=None):
    rng = rng or np.random.default_rng(0)
    return ex.linear(layer, rng.standard_normal((2, layer.in_features)))


class TestLruEviction:
    def test_bound_is_enforced(self):
        ex = PhotonicExecutor(max_cached_layers=2)
        layers = [Linear(8, 4, rng=np.random.default_rng(i)) for i in range(4)]
        for layer in layers:
            run_linear(ex, layer)
        info = ex.cache_info()
        assert info["size"] == 2
        assert info["max_size"] == 2
        assert info["evictions"] == 2
        assert info["misses"] == 4

    def test_default_bound_is_256(self):
        assert PhotonicExecutor().cache_info()["max_size"] == 256

    def test_lru_order_evicts_least_recent(self):
        ex = PhotonicExecutor(max_cached_layers=2)
        a = Linear(8, 4, rng=np.random.default_rng(0))
        b = Linear(8, 4, rng=np.random.default_rng(1))
        c = Linear(8, 4, rng=np.random.default_rng(2))
        run_linear(ex, a)
        run_linear(ex, b)
        run_linear(ex, a)  # refresh a: b becomes least-recent
        run_linear(ex, c)  # evicts b
        misses = ex.cache_info()["misses"]
        run_linear(ex, a)  # must still be cached
        assert ex.cache_info()["misses"] == misses
        run_linear(ex, b)  # must have been evicted -> reprogram
        assert ex.cache_info()["misses"] == misses + 1

    def test_hit_counting_on_repeat_inference(self):
        ex = PhotonicExecutor()
        layer = Linear(8, 4, rng=np.random.default_rng(0))
        for _ in range(5):
            run_linear(ex, layer)
        info = ex.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 4
        assert ex.core.tiles_programmed == 1


class TestReprogramOnWeightUpdate:
    def test_weight_update_reprograms_and_changes_output(self):
        ex = PhotonicExecutor()
        layer = Linear(8, 4, bias=False, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 8))
        before = ex.linear(layer, x)
        programmed = ex.core.tiles_programmed
        layer.weight.data = layer.weight.data * 2.0
        after = ex.linear(layer, x)
        assert ex.core.tiles_programmed > programmed
        assert ex.cache_info()["misses"] == 2
        assert np.array_equal(after, before * 2.0)

    def test_in_place_weight_write_reprograms(self):
        """A write into the same weight array must miss the cache: only a
        content comparison of the programmed source catches it."""
        ex = PhotonicExecutor()
        layer = Linear(8, 4, bias=False, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 8))
        before = ex.linear(layer, x)
        layer.weight.data[...] *= 2.0
        after = ex.linear(layer, x)
        assert ex.cache_info()["misses"] == 2
        assert np.array_equal(after, before * 2.0)
        assert np.array_equal(after, PhotonicExecutor().linear(layer, x))

    def test_unchanged_weights_do_not_reprogram(self):
        ex = PhotonicExecutor()
        layer = Linear(8, 4, rng=np.random.default_rng(0))
        run_linear(ex, layer)
        programmed = ex.core.tiles_programmed
        run_linear(ex, layer)
        assert ex.core.tiles_programmed == programmed


class TestTokenKeying:
    def test_token_is_stable_per_layer(self):
        ex = PhotonicExecutor()
        layer = Linear(8, 4, rng=np.random.default_rng(0))
        assert ex._layer_token(layer) == ex._layer_token(layer)

    def test_tokens_unique_across_gc_id_reuse(self):
        """A dead layer's recycled ``id`` must not alias its cache slot."""
        ex = PhotonicExecutor()
        seen_tokens = set()
        seen_ids = set()
        id_reused = False
        for i in range(50):
            layer = Linear(8, 4, rng=np.random.default_rng(i))
            token = ex._layer_token(layer)
            assert token not in seen_tokens
            seen_tokens.add(token)
            id_reused = id_reused or id(layer) in seen_ids
            seen_ids.add(id(layer))
            del layer
            gc.collect()
        # CPython recycles ids aggressively; the point of the token
        # scheme is that even then every layer got a fresh token.
        assert id_reused, "expected id() reuse to actually occur under gc"

    def test_recycled_id_gets_fresh_programming(self):
        ex = PhotonicExecutor()
        layer = Linear(8, 4, bias=False, rng=np.random.default_rng(0))
        x = np.eye(8)[:2]
        ex.linear(layer, x)
        del layer
        gc.collect()
        # New layer, very likely the same id; different weights.
        layer2 = Linear(8, 4, bias=False, rng=np.random.default_rng(9))
        out = ex.linear(layer2, x)
        assert ex.cache_info()["misses"] == 2
        # Output reflects layer2's weights, not a stale entry.
        ref = PhotonicExecutor().linear(layer2, x)
        assert np.array_equal(out, ref)
