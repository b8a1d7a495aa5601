"""Shared-prefix KV cache: radix index, refcounted blocks, chunked prefill."""

import numpy as np
import pytest

from repro.arch.config import MirageConfig
from repro.arch.memory import MemorySystemModel
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    KVBlockManager,
    Priority,
    RadixPrefixIndex,
    TokenServingEngine,
    multiturn_scenario,
    sequential_decode_outputs,
    shared_prefix_scenario,
)
from repro.serve.engine.prefix import common_prefix_len, full_blocks
from repro.serve.traffic import Scenario


def recurrent_mlp(seed=0, dim=12, hidden=24):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(dim, hidden, rng=rng), Tanh(), Linear(hidden, dim, rng=rng)
    )


def profile(seed=0, dim=12, **kw):
    kw.setdefault("kv", KVCacheSpec(num_layers=2, num_heads=2, head_dim=4))
    return DecodeModelProfile("m0", recurrent_mlp(seed, dim=dim), **kw)


def token_scenario(specs, duration=None):
    """Explicit shared-prefix trace: (t, priority, tokens, decode_len)."""
    arrivals = tuple(
        (float(t), "m0", p, len(tokens), decode, tuple(tokens))
        for t, p, tokens, decode in specs
    )
    if duration is None:
        duration = (max(a[0] for a in arrivals) + 1e-9) if arrivals else 0.0
    return Scenario("shared_prefix", arrivals, duration)


def make_engine(prof=None, blocks=64, block_tokens=4, workers=1, **config_kw):
    prof = prof or profile()
    manager_bytes = blocks * block_tokens * prof.kv.bytes_per_token
    memory = MemorySystemModel(MirageConfig(sram_bytes=manager_bytes))
    config = EngineConfig(
        block_tokens=block_tokens, kv_fraction=1.0, **config_kw
    )
    return TokenServingEngine(ExecutorPool(workers), prof, config, memory=memory)


def run_bit_exact(engine, scenario, seed=1):
    tel = engine.run(scenario, seed=seed)
    ref = sequential_decode_outputs(profile(), scenario, seed=seed)
    for s in tel.sessions:
        assert len(s.outputs) == s.decode_len
        for out, expect in zip(s.outputs, ref[s.session_id]):
            assert np.array_equal(out, expect)
    return tel


# ----------------------------------------------------------------------
# Block hashing and the radix index
# ----------------------------------------------------------------------
class TestBlockHashing:
    def test_full_blocks_drops_partial_tail(self):
        assert full_blocks(range(10), 4) == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert full_blocks(range(3), 4) == []

    def test_chained_hashes_commit_to_whole_prefix(self):
        idx = RadixPrefixIndex(4)
        idx.insert([1, 2, 3, 4, 5, 6, 7, 8], [10, 11], tick=1)
        nodes, _ = idx.match([1, 2, 3, 4, 5, 6, 7, 9])
        assert [n.block_id for n in nodes] == [10]  # shared head, divergent tail
        nodes, _ = idx.match([9, 2, 3, 4, 5, 6, 7, 8])
        assert nodes == []  # head divergence poisons all

    def test_common_prefix_len(self):
        assert common_prefix_len([1, 2, 3], [1, 2, 9]) == 2
        assert common_prefix_len([1], [2]) == 0
        assert common_prefix_len([], [1]) == 0


class TestRadixPrefixIndex:
    def test_match_after_insert_and_partial_overlap(self):
        idx = RadixPrefixIndex(4)
        prompt = tuple(range(8))
        idx.insert(prompt, [10, 11], tick=1)
        nodes, partial = idx.match(prompt)
        assert [n.block_id for n in nodes] == [10, 11]
        assert partial == 0
        # Divergence two tokens into the second block.
        nodes, partial = idx.match((0, 1, 2, 3, 4, 5, 99, 98, 97))
        assert [n.block_id for n in nodes] == [10]
        assert partial == 2

    def test_eviction_is_lru_and_leaves_first(self):
        idx = RadixPrefixIndex(2)
        idx.insert((0, 1, 2, 3), [0, 1], tick=1)  # path 0 -> 1
        idx.insert((0, 1, 9, 9), [0, 2], tick=2)  # sibling leaf 2 under 0
        for b, tick in ((1, 3), (2, 4), (0, 5)):
            idx.unpin(b, tick)
        # Block 0 is idle but interior; leaf 1 is the LRU leaf.
        assert idx.evict_lru() == 1
        assert idx.evict_lru() == 2
        assert idx.evict_lru() == 0  # now a leaf
        assert idx.evict_lru() is None

    def test_pinned_blocks_never_evict(self):
        idx = RadixPrefixIndex(2)
        idx.insert((0, 1), [7], tick=1)
        assert idx.evict_lru() is None  # never unpinned
        idx.unpin(7, tick=2)
        idx.pin(7)
        assert idx.evict_lru() is None

    def test_duplicate_publish_keeps_canonical_block(self):
        # Two sessions prefilled the same prompt concurrently; the
        # second publish is a no-op and the canonical block survives.
        idx = RadixPrefixIndex(2)
        assert idx.insert((0, 1), [7], tick=1) == 1
        assert idx.insert((0, 1), [8], tick=2) == 0
        nodes, _ = idx.match((0, 1))
        assert [n.block_id for n in nodes] == [7]

    def test_duplicate_publish_stops_at_canonical_divergence(self):
        # The loser must not hang its deeper blocks under a canonical
        # path it does not reference (would strand a pinned child below
        # an unpinned ancestor and break leaves-first eviction).
        idx = RadixPrefixIndex(2)
        idx.insert((0, 1), [7], tick=1)
        assert idx.insert((0, 1, 2, 3), [8, 9], tick=2) == 0
        assert 9 not in idx
        nodes, _ = idx.match((0, 1, 2, 3))
        assert [n.block_id for n in nodes] == [7]

    def test_insert_block_at_two_positions_raises(self):
        idx = RadixPrefixIndex(2)
        idx.insert((0, 1), [7], tick=1)
        with pytest.raises(ValueError):
            idx.insert((5, 5), [7], tick=2)  # same physical block


# ----------------------------------------------------------------------
# Refcounted block manager
# ----------------------------------------------------------------------
class TestManagerSharing:
    def test_identical_prompts_share_blocks(self):
        kv = KVBlockManager(8, 4)
        prompt = tuple(range(8))
        assert kv.reserve(1, 9, prompt_tokens=prompt)  # 3 blocks
        assert kv.used_blocks == 3
        kv.publish(1, prompt)  # prefill completed
        assert kv.reserve(2, 9, prompt_tokens=prompt)
        # Two full prompt blocks shared; only the tail is private.
        assert kv.used_blocks == 4
        assert kv.session_cached_tokens(2) == 8
        shared = set(kv.block_table(1)[:2])
        assert shared == set(kv.block_table(2)[:2])
        assert all(kv.ref_count(b) == 2 for b in shared)
        kv.check_invariants()

    def test_unpublished_prompt_is_not_matchable(self):
        # Until the scheduler publishes (prefill completion), a second
        # identical prompt must not attach — its KV does not exist yet.
        kv = KVBlockManager(8, 4)
        prompt = tuple(range(8))
        kv.reserve(1, 9, prompt_tokens=prompt)
        assert kv.reserve(2, 9, prompt_tokens=prompt)
        assert kv.session_cached_tokens(2) == 0
        assert kv.used_blocks == 6  # nothing shared

    def test_release_decrefs_shared_blocks(self):
        kv = KVBlockManager(8, 4)
        prompt = tuple(range(8))
        kv.reserve(1, 9, prompt_tokens=prompt)
        kv.publish(1, prompt)
        kv.reserve(2, 9, prompt_tokens=prompt)
        kv.release(1)
        # Session 2 still pins the shared head; nothing was freed under it.
        assert all(kv.ref_count(b) == 1 for b in kv.block_table(2)[:2])
        assert kv.used_blocks == 3
        kv.release(2)
        assert kv.refcounts_balanced()
        # Published blocks stay cached (idle), not freed.
        assert kv.cached_blocks == 2
        kv.check_invariants()

    def test_reattach_after_full_release(self):
        kv = KVBlockManager(8, 4)
        prompt = tuple(range(8))
        kv.reserve(1, 9, prompt_tokens=prompt)
        kv.publish(1, prompt)
        head = kv.block_table(1)[:2]
        kv.release(1)
        assert kv.reserve(2, 9, prompt_tokens=prompt)
        assert kv.block_table(2)[:2] == head  # same physical blocks
        assert kv.session_cached_tokens(2) == 8

    def test_copy_on_write_on_divergence_inside_a_block(self):
        kv = KVBlockManager(8, 4)
        kv.reserve(1, 8, prompt_tokens=tuple(range(8)))
        kv.publish(1, tuple(range(8)))
        diverged = (0, 1, 2, 3, 4, 5, 99, 98)
        assert kv.reserve(2, 8, prompt_tokens=diverged)
        assert kv.cow_copies == 1
        # Block 0 shared; the divergent block is a private copy seeded
        # with the 2 overlapping tokens' KV.
        assert kv.session_cached_tokens(2) == 6
        t1, t2 = kv.block_table(1), kv.block_table(2)
        assert t1[0] == t2[0] and t1[1] != t2[1]
        assert kv.ref_count(t1[1]) == 1  # source block untouched
        # Session 2's second block publishes under ITS OWN hash.
        kv.publish(2, diverged)
        kv.release(1)
        kv.release(2)
        assert kv.reserve(3, 8, prompt_tokens=diverged)
        assert kv.session_cached_tokens(3) == 8

    def test_eviction_only_at_refcount_zero_lru_order(self):
        kv = KVBlockManager(4, 2)
        kv.reserve(1, 4, prompt_tokens=(0, 1, 2, 3))
        kv.publish(1, (0, 1, 2, 3))
        kv.release(1)  # 2 cached blocks, 2 free
        kv.reserve(2, 4, prompt_tokens=(9, 9, 8, 8))
        kv.publish(2, (9, 9, 8, 8))
        kv.release(2)  # 4 cached blocks, 0 free
        assert kv.cached_blocks == 4 and kv.free_blocks == 4
        # A third prompt must evict the LRU path (session 1's, older).
        assert kv.reserve(3, 4, prompt_tokens=(7, 7, 6, 6))
        kv.release(3)
        # Session 2's path survived the eviction sweep.
        assert kv.reserve(4, 4, prompt_tokens=(9, 9, 8, 8))
        assert kv.session_cached_tokens(4) == 4
        kv.check_invariants()

    def test_pinned_blocks_block_reserve_instead_of_evicting(self):
        kv = KVBlockManager(2, 2)
        kv.reserve(1, 4, prompt_tokens=(0, 1, 2, 3))
        assert kv.reserve(2, 2) is False  # pool full of *referenced* blocks
        assert kv.holds(1) and kv.used_blocks == 2
        kv.check_invariants()

    def test_failed_reserve_rolls_back_matched_refs(self):
        kv = KVBlockManager(3, 2)
        kv.reserve(1, 4, prompt_tokens=(0, 1, 2, 3))
        kv.publish(1, (0, 1, 2, 3))
        kv.release(1)
        # Matches 2 cached blocks but needs 3 fresh on top: cannot fit.
        assert kv.reserve(2, 10, prompt_tokens=(0, 1, 2, 3)) is False
        assert kv.used_blocks == 0 and not kv.holds(2)
        # The cached path is intact and re-attachable.
        assert kv.reserve(3, 4, prompt_tokens=(0, 1, 2, 3))
        assert kv.session_cached_tokens(3) == 4

    def test_failed_reserve_never_evicts_cached_prefixes(self):
        # A doomed reservation must not flush the evictable cache on its
        # way to discovering it cannot fit: the capacity check runs
        # before any eviction.
        kv = KVBlockManager(8, 2)
        kv.reserve(1, 4, prompt_tokens=(0, 1, 2, 3))
        kv.publish(1, (0, 1, 2, 3))
        kv.release(1)  # 2 cached, 6 free
        kv.reserve(2, 12)  # pins the 6 free blocks
        assert kv.cached_blocks == 2
        # Unrelated prompt needing 3 blocks: only 2 reclaimable -> fails
        # WITHOUT consuming the cached path.
        assert kv.reserve(3, 6, prompt_tokens=(7, 7, 8, 8, 9, 9)) is False
        assert kv.cached_blocks == 2
        assert kv.reserve(4, 4, prompt_tokens=(0, 1, 2, 3))
        assert kv.session_cached_tokens(4) == 4  # cache survived
        kv.check_invariants()

    def test_prompt_longer_than_reservation_raises(self):
        kv = KVBlockManager(4, 2)
        with pytest.raises(ValueError):
            kv.reserve(1, 2, prompt_tokens=(0, 1, 2))

    def test_disabled_prefix_cache_frees_on_release(self):
        kv = KVBlockManager(4, 2, prefix_cache=False)
        kv.reserve(1, 4, prompt_tokens=None)
        kv.release(1)
        assert kv.cached_blocks == 0
        assert kv.reserve(2, 8)  # all 4 blocks free again

    def test_unknown_and_double_release_raise_clearly(self):
        kv = KVBlockManager(4, 2)
        with pytest.raises(KeyError, match="unknown or already released"):
            kv.release(5)
        with pytest.raises(KeyError, match="unknown or already released"):
            kv.grow_to(5, 4)
        kv.reserve(1, 2)
        used = kv.used_blocks
        kv.release(1)
        with pytest.raises(KeyError, match="unknown or already released"):
            kv.release(1)
        with pytest.raises(KeyError, match="unknown or already released"):
            kv.grow_to(1, 4)
        assert kv.used_blocks == used - 1 == 0  # accounting uncorrupted
        kv.check_invariants()

    def test_growth_claims_private_blocks_and_can_evict_cache(self):
        kv = KVBlockManager(3, 2)
        kv.reserve(1, 4, prompt_tokens=(0, 1, 2, 3))
        kv.publish(1, (0, 1, 2, 3))
        kv.release(1)  # 2 cached + 1 free
        kv.reserve(2, 2)  # takes the free block
        assert kv.grow_to(2, 6)  # must evict cached blocks to grow
        assert kv.used_blocks == 3 and kv.cached_blocks == 0
        kv.check_invariants()


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEnginePrefixSharing:
    def test_second_session_reuses_first_prompt(self):
        engine = make_engine(max_batch_size=4)
        shared = tuple(range(100, 108))
        sc = token_scenario(
            [(0.0, 0, shared, 3), (1e-9, 0, shared + (5, 6), 3)]
        )
        tel = run_bit_exact(engine, sc)
        stats = tel.prefix_stats()
        assert stats["lookups"] == 2
        assert stats["prefill_tokens_saved"] == 8  # the 2 shared blocks
        assert stats["hit_rate"] == 0.5
        assert engine.kv.refcounts_balanced()
        engine.kv.check_invariants()

    def test_sharing_engine_matches_cold_engine_outputs(self):
        shared = tuple(range(12))
        sc = token_scenario(
            [(0.0, 0, shared, 4), (1e-9, 0, shared + (1, 2), 4),
             (2e-9, 0, shared + (3,), 2)]
        )
        warm = make_engine(max_batch_size=4)
        cold = make_engine(max_batch_size=4, prefix_caching=False)
        t_warm = warm.run(sc, seed=3)
        t_cold = cold.run(sc, seed=3)
        for a, b in zip(t_warm.sessions, t_cold.sessions):
            assert len(a.outputs) == len(b.outputs)
            for x, y in zip(a.outputs, b.outputs):
                assert np.array_equal(x, y)
        # The cold engine performed no lookups and priced every token.
        assert t_cold.prefix_stats()["lookups"] == 0
        assert (
            t_warm.prefill_tokens_priced() < t_cold.prefill_tokens_priced()
        )

    def test_fully_cached_prompt_zero_prefill_one_step(self):
        engine = make_engine(max_batch_size=4)
        shared = tuple(range(8))  # exactly 2 full blocks
        sc = token_scenario([(0.0, 0, shared, 6), (1e-9, 0, shared, 3)])
        tel = run_bit_exact(engine, sc)
        late = [s for s in tel.sessions if s.session_id == 1][0]
        assert late.cached_prompt_tokens == 8
        # Its admission step priced no prefill chunk, yet it decoded.
        admit_steps = [
            r for r in tel.steps
            if r.t >= late.admit_time and late.first_token_time is not None
        ]
        assert late.ttft is not None and late.ttft > 0
        zero_chunk_steps = [r for r in tel.steps if r.prefill_chunks == ()]
        assert zero_chunk_steps, "fully cached admission still priced a chunk"
        assert admit_steps
        report = engine.report(sc)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0

    def test_chunked_prefill_interleaves_with_decode(self):
        engine = make_engine(max_batch_size=4, prefill_chunk_tokens=4)
        long_prompt = tuple(range(500, 512))  # 12 uncached tokens
        sc = token_scenario(
            [(0.0, 0, (1, 2), 8), (0.0, 0, long_prompt, 2)]
        )
        tel = run_bit_exact(engine, sc)
        chunked = [r for r in tel.steps if r.prefill_chunks]
        # The 12-token suffix split into 3 chunks of <= 4 tokens, each
        # attending over what was already resident.
        long_chunks = [c for r in chunked for c in r.prefill_chunks if c[1] == 4]
        assert [c[0] for c in long_chunks[:3]] == [0, 4, 8]
        # The short session kept decoding during those chunk steps.
        short = [s for s in tel.sessions if s.prompt_len == 2][0]
        longer = [s for s in tel.sessions if s.prompt_len == 12][0]
        assert short.first_token_time < longer.first_token_time
        report = engine.report(sc)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0

    def test_chunk_only_steps_have_empty_batch(self):
        engine = make_engine(max_batch_size=2, prefill_chunk_tokens=2)
        sc = token_scenario([(0.0, 0, tuple(range(700, 708)), 2)])
        tel = run_bit_exact(engine, sc)
        # 8 uncached tokens at 2/chunk = 4 chunk steps; the last one
        # completes the prefill and decodes the first token.
        prefill_only = [r for r in tel.steps if r.batch == 0]
        assert len(prefill_only) == 3
        assert all(r.active == 0 for r in prefill_only)
        assert all(r.prefill_chunks for r in prefill_only)

    def test_preempted_session_reattaches_cached_prefix(self):
        # Small pool: an interactive arrival evicts the batch session;
        # its published prompt blocks stay cached, so its resume reuses
        # them instead of re-prefilling the whole prompt.
        engine = make_engine(blocks=10, block_tokens=2, max_batch_size=4)
        batch_prompt = tuple(range(300, 308))  # 4 blocks
        inter_prompt = tuple(range(400, 410))  # 5 blocks
        sc = token_scenario(
            [
                (0.0, Priority.BATCH, batch_prompt, 6),
                (1e-9, Priority.INTERACTIVE, inter_prompt, 4),
            ],
            duration=1e-6,
        )
        tel = run_bit_exact(engine, sc)
        victim = [s for s in tel.sessions if s.priority == Priority.BATCH][0]
        assert victim.preemptions >= 1 and victim.finished
        # First admission was cold (0 cached); the resume re-attached to
        # whatever prompt blocks survived the interactive session's KV
        # growth (the LRU sweep may trim the tail, but never all of it
        # here) and re-prefilled only the evicted suffix.
        assert 0 < victim.cached_prompt_tokens <= len(batch_prompt)
        assert engine.kv.refcounts_balanced()
        engine.kv.check_invariants()
        report = engine.report(sc)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0

    def test_preemption_sized_by_uncached_footprint(self):
        # Full pool: session A (batch) pins the candidate's shared head,
        # session B (batch, younger) pins unrelated blocks.  The
        # interactive candidate attaches A's 4 prompt blocks for free,
        # so making room needs 1 block, not 5 — only B must go.  Sizing
        # by the raw block count would evict A too, destroying the very
        # prefix the candidate reuses.
        engine = make_engine(blocks=8, block_tokens=2, max_batch_size=4)
        head = tuple(range(200, 208))
        sc = token_scenario(
            [
                (0.0, Priority.BATCH, head, 8),
                (0.0, Priority.BATCH, tuple(range(880, 884)), 8),
                (1e-9, Priority.INTERACTIVE, head, 2),
            ],
            duration=1e-6,
        )
        tel = run_bit_exact(engine, sc)
        a, b, c = sorted(tel.sessions, key=lambda s: s.session_id)
        assert a.preemptions == 0  # the prefix holder survived
        assert b.preemptions >= 1  # the unrelated session was evicted
        assert c.cached_prompt_tokens == len(head)
        assert engine.kv.refcounts_balanced()

    def test_refcounts_balance_under_pressure_scenario(self):
        engine = make_engine(
            blocks=24, block_tokens=4, max_batch_size=6,
            prefill_chunk_tokens=4,
        )
        sc = shared_prefix_scenario(
            "m0", rate=4e8, duration=1e-7, prefix_len=16,
            shared_fraction=0.8, suffix_median=4, decode_mean=4,
            class_mix={0: 3, 2: 1}, seed=7,
        )
        tel = engine.run(sc, seed=2)
        assert tel.sessions
        assert engine.kv.refcounts_balanced()
        engine.kv.check_invariants()
        assert engine.kv.peak_blocks <= engine.kv.num_blocks
        report = engine.report(sc)
        assert report["analytic_consistency"]["max_abs_error_s"] == 0.0

    def test_no_attach_to_inflight_prefill(self):
        # Two identical long prompts in the same admission wave, chunked:
        # the follower must not decode over KV the leader is still
        # computing — blocks publish only when a prefill completes, so
        # the same-step follower pays its own prefill.
        engine = make_engine(max_batch_size=4, prefill_chunk_tokens=4)
        prompt = tuple(range(900, 916))  # 4 chunks of work each
        sc = token_scenario([(0.0, 0, prompt, 2), (0.0, 0, prompt, 2)])
        tel = run_bit_exact(engine, sc)
        assert tel.prefix_stats()["prefill_tokens_saved"] == 0
        assert tel.prefill_tokens_priced() == 2 * len(prompt)
        # Staggered past the leader's prefill, a third submission hits.
        engine2 = make_engine(max_batch_size=4, prefill_chunk_tokens=4)
        leader_done = max(s.first_token_time for s in tel.sessions)
        sc2 = token_scenario(
            [(0.0, 0, prompt, 2), (leader_done, 0, prompt, 2)],
            duration=leader_done * 2,
        )
        tel2 = run_bit_exact(engine2, sc2)
        assert tel2.prefix_stats()["prefill_tokens_saved"] == 16

    def test_static_mode_ignores_prefix_machinery(self):
        engine = make_engine(max_batch_size=2, continuous=False)
        shared = tuple(range(8))
        sc = token_scenario([(0.0, 0, shared, 3), (1e-9, 0, shared, 3)])
        tel = engine.run(sc, seed=1)
        assert engine.kv.prefix is None
        assert tel.prefix_stats()["lookups"] == 0
        assert tel.prefill_tokens_priced() == 16  # both prompts in full


# ----------------------------------------------------------------------
# Traffic generators
# ----------------------------------------------------------------------
class TestSharedPrefixTraffic:
    def test_shared_prefix_deterministic_and_shaped(self):
        a = shared_prefix_scenario("m", 3e8, 1e-7, prefix_len=16, seed=5)
        b = shared_prefix_scenario("m", 3e8, 1e-7, prefix_len=16, seed=5)
        assert a.arrivals == b.arrivals
        assert a.num_requests > 0
        for t, m, p, plen, dlen, tokens in a.arrivals:
            assert plen == len(tokens) and dlen >= 1

    def test_shared_fraction_controls_common_head(self):
        sc = shared_prefix_scenario(
            "m", 6e8, 1e-7, prefix_len=8, shared_fraction=0.9, seed=1
        )
        heads = [a[5][:8] for a in sc.arrivals]
        counts = {}
        for h in heads:
            counts[h] = counts.get(h, 0) + 1
        top = max(counts.values())
        assert top / len(heads) > 0.6  # the system prompt dominates
        assert len(counts) > 1  # but cold prompts exist

    def test_shared_prefix_validation(self):
        with pytest.raises(ValueError):
            shared_prefix_scenario("m", 1e8, 1e-7, prefix_len=0)
        with pytest.raises(ValueError):
            shared_prefix_scenario("m", 1e8, 1e-7, shared_fraction=1.5)

    def test_multiturn_prompts_extend_previous_turns(self):
        sc = multiturn_scenario(
            "m", 2e8, 1e-7, turns=3, think_time_s=1e-9, seed=4
        )
        # Group turns by conversation via the strict prefix property.
        by_head = {}
        for a in sc.arrivals:
            by_head.setdefault(a[5][:4], []).append(a)
        multi = [v for v in by_head.values() if len(v) > 1]
        assert multi, "no multi-turn conversations generated"
        for turns in multi:
            turns.sort(key=lambda a: a[3])
            for prev, nxt in zip(turns, turns[1:]):
                assert nxt[5][: len(prev[5])] == prev[5]
                assert nxt[0] >= prev[0]
        times = [a[0] for a in sc.arrivals]
        assert times == sorted(times)

    def test_multiturn_validation(self):
        with pytest.raises(ValueError):
            multiturn_scenario("m", 1e8, 1e-7, turns=0)
        with pytest.raises(ValueError):
            multiturn_scenario("m", 1e8, 1e-7, think_time_s=-1.0)

    def test_multiturn_warm_prefix_hits_in_engine(self):
        engine = make_engine(blocks=128, max_batch_size=8)
        sc = multiturn_scenario(
            "m0", 1.5e8, 1e-7, turns=3, think_time_s=1e-9,
            prompt_median=8.0, turn_tokens_median=8.0, decode_mean=3.0,
            seed=6,
        )
        tel = engine.run(sc, seed=2)
        stats = tel.prefix_stats()
        assert stats["prefill_tokens_saved"] > 0
        assert stats["hit_rate"] > 0.3
        assert engine.kv.refcounts_balanced()
