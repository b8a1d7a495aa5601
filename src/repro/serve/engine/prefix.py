"""Radix-tree prefix index over token-block hashes (SGLang-style).

Sessions whose prompts share a head should share the KV blocks that
head occupies instead of each re-prefilling it.  The unit of sharing is
the **full KV block** (``block_tokens`` tokens): every full block of a
prompt gets a *chained* content hash — SHA-1 over the parent block's
digest plus this block's token ids — so a block's identity encodes its
entire prefix path, and equal hashes mean equal token prefixes.

:class:`RadixPrefixIndex` arranges published blocks as a radix tree:
each node is one full block, children are keyed by chained digest, and
a root-to-node path spells out a cached prompt prefix.  The tree serves
three queries for the block manager
(:class:`~repro.serve.engine.kvcache.KVBlockManager`, which owns the
per-block reference counts):

* :meth:`match` — longest-prefix lookup of a prompt: the run of cached
  full blocks from the root, plus the *token-granular* overlap inside
  the first divergent block (the copy-on-write seed: those tokens'
  KV can be copied out of the cached block instead of recomputed);
* :meth:`insert` — publish a prompt's freshly prefilled full blocks so
  later sessions can attach to them;
* :meth:`evict_lru` — reclaim the least-recently-used **unreferenced
  leaf**.  Only ref-0 blocks are evictable (the manager pins/unpins
  them as sessions attach and release), and only leaves: a node's hash
  chains through its parent, so evicting an interior block would orphan
  every cached descendant.

Blocks that merely *partially* overlap a prompt are never attached
directly — the manager copies the overlapping tokens into a fresh
private block (copy-on-write), leaving the cached block untouched for
its other readers.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PrefixNode",
    "RadixPrefixIndex",
    "common_prefix_len",
    "full_blocks",
]


def full_blocks(tokens: Sequence[int], block_tokens: int) -> List[Tuple[int, ...]]:
    """The prompt's complete ``block_tokens``-sized chunks (tail dropped).

    Only full blocks are content-addressable: a partial tail block will
    keep growing (rest of the prompt, then decode tokens), so its hash
    would be invalidated by the very next token.
    """
    if block_tokens < 1:
        raise ValueError(f"block_tokens must be >= 1, got {block_tokens}")
    n = len(tokens) // block_tokens
    return [
        tuple(int(t) for t in tokens[i * block_tokens : (i + 1) * block_tokens])
        for i in range(n)
    ]


def _chain(parent_digest: bytes, chunk: Tuple[int, ...]) -> bytes:
    h = hashlib.sha1(parent_digest)
    for t in chunk:
        h.update(int(t).to_bytes(8, "little", signed=True))
    return h.digest()


def common_prefix_len(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the longest common head of two token sequences."""
    n = 0
    for x, y in zip(a, b):
        if int(x) != int(y):
            break
        n += 1
    return n


class PrefixNode:
    """One cached full block: its tokens, physical block id, and tree links."""

    __slots__ = ("digest", "tokens", "block_id", "parent", "children", "last_used")

    def __init__(
        self,
        digest: bytes,
        tokens: Tuple[int, ...],
        block_id: int,
        parent: Optional["PrefixNode"],
    ):
        self.digest = digest
        self.tokens = tokens
        self.block_id = block_id
        self.parent = parent
        self.children: Dict[bytes, "PrefixNode"] = {}
        self.last_used = 0


class RadixPrefixIndex:
    """Radix tree of published prompt blocks with LRU over ref-0 leaves.

    The index stores *structure and recency only*; reference counts live
    in the block manager, which calls :meth:`pin` when a cached block
    gains its first reference and :meth:`unpin` when its last reference
    drops — unpinned in-tree blocks form the LRU eviction pool.
    """

    def __init__(self, block_tokens: int):
        if block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1, got {block_tokens}")
        self.block_tokens = block_tokens
        self.root = PrefixNode(b"", (), -1, None)
        self._by_block: Dict[int, PrefixNode] = {}
        self._idle: Dict[int, int] = {}  # ref-0 block_id -> last_used tick
        # Lazy min-heap of (tick, block_id) eviction candidates: entries
        # are pushed when a block becomes an idle *leaf* (unpin, or its
        # last child evicts) and validated on pop, so eviction is
        # O(log n) amortised instead of a scan over all idle blocks.
        self._evict_heap: List[Tuple[int, int]] = []
        self.lookups = 0
        self.lookup_blocks = 0
        self.hit_blocks = 0
        self.partial_hits = 0
        self.insertions = 0
        self.evictions = 0
        self.purges = 0  # fault-injected removals (corrupted KV)

    # ------------------------------------------------------------------
    def __contains__(self, block_id: int) -> bool:
        return block_id in self._by_block

    def __len__(self) -> int:
        return len(self._by_block)

    @property
    def cached_blocks(self) -> int:
        """Unreferenced blocks retained for reuse (the evictable pool)."""
        return len(self._idle)

    # ------------------------------------------------------------------
    def match(self, tokens: Sequence[int]) -> Tuple[List[PrefixNode], int]:
        """Longest cached prefix of ``tokens`` — a **pure** walk.

        Returns the run of matched full-block nodes from the root and
        the number of tokens shared with the first *divergent* block
        (0 when the walk ends cleanly) — the copy-on-write overlap.
        No counters move and no LRU state is touched, so feasibility
        probes and doomed reservations leave the cache unperturbed;
        the block manager calls :meth:`record_lookup` only when a
        reservation actually attaches.
        """
        node = self.root
        matched: List[PrefixNode] = []
        depth = 0
        for chunk in full_blocks(tokens, self.block_tokens):
            child = node.children.get(_chain(node.digest, chunk))
            if child is None:
                break
            matched.append(child)
            node = child
            depth += 1
        partial = 0
        rest = tuple(int(t) for t in tokens[depth * self.block_tokens :])
        if rest:
            for child in node.children.values():
                partial = max(partial, common_prefix_len(child.tokens, rest))
            partial = min(partial, len(rest))
        return matched, partial

    def record_lookup(
        self,
        tokens: Sequence[int],
        matched: Sequence[PrefixNode],
        partial: int,
        tick: int,
    ) -> None:
        """Account one *committed* lookup (a reservation that attached).

        Counters therefore measure admissions served, not probe or
        retry traffic, and LRU recency moves only for prefixes a
        session really attached to.
        """
        self.lookups += 1
        self.lookup_blocks += len(full_blocks(tokens, self.block_tokens))
        self.hit_blocks += len(matched)
        if partial:
            self.partial_hits += 1
        for node in matched:
            node.last_used = tick
            if node.block_id in self._idle:
                self._idle[node.block_id] = tick
                heapq.heappush(self._evict_heap, (tick, node.block_id))

    def insert(
        self, tokens: Sequence[int], block_ids: Sequence[int], tick: int
    ) -> int:
        """Publish the prompt's full blocks along ``block_ids``.

        ``block_ids[i]`` is the physical block holding the prompt's
        *i*-th full block (a session's block table, truncated or not —
        extra entries past the full-block count are ignored).  A
        position already in the tree keeps its **canonical** block:
        two sessions that prefilled the same prompt concurrently (each
        admitted before the other published) computed duplicate KV, and
        the loser's private copies stay unpublished — they free at
        release while future lookups attach the canonical path.  The
        walk *stops* at the first such position: publishing the loser's
        deeper blocks under a path it does not reference would hang a
        pinned child below an unpinned ancestor, breaking the
        leaves-first eviction invariant (every idle block reclaimable).
        Returns the number of newly published nodes.
        """
        node = self.root
        added = 0
        for i, chunk in enumerate(full_blocks(tokens, self.block_tokens)):
            if i >= len(block_ids):
                break
            digest = _chain(node.digest, chunk)
            child = node.children.get(digest)
            if child is None:
                block_id = int(block_ids[i])
                if block_id in self._by_block:
                    raise ValueError(
                        f"block {block_id} is already published at a "
                        "different tree position"
                    )
                child = PrefixNode(digest, chunk, block_id, node)
                child.last_used = tick
                node.children[digest] = child
                self._by_block[block_id] = child
                self.insertions += 1
                added += 1
            elif child.block_id != int(block_ids[i]):
                break  # duplicate prefill: canonical path wins, stop here
            node = child
        return added

    # ------------------------------------------------------------------
    # Refcount notifications (driven by the block manager)
    # ------------------------------------------------------------------
    def pin(self, block_id: int) -> None:
        """Block gained its first reference — no longer evictable."""
        self._idle.pop(block_id, None)

    def unpin(self, block_id: int, tick: int) -> None:
        """Block's last reference dropped — cached and evictable (LRU)."""
        node = self._by_block.get(block_id)
        if node is None:
            return
        node.last_used = tick
        self._idle[block_id] = tick
        if not node.children:
            heapq.heappush(self._evict_heap, (tick, block_id))

    # ------------------------------------------------------------------
    def evict_lru(self) -> Optional[int]:
        """Remove and return the LRU unreferenced **leaf** block.

        Interior nodes are never evicted, even when idle: their
        descendants' digests chain through them, so the leaf-most block
        always leaves first (repeated eviction peels a cold path from
        the tail up — evicting a just-emptied parent pushes it onto the
        candidate heap).  Stale heap entries (re-pinned, re-touched, or
        grown-children blocks) are dropped lazily on pop.  Returns None
        when nothing is evictable.
        """
        while self._evict_heap:
            tick, block_id = heapq.heappop(self._evict_heap)
            if self._idle.get(block_id) != tick:
                continue  # re-pinned or touched since this entry
            node = self._by_block[block_id]
            if node.children:
                continue  # gained children since; re-pushed when empty
            del self._by_block[block_id]
            del self._idle[block_id]
            parent = node.parent
            del parent.children[node.digest]
            self.evictions += 1
            if not parent.children and parent.block_id in self._idle:
                heapq.heappush(
                    self._evict_heap,
                    (self._idle[parent.block_id], parent.block_id),
                )
            return block_id
        return None

    def purge(self, block_id: int) -> bool:
        """Forcibly drop a published **leaf** block (corrupted KV).

        Unlike :meth:`evict_lru` the block need not be idle-LRU-best —
        fault injection destroyed its content, so it must leave the tree
        immediately; the caller (the block manager's ``discard``) then
        returns the physical block to the free list.  Interior nodes are
        refused (False): their descendants' digests chain through them,
        so removal would orphan cached blocks whose content is fine —
        the caller degrades those to a plain unpin instead, and the
        session-table's leaf-first iteration purges each session's own
        chain tail-up cleanly.
        """
        node = self._by_block.get(block_id)
        if node is None or node.children:
            return False
        del self._by_block[block_id]
        self._idle.pop(block_id, None)
        parent = node.parent
        del parent.children[node.digest]
        self.purges += 1
        if not parent.children and parent.block_id in self._idle:
            heapq.heappush(
                self._evict_heap,
                (self._idle[parent.block_id], parent.block_id),
            )
        return True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "published_blocks": len(self._by_block),
            "cached_blocks": self.cached_blocks,
            "lookups": self.lookups,
            "lookup_blocks": self.lookup_blocks,
            "hit_blocks": self.hit_blocks,
            "block_hit_rate": (
                self.hit_blocks / self.lookup_blocks if self.lookup_blocks else 0.0
            ),
            "partial_hits": self.partial_hits,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "purges": self.purges,
        }
