"""Autoregressive token serving engine (continuous batching over KV blocks).

The execution model is token-granular, not request-granular: arrivals
are :class:`DecodeSession`\\ s (prompt length, decode length, priority
class, optionally the prompt's token ids), a refcounting
:class:`KVBlockManager` pages their growing KV state inside a budget
derived from the accelerator's analytic memory model — sharing prompt
heads across sessions through the :class:`RadixPrefixIndex`
(:mod:`~repro.serve.engine.prefix`: radix tree over chained token-block
hashes, copy-on-write on divergence, LRU eviction of unreferenced
cached prefixes) — and the :class:`TokenServingEngine` re-forms the
running batch **every decode step**: admitting prefills as *chunked*
work priced only for the uncached suffix, retiring finished sessions,
and preempting low-class sessions under KV pressure (decref, so their
cached prefixes survive for resume).

See :mod:`repro.serve` for how this sits next to the request-level
runtime, ``benchmarks/bench_continuous.py`` for the headline comparison
against static request-level batching, and
``benchmarks/bench_prefix.py`` for the shared-prefix/chunked-prefill
gains.
"""

from .kvcache import KVBlockManager
from .prefix import (
    PrefixNode,
    RadixPrefixIndex,
    common_prefix_len,
    full_blocks,
)
from .scheduler import (
    DecodeServiceModel,
    EngineConfig,
    TokenServingEngine,
    sequential_decode_outputs,
)
from .session import (
    DecodeModelProfile,
    DecodeSession,
    build_sessions,
    next_token_input,
)

__all__ = [
    "DecodeModelProfile",
    "DecodeServiceModel",
    "DecodeSession",
    "EngineConfig",
    "KVBlockManager",
    "PrefixNode",
    "RadixPrefixIndex",
    "TokenServingEngine",
    "build_sessions",
    "common_prefix_len",
    "full_blocks",
    "next_token_input",
    "sequential_decode_outputs",
]
