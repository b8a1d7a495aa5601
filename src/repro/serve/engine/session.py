"""Decode sessions: the request type of the token serving engine.

A :class:`DecodeSession` is one autoregressive generation: a prompt of
``prompt_len`` tokens is prefilled into KV state, then ``decode_len``
output tokens stream one per engine step.  Unlike the one-shot
:class:`~repro.serve.request.InferenceRequest`, a session is *stateful*:
its KV footprint grows with every generated token, it can be preempted
back to the waiting queue under memory pressure (and pays a re-prefill
over prompt + generated tokens when it resumes), and its latency splits
into time-to-first-token (TTFT) and time-per-output-token (TPOT).

Functionally the engine decodes a **surrogate recurrence** over the
profile's ``Sequential`` model: each step feeds every running session's
current input row through the batched GEMM stream and derives the next
input from the output row via :func:`next_token_input` — a row-local,
deterministic map, so a session's token stream is bit-exact regardless
of which batch compositions it rode in (the engine's correctness
check).  The *analytic* cost of attention and KV residency comes from
the profile's :class:`~repro.nn.attention.KVCacheSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...nn.attention import KVCacheSpec
from ...nn.layers import Linear, Sequential
from ..request import Priority, RequestStatus
from ..traffic import Scenario

__all__ = [
    "DecodeModelProfile",
    "DecodeSession",
    "build_sessions",
    "next_token_input",
]


def next_token_input(out_row: np.ndarray) -> np.ndarray:
    """Deterministic token recurrence: the next step's input row.

    The output row, rescaled by its own max-magnitude when that exceeds
    one, so arbitrarily long decodes stay bounded.  Every operation is
    row-local (no reduction across the batch), which is what makes the
    per-token stream independent of batch composition.
    """
    row = np.asarray(out_row, dtype=np.float64)
    scale = float(np.max(np.abs(row))) if row.size else 0.0
    return row / scale if scale > 1.0 else row


@dataclass(frozen=True)
class DecodeModelProfile:
    """A served autoregressive model: functional surrogate + KV geometry.

    ``model`` must be Linear-based with matching input/output widths
    (the decode recurrence feeds outputs back as inputs); ``kv`` ties
    the analytic per-step attention cost and per-token memory growth to
    the attention stack the surrogate stands in for.  ``ttft_slo_s`` is
    the per-class SLO target the engine telemetry scores TTFT against.
    """

    name: str
    model: Sequential
    kv: KVCacheSpec
    replicas: int = 1
    ttft_slo_s: Optional[float] = None

    def __post_init__(self):
        linears = [l for l in self.model if isinstance(l, Linear)]
        if not linears:
            raise ValueError(
                f"decode profile {self.name!r} has no Linear layers to serve"
            )
        d_in = linears[0].in_features
        d_out = linears[-1].out_features
        if d_in != d_out:
            raise ValueError(
                f"decode profile {self.name!r} cannot recur: input width "
                f"{d_in} != output width {d_out}"
            )
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.ttft_slo_s is not None and self.ttft_slo_s < 0:
            raise ValueError(
                f"ttft_slo_s must be >= 0, got {self.ttft_slo_s}"
            )

    def input_dim(self) -> int:
        for layer in self.model:
            if isinstance(layer, Linear):
                return layer.in_features
        raise ValueError(f"model {self.name!r} has no Linear layer")


@dataclass(eq=False)
class DecodeSession:
    """One autoregressive generation request and its engine-side state.

    ``x`` is the current recurrence input row (the functional stand-in
    for "last sampled token"); it survives preemption, so a resumed
    session continues its exact token stream while the *analytic* model
    charges it the KV re-prefill.  Timing fields are simulated-clock
    seconds filled in by the scheduler.  Sessions compare and hash by
    identity, so the scheduler's ``in`` and ``remove`` find the very
    object without comparing fields.
    """

    session_id: int
    model: str
    prompt_len: int
    decode_len: int
    arrival_time: float
    priority: int = Priority.BATCH
    prompt_tokens: Optional[Tuple[int, ...]] = None
    x: Optional[np.ndarray] = None
    status: str = RequestStatus.QUEUED
    tokens_generated: int = 0
    preemptions: int = 0
    admit_time: Optional[float] = None
    admit_order: int = -1  # monotonic per (re)admission; youngest = largest
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    outputs: List[np.ndarray] = field(default_factory=list)
    # Prefill progress, (re)set at each admission by the scheduler:
    # context tokens with valid KV vs the context the session must
    # rebuild before decoding (prompt + tokens generated pre-preemption).
    prefill_done: int = 0
    prefill_target: int = 0
    # Cumulative prompt tokens served from the shared-prefix cache
    # across all of this session's admissions (prefill work avoided).
    cached_prompt_tokens: int = 0
    # Times this session was rescued off a failed replica (or lost KV)
    # and re-dispatched — distinct from memory-pressure preemptions.
    recoveries: int = 0

    def __post_init__(self):
        if self.prompt_len < 1:
            raise ValueError(f"prompt_len must be >= 1, got {self.prompt_len}")
        if self.decode_len < 1:
            raise ValueError(f"decode_len must be >= 1, got {self.decode_len}")
        if self.prompt_tokens is not None:
            self.prompt_tokens = tuple(int(t) for t in self.prompt_tokens)
            if len(self.prompt_tokens) != self.prompt_len:
                raise ValueError(
                    f"prompt_tokens carries {len(self.prompt_tokens)} ids "
                    f"but prompt_len is {self.prompt_len}"
                )

    # ------------------------------------------------------------------
    @property
    def prefilling(self) -> bool:
        """KV still being rebuilt — not yet decoding."""
        return self.prefill_done < self.prefill_target

    # ------------------------------------------------------------------
    @property
    def context_len(self) -> int:
        """Tokens whose KV must be resident to decode the next token."""
        return self.prompt_len + self.tokens_generated

    @property
    def max_context_len(self) -> int:
        """Largest KV residency this session can ever need."""
        return self.prompt_len + self.decode_len

    @property
    def finished(self) -> bool:
        return self.tokens_generated >= self.decode_len

    # ------------------------------------------------------------------
    @property
    def ttft(self) -> Optional[float]:
        """Time to first token (arrival → first decode-step completion)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def total_latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def tpot(self) -> Optional[float]:
        """Mean time per output token after the first (None for 1-token)."""
        if self.finish_time is None or self.first_token_time is None:
            return None
        if self.decode_len < 2:
            return None
        return (self.finish_time - self.first_token_time) / (self.decode_len - 1)


def build_sessions(
    profile: DecodeModelProfile,
    scenario: Scenario,
    seed: int = 0,
) -> List[DecodeSession]:
    """Materialise a scenario's arrivals as decode sessions.

    Each session's initial input row is drawn from its own
    ``default_rng([seed, session_id])`` stream, so session inputs are
    identical across engines regardless of admission order — the
    property the bit-exactness check against sequential batch-1 decode
    rests on.  Arrivals without length fields (plain request traffic)
    degenerate to 1-prompt/1-token sessions; six-field arrivals (the
    shared-prefix scenarios) additionally carry the prompt's token ids,
    which the engine's prefix cache content-addresses for KV reuse.
    """
    sessions: List[DecodeSession] = []
    dim = profile.input_dim()
    for i, arrival in enumerate(scenario.arrivals):
        t, model = arrival[0], arrival[1]
        if model != profile.name:
            raise KeyError(
                f"scenario names model {model!r} but this engine serves "
                f"{profile.name!r}"
            )
        priority = arrival[2] if len(arrival) > 2 else 0
        prompt_len = int(arrival[3]) if len(arrival) > 4 else 1
        decode_len = int(arrival[4]) if len(arrival) > 4 else 1
        prompt_tokens = (
            tuple(int(t_id) for t_id in arrival[5])
            if len(arrival) > 5 and arrival[5] is not None
            else None
        )
        rng = np.random.default_rng([seed, i])
        sessions.append(
            DecodeSession(
                i,
                model,
                prompt_len,
                decode_len,
                float(t),
                priority=priority,
                prompt_tokens=prompt_tokens,
                x=rng.standard_normal(dim),
            )
        )
    return sessions
