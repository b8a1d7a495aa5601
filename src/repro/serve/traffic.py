"""Synthetic traffic scenarios for the serving runtime.

Every generator is deterministic in its seed and produces a
:class:`Scenario`: a time-sorted list of arrivals on the simulated clock.
Arrivals are ``(arrival_time, model_name)`` pairs, or
``(arrival_time, model_name, priority)`` triples for priority-classed
traffic (higher priority = more important; see
:class:`~repro.serve.request.Priority`).  Six canonical shapes cover the
load patterns a production deployment sees:

* **Poisson** — memoryless steady-state traffic at a fixed rate;
* **bursty (ON-OFF)** — alternating silence and Poisson bursts, the
  worst case for batching (arrivals cluster, then starve);
* **diurnal ramp** — a sinusoidal rate sweep between a base and a peak,
  the day/night cycle compressed to the simulation horizon;
* **multi-tenant mix** — Poisson arrivals split across several models by
  a popularity weighting, exercising placement and cache affinity;
* **priority mix** — Poisson arrivals split across priority classes
  (interactive / standard / batch), exercising class-aware shedding and
  priority-ordered batch forming;
* **multi-tenant priority** — both splits at once: each tenant model has
  its own class mix (e.g. an interactive-heavy tenant sharing the pool
  with a batch-analytics tenant).

Autoregressive-session traffic (the token serving engine) extends
arrivals with prompt/decode lengths (``decode_scenario``) and — for the
shared-prefix KV cache — with the prompt's actual **token ids**, so the
engine can content-address common prompt heads:

* **shared prefix** — a fleet where most sessions open with one common
  system prompt followed by a unique suffix (the 90 %-shared regime the
  prefix cache is benchmarked on);
* **multi-turn** — conversations re-submitting their growing history:
  each turn's prompt extends the previous turn's prompt, so all but the
  newest turn's tokens hit a warm prefix.

Inhomogeneous rates use Lewis-Shedler thinning against the peak rate, so
arrival statistics are exact, not binned.  Unbounded-memory and
divide-by-zero corner cases are validated away: generators draw in
capped chunks (``_CHUNK``) and reject non-finite or non-positive shape
parameters instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Scenario",
    "poisson_arrivals",
    "onoff_arrivals",
    "diurnal_arrivals",
    "assign_models",
    "assign_priorities",
    "geometric_lengths",
    "lognormal_lengths",
    "poisson_scenario",
    "bursty_scenario",
    "diurnal_scenario",
    "multi_tenant_scenario",
    "priority_scenario",
    "multi_tenant_priority_scenario",
    "decode_scenario",
    "shared_prefix_scenario",
    "multiturn_scenario",
]

# Arrivals are (time, model), (time, model, priority), or — for
# autoregressive sessions — (time, model, priority, prompt_len,
# decode_len), optionally extended with the prompt's token ids:
# (time, model, priority, prompt_len, decode_len, prompt_tokens).
Arrival = Union[
    Tuple[float, str],
    Tuple[float, str, int],
    Tuple[float, str, int, int, int],
    Tuple[float, str, int, int, int, Tuple[int, ...]],
]

# Cap on exponential-gap draws per chunk: keeps peak memory O(_CHUNK) no
# matter how large rate * duration is, while cumulative-sum chaining keeps
# the sequence deterministic and the tail exact.
_CHUNK = 65536


@dataclass(frozen=True)
class Scenario:
    """A named, fully materialised arrival trace."""

    name: str
    arrivals: Tuple[Arrival, ...]  # sorted by time
    duration_s: float

    @property
    def num_requests(self) -> int:
        return len(self.arrivals)

    @property
    def offered_rate(self) -> float:
        """Average offered load over the scenario horizon (req/s)."""
        return self.num_requests / self.duration_s if self.duration_s else 0.0

    def priorities(self) -> List[int]:
        """Priority classes present (default class 0 for pairs)."""
        return sorted(
            {a[2] if len(a) > 2 else 0 for a in self.arrivals}
        )


def _check_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# ----------------------------------------------------------------------
# Arrival-time processes
# ----------------------------------------------------------------------
def poisson_arrivals(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrival times in ``[0, duration)``.

    Gaps are drawn in chunks of at most ``_CHUNK`` exponentials and
    chained through a running cumulative sum, so memory stays bounded for
    arbitrarily large ``rate * duration`` (the old code re-drew an
    O(rate * duration)-sized chunk on *every* pass) and the tail beyond
    the horizon is still generated and trimmed exactly.
    """
    _check_finite(rate=rate, duration=duration)
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if rate == 0 or duration <= 0:
        return np.empty(0)
    times: List[np.ndarray] = []
    t = 0.0
    chunk = min(_CHUNK, max(16, int(rate * duration * 1.2)))
    while t < duration:
        gaps = rng.exponential(1.0 / rate, size=chunk)
        block = t + np.cumsum(gaps)
        times.append(block)
        t = block[-1]
    all_t = np.concatenate(times)
    return all_t[all_t < duration]


def onoff_arrivals(
    on_rate: float,
    on_s: float,
    off_s: float,
    duration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """ON-OFF modulated Poisson: bursts at ``on_rate``, then silence.

    ``on_s`` must be positive and ``off_s`` non-negative — a zero or
    negative ``on_s`` would never advance the window cursor and loop
    forever (or walk backwards) instead of producing traffic.
    """
    _check_finite(on_rate=on_rate, on_s=on_s, off_s=off_s, duration=duration)
    if on_s <= 0:
        raise ValueError(f"on_s must be > 0, got {on_s}")
    if off_s < 0:
        raise ValueError(f"off_s must be >= 0, got {off_s}")
    out: List[np.ndarray] = []
    t = 0.0
    while t < duration:
        burst = poisson_arrivals(on_rate, min(on_s, duration - t), rng)
        out.append(t + burst)
        t += on_s + off_s
    return np.concatenate(out) if out else np.empty(0)


def diurnal_arrivals(
    base_rate: float,
    peak_rate: float,
    period: float,
    duration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sinusoidal-rate Poisson via Lewis-Shedler thinning.

    Instantaneous rate: ``base + (peak - base) * (1 - cos(2πt/T)) / 2``
    — starts at the base ("night"), peaks mid-period.  ``period`` must be
    positive (zero would divide by zero in the phase; a negative period
    is meaningless) and ``peak_rate`` must be positive and >= base.
    """
    _check_finite(
        base_rate=base_rate, peak_rate=peak_rate, period=period,
        duration=duration,
    )
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    if base_rate < 0:
        raise ValueError(f"base_rate must be >= 0, got {base_rate}")
    if peak_rate < base_rate:
        raise ValueError("peak_rate must be >= base_rate")
    candidates = poisson_arrivals(peak_rate, duration, rng)
    if candidates.size == 0:
        return candidates
    lam = base_rate + (peak_rate - base_rate) * (
        1.0 - np.cos(2.0 * np.pi * candidates / period)
    ) / 2.0
    keep = rng.random(candidates.size) < lam / peak_rate
    return candidates[keep]


def assign_models(
    times: np.ndarray,
    mix: Dict[str, float],
    rng: np.random.Generator,
) -> Tuple[Tuple[float, str], ...]:
    """Tag each arrival with a model drawn from the popularity ``mix``."""
    names = sorted(mix)
    weights = np.array([mix[n] for n in names], dtype=np.float64)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(f"bad model mix {mix}")
    weights = weights / weights.sum()
    picks = rng.choice(len(names), size=times.size, p=weights)
    order = np.argsort(times, kind="stable")
    return tuple((float(times[i]), names[picks[i]]) for i in order)


def assign_priorities(
    arrivals: Sequence[Tuple[float, str]],
    class_mix: Dict[int, float],
    rng: np.random.Generator,
) -> Tuple[Tuple[float, str, int], ...]:
    """Tag ``(time, model)`` arrivals with priority classes.

    ``class_mix`` maps priority class -> relative weight, e.g.
    ``{Priority.INTERACTIVE: 1, Priority.BATCH: 4}`` for a mostly-batch
    workload with an interactive foreground.
    """
    classes = sorted(class_mix)
    weights = np.array([class_mix[c] for c in classes], dtype=np.float64)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(f"bad class mix {class_mix}")
    weights = weights / weights.sum()
    picks = rng.choice(len(classes), size=len(arrivals), p=weights)
    return tuple(
        (t, model, classes[picks[i]])
        for i, (t, model) in enumerate(arrivals)
    )


# ----------------------------------------------------------------------
# Sequence-length samplers (autoregressive sessions)
# ----------------------------------------------------------------------
def _check_length_bounds(minimum: int, maximum: Optional[int]) -> None:
    if minimum < 1:
        raise ValueError(f"minimum must be >= 1, got {minimum}")
    if maximum is not None and maximum < minimum:
        raise ValueError(
            f"maximum must be >= minimum, got {maximum} < {minimum}"
        )


def geometric_lengths(
    n: int,
    mean: float,
    rng: np.random.Generator,
    minimum: int = 1,
    maximum: Optional[int] = None,
) -> np.ndarray:
    """``n`` geometric token counts with the given mean (ints >= minimum).

    The memoryless length distribution of chat-style decode traffic:
    most responses are short, a heavy tail keeps going — the mix that
    makes request-level batching waste slots on drained sequences.
    Deterministic in the RNG trace (one vectorised draw, same discipline
    as :func:`poisson_arrivals`); non-finite or sub-``minimum`` means
    are rejected rather than looping or dividing by zero.
    """
    _check_finite(mean=mean)
    _check_length_bounds(minimum, maximum)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if mean < minimum:
        raise ValueError(
            f"mean must be >= minimum ({minimum}), got {mean}"
        )
    if n == 0:
        return np.empty(0, dtype=np.int64)
    p = 1.0 / (mean - minimum + 1.0)
    lengths = minimum + rng.geometric(p, size=n) - 1
    if maximum is not None:
        lengths = np.minimum(lengths, maximum)
    return lengths.astype(np.int64)


def lognormal_lengths(
    n: int,
    median: float,
    sigma: float,
    rng: np.random.Generator,
    minimum: int = 1,
    maximum: Optional[int] = None,
) -> np.ndarray:
    """``n`` lognormal token counts (ints in ``[minimum, maximum]``).

    The canonical prompt-length shape: a body around ``median`` with a
    multiplicative spread ``sigma`` (``sigma = 0`` degenerates to a
    constant ``median``).  Same determinism and validation discipline as
    :func:`geometric_lengths`.
    """
    _check_finite(median=median, sigma=sigma)
    _check_length_bounds(minimum, maximum)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if median <= 0:
        raise ValueError(f"median must be > 0, got {median}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lengths = np.rint(
        rng.lognormal(math.log(median), sigma, size=n)
    ).astype(np.int64)
    lengths = np.maximum(lengths, minimum)
    if maximum is not None:
        lengths = np.minimum(lengths, maximum)
    return lengths


# ----------------------------------------------------------------------
# Canonical scenario builders
# ----------------------------------------------------------------------
def poisson_scenario(
    model: str, rate: float, duration: float, seed: int = 0
) -> Scenario:
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, duration, rng)
    return Scenario("poisson", assign_models(times, {model: 1.0}, rng), duration)


def bursty_scenario(
    model: str,
    on_rate: float,
    on_s: float,
    off_s: float,
    duration: float,
    seed: int = 0,
) -> Scenario:
    rng = np.random.default_rng(seed)
    times = onoff_arrivals(on_rate, on_s, off_s, duration, rng)
    return Scenario("bursty", assign_models(times, {model: 1.0}, rng), duration)


def diurnal_scenario(
    model: str,
    base_rate: float,
    peak_rate: float,
    duration: float,
    seed: int = 0,
    period: Optional[float] = None,
) -> Scenario:
    rng = np.random.default_rng(seed)
    times = diurnal_arrivals(
        base_rate, peak_rate, period or duration, duration, rng
    )
    return Scenario("diurnal", assign_models(times, {model: 1.0}, rng), duration)


def multi_tenant_scenario(
    mix: Dict[str, float], rate: float, duration: float, seed: int = 0
) -> Scenario:
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, duration, rng)
    return Scenario("multi_tenant", assign_models(times, mix, rng), duration)


def priority_scenario(
    model: str,
    rate: float,
    duration: float,
    class_mix: Dict[int, float],
    seed: int = 0,
) -> Scenario:
    """Poisson traffic to one model, split across priority classes."""
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, duration, rng)
    tagged = assign_priorities(
        assign_models(times, {model: 1.0}, rng), class_mix, rng
    )
    return Scenario("priority", tagged, duration)


def multi_tenant_priority_scenario(
    mix: Dict[str, float],
    rate: float,
    duration: float,
    class_mix_by_model: Dict[str, Dict[int, float]],
    seed: int = 0,
) -> Scenario:
    """Multi-tenant Poisson traffic where each tenant has a class mix.

    Models absent from ``class_mix_by_model`` send default-class (0)
    traffic.  Per-model class draws happen in sorted model order, keeping
    the trace deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, duration, rng)
    tagged: List[Arrival] = list(assign_models(times, mix, rng))
    for name in sorted(class_mix_by_model):
        idx = [i for i, a in enumerate(tagged) if a[1] == name]
        if not idx:
            continue
        sub = assign_priorities(
            [tagged[i][:2] for i in idx], class_mix_by_model[name], rng
        )
        for i, arrival in zip(idx, sub):
            tagged[i] = arrival
    arrivals = tuple(
        a if len(a) > 2 else (a[0], a[1], 0) for a in tagged
    )
    return Scenario("multi_tenant_priority", arrivals, duration)


def _tag_classes(
    times: np.ndarray,
    model: str,
    class_mix: Optional[Dict[int, float]],
    rng: np.random.Generator,
) -> Tuple[Tuple[float, str, int], ...]:
    """Single-model arrivals with priority classes (default class 0)."""
    tagged = assign_models(times, {model: 1.0}, rng)
    if class_mix:
        return assign_priorities(tagged, class_mix, rng)
    return tuple((t, m, 0) for t, m in tagged)


def decode_scenario(
    model: str,
    rate: float,
    duration: float,
    prompt_median: float = 24.0,
    prompt_sigma: float = 0.5,
    decode_mean: float = 16.0,
    class_mix: Optional[Dict[int, float]] = None,
    prompt_max: Optional[int] = None,
    decode_max: Optional[int] = None,
    seed: int = 0,
) -> Scenario:
    """Autoregressive-session traffic for the token serving engine.

    Poisson arrivals where each arrival is a **decode session**:
    ``(time, model, priority, prompt_len, decode_len)`` with lognormal
    prompt lengths (:func:`lognormal_lengths`) and geometric decode
    lengths (:func:`geometric_lengths`) — the mixed-length regime
    continuous batching exists for.  ``class_mix`` optionally splits
    sessions across priority classes (default: all class 0).  Draw order
    is fixed (times, classes, prompts, decodes), so the trace is
    deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, duration, rng)
    tagged = _tag_classes(times, model, class_mix, rng)
    prompts = lognormal_lengths(
        len(tagged), prompt_median, prompt_sigma, rng, maximum=prompt_max
    )
    decodes = geometric_lengths(
        len(tagged), decode_mean, rng, maximum=decode_max
    )
    arrivals = tuple(
        (t, m, p, int(prompts[i]), int(decodes[i]))
        for i, (t, m, p) in enumerate(tagged)
    )
    return Scenario("decode", arrivals, duration)


# ----------------------------------------------------------------------
# Shared-prefix session traffic (prefix-cache workloads)
# ----------------------------------------------------------------------
# Token ids are opaque content identifiers the engine's prefix cache
# hashes per block; a GPT-2-sized vocabulary keeps collisions of
# *random* suffixes with a shared head vanishingly unlikely.
_VOCAB = 50257


def _token_ids(n: int, rng: np.random.Generator) -> Tuple[int, ...]:
    return tuple(int(t) for t in rng.integers(0, _VOCAB, size=n))


def shared_prefix_scenario(
    model: str,
    rate: float,
    duration: float,
    prefix_len: int = 64,
    shared_fraction: float = 0.9,
    suffix_median: float = 8.0,
    suffix_sigma: float = 0.5,
    decode_mean: float = 8.0,
    class_mix: Optional[Dict[int, float]] = None,
    suffix_max: Optional[int] = None,
    decode_max: Optional[int] = None,
    seed: int = 0,
) -> Scenario:
    """A fleet sharing one system prompt: the prefix cache's home turf.

    Poisson session arrivals where a ``shared_fraction`` of prompts open
    with the *same* ``prefix_len``-token system prompt followed by a
    unique lognormal-length suffix; the rest are cold prompts of the
    same total-length distribution (so cache wins come from sharing,
    not shorter prompts).  Draw order is fixed (times, classes,
    suffixes, decodes, shared mask, per-arrival tokens), so the trace is
    deterministic in the seed.
    """
    if prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")
    if not 0.0 <= shared_fraction <= 1.0:
        raise ValueError(
            f"shared_fraction must be in [0, 1], got {shared_fraction}"
        )
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rate, duration, rng)
    tagged = _tag_classes(times, model, class_mix, rng)
    n = len(tagged)
    suffixes = lognormal_lengths(
        n, suffix_median, suffix_sigma, rng, maximum=suffix_max
    )
    decodes = geometric_lengths(n, decode_mean, rng, maximum=decode_max)
    shared = rng.random(n) < shared_fraction
    system_prompt = _token_ids(prefix_len, rng)
    arrivals: List[Arrival] = []
    for i, (t, m, p) in enumerate(tagged):
        if shared[i]:
            tokens = system_prompt + _token_ids(int(suffixes[i]), rng)
        else:
            tokens = _token_ids(prefix_len + int(suffixes[i]), rng)
        arrivals.append((t, m, p, len(tokens), int(decodes[i]), tokens))
    return Scenario("shared_prefix", tuple(arrivals), duration)


def multiturn_scenario(
    model: str,
    rate: float,
    duration: float,
    turns: int = 3,
    think_time_s: float = 1e-8,
    prompt_median: float = 16.0,
    prompt_sigma: float = 0.5,
    turn_tokens_median: float = 12.0,
    turn_sigma: float = 0.5,
    decode_mean: float = 8.0,
    class_mix: Optional[Dict[int, float]] = None,
    seed: int = 0,
) -> Scenario:
    """Multi-turn conversations re-submitting a growing history.

    ``rate`` starts conversations (Poisson); each runs ``turns``
    rounds, re-submitting after an exponential ``think_time_s`` gap a
    prompt that **extends** the previous turn's prompt with fresh
    tokens (the reply context plus the new user turn).  Every turn
    after the first therefore re-presents the whole earlier history —
    the warm-prefix re-submission pattern, where the cache should trim
    prefill to roughly the newest turn.  Turn arrivals may land past
    ``duration`` (conversation tails drain after the horizon).
    """
    if turns < 1:
        raise ValueError(f"turns must be >= 1, got {turns}")
    _check_finite(think_time_s=think_time_s)
    if think_time_s < 0:
        raise ValueError(f"think_time_s must be >= 0, got {think_time_s}")
    rng = np.random.default_rng(seed)
    starts = poisson_arrivals(rate, duration, rng)
    tagged = _tag_classes(starts, model, class_mix, rng)
    arrivals: List[Arrival] = []
    for t0, m, p in tagged:
        tokens = _token_ids(
            int(lognormal_lengths(1, prompt_median, prompt_sigma, rng)[0]), rng
        )
        t = float(t0)
        for turn in range(turns):
            if turn > 0:
                t += float(rng.exponential(think_time_s)) if think_time_s else 0.0
                tokens = tokens + _token_ids(
                    int(
                        lognormal_lengths(
                            1, turn_tokens_median, turn_sigma, rng
                        )[0]
                    ),
                    rng,
                )
            decode_len = int(geometric_lengths(1, decode_mean, rng)[0])
            arrivals.append((t, m, p, len(tokens), decode_len, tokens))
    arrivals.sort(key=lambda a: a[0])
    return Scenario("multiturn", tuple(arrivals), duration)
