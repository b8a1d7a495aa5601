"""One benchmark run of one workload: repetitions, checks and metrics.

An untraced run repeats the workload (set-up, then timed region) until
``seconds`` of set-up plus timed time have passed, checks every
repetition's outputs, and reports medians over repetitions.  A traced
run times one repetition untraced and one with the boundary wrappers of
:mod:`tracing` installed, runs the full output checks on the traced one,
and reports per-layer metrics.

Importing this module imports numpy and ``repro``; the entry point
(:mod:`run`) fixes the thread and hash-seed environment first.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import tracing
from workloads import WORKLOADS, Outcome, Verdict, Workload

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *(
        (f"{layer}.{kind}", unit)
        for layer in tracing.LAYERS
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    ),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.optim_s", "s"),
    ("bfp.calls_per_step", "calls/step"),
    ("bfp.mb_in", "MB"),
    ("core.rows", "count"),
    ("core.macs", "count"),
    ("arch.memo_hit_rate", "ratio"),
    ("serve.engine.steps", "count"),
    ("serve.engine.mean_batch", "sessions"),
    ("serve.engine.sim_wait_p50_s", "sim_s"),
    ("serve.kvcache.peak_occupancy", "ratio"),
    ("serve.kvcache.preemptions", "count"),
    ("serve.kvcache.cow_copies", "count"),
    ("serve.prefix.hit_rate", "ratio"),
    ("serve.prefix.cached_token_frac", "ratio"),
    ("serve.pool.program_hit_rate", "ratio"),
    ("serve.runtime.polls_per_request", "polls/request"),
    ("serve.request.sim_wait_p50_s", "sim_s"),
    ("serve.batcher.mean_batch", "requests"),
    ("serve.observability.spans", "count"),
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.sim_p99_s", "sim_s"),
    ("bench.sim_p99_samples", "count"),
    ("bench.train_loss", "nats"),
)

# Which layer each workload was chosen to load, and the least share of
# the traced host time it should take there (printed, not enforced:
# shares move with every optimisation).
EXPECTED_LOAD = {
    "train_bfp": (("bfp",), 0.40),
    "decode_continuous": (("core",), 0.40),
    "prefix_observed": (("serve.prefix",), 0.05),
    "request_multitenant": (("serve.request", "serve.batcher"), 0.50),
}


# Set-ups per repetition.  Set-up takes milliseconds, so one sample is
# noise-dominated; the run reports the median over all of them.
SETUPS_PER_REP = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetition(
    workload: Workload, seed: int, traffic_seed: Optional[int], rec
) -> Tuple[dict, List[float], float, Outcome]:
    """Set up :data:`SETUPS_PER_REP` times, then run the last set-up once.

    Returns (state, set-up seconds of each set-up, timed seconds, outcome).
    """
    setups = []
    for _ in range(SETUPS_PER_REP):
        state = None  # free the previous set-up before collecting
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, traffic_seed)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    if isinstance(rec, tracing.SpanRecorder):
        with tracing.traced(rec):
            t2 = time.perf_counter()
            outcome = workload.run(state, rec)
            t3 = time.perf_counter()
        state["origin"] = t2
    else:
        t2 = time.perf_counter()
        outcome = workload.run(state, rec)
        t3 = time.perf_counter()
    return state, setups, t3 - t2, outcome


class Tally:
    """Items attempted and failed, problems, and the simulated result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.sim = None

    def add(self, verdict: Verdict, outcome: Outcome) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)
        if self.sim is None:
            self.sim = outcome.sim
        elif outcome.sim != self.sim:
            self.problems.append(f"simulated result changed: {outcome.sim} != {self.sim}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def untraced(
    name: str, seed: int, seconds: float, traffic_seed: Optional[int] = None
) -> Tuple[dict, List[str]]:
    workload = WORKLOADS[name]
    rec = tracing.NullRecorder()
    tally = Tally()
    setups: List[float] = []
    rates: List[float] = []
    lines: List[str] = []
    spent = last = 0.0
    # Stop when one more repetition would overshoot ``seconds`` by more
    # than it would fall short: measured time stays within half a
    # repetition of ``seconds``.
    while not rates or spent + last / 2 < seconds:
        state, setup_s, timed_s, outcome = repetition(workload, seed, traffic_seed, rec)
        tally.add(workload.check(state, full=False), outcome)
        del state
        setups += setup_s
        rates.append(outcome.items / timed_s)
        last = sum(setup_s) + timed_s
        spent += last
        lines.append(
            f"rep {len(rates)}: setup median {statistics.median(setup_s):.4f} s, "
            f"{outcome.items} {workload.item}s in {timed_s:.4f} s = {rates[-1]:.1f}/s"
        )
    lines.append(f"sim {format_values(tally.sim)}")
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
    }
    lines += [f"problem: {p}" for p in tally.problems]
    return result(tally, values, END_TO_END), lines


def traced(
    name: str, seed: int, out_dir: Path, traffic_seed: Optional[int] = None
) -> Tuple[dict, List[str]]:
    workload = WORKLOADS[name]
    tally = Tally()
    state, _, untraced_s, outcome = repetition(
        workload, seed, traffic_seed, tracing.NullRecorder()
    )
    tally.add(workload.check(state, full=False), outcome)
    del state
    rec = tracing.SpanRecorder()
    state, _, traced_s, outcome = repetition(workload, seed, traffic_seed, rec)
    tally.add(workload.check(state, full=True), outcome)

    values: Dict[str, float] = dict(tracing.layer_metrics(rec))
    entries = tracing.entry_totals(rec)

    def entry(layer: str, name: str, field: str):
        return entries.get((layer, name), {}).get(field, 0)

    for part in ("forward", "backward", "optim"):
        values[f"nn.{part}_s"] = entry("nn", part, "seconds")
    steps = entry("nn", "forward", "calls")
    values["bfp.calls_per_step"] = values["bfp.calls"] / steps if steps else 0.0
    counters = rec.counters
    values["bfp.mb_in"] = counters["bfp.bytes_in"] / 1e6
    values["core.rows"] = counters["core.rows"]
    values["core.macs"] = counters["core.macs"]
    requests = counters["arch.memo_requests"]
    values["arch.memo_hit_rate"] = (
        1.0 - counters["arch.memo_misses"] / requests if requests else 0.0
    )
    # The runtime's _drain poll calls AdmissionQueue.expire exactly once.
    polls = entry("serve.request", "AdmissionQueue.expire", "calls")
    values["serve.runtime.polls_per_request"] = polls / outcome.items if polls else 0.0
    values.update(workload.layer_stats(state))
    values["bench.untraced_s"] = untraced_s
    values["bench.traced_s"] = traced_s
    values["bench.trace_overhead"] = traced_s / untraced_s
    values["bench.sim_p99_s"] = outcome.sim.get("sim_p99_s", 0.0)
    values["bench.sim_p99_samples"] = outcome.sim.get("sim_p99_samples", 0)
    values["bench.train_loss"] = outcome.sim.get("train_loss", 0.0)
    for key, _ in PER_LAYER:
        values.setdefault(key, 0)

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{name}.npz"
    rec.save(trace_path, state["origin"])
    lines = [
        f"traced {len(rec.start)} spans in {traced_s:.4f} s "
        f"(untraced {untraced_s:.4f} s); spans written to {trace_path}",
        f"sim {format_values(tally.sim)}",
    ]
    lines += load_lines(name, values)
    lines += [f"problem: {p}" for p in tally.problems]
    return result(tally, values, PER_LAYER), lines


def load_lines(name: str, values: Dict[str, float]) -> List[str]:
    """Each layer's share of traced host time, and the chosen layer's check."""
    total = values["bench.traced_s"]
    lines = [
        f"share {layer:20s} busy {values[f'{layer}.busy_s'] / total:7.2%}  "
        f"self {values[f'{layer}.self_s'] / total:7.2%}"
        for layer in tracing.LAYERS
    ]
    layers, least = EXPECTED_LOAD[name]
    share = sum(values[f"{layer}.busy_s"] for layer in layers) / total
    lines.append(
        f"load {'+'.join(layers)} busy {share:.2%} of traced time "
        f"(expected >= {least:.0%}): {'yes' if share >= least else 'NO'}"
    )
    return lines


def result(tally: Tally, values: Dict[str, float], names) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def format_values(values) -> str:
    return " ".join(f"{k}={v!r}" for k, v in sorted((values or {}).items()))


def metric_lines(payload: dict) -> List[str]:
    """``metric <name> <value> <unit>`` rows, sorted, for diffing runs."""
    return [
        f"metric {name} {row['value']!r} {row['unit']}"
        for name, row in sorted(payload["metrics"].items())
    ]
