"""The benchmark's four workloads.

Each workload is an offline host batch.  :meth:`Workload.setup`
generates the whole seeded input and builds the program under test
(model build, engine or runtime construction, weight programming);
:meth:`Workload.run` is the timed region and consumes that input as fast
as the code allows; :meth:`Workload.check` verifies the outputs
afterwards, untimed.  The program under test receives only the
generated inputs.

Serving traffic is an open-loop Poisson schedule on the simulated clock,
drawn from the workload's fixed traffic seed; the data seed draws model
weights, training data and the input rows of sessions and requests.
Sizes are fixed: run length comes from repeating a workload, never from
resizing it, because the request loop's cost per request grows with
run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core import PhotonicExecutor
from repro.nn import (
    MODEL_BUILDERS,
    SGD,
    KVCacheSpec,
    Linear,
    ReLU,
    Sequential,
    Tanh,
    Tensor,
    cross_entropy,
    make_shape_images,
)
from repro.nn.data import batches
from repro.quant.formats import make_quantizer
from repro.serve import (
    BatchPolicy,
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    ModelProfile,
    Observability,
    SLOSpec,
    SLOTracker,
    ServingRuntime,
    TokenServingEngine,
    build_flight_report,
    build_sessions,
    decode_scenario,
    default_windows,
    export_run,
    multi_tenant_priority_scenario,
    next_token_input,
    sequential_decode_outputs,
    shared_prefix_scenario,
)

# Sessions or requests whose outputs every untraced repetition checks
# against batch-1 execution; the traced run checks all of them.
SUBSAMPLE = 48


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def subsample(ids, k: int = SUBSAMPLE) -> List[int]:
    """``k`` ids spread evenly over ``ids`` (all of them if fewer)."""
    ids = sorted(ids)
    if len(ids) <= k:
        return ids
    step = len(ids) / k
    return [ids[int(i * step)] for i in range(k)]


@dataclass
class Verdict:
    """Output checks of one repetition, in workload items."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, items: int, problem: str) -> None:
        self.failed += items
        self.problems.append(problem)


@dataclass
class Outcome:
    """Items a timed region completed and its simulated result.

    ``sim`` is a pure function of the seeds: every repetition of one
    seed must reproduce it exactly.
    """

    items: int
    sim: Dict[str, float]


class Workload:
    """One workload.  ``seed`` is the data seed; ``traffic_seed`` (None:
    the workload's own ``TRAFFIC_SEED``) draws the serving schedule."""

    name = ""
    item = ""
    TRAFFIC_SEED: Optional[int] = None

    def traffic(self, traffic_seed: Optional[int]) -> Optional[int]:
        return self.TRAFFIC_SEED if traffic_seed is None else traffic_seed

    def inputs(self, seed: int, traffic_seed: Optional[int] = None) -> dict:
        """Everything generated from the seeds, before any construction."""
        raise NotImplementedError

    def setup(self, seed: int, traffic_seed: Optional[int] = None) -> dict:
        raise NotImplementedError

    def run(self, state: dict, rec) -> Outcome:
        raise NotImplementedError

    def check(self, state: dict, full: bool) -> Verdict:
        raise NotImplementedError

    def layer_stats(self, state: dict) -> Dict[str, float]:
        """Simulated per-layer counts and ratios (traced run only)."""
        return {}


# ----------------------------------------------------------------------
# BFP training
# ----------------------------------------------------------------------
class TrainBFP(Workload):
    name = "train_bfp"
    item = "sample"
    CLASSES, PER_CLASS, IMAGE = 8, 40, 16
    BATCH, STEPS, LR, MOMENTUM = 32, 12, 0.05, 0.9

    def inputs(self, seed, traffic_seed=None):
        train, _ = make_shape_images(
            self.CLASSES, self.PER_CLASS, self.IMAGE, seed=seed
        )
        rng = np.random.default_rng(seed)
        steps = []
        while len(steps) < self.STEPS:
            for xb, yb in batches(train, self.BATCH, rng):
                steps.append((xb, yb))
                if len(steps) == self.STEPS:
                    break
        return {"steps": steps}

    def setup(self, seed, traffic_seed=None):
        state = self.inputs(seed)
        quantizer = make_quantizer("mirage", bm=4, g=16)
        state["model"] = MODEL_BUILDERS["resnet18"](
            self.CLASSES, quantizer=quantizer, rng=np.random.default_rng(seed)
        )
        state["opt"] = SGD(
            state["model"].parameters(), lr=self.LR, momentum=self.MOMENTUM
        )
        state["losses"] = []
        return state

    def run(self, state, rec):
        model, opt, losses = state["model"], state["opt"], state["losses"]
        for step, (xb, yb) in enumerate(state["steps"]):
            rec.item = step
            opt.zero_grad()
            with rec.span("nn", "forward"):
                logits = model(Tensor(xb))
            loss = cross_entropy(logits, yb)
            with rec.span("nn", "backward"):
                loss.backward()
            with rec.span("nn", "optim"):
                opt.step()
            losses.append(float(loss.data))
        rec.item = -1
        return Outcome(
            items=sum(len(yb) for _, yb in state["steps"]),
            sim={"train_loss": float(np.mean(losses[-4:]))},
        )

    def check(self, state, full):
        verdict = Verdict(sum(len(yb) for _, yb in state["steps"]))
        if len(state["losses"]) != len(state["steps"]):
            verdict.fail(verdict.attempted, "training stopped early")
        for (_, yb), loss in zip(state["steps"], state["losses"]):
            if not math.isfinite(loss):
                verdict.fail(len(yb), f"non-finite loss {loss!r}")
        return verdict


# ----------------------------------------------------------------------
# Token engine workloads
# ----------------------------------------------------------------------
class _EngineWorkload(Workload):
    item = "token"

    def scenario(self, traffic_seed: int):
        raise NotImplementedError

    def engine(self, profile) -> TokenServingEngine:
        raise NotImplementedError

    def inputs(self, seed, traffic_seed=None):
        rng = np.random.default_rng(seed)
        model = Sequential(Linear(48, 96, rng=rng), Tanh(), Linear(96, 48, rng=rng))
        kv = KVCacheSpec(num_layers=4, num_heads=8, head_dim=16)
        return {
            "seed": seed,
            "scenario": self.scenario(self.traffic(traffic_seed)),
            "profile": DecodeModelProfile("chat", model, kv, ttft_slo_s=2e-3),
        }

    def setup(self, seed, traffic_seed=None):
        state = self.inputs(seed, traffic_seed)
        state["engine"] = self.engine(state["profile"])
        return state

    def run(self, state, rec):
        telemetry = state["engine"].run(state["scenario"], seed=state["seed"])
        state["telemetry"] = telemetry
        ttfts = [s.ttft for s in telemetry.sessions]
        return Outcome(
            items=telemetry.tokens_generated(),
            sim={
                "sim_p99_s": nearest_rank(ttfts, 99.0),
                "sim_p99_samples": len(ttfts),
            },
        )

    def check(self, state, full):
        scenario, engine = state["scenario"], state["engine"]
        telemetry = state["telemetry"]
        decode_len = {i: int(a[4]) for i, a in enumerate(scenario.arrivals)}
        verdict = Verdict(sum(decode_len.values()))
        done = {s.session_id: s for s in telemetry.sessions}
        lost = [i for i in decode_len if i not in done]
        if lost:
            verdict.fail(
                sum(decode_len[i] for i in lost),
                f"{len(lost)} sessions rejected, shed or failed",
            )
        accounted = (
            len(telemetry.sessions)
            + len(telemetry.rejected)
            + telemetry.sessions_shed
            + telemetry.sessions_failed
        )
        if accounted != scenario.num_requests:
            verdict.fail(0, f"{accounted} sessions accounted of {scenario.num_requests}")
        if not engine.kv.refcounts_balanced():
            verdict.fail(0, "KV refcounts unbalanced at drain")
        try:
            engine.kv.check_invariants()
        except AssertionError as err:
            verdict.fail(0, f"KV invariants: {err}")
        if full:
            reference = sequential_decode_outputs(
                state["profile"], scenario, seed=state["seed"]
            )
            error = engine.report(scenario)["analytic_consistency"]["max_abs_error_s"]
            if error != 0.0:
                verdict.fail(0, f"analytic cross-check error {error!r} s")
        else:
            reference = self._reference(state, subsample(done))
        for sid, rows in reference.items():
            session = done.get(sid)
            if session is None:
                continue
            same = len(session.outputs) == len(rows) and all(
                np.array_equal(a, b) for a, b in zip(session.outputs, rows)
            )
            if not same:
                verdict.fail(decode_len[sid], f"session {sid} outputs differ")
        return verdict

    @staticmethod
    def _reference(state, ids) -> Dict[int, List[np.ndarray]]:
        """Batch-1 decode of the chosen sessions alone."""
        wanted = set(ids)
        executor = PhotonicExecutor()
        model = state["profile"].model
        out = {}
        for session in build_sessions(state["profile"], state["scenario"], state["seed"]):
            if session.session_id not in wanted:
                continue
            x, rows = session.x, []
            for _ in range(session.decode_len):
                row = executor.run_sequential(model, x[None, :])[0]
                rows.append(row.copy())
                x = next_token_input(row)
            out[session.session_id] = rows
        return out

    def layer_stats(self, state):
        engine, telemetry = state["engine"], state["telemetry"]
        waits = [s.admit_time - s.arrival_time for s in telemetry.sessions]
        prefix = telemetry.prefix_stats()
        tracer = engine.tracer
        return {
            "serve.engine.steps": telemetry.steps_count(),
            "serve.engine.mean_batch": telemetry.mean_batch_size(),
            "serve.engine.sim_wait_p50_s": nearest_rank(waits, 50.0),
            "serve.kvcache.peak_occupancy": telemetry.kv_stats()["peak_occupancy"],
            "serve.kvcache.preemptions": telemetry.preemptions,
            "serve.kvcache.cow_copies": engine.kv.stats()["cow_copies"],
            "serve.prefix.hit_rate": prefix["hit_rate"],
            "serve.prefix.cached_token_frac": prefix["cached_token_fraction"],
            "serve.pool.program_hit_rate": engine.pool.cache_stats()["hit_rate"],
            "serve.observability.spans": (
                tracer.summary()["spans"] if tracer is not None else 0
            ),
        }


class DecodeContinuous(_EngineWorkload):
    name = "decode_continuous"
    TRAFFIC_SEED = 11

    def scenario(self, traffic_seed):
        return decode_scenario(
            "chat",
            rate=1.5e9,
            duration=1.6e-6,
            prompt_median=24,
            prompt_sigma=0.6,
            decode_mean=16,
            class_mix={0: 4, 2: 1},
            prompt_max=96,
            decode_max=96,
            seed=traffic_seed,
        )

    def engine(self, profile):
        config = EngineConfig(max_batch_size=16, block_tokens=16, kv_fraction=0.25)
        return TokenServingEngine(ExecutorPool(2), profile, config)


class PrefixObserved(_EngineWorkload):
    name = "prefix_observed"
    TRAFFIC_SEED = 13
    DURATION = 1.6e-6

    def scenario(self, traffic_seed):
        return shared_prefix_scenario(
            "chat",
            rate=1.5e9,
            duration=self.DURATION,
            prefix_len=64,
            shared_fraction=0.9,
            suffix_median=8,
            suffix_sigma=0.6,
            decode_mean=12,
            class_mix={0: 4, 2: 1},
            suffix_max=32,
            decode_max=48,
            seed=traffic_seed,
        )

    def engine(self, profile):
        config = EngineConfig(
            max_batch_size=16,
            block_tokens=16,
            kv_fraction=0.25,
            prefix_caching=True,
            prefill_chunk_tokens=16,
        )
        slo = SLOTracker(SLOSpec("ttft", 0.95, default_windows(self.DURATION)))
        return TokenServingEngine(
            ExecutorPool(2),
            profile,
            config,
            observability=Observability(tracing=True, slo=slo),
        )

    def run(self, state, rec):
        outcome = super().run(state, rec)
        engine, telemetry = state["engine"], state["telemetry"]
        obs = engine.obs
        config = {"workload": self.name, "seed": state["seed"]}
        with rec.span("serve.observability", "build_flight_report"):
            state["flight"] = build_flight_report(
                obs,
                name=self.name,
                config=config,
                telemetry=telemetry,
                profile=engine.profile,
                accelerator=engine.service.accelerator,
                now=telemetry.makespan(),
            )
        with rec.span("serve.observability", "export_run"):
            state["export"] = export_run(obs, config=config, sessions=telemetry.sessions)
        return outcome

    def check(self, state, full):
        verdict = super().check(state, full)
        if state["flight"]["attribution"]["max_abs_error_s"] != 0.0:
            verdict.fail(0, "flight-report attribution is not exact")
        exported = state["export"]["sessions"]["completed"]
        if exported != len(state["telemetry"].sessions):
            verdict.fail(0, f"export counts {exported} completed sessions")
        return verdict


# ----------------------------------------------------------------------
# Request runtime
# ----------------------------------------------------------------------
class RequestMultitenant(Workload):
    name = "request_multitenant"
    item = "request"
    TRAFFIC_SEED = 4
    DIMS = {
        "mlp_a": (64, 128, 10),
        "mlp_b": (128, 128, 32, 10),
        "mlp_c": (32, 64, 10),
    }

    def inputs(self, seed, traffic_seed=None):
        profiles = []
        for index, (name, dims) in enumerate(self.DIMS.items()):
            rng = np.random.default_rng([seed, index])
            layers = []
            for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
                layers.append(Linear(d_in, d_out, rng=rng))
                if i < len(dims) - 2:
                    layers.append(ReLU())
            profiles.append(
                ModelProfile(name, Sequential(*layers), replicas=4, slo_s=2e-6)
            )
        scenario = multi_tenant_priority_scenario(
            {"mlp_a": 6.0, "mlp_b": 3.0, "mlp_c": 1.0},
            1.5e9,
            4e-6,
            {"mlp_a": {0: 3, 2: 1}},
            seed=self.traffic(traffic_seed),
        )
        return {"seed": seed, "scenario": scenario, "profiles": profiles}

    def setup(self, seed, traffic_seed=None):
        state = self.inputs(seed, traffic_seed)
        state["runtime"] = ServingRuntime(
            ExecutorPool(4, policy="cache_affinity"),
            BatchPolicy(max_batch_size=32, max_wait_s=2e-7),
            queue_capacity=256,
        )
        for profile in state["profiles"]:
            state["runtime"].register_model(profile)
        return state

    def run(self, state, rec):
        telemetry = state["runtime"].run(state["scenario"], seed=state["seed"])
        state["telemetry"] = telemetry
        latencies = [r.total_latency for r in telemetry.completed]
        return Outcome(
            items=len(telemetry.completed),
            sim={
                "sim_p99_s": nearest_rank(latencies, 99.0),
                "sim_p99_samples": len(latencies),
            },
        )

    def check(self, state, full):
        scenario, runtime = state["scenario"], state["runtime"]
        telemetry = state["telemetry"]
        offered = scenario.num_requests
        verdict = Verdict(offered)
        completed = len(telemetry.completed)
        if completed != offered:
            verdict.fail(offered - completed, f"{offered - completed} requests not completed")
        accounted = completed + telemetry.rejected + telemetry.timeouts + telemetry.failed
        if accounted != offered:
            verdict.fail(0, f"{accounted} requests accounted of {offered}")
        requests = sorted(telemetry.completed, key=lambda r: r.request_id)
        if full:
            error = runtime.report(scenario)["analytic_consistency"]["max_abs_error_s"]
            if error != 0.0:
                verdict.fail(0, f"analytic cross-check error {error!r} s")
        else:
            keep = set(subsample(r.request_id for r in requests))
            requests = [r for r in requests if r.request_id in keep]
        executor = PhotonicExecutor()
        for request in requests:
            model = runtime.pool.model(request.model)
            alone = executor.run_sequential(model, request.x[None, :])[0]
            if not np.array_equal(alone, request.output):
                verdict.fail(1, f"request {request.request_id} output differs")
        return verdict

    def layer_stats(self, state):
        runtime, telemetry = state["runtime"], state["telemetry"]
        waits = [r.dispatch_time - r.arrival_time for r in telemetry.completed]
        return {
            "serve.request.sim_wait_p50_s": nearest_rank(waits, 50.0),
            "serve.batcher.mean_batch": telemetry.mean_batch_size(),
            "serve.pool.program_hit_rate": runtime.pool.cache_stats()["hit_rate"],
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (TrainBFP(), DecodeContinuous(), PrefixObserved(), RequestMultitenant())
}
