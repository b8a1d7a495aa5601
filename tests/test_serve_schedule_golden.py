"""Golden schedule digests of the request-level serving runtime.

Each run below is hashed down to its schedule: every completed request's
id, model, priority, arrival, dispatch, completion, batch size and
worker (in completion order), every batch record, the reject, evict and
timeout counters and the autoscaler's scaling events.  Times are
rendered with ``float.hex``, so a one-ulp move of any dispatch or
completion fails here.

The runs are the four micro-batched ``bench_serving`` smoke scenarios
and their batch-1 baseline, the ``bench_autoscale`` smoke autoscaled
deployment, and an overloaded two-worker deployment whose requests
carry a deadline.  In all of them every model has a replica on every
worker.  The digests were recorded while ``ServingRuntime.run`` still
re-armed a batching timer after every drain, so they pin the event
loop's bookkeeping to the schedule it produced then.

A second digest per run pins what the schedule leaves out: the run's
Prometheus text, the ``serve_queue_depth`` gauge's streamed series and
every completed request's input bytes (in request-id order).  It fails
when a metric child is created in a different order or a request's
input is drawn differently, even if the schedule is unchanged.

The runtime once had a worker-fault plane with per-request retry counts
and failure, retry, hedge, crash and replacement counters.  Those
fields were 0 on every run here, so the rendering keeps a literal ``0``
in their place and the digests stay the ones recorded with them.
"""

import hashlib

import numpy as np
import pytest

from repro.nn import Linear, ReLU, Sequential
from repro.serve import (
    AutoscalerPolicy,
    BatchPolicy,
    ExecutorPool,
    ModelProfile,
    ServingRuntime,
    bursty_scenario,
    diurnal_scenario,
    multi_tenant_priority_scenario,
    multi_tenant_scenario,
    poisson_scenario,
)

GOLDEN = {
    "serving_poisson": "c465c2c9f38af66096c198304b747bffe862186171eadc2904e580e1834da494",
    "serving_bursty": "18eb0f9338042cc59c1f8499c8b8f4493687ae116d5768bfa287587af092de3f",
    "serving_diurnal": "83d5d3155d9d02d69cca226616302b55ade78e993c3e13e767eb8dcd6e9336d1",
    "serving_multi_tenant": "dff9819f37499f3ba0f8abf0927267e61a1215f982b697f66d4789efb3955f66",
    "serving_poisson_batch1": "fe1f525231746dd88f19cdd12a2edf223fd35a649b4790968e0683b863616c9d",
    "autoscale_autoscaled": "cf6f3e2ec92c980cb5b62eaa095824ab81b2bc64bb93559e7e4afa9ace2c0f11",
    "deadline_overload": "a74a77e21f68eea0dbcacf744af915712d40131c871500aad5cf2b859d296d9d",
}

METRICS_GOLDEN = {
    "serving_poisson": "1f67e8148133729013de127d8df42ee50b122ee41cf84b75318e288a0af07510",
    "serving_bursty": "c493abf47f509d6a7b393fcc5211929bea99c4b6fa3de8b615a43fd82ec5557d",
    "serving_diurnal": "169f8bf3e184a8f7b177c6426df75bdd8f7d42828ee52ae743e5ff9f80fe2b06",
    "serving_multi_tenant": "886a583ae66e497f0583b44a6686ff9bea94cf6bb031990e3c72eb9897896180",
    "serving_poisson_batch1": "990346eca2bfd01a1b69747c3068f851a4d87d40437b6ae3acef8b836c844b69",
    "autoscale_autoscaled": "45424d069dbc768d45ac38ec919679f80d830c2bcd251e51017335a7d67c4bea",
    "deadline_overload": "08b10d2edeec331b8b756b57e994a3c9098d704d3a2eab5b10e4f3264dc9369e",
}


def mlp(seed, dims):
    rng = np.random.default_rng(seed)
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        layers.append(Linear(d_in, d_out, rng=rng))
        if i < len(dims) - 2:
            layers.append(ReLU())
    return Sequential(*layers)


# The bench_serving smoke settings.
SERVING_DIMS = {"mlp_a": (16, 32, 8), "mlp_b": (32, 32, 8, 8), "mlp_c": (8, 16, 8)}
SERVING_RATE, SERVING_DURATION = 4e9, 2.5e-7


def serving_run(scenario, names, policy):
    runtime = ServingRuntime(
        ExecutorPool(4, policy="cache_affinity"), policy, queue_capacity=256
    )
    for i, (name, dims) in enumerate(SERVING_DIMS.items()):
        if name in names:
            runtime.register_model(
                ModelProfile(name, mlp(i, dims), replicas=4, slo_s=2e-6)
            )
    return runtime, runtime.run(scenario, seed=42)


def serving_scenario(name):
    rate, duration = SERVING_RATE, SERVING_DURATION
    if name == "poisson":
        return poisson_scenario("mlp_a", rate, duration, seed=1)
    if name == "bursty":
        return bursty_scenario(
            "mlp_a", 2 * rate, duration / 8, duration / 8, duration, seed=2
        )
    if name == "diurnal":
        return diurnal_scenario("mlp_a", rate / 10, 2 * rate, duration, seed=3)
    return multi_tenant_scenario(
        {"mlp_a": 6.0, "mlp_b": 3.0, "mlp_c": 1.0}, rate, duration, seed=4
    )


def autoscaled_run():
    """The bench_autoscale smoke autoscaled deployment."""
    policy = AutoscalerPolicy(
        interval_s=2e-8,
        window_s=8e-8,
        min_replicas=1,
        max_replicas=4,
        slo_scale_up=0.9,
        slo_scale_down=0.4,
        queue_high_per_replica=16.0,
        queue_low_per_replica=2.0,
        scale_down_cooldown_s=8e-8,
    )
    runtime = ServingRuntime(
        ExecutorPool(4, policy="cache_affinity"),
        BatchPolicy(max_batch_size=32, max_wait_s=5e-8),
        queue_capacity=512,
        autoscaler=policy,
    )
    runtime.register_model(
        ModelProfile("mlp", mlp(0, (16, 32, 8)), replicas=1, slo_s=2e-6)
    )
    scenario = diurnal_scenario("mlp", 4e8, 8e9, 4e-7, seed=21)
    return runtime, runtime.run(scenario, seed=42)


def deadline_overload_run():
    """Two workers, a 5e-8 s batching window and a 1.5e-7 s deadline.

    The load sheds and times out requests: of 2,052 arrivals, 1,489
    complete, 240 are shed (43 of them evicted) and 323 time out.  The
    counters are part of the digest.
    """
    runtime = ServingRuntime(
        ExecutorPool(2),
        BatchPolicy(max_batch_size=8, max_wait_s=5e-8, aging_rate_per_s=1e7),
        queue_capacity=128,
        deadline_s=1.5e-7,
    )
    runtime.register_model(ModelProfile("a", mlp(0, (32, 64, 16)), replicas=2))
    runtime.register_model(ModelProfile("b", mlp(1, (16, 32, 8)), replicas=2))
    scenario = multi_tenant_priority_scenario(
        {"a": 2.0, "b": 1.0}, 2e9, 1e-6, {"a": {0: 3, 2: 1}}, seed=5
    )
    return runtime, runtime.run(scenario, seed=6)


def schedule_lines(runtime, telemetry):
    lines = []
    for r in telemetry.completed:
        lines.append(
            f"req {r.request_id} {r.model} {r.priority} "
            f"{r.arrival_time.hex()} {r.dispatch_time.hex()} "
            f"{r.completion_time.hex()} {r.batch_size} {r.worker_id} 0"
        )
    for b in telemetry.batches:
        lines.append(
            f"batch {b.model} {b.batch_size} {b.worker_id} "
            f"{b.dispatch_time.hex()} {b.service_s.hex()}"
        )
    lines.append(
        "counters "
        f"{telemetry.rejected} {telemetry.evicted} {telemetry.timeouts} "
        f"{telemetry.failed} 0 0 0 0"
    )
    if runtime.autoscaler is not None:
        for event in runtime.autoscaler.events:
            lines.append(
                "scale "
                + " ".join(
                    f"{key}={value.hex() if isinstance(value, float) else value}"
                    for key, value in sorted(event.items())
                )
            )
    return lines


def schedule_digest(runtime, telemetry):
    text = "".join(line + "\n" for line in schedule_lines(runtime, telemetry))
    return hashlib.sha256(text.encode()).hexdigest()


def metrics_digest(telemetry):
    h = hashlib.sha256(telemetry.registry.prometheus_text().encode())
    for t, depth in telemetry.registry.get("serve_queue_depth").series():
        h.update(f"{t.hex()} {depth.hex()}\n".encode())
    for r in sorted(telemetry.completed, key=lambda r: r.request_id):
        h.update(r.x.tobytes())
    return h.hexdigest()


def run(name):
    if name == "autoscale_autoscaled":
        return autoscaled_run()
    if name == "deadline_overload":
        return deadline_overload_run()
    microbatch = BatchPolicy(max_batch_size=32, max_wait_s=5e-8)
    if name == "serving_poisson_batch1":
        return serving_run(
            serving_scenario("poisson"),
            ("mlp_a",),
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
        )
    scenario_name = name[len("serving_"):]
    names = tuple(SERVING_DIMS) if scenario_name == "multi_tenant" else ("mlp_a",)
    return serving_run(serving_scenario(scenario_name), names, microbatch)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_schedule_matches_the_golden_digest(name):
    runtime, telemetry = run(name)
    assert telemetry.completed
    assert schedule_digest(runtime, telemetry) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(METRICS_GOLDEN))
def test_metrics_and_inputs_match_the_golden_digest(name):
    _, telemetry = run(name)
    assert metrics_digest(telemetry) == METRICS_GOLDEN[name]
