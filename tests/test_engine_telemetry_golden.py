"""Golden digests of the token engine's telemetry and observability output.

Each run below is reduced to the text a reader of the run would see:
``summary(horizon, ttft_slo_s)``, ``summary(horizon)``, ``report()``,
``fault_stats()`` and the Prometheus dump, plus the Chrome trace and the
``SLOTracker`` summary when tracing is on.  The text is hashed with
SHA-256, and JSON renders floats with ``repr``, so a one-ulp move of any
reported value fails here.

The eight scenarios are continuous, static, chunked prefill over a
shared prefix, KV-pressure preemption, rejection at arrival, an RRNS-rate
fault storm with recovery on and off, and the storm with a bounded
waiting queue that sheds.  Each runs with exact and streaming telemetry,
with tracing off and on.  Every KV pool holds a power-of-two number of
blocks, so each occupancy is a dyadic rational and any summation order
of them is exact.  The storms draw their transients at the RRNS code's
analytic rates, and at these rates they draw no uncorrectable one.  The
digests were recorded while exact mode still reduced every scalar by
scanning its record lists.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.arch.config import MirageConfig
from repro.arch.memory import MemorySystemModel
from repro.core import FaultTolerantCore, rrns_fault_rates
from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
from repro.serve import (
    DecodeModelProfile,
    EngineConfig,
    ExecutorPool,
    FaultKind,
    FaultPlan,
    HealthPolicy,
    Observability,
    TokenServingEngine,
    decode_scenario,
    shared_prefix_scenario,
)
from repro.serve.observability import SLOSpec, SLOTracker, default_windows
from repro.serve.traffic import Scenario

GOLDEN = {
    "continuous/exact/untraced": "bcea14cbb96a424623025bec26af99c02c6791192913bcbd0ea4cd37fdefbb23",
    "continuous/exact/traced": "424436f001d9d72ed43a24515fad659e8c020626b425d351b6ebdc6834a4a177",
    "continuous/streaming/untraced": "a6b7a036d8ae66ea0a9484488970e0a9ed6e6ff5c45caee0d346705b5bea9019",
    "continuous/streaming/traced": "00b20893afed9d4f04fbd4682ad470c03a0aae003f20f820f4dd26601eec1491",
    "static/exact/untraced": "9bc184aaac2d79c8dbb7a681f16bd4613c1b0fa366f7f175e744488fdef4edbd",
    "static/exact/traced": "c7d34b9f10ddb6d809cc3ea40c8f4406bb25702d9191d4fc6835c91667cf127f",
    "static/streaming/untraced": "2b35b0fda04762276040d3126dcb019f45b61515335b9a11f2ecece16ac7e00e",
    "static/streaming/traced": "6d9c073fa3d69e2f7a55e0a4d8743147354163b557117800c62a81ee089573f6",
    "chunked_prefix/exact/untraced": "c3753cf541a264cc88bfc0fd7c3ef4630192cd3675e5a1d3da63aa64ac78a89f",
    "chunked_prefix/exact/traced": "cd3fa58b6fceead3e20ca5a8d11fb142d04452bb51b45cba04a92055c8b35d94",
    "chunked_prefix/streaming/untraced": "057b0c33b71987a61586ff7cc9277de605b270fa08b53fd5328bc605b96207a4",
    "chunked_prefix/streaming/traced": "aa9c6cdd6e7d7dd49e0d83feac097db15230d5c4250dc1f80b5d2b92344c88fa",
    "preemption/exact/untraced": "e5d8f98980364813edd399ae9728448c34a027ba0e5fb6d92f99ffe6875eee27",
    "preemption/exact/traced": "d7f5805bc21ab87090807ecd5cc36493a55d44140bc20bfd9b1210a15e98db45",
    "preemption/streaming/untraced": "f53a0ca239db716a8f6fee195724a5a088ec13f55ea7a68f2e4652c86806cebb",
    "preemption/streaming/traced": "9837e4f8fbfbf3707e18e0bd152072351171684e7694a64ea5ab22c8006207f1",
    "rejection/exact/untraced": "22eeb9bab22d5197b51ff0b62da3055d5e85eec76e8b0eb74e419cef54b6d7a2",
    "rejection/exact/traced": "69fb9c8b682e517d12121035581c01bb9d36fe8568dea55c9f9e9584c5e0d196",
    "rejection/streaming/untraced": "0e35ff2f6a47c1f60806e3e1be07e6d9e6722e8a422787c13f3cb3d5c30b0f2a",
    "rejection/streaming/traced": "de5874bbad3196c7f7429e294f598355bed9eddabf7e49b1d0944888720467dc",
    "storm_recovery/exact/untraced": "89ddefee249bb248ff2490aca66fc153b6a0ae31f297bea2b4b0556b90481640",
    "storm_recovery/exact/traced": "85431c1d30b5bc4a2e6b068b9d7bc0e77a9a9be36dbab9bfc1bc5fe719fb7938",
    "storm_recovery/streaming/untraced": "8f97487b436a9b15da5571bc77f54f65abea4956d24682bb0bc147b9e5dbff41",
    "storm_recovery/streaming/traced": "b31236aab83ede157957beea7674b4c27b63dc806729512e001fcdce7da2e274",
    "storm_no_recovery/exact/untraced": "d78d3fa7a69b0ca75b70d623256c40ef413a1e9dc058abbd6d1a41a3b1c8a3c5",
    "storm_no_recovery/exact/traced": "8b27f56378478ba6ddb43d8086062bd895f2ecd449ca50a8221dcb01b0d8f9cb",
    "storm_no_recovery/streaming/untraced": "a65f43ac4ab6d1b21791f7622c5ad5ac70530ffc3fb198d3d845ff93ea0d4c1c",
    "storm_no_recovery/streaming/traced": "63d950a4975b7309ddb513297c1fd7482a066ecdd323385ac47f76dee2fd9913",
    "storm_shed/exact/untraced": "10a64776f78e89bc15a99f4aa1a1909ade29145021037ccfd417134304809b70",
    "storm_shed/exact/traced": "5f87d613d35cfaed21ba3e25d00b9f10d5c5532e721db1c9cc1b7b49934c1103",
    "storm_shed/streaming/untraced": "0a82d9bf7c2df0b9ce49c0c553b1e7c97d62f693430cab48a12de5a3dd99f563",
    "storm_shed/streaming/traced": "8c17126d31e8d8479e2889d72a826a1d02044b967487873b60a3ab6cab87617c",
}

TTFT_SLO_S = 4e-6
SLO_HORIZON_S = 2e-5
REPLICAS = 3
KV = KVCacheSpec(num_layers=2, num_heads=2, head_dim=4)


def make_engine(observability, blocks, block_tokens=4, health=None, **config_kw):
    rng = np.random.default_rng(0)
    model = Sequential(Linear(12, 24, rng=rng), Tanh(), Linear(24, 12, rng=rng))
    profile = DecodeModelProfile(
        "m0", model, kv=KV, replicas=REPLICAS, ttft_slo_s=TTFT_SLO_S
    )
    memory = MemorySystemModel(
        MirageConfig(sram_bytes=blocks * block_tokens * KV.bytes_per_token)
    )
    config = EngineConfig(block_tokens=block_tokens, kv_fraction=1.0, **config_kw)
    return TokenServingEngine(
        ExecutorPool(REPLICAS),
        profile,
        config,
        memory=memory,
        health=health,
        observability=observability,
    )


def mixed_traffic(rate=1e7, duration=1.8e-6):
    return decode_scenario(
        "m0",
        rate=rate,
        duration=duration,
        prompt_median=8,
        prompt_sigma=0.6,
        decode_mean=6,
        class_mix={0: 3, 1: 1, 3: 1},
        prompt_max=24,
        decode_max=16,
        seed=11,
    )


def storm(makespan):
    """Three replica kills plus a transient/KV-loss burst at RRNS rates.

    With recovery off the third kill leaves no live replica, so every
    session still in flight fails.
    """
    kills = FaultPlan.replica_kills(
        [(0.25 * makespan, 0), (0.40 * makespan, 0), (0.55 * makespan, 0)]
    )
    rates = rrns_fault_rates(FaultTolerantCore().codec, 1e-3)
    burst = FaultPlan.from_rrns_rates(
        rates,
        op_rate_per_s=12.0 / rates["detected"] / makespan,
        start=0.45 * makespan,
        stop=0.75 * makespan,
        seed=23,
        kv_loss_share=0.25,
    )
    return kills.merge(burst)


STORM_MAKESPAN_S = 1.6e-6
STORM_HEALTH = HealthPolicy(
    suspect_after_s=STORM_MAKESPAN_S / 200.0, dead_after_s=STORM_MAKESPAN_S / 60.0
)

# name -> (engine kwargs, scenario factory, fault plan or None)
SCENARIOS = {
    "continuous": (dict(blocks=256), mixed_traffic, None),
    "static": (dict(blocks=256, continuous=False), mixed_traffic, None),
    "chunked_prefix": (
        dict(blocks=128, prefill_chunk_tokens=6),
        lambda: shared_prefix_scenario(
            "m0",
            rate=8e6,
            duration=2e-6,
            prefix_len=16,
            shared_fraction=0.8,
            suffix_median=5,
            decode_mean=5,
            class_mix={0: 2, 2: 1},
            suffix_max=12,
            decode_max=12,
            seed=5,
        ),
        None,
    ),
    "preemption": (
        dict(blocks=16, max_batch_size=8),
        lambda: mixed_traffic(rate=1.5e8, duration=1.2e-7),
        None,
    ),
    "rejection": (
        dict(blocks=16),
        lambda: Scenario(
            "decode",
            tuple(
                (i * 4e-8, "m0", i % 3, 60 if i % 4 == 1 else 6, 6)
                for i in range(10)
            ),
            4e-7,
        ),
        None,
    ),
    "storm_recovery": (
        dict(blocks=64, health=STORM_HEALTH),
        mixed_traffic,
        storm,
    ),
    "storm_no_recovery": (
        dict(blocks=64, health=STORM_HEALTH, recovery=False),
        mixed_traffic,
        storm,
    ),
    "storm_shed": (
        dict(blocks=64, health=STORM_HEALTH, max_waiting=2),
        mixed_traffic,
        storm,
    ),
}
VARIANTS = [
    (name, streaming, tracing)
    for name in SCENARIOS
    for streaming in (False, True)
    for tracing in (False, True)
]


def run(name, streaming, tracing):
    engine_kw, make_scenario, make_plan = SCENARIOS[name]
    slo = None
    if tracing:
        slo = SLOTracker(SLOSpec("ttft", 0.9, default_windows(SLO_HORIZON_S)))
    obs = Observability(tracing=tracing, slo=slo, streaming=streaming)
    engine = make_engine(obs, **engine_kw)
    scenario = make_scenario()
    plan = make_plan(STORM_MAKESPAN_S) if make_plan is not None else None
    telemetry = engine.run(scenario, seed=3, faults=plan)
    return obs, engine, scenario, telemetry, plan


def rendered(obs, engine, scenario, telemetry):
    horizon = max(scenario.duration_s, telemetry.makespan())
    parts = [
        telemetry.summary(horizon, ttft_slo_s=TTFT_SLO_S),
        telemetry.summary(horizon),
        engine.report(scenario),
        telemetry.fault_stats(),
    ]
    text = "".join(json.dumps(p, sort_keys=True) + "\n" for p in parts)
    text += obs.registry.prometheus_text()
    if obs.tracer is not None:
        text += obs.tracer.chrome_trace() + "\n"
        text += json.dumps(obs.slo.summary(SLO_HORIZON_S), sort_keys=True) + "\n"
    return text


def digest(obs, engine, scenario, telemetry):
    text = rendered(obs, engine, scenario, telemetry)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,streaming,tracing", VARIANTS)
def test_engine_output_matches_the_golden_digest(name, streaming, tracing):
    obs, engine, scenario, telemetry, plan = run(name, streaming, tracing)
    assert engine.kv.num_blocks & (engine.kv.num_blocks - 1) == 0
    if plan is not None:
        assert not any(
            e.uncorrectable for e in plan.events if e.kind == FaultKind.TRANSIENT
        )
    key = f"{name}/{'streaming' if streaming else 'exact'}/" + (
        "traced" if tracing else "untraced"
    )
    assert digest(obs, engine, scenario, telemetry) == GOLDEN[key]
