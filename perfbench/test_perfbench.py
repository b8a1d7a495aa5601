"""Harness tests for the wall-clock benchmark (fast; no timed runs)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in measure.END_TO_END + measure.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in measure.END_TO_END + measure.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == dict(measure.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(measure.PER_LAYER)
    assert spec["end_to_end"][0]["name"] == "setup_s"


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,9] > A[6,8] (A re-entered via B)
    layer = [0, 1, 2, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    parent = [-1, 0, 1, 0, 3]
    totals = tracing.account(layer, start, end, parent)
    assert totals[0] == {"calls": 2, "busy_s": 10.0, "self_s": 5.0}
    assert totals[1] == {"calls": 2, "busy_s": 7.0, "self_s": 4.0}
    assert totals[2] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_recorder_links_parents_and_passes_same_layer_calls_through():
    ticks = iter(range(100))
    rec = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("nn", "forward"):
        with rec.span("nn", "inner"):  # same layer: no new span
            with rec.span("bfp", "quantize"):
                pass
    assert rec.names[rec.name_id[0]] == ("nn", "forward")
    assert list(rec.parent) == [-1, 0]
    metrics = tracing.layer_metrics(rec)
    assert metrics["nn.calls"] == 1 and metrics["bfp.calls"] == 1
    assert metrics["nn.busy_s"] == 3.0 and metrics["nn.self_s"] == 2.0
    assert metrics["bfp.self_s"] == 1.0


def _originals():
    return {
        (owner, attr): vars(owner)[attr]
        for _, module, target, _ in tracing.BOUNDARIES
        for owner, attr in tracing.resolve(module, target)
    }


def test_every_boundary_names_an_existing_entry_point():
    for layer, module, target, kind in tracing.BOUNDARIES:
        assert layer in tracing.LAYERS
        assert kind in ("span", "memo")
        assert tracing.resolve(module, target), (module, target)


def test_traced_run_restores_every_wrapped_function():
    before = _originals()
    rec = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing.traced(rec):
            during = _originals()
            assert all(during[key] is not fn for key, fn in before.items())
            raise RuntimeError("leave the traced region by an exception")
    after = _originals()
    assert all(after[key] is fn for key, fn in before.items())


def test_wrappers_record_layer_and_session_item():
    from repro.serve import KVBlockManager

    rec = tracing.SpanRecorder()
    kv = KVBlockManager(num_blocks=8, block_tokens=4, prefix_cache=False)
    with tracing.traced(rec):
        assert kv.reserve(7, 6)
        kv.release(7)
    layers = {rec.names[i][0] for i in rec.name_id}
    assert layers == {"serve.kvcache"}
    assert set(rec.items) == {7}


def _fingerprint(value):
    """Hashable content of generated inputs: arrays, traces, weights."""
    if hasattr(value, "tobytes"):
        return value.tobytes()
    if hasattr(value, "arrivals"):
        return value.arrivals
    if hasattr(value, "model"):
        return tuple(p.data.tobytes() for p in value.model.parameters())
    if isinstance(value, dict):
        return tuple((k, _fingerprint(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_fingerprint(v) for v in value)
    return value


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_arguments_change_the_generated_inputs(name):
    workload = WORKLOADS[name]
    base = _fingerprint(workload.inputs(0))
    assert base == _fingerprint(workload.inputs(0))
    assert base != _fingerprint(workload.inputs(1))
    if workload.TRAFFIC_SEED is not None:
        other = workload.TRAFFIC_SEED + 1
        assert base != _fingerprint(workload.inputs(0, traffic_seed=other))


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_bfp"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_quartiles_match_the_driver_statistic():
    import run

    # statistics.quantiles(values, n=4), the "exclusive" method.
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 10.0]) == (1.5, 3.0, 7.0)
