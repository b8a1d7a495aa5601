"""Core GEMM performance trajectory — the one-pass batched engine.

Times the functional photonic core at three GEMM sizes plus the
weight-static streaming path and writes ``BENCH_core_gemm.json`` at the
repo root so future PRs inherit a perf baseline.  ``SEED_BASELINE`` holds
the timings of the original per-tile double-loop implementation (commit
672c752, this machine) for the before/after record.

Two more weight-static rows time the layer shapes every token-engine
decode step runs (96x48 and 48x96 weights, 16 columns) as the best
per-call time over many calls: the per-call-overhead regime serving runs
in.  They have no seed baseline, so ``speedup_vs_seed`` leaves them out.

A wall-clock budget guards against regressions: the 512x512x256 GEMM must
finish within ``REPRO_BENCH_BUDGET`` seconds (default 1.0 — roughly 5x the
one-pass engine's time, far below the 2.3 s of the per-tile loop), so a
return to per-tile execution fails loudly.

``REPRO_SMOKE=1`` (the plain test tier's default) runs a tiny-shape,
single-round pass that checks the engine end to end without timing
anything meaningful — it neither writes ``BENCH_core_gemm.json`` nor
enforces the budget.

Run:  REPRO_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_core_perf.py -s
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.bfp import BFPConfig, bfp_matmul_exact
from repro.core import PhotonicRnsTensorCore

SMOKE = os.environ.get("REPRO_SMOKE", "0") == "1"

GEMM_SIZES = (
    ((32, 32, 16), (64, 64, 32))
    if SMOKE
    else ((128, 128, 64), (256, 256, 128), (512, 512, 256))
)

# Per-tile loop implementation (seed commit 672c752), same machine/sizes.
SEED_BASELINE = {
    "gemm_128x128x64": 0.0515,
    "gemm_256x256x128": 0.4207,
    "gemm_512x512x256": 2.3456,
    "weight_static_512x512x256": 2.3456,  # seed had no weight-static path
}

# Weight shapes of the two layers of the token engine's decode model.
DECODE_LAYERS = ((96, 48), (48, 96))
DECODE_COLUMNS = 16

BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET", "1.0"))


def _best_of(fn, rounds=None, calls=1):
    """Best per-call time over ``rounds`` rounds of ``calls`` calls."""
    rounds = rounds if rounds is not None else (1 if SMOKE else 3)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def test_core_gemm_perf():
    rng = np.random.default_rng(0)
    core = PhotonicRnsTensorCore()
    results = {}

    for r, k, c in GEMM_SIZES:
        w = rng.normal(size=(r, k))
        x = rng.normal(size=(k, c))
        core.matmul(w[: min(r, 32)], x[:, : min(c, 8)])  # warm caches
        results[f"gemm_{r}x{k}x{c}"] = _best_of(lambda: core.matmul(w, x))

    # Weight-static streaming: program once, stream activations.
    r, k, c = GEMM_SIZES[-1]
    w = rng.normal(size=(r, k))
    x = rng.normal(size=(k, c))
    pw = core.program(w)
    results[f"weight_static_{r}x{k}x{c}"] = _best_of(
        lambda: core.matmul_programmed(pw, x)
    )

    # Still bit-exact at the largest size.
    assert np.array_equal(
        core.matmul(w, x), bfp_matmul_exact(w, x, BFPConfig(4, 16))
    )

    # Serving shapes: many short weight-static calls.
    for rows, cols in DECODE_LAYERS:
        w_dec = rng.normal(size=(rows, cols))
        x_dec = rng.normal(size=(cols, DECODE_COLUMNS))
        pw_dec = core.program(w_dec)
        assert np.array_equal(
            core.matmul_programmed(pw_dec, x_dec),
            bfp_matmul_exact(w_dec, x_dec, BFPConfig(4, 16)),
        )
        results[f"weight_static_{rows}x{cols}x{DECODE_COLUMNS}"] = _best_of(
            lambda: core.matmul_programmed(pw_dec, x_dec),
            rounds=1 if SMOKE else 5,
            calls=1 if SMOKE else 400,
        )

    if SMOKE:
        print("\ncore GEMM smoke pass (tiny shapes, untimed):")
        for key, val in results.items():
            print(f"  {key:30s} {val:8.4f} s")
        return

    speedups = {
        key: round(SEED_BASELINE[key] / results[key], 2) for key in SEED_BASELINE
    }
    payload = {
        "seed_baseline_s": SEED_BASELINE,
        "current_s": {key: float(f"{val:.4g}") for key, val in results.items()},
        "speedup_vs_seed": speedups,
        "budget_s": BUDGET_S,
    }
    out_path = Path(__file__).resolve().parents[1] / "BENCH_core_gemm.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    print("\ncore GEMM perf (best of 3; serving shapes best per call):")
    for key, val in results.items():
        vs_seed = f"({speedups[key]:5.1f}x vs seed)" if key in speedups else ""
        print(f"  {key:30s} {val:8.6f} s   {vs_seed}")

    big = results[f"gemm_{r}x{k}x{c}"]
    assert big <= BUDGET_S, (
        f"512x512x256 GEMM took {big:.3f} s > budget {BUDGET_S} s — "
        "the one-pass engine has regressed toward per-tile execution"
    )
