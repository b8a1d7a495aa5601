"""Wall-clock benchmark of the Mirage reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload train_bfp --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload decode_continuous --trace 1
    python3 perfbench/run.py --workload request_multitenant --spread 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--spread N``
repeats the untraced run N times in fresh processes (seeds ``seed``,
``seed + 1``, ...) and prints each metric's median, quartiles and
IQR/median.  See ``perfbench/README.md``.

Every run executes in a fresh interpreter with single-threaded BLAS and a
fixed hash seed: if the environment differs, the script re-executes
itself with :data:`FIXED_ENV` before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOAD_NAMES = ("train_bfp", "decode_continuous", "prefix_observed", "request_multitenant")
RUN_TIMEOUT_S = 175


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="data seed")
    parser.add_argument(
        "--traffic-seed", type=int, default=None,
        help="serving schedule seed (default: the workload's own, 11/13/4)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spread", type=int, default=0, metavar="N",
        help="repeat the untraced run N times in fresh processes",
    )
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory the traced run writes its spans to",
    )
    return parser.parse_args(argv)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args) -> int:
    """Repeat one workload in fresh processes and print each metric's spread."""
    runs = []
    for i in range(args.spread):
        seed = args.seed + i
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        if args.traffic_seed is not None:
            cmd += ["--traffic-seed", str(args.traffic_seed)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run {i + 1} (seed {seed}) timed out after {RUN_TIMEOUT_S} s")
            return 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"run {i + 1} (seed {seed}) failed with exit code {proc.returncode}")
            return 1
        payload = json.loads(lines[-1])
        sim = next((line for line in lines if line.startswith("sim ")), "sim ?")
        values = " ".join(
            f"{name}={row['value']:.6g}" for name, row in sorted(payload["metrics"].items())
        )
        print(f"run {i + 1:2d} seed {seed:3d} correct={payload['correct']} {values} | {sim}")
        runs.append(payload)
    print(f"{args.workload}: {len(runs)} runs, --seconds {args.seconds:g}")
    for name in sorted(runs[0]["metrics"]):
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        print(
            f"  {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"IQR/median {(q3 - q1) / median:.4f}  "
            f"min {min(values):.6g}  max {max(values):.6g}"
        )
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}\n")
        return 2
    if args.spread:
        return spread(args)
    if any(os.environ.get(key) != value for key, value in FIXED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, str(HERE / "run.py"), *argv],
            {**os.environ, **FIXED_ENV},
        )
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    if args.trace:
        payload, lines = measure.traced(
            args.workload, args.seed, args.out, args.traffic_seed
        )
    else:
        payload, lines = measure.untraced(
            args.workload, args.seed, args.seconds, args.traffic_seed
        )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines + measure.metric_lines(payload):
        print(line)
    print(json.dumps(payload, sort_keys=True), flush=True)
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
