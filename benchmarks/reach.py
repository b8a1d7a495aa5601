"""Line reach: which lines of ``src/repro`` any non-test entry point runs.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.reach

It writes ``BENCH_reach.json`` at the repo root.  Each entry point in
:func:`entry_points` (the analysis CLI, every example, the bench files in
smoke mode, the four perfbench workloads traced and untraced, the
``repro.checks`` gates, the run-diff CLI and the trajectory table) runs in
a fresh interpreter with ``sys.settrace`` and ``threading.settrace``
installed before anything under ``src/repro`` is imported.  Nothing under
``tests/`` runs, so a line the report calls unreached is one that only
tests (or nothing) execute.

A module's executable lines are the ``co_lines()`` of its compiled code
objects; a line is reached when it gets a ``line`` event, and a function
is entered when its code object gets a ``call`` event.  The tracer returns
``None`` for code outside ``src/repro`` and for code objects whose lines
are all reached already, so hot code costs one call event per call.

The report is sorted and holds no paths, pids or timings, so two runs give
identical bytes.  Three ways an entry point can escape the tracer, and how
the list below avoids each:

* pytest-benchmark's ``PauseInstrumentation`` calls ``sys.settrace(None)``
  around every timed call, so the bench files run with
  ``--benchmark-disable``.  A child that ends with a tracer other than its
  own fails the run.
* ``bench_observability.py`` runs the run-diff CLI in a child process with
  a replaced ``PYTHONPATH``, out of the tracer's reach; the CLI is traced
  as its own entry point on export documents written here.
* ``perfbench/run.py`` re-executes itself unless its ``FIXED_ENV`` is set,
  so every child starts with that environment.

Use it before deleting code: a function that no entry point enters, and
that no standing gate names, is a candidate.  ``tests/test_reach.py``
checks the tracer on a fixture module.
"""

from __future__ import annotations

import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

__all__ = ["LineTracer", "entry_points", "measure", "render", "main"]

REPO = Path(__file__).resolve().parents[1]
REPORT_NAME = "BENCH_reach.json"
# perfbench/run.py re-executes itself unless these are set; every child
# gets them, which also fixes hash seeds and BLAS threads.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOADS = ("train_bfp", "decode_continuous", "prefix_observed", "request_multitenant")
# The child imports this module from the repo, then runs its entry point.
_BOOT = "import sys; sys.path.insert(0, sys.argv[1]); from benchmarks.reach import _child; _child(sys.argv[2:])"

# (label, argv after the interpreter, extra environment, expected exit code)
EntryPoint = Tuple[str, Tuple[str, ...], Dict[str, str], int]


def _own_lines(code) -> Set[int]:
    return {line for _, _, line in code.co_lines() if line}


def _code_tree(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_tree(const)


class LineTracer:
    """A ``sys.settrace`` hook recording the lines run under one directory."""

    def __init__(self, root: Path):
        self.prefix = os.path.join(os.path.abspath(root), "")
        # code object -> (line numbers run, its executable lines)
        self.lines: Dict = {}
        self._skip: Set = set()  # outside root, or every line reached

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code in self._skip:
            return None
        state = self.lines.get(code)
        if state is None:
            if not code.co_filename.startswith(self.prefix):
                self._skip.add(code)
                return None
            state = self.lines[code] = (set(), _own_lines(code))
        got, want = state
        if frame.f_lineno:
            got.add(frame.f_lineno)
        if len(got) >= len(want) and want <= got:
            self._skip.add(code)
            return None
        add = got.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def result(self) -> Dict[str, Dict[str, list]]:
        """``{relative path: {"lines": [...], "entered": [[first line, qualname], ...]}}``."""
        out: Dict[str, Dict[str, list]] = {}
        for code, (got, _) in self.lines.items():
            rel = Path(code.co_filename[len(self.prefix):]).as_posix()
            entry = out.setdefault(rel, {"lines": [], "entered": []})
            entry["lines"].extend(got)
            entry["entered"].append([code.co_firstlineno, code.co_qualname])
        return out


def _child(argv: Sequence[str]) -> None:
    """Run one entry point under a :class:`LineTracer` and write what it reached."""
    sys.path.pop(0)
    out, root, target, *args = argv
    if target == "-m":
        target, *args = args
        sys.argv = [target, *args]
        sys.path[0] = os.getcwd()

        def run():
            runpy.run_module(target, run_name="__main__", alter_sys=True)

    else:
        sys.argv = [target, *args]
        sys.path[0] = os.path.dirname(os.path.abspath(target))

        def run():
            runpy.run_path(target, run_name="__main__")

    tracer = LineTracer(Path(root))
    threading.settrace(tracer)
    sys.settrace(tracer)
    returncode = 0
    try:
        run()
    except SystemExit as exc:
        returncode = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        intact = sys.gettrace() is tracer
        sys.settrace(None)
        threading.settrace(None)
    payload = {"returncode": returncode, "intact": intact, "files": tracer.result()}
    Path(out).write_text(json.dumps(payload))


def _run(entry: EntryPoint, root: Path, cwd: Path, tmp: Path) -> Dict:
    label, argv, extra_env, expected = entry
    out = tmp / "reach_child.json"
    env = dict(os.environ, **FIXED_ENV, **extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", _BOOT, str(REPO), str(out), str(root), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    payload = json.loads(out.read_text()) if out.is_file() else None
    out.unlink(missing_ok=True)
    if payload is None:
        problem = "no report"
    elif payload["returncode"] != expected:
        problem = f"exit {payload['returncode']}, expected {expected}"
    elif not payload["intact"]:
        problem = "something replaced the tracer"
    else:
        return payload["files"]
    sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    raise RuntimeError(f"entry point {label!r}: {problem}")


def measure(
    entries: Sequence[EntryPoint], root: Path, package: str, cwd: Path
) -> Dict:
    """Run every entry point traced and report reach over ``root/package``."""
    lines: Dict[str, Set[int]] = {}
    entered: Dict[str, Set[Tuple[int, str]]] = {}
    with tempfile.TemporaryDirectory(prefix="reach_") as tmp:
        for entry in entries:
            print(f"reach: {entry[0]}", file=sys.stderr, flush=True)
            for rel, got in _run(entry, root, cwd, Path(tmp)).items():
                lines.setdefault(rel, set()).update(got["lines"])
                entered.setdefault(rel, set()).update(map(tuple, got["entered"]))

    modules: Dict[str, Dict[str, int]] = {}
    never: List[Tuple[str, int, int, str]] = []
    for path in sorted((root / package).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        module = rel[: -len(".py")].replace("/", ".")
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        tree = compile(path.read_text(), str(path), "exec", dont_inherit=True)
        executable = set().union(*map(_own_lines, _code_tree(tree)))
        modules[module] = {
            "executable": len(executable),
            "unreached": len(executable - lines.get(rel, set())),
        }
        seen = entered.get(rel, set())
        stack = [tree]
        while stack:
            for const in stack.pop().co_consts:
                if not hasattr(const, "co_lines"):
                    continue
                is_function = const.co_flags & 0x2  # CO_NEWLOCALS: not a class body
                if is_function and (const.co_firstlineno, const.co_qualname) not in seen:
                    last = max(set().union(*map(_own_lines, _code_tree(const))))
                    never.append((module, const.co_firstlineno, last, const.co_qualname))
                else:
                    stack.append(const)

    never.sort()
    return {
        "entry_points": [entry[0] for entry in entries],
        "totals": {
            "executable_lines": sum(m["executable"] for m in modules.values()),
            "unreached_lines": sum(m["unreached"] for m in modules.values()),
            "never_entered_functions": len(never),
        },
        "modules": modules,
        "never_entered": [f"{m}:{q} {a}-{b}" for m, a, b, q in never],
    }


def render(report: Dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def _write_exports(directory: Path) -> None:
    """Two seeded replays of one traced engine run (``a``, ``b``) and a
    perturbed one (``c``, half the batch), as ``export_run`` documents."""
    import numpy as np

    from repro.nn import KVCacheSpec, Linear, Sequential, Tanh
    from repro.serve import (
        DecodeModelProfile,
        EngineConfig,
        ExecutorPool,
        Observability,
        TokenServingEngine,
    )
    from repro.serve.observability import run_to_json
    from repro.serve.traffic import Scenario

    arrivals = tuple((i * 1e-7, "chat", 0, 6, 8) for i in range(8))
    for name, batch in (("a", 4), ("b", 4), ("c", 2)):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(12, 24, rng=rng), Tanh(), Linear(24, 12, rng=rng))
        profile = DecodeModelProfile("chat", model, kv=KVCacheSpec(2, 2, 4))
        obs = Observability(tracing=True)
        engine = TokenServingEngine(
            ExecutorPool(1),
            profile,
            EngineConfig(max_batch_size=batch, block_tokens=4),
            observability=obs,
        )
        telemetry = engine.run(Scenario("reach", arrivals, 8e-7), seed=1)
        export = obs.export(
            config={"max_batch_size": batch}, sessions=telemetry.sessions
        )
        (directory / f"{name}.json").write_text(run_to_json(export))


def entry_points(exports: Path, out: Path) -> List[EntryPoint]:
    """Every non-test entry point, in run order."""
    src = {"PYTHONPATH": str(REPO / "src")}
    entries: List[EntryPoint] = [
        ("python -m repro.analysis all --quick", ("-m", "repro.analysis", "all", "--quick"), src, 0),
    ]
    for example in sorted((REPO / "examples").glob("*.py")):
        name = f"examples/{example.name}"
        entries.append((f"python {name}", (name,), src, 0))
    benches = tuple(sorted(
        f"benchmarks/{p.name}" for p in (REPO / "benchmarks").glob("bench_*.py")
    ))
    entries.append((
        "REPRO_SMOKE=1 python -m pytest --benchmark-disable benchmarks/bench_*.py",
        ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *benches),
        dict(src, REPRO_SMOKE="1"),
        0,
    ))
    for workload in WORKLOADS:
        run = ("perfbench/run.py", "--workload", workload)
        entries.append((
            f"python perfbench/run.py --workload {workload} --trace 0 --seconds 1",
            (*run, "--trace", "0", "--seconds", "1"), {}, 0,
        ))
        entries.append((
            f"python perfbench/run.py --workload {workload} --trace 1",
            (*run, "--trace", "1", "--out", str(out)), {}, 0,
        ))
    entries += [
        ("python -m repro.checks src", ("-m", "repro.checks", "src"), src, 0),
        (
            "python -m repro.checks tests benchmarks examples --profile relaxed",
            ("-m", "repro.checks", "tests", "benchmarks", "examples", "--profile", "relaxed"),
            src,
            0,
        ),
    ]
    diff = ("-m", "repro.serve.observability.diff")
    entries += [
        ("python -m repro.serve.observability.diff a.json b.json (replay, exit 0)",
         (*diff, str(exports / "a.json"), str(exports / "b.json")), src, 0),
        ("python -m repro.serve.observability.diff a.json c.json (perturbed, exit 1)",
         (*diff, str(exports / "a.json"), str(exports / "c.json")), src, 1),
        ("python -m benchmarks.trajectory", ("-m", "benchmarks.trajectory"), src, 0),
    ]
    return entries


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach_inputs_") as tmp:
        exports = Path(tmp) / "exports"
        out = Path(tmp) / "perfbench_out"
        exports.mkdir()
        _write_exports(exports)
        report = measure(entry_points(exports, out), REPO / "src", "repro", REPO)
    (REPO / REPORT_NAME).write_text(render(report))
    totals = report["totals"]
    print(
        f"{totals['unreached_lines']} of {totals['executable_lines']} executable "
        f"lines unreached; {totals['never_entered_functions']} functions never "
        f"entered -> {REPORT_NAME}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
