"""Smoke tests for the runnable example scripts (the fast ones)."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, timeout: int = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "bit-exact" in result.stdout

    def test_design_space_exploration(self):
        result = _run("design_space_exploration.py")
        assert result.returncode == 0, result.stderr
        assert "bm=4, g=16" in result.stdout

    def test_performance_comparison(self):
        result = _run("performance_comparison.py")
        assert result.returncode == 0, result.stderr
        assert "Table III" in result.stdout

    def test_pure_rns_vs_hybrid(self):
        result = _run("pure_rns_vs_hybrid.py")
        assert result.returncode == 0, result.stderr
        assert "silent wraps" in result.stdout

    def test_serving_demo(self):
        result = _run("serving_demo.py")
        assert result.returncode == 0, result.stderr
        assert "micro-batching sustained" in result.stdout
        assert "max drift 0.0e+00" in result.stdout

    def test_autoscale_demo(self):
        result = _run("autoscale_demo.py")
        assert result.returncode == 0, result.stderr
        assert "replica timeline" in result.stdout
        assert "of peak provisioning" in result.stdout
        assert "evictions (batch shed for interactive)" in result.stdout
        assert "max drift 0.0e+00" in result.stdout

    def test_continuous_batching_demo(self):
        result = _run("continuous_batching_demo.py")
        assert result.returncode == 0, result.stderr
        assert "continuous batching sustained" in result.stdout
        assert "bit-exact vs batch-1 decode: True" in result.stdout
        assert "max drift 0.0e+00" in result.stdout
        assert "preemptions" in result.stdout

    def test_prefix_sharing_demo(self):
        result = _run("prefix_sharing_demo.py")
        assert result.returncode == 0, result.stderr
        assert "prefix reuse cut prefill work" in result.stdout
        assert "bit-exact vs batch-1 decode: True" in result.stdout
        assert "max drift 0.0e+00" in result.stdout
        assert "refcounts balanced at drain: True" in result.stdout

    def test_calibration_demo(self):
        result = _run("calibration_demo.py")
        assert result.returncode == 0, result.stderr
        assert "closed-loop" in result.stdout
        assert "NOEMS" in result.stdout

    def test_memory_system_tour(self):
        result = _run("memory_system_tour.py")
        assert result.returncode == 0, result.stderr
        assert "ridge point" in result.stdout
        assert "MVM stage busy" in result.stdout

    def test_train_and_deploy(self):
        result = _run("train_and_deploy.py")
        assert result.returncode == 0, result.stderr
        ideal = [l for l in result.stdout.splitlines()
                 if "ideal photonic core" in l][0]
        raw = [l for l in result.stdout.splitlines()
               if "uncalibrated" in l][0]
        cal = [l for l in result.stdout.splitlines()
               if "fabricated, calibrated" in l][0]

        def pct(line):
            return float(line.split("accuracy")[1].strip().split("%")[0])

        assert pct(ideal) == pct(cal)  # calibration fully restores
        assert pct(raw) < pct(ideal)  # raw fabrication errors destroy

    def test_observability_demo(self):
        result = _run("observability_demo.py")
        assert result.returncode == 0, result.stderr
        assert "exact" in result.stdout
        assert "round-trip exact: True" in result.stdout
        assert "gap-free session timelines: 16/16" in result.stdout
        assert "16 bit-exact phase decompositions" in result.stdout
        assert "self-diff: 0 change(s)" in result.stdout
        assert "regression=False" in result.stdout

    def test_all_examples_present(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "autoscale_demo.py",
            "observability_demo.py",
            "prefix_sharing_demo.py",
            "quickstart.py",
            "train_mirage_vs_fp32.py",
            "design_space_exploration.py",
            "photonic_noise_resilience.py",
            "performance_comparison.py",
            "pure_rns_vs_hybrid.py",
            "calibration_demo.py",
            "memory_system_tour.py",
            "train_and_deploy.py",
        } <= names
