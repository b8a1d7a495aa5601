"""Tier-1 gate: the repository must pass its own static analysis.

Strict profile over ``src/`` (zero active findings), relaxed profile
over ``tests/``, ``benchmarks/`` and ``examples/``.  A new violation
anywhere fails the suite; the fix is to correct the code or to add a
reasoned ``# repro: waive[rule-id] -- why`` on the offending line.
There is no baseline file to absorb a finding.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks import load_config, run_checks

REPO = Path(__file__).resolve().parent.parent


def _gate_config():
    return load_config(REPO / "pyproject.toml")


@pytest.fixture(scope="module")
def strict_src_report():
    """One strict parse of ``src/``, shared by the tests that read it."""
    return run_checks([REPO / "src"], profile="strict", config=_gate_config())


def test_src_is_clean_under_strict_profile(strict_src_report):
    report = strict_src_report
    assert report.active == [], "\n" + report.render_text()
    assert report.files_checked > 100  # the whole tree, not a subset


def test_tests_and_benchmarks_clean_under_relaxed_profile():
    report = run_checks(
        [REPO / "tests", REPO / "benchmarks"],
        profile="relaxed",
        config=_gate_config(),
    )
    assert report.active == [], "\n" + report.render_text()
    assert report.files_checked > 50


def test_examples_clean_under_relaxed_profile():
    """examples/ are import-inert scripts: main() + __main__ guard."""
    report = run_checks(
        [REPO / "examples"], profile="relaxed", config=_gate_config()
    )
    assert report.active == [], "\n" + report.render_text()
    assert report.files_checked > 10


def test_every_waiver_in_src_carries_a_reason(strict_src_report):
    waived = [f for f in strict_src_report.findings if f.waived]
    for f in waived:
        assert f.waive_reason.strip(), f"{f.path}:{f.line} reasonless waiver"


def test_cli_gate_subprocess():
    """``python -m repro.checks src`` from the repo root exits 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.checks", "src"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
