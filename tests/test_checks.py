"""Unit tests for the repro.checks static-analysis framework.

Fixture files with deliberate violations live in
``tests/checks_fixtures/`` (excluded from the tier-1 gate via
pyproject).  Each rule gets a positive (bad_*) and negative (ok_*)
check; the waiver mechanism gets round-trips; the layering test asserts
the real import DAG of src/repro matches the declared order.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.checks import CheckConfig, load_config, run_checks
from repro.checks.cli import main as cli_main
from repro.checks.registry import all_rules, module_name_for
from repro.checks.rules.layering import _imports_of, _package_of
from repro.checks.runner import build_contexts, collect_files

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "checks_fixtures"


def fixture_config(**overrides) -> CheckConfig:
    """Config aimed at the fixture tree (which the gate excludes)."""
    defaults = dict(
        root=REPO,
        exclude=(),
        clock_paths=("tests/checks_fixtures",),
        wallclock_allow=(),
    )
    defaults.update(overrides)
    return CheckConfig(**defaults)


def run_fixture(name: str, profile: str = "strict", **overrides):
    cfg = fixture_config(**overrides)
    return run_checks([FIXTURES / name], profile=profile, config=cfg)


def active_rules(report):
    return sorted({f.rule for f in report.active})


# ---------------------------------------------------------------------------
# per-rule positives and negatives


@pytest.mark.parametrize(
    "fixture, rule_id",
    [
        ("bad_random_module.py", "determinism-random-module"),
        ("bad_seedless_rng.py", "determinism-seedless-rng"),
        ("bad_legacy_np_random.py", "determinism-legacy-np-random"),
        ("bad_wall_clock.py", "determinism-wall-clock"),
        ("bad_clock_compare.py", "clock-raw-compare"),
        ("bad_mutable_default.py", "hygiene-mutable-default"),
        ("bad_bare_except.py", "hygiene-bare-except"),
        ("bad_assert_validation.py", "hygiene-assert-validation"),
        ("bad_module_side_effect.py", "hygiene-module-side-effect"),
        ("bad_shadow_builtin.py", "hygiene-shadow-builtin"),
    ],
)
def test_rule_fires_on_bad_fixture(fixture, rule_id):
    report = run_fixture(fixture)
    assert rule_id in active_rules(report), report.render_text()


def test_clean_fixture_is_clean():
    report = run_fixture("ok_clean.py")
    assert report.active == [], report.render_text()
    assert report.files_checked == 1


def test_relaxed_profile_drops_test_hostile_rules():
    for fixture in (
        "bad_wall_clock.py",
        "bad_seedless_rng.py",
        "bad_legacy_np_random.py",
        "bad_assert_validation.py",
    ):
        report = run_fixture(fixture, profile="relaxed")
        assert report.active == [], report.render_text()
    # Hygiene that stays wrong in tests still fires under relaxed.
    report = run_fixture("bad_bare_except.py", profile="relaxed")
    assert active_rules(report) == ["hygiene-bare-except"]


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        run_fixture("ok_clean.py", profile="lenient")


# ---------------------------------------------------------------------------
# waivers


def test_waiver_with_reason_suppresses():
    report = run_fixture("waived_ok.py")
    assert report.active == [], report.render_text()
    waived = [f for f in report.findings if f.waived]
    assert len(waived) == 1
    assert waived[0].rule == "determinism-seedless-rng"
    assert "well-formed waiver" in waived[0].waive_reason


def test_waiver_without_reason_does_not_suppress():
    report = run_fixture("waived_no_reason.py")
    rules = active_rules(report)
    assert "determinism-seedless-rng" in rules  # original stays active
    assert "waiver-missing-reason" in rules


def test_unused_waiver_is_flagged():
    report = run_fixture("waiver_unused.py")
    assert active_rules(report) == ["waiver-unused"]


def test_waiver_syntax_in_strings_is_inert():
    # waivers.py documents the syntax in its docstring; parsing must
    # come from the tokenizer, not raw lines.
    report = run_checks(
        [REPO / "src" / "repro" / "checks" / "waivers.py"],
        profile="strict",
        config=fixture_config(),
    )
    assert "waiver-unused" not in {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# configuration


def _write_violating_tree(tmp_path: Path) -> Path:
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""Tmp module."""\n\nimport numpy as np\n\n\n'
        "def draw():\n    return np.random.default_rng().normal()\n"
    )
    return mod


@pytest.mark.parametrize("line", [
    'relaxed-disabled = ["hygiene-bare-except"]',
    'baseline = "checks-baseline.json"',
], ids=["misspelt-key", "retired-key"])
def test_unknown_config_key_is_rejected(tmp_path, capsys, line):
    """A misspelt or retired key must not leave a default silently in force."""
    mod = _write_violating_tree(tmp_path)
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(f"[tool.repro-checks]\n{line}\n")
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=key):
        load_config(pyproject)
    assert cli_main([str(mod), "--config", str(pyproject)]) == 2
    assert key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# unused-import

UNUSED_IMPORTS = '''
    """One import per way of being read or not."""
    from __future__ import annotations

    import json
    import os.path
    from collections import OrderedDict as Ordered
    import numpy as np
    from typing import Deque, Dict
    from .sibling import exported
    import textwrap  # repro: waive[unused-import] -- kept for a caller that imports it from here

    __all__ = ["exported"]


    def zeros(table: "Dict[str, Deque[int]]"):
        return np.zeros(len(table))
'''


def unused_import_tree(tmp_path: Path) -> Path:
    mod = tmp_path / "mod.py"
    mod.write_text(textwrap.dedent(UNUSED_IMPORTS).lstrip())
    package = tmp_path / "pkg" / "__init__.py"
    package.parent.mkdir()
    package.write_text('"""Re-exports."""\nfrom json import dumps\n')
    return mod


def unused_imports(report) -> list:
    return [
        (f.path, f.line, f.message.split("'")[1])
        for f in report.active
        if f.rule == "unused-import"
    ]


@pytest.mark.parametrize("profile", ["strict", "relaxed"])
def test_unused_import_flags_unread_bindings_on_their_line(tmp_path, profile):
    mod = unused_import_tree(tmp_path)
    report = run_checks(
        [tmp_path], profile=profile, config=fixture_config(root=tmp_path)
    )
    found = unused_imports(report)
    assert [name for _, _, name in found] == ["json", "os", "Ordered"]
    lines = mod.read_text().splitlines()
    assert [lines[line - 1] for path, line, _ in found] == [
        "import json",
        "import os.path",
        "from collections import OrderedDict as Ordered",
    ]
    assert {path for path, _, _ in found} == {"mod.py"}


def test_unused_import_spares_reads_reexports_and_waivers(tmp_path):
    """Attribute roots, quoted annotations, ``__all__``, ``__future__``,
    package ``__init__`` re-exports and a reasoned waiver all pass."""
    mod = unused_import_tree(tmp_path)
    mod.write_text("\n".join(
        line for line in mod.read_text().splitlines()
        if not line.startswith(("import json", "import os", "from collections"))
    ) + "\n")
    report = run_checks([tmp_path], config=fixture_config(root=tmp_path))
    assert report.active == [], report.render_text()
    waived = [f for f in report.findings if f.waived]
    assert [(f.rule, f.line) for f in waived] == [("unused-import", 7)]


def test_unused_import_waiver_goes_stale_once_read(tmp_path):
    mod = unused_import_tree(tmp_path)
    report = run_checks([mod], config=fixture_config(root=tmp_path))
    assert "textwrap" not in [name for _, _, name in unused_imports(report)]
    assert [f.rule for f in report.findings if f.waived] == ["unused-import"]

    mod.write_text(mod.read_text() + "\n\nINDENT = textwrap.indent\n")
    report = run_checks([mod], config=fixture_config(root=tmp_path))
    assert "waiver-unused" in active_rules(report)


# ---------------------------------------------------------------------------
# layering


def layer_fixture_config() -> CheckConfig:
    return fixture_config(
        layer_root="layerpkg",
        layers=(("low",), ("high",)),
    )


def test_layering_upward_and_cycle():
    report = run_checks(
        [FIXTURES / "layerpkg"],
        profile="strict",
        config=layer_fixture_config(),
    )
    rules = active_rules(report)
    assert "layering-upward-import" in rules, report.render_text()
    assert "layering-cycle" in rules, report.render_text()
    upward = [f for f in report.active if f.rule == "layering-upward-import"]
    assert len(upward) == 1
    assert upward[0].path.endswith("layerpkg/low/__init__.py")
    cycles = [f for f in report.active if f.rule == "layering-cycle"]
    assert len(cycles) == 1
    assert "cyc_a" in cycles[0].message and "cyc_b" in cycles[0].message


def test_layering_undeclared_package():
    report = run_checks(
        [FIXTURES / "layerpkg"],
        profile="strict",
        config=fixture_config(
            layer_root="layerpkg", layers=(("low",),)
        ),
    )
    assert "layering-undeclared-package" in active_rules(report)


def test_real_tree_import_dag_matches_declared_order():
    """The actual package DAG of src/repro, pinned.

    New cross-package imports must keep pointing down the declared
    order; extending this expected set is the deliberate act that
    admits a new dependency.
    """
    cfg = load_config(REPO / "pyproject.toml")
    files = collect_files([REPO / "src" / "repro"], cfg)
    contexts, failures = build_contexts(files, cfg)
    assert failures == []

    edges = set()
    for ctx in contexts:
        if not ctx.module or ctx.module == "repro":
            continue
        src_pkg = _package_of(ctx.module, "repro")
        if src_pkg is None:
            continue
        for _lineno, target in _imports_of(ctx):
            dst_pkg = _package_of(target, "repro")
            if dst_pkg is not None and dst_pkg != src_pkg:
                edges.add((src_pkg, dst_pkg))

    expected = {
        ("analysis", "arch"), ("analysis", "bfp"), ("analysis", "nn"),
        ("analysis", "photonic"), ("analysis", "quant"), ("analysis", "rns"),
        ("arch", "photonic"), ("arch", "rns"),
        ("bfp", "determinism"),
        ("core", "bfp"), ("core", "determinism"), ("core", "nn"),
        ("core", "photonic"), ("core", "rns"),
        ("nn", "determinism"), ("nn", "quant"),
        ("photonic", "determinism"), ("photonic", "rns"),
        ("quant", "bfp"),
        ("serve", "arch"), ("serve", "core"), ("serve", "nn"),
    }
    assert edges == expected

    # Every edge points downward (or stays in-layer) per the config.
    for src_pkg, dst_pkg in edges:
        src_rank = cfg.layer_rank(src_pkg)
        dst_rank = cfg.layer_rank(dst_pkg)
        assert src_rank is not None, f"{src_pkg} not in declared layers"
        assert dst_rank is not None, f"{dst_pkg} not in declared layers"
        assert dst_rank <= src_rank, (
            f"upward edge {src_pkg} -> {dst_pkg} ({src_rank} -> {dst_rank})"
        )


# ---------------------------------------------------------------------------
# dead-public-name

DEAD_PROJECT = {
    "src/pkg/__init__.py": '''
        """Package facade."""
        from .core import reexported

        __all__ = ["only_in_all", "reexported"]
    ''',
    "src/pkg/core.py": '''
        """Definitions, one per way of being used or not."""
        from .registry import register


        def unused_function():
            return 1


        def only_in_all():
            return 2


        def reexported():
            return 3


        def only_tests():
            return 4


        def called():
            return _private()


        def via_alias():
            return 6


        def by_string():
            return 7


        def _private():
            return 8


        @register("entry")
        def registered():
            return 9


        class Widget:
            def __repr__(self):
                return "Widget()"

            def used_method(self):
                return 10

            def attr_used(self):
                return 11

            def unused_method(self):
                return 12
    ''',
    "benchmarks/bench_pkg.py": '''
        """bench: callers of pkg."""
        from pkg.core import called, reexported
        from pkg.core import via_alias as alias
        from pkg.core import Widget


        def helper_nobody_calls():
            widget = Widget()
            widget.used_method()
            return called() + alias() + getattr(widget, "attr_used")()
    ''',
    "perfbench/targets.py": '''
        """unused_function"""
        BOUNDARIES = {"core": ("pkg.core.by_string",)}
        NOTE = "unused_method is not a dotted identifier"
    ''',
    "tests/test_pkg.py": '''
        from pkg.core import only_tests


        def test_only_tests():
            assert only_tests() == 4
    ''',
}

DEAD_EXPECTED = [
    "Widget.unused_method",
    "only_in_all",
    "only_tests",
    "reexported",
    "unused_function",
]


def dead_project(tmp_path: Path) -> CheckConfig:
    for rel, text in DEAD_PROJECT.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip())
    return fixture_config(root=tmp_path)


def dead_names(report, path_suffix: str = "") -> list:
    return sorted(
        f.message.split("'")[1]
        for f in report.active
        if f.rule == "dead-public-name" and f.path.endswith(path_suffix)
    )


def test_dead_public_name_flags_only_unreferenced_src_names(tmp_path):
    cfg = dead_project(tmp_path)
    report = run_checks([tmp_path / "src"], config=cfg)
    assert dead_names(report) == DEAD_EXPECTED, report.render_text()
    finding = next(f for f in report.active if "unused_method" in f.message)
    assert finding.path == "src/pkg/core.py"
    source = (tmp_path / finding.path).read_text().splitlines()
    assert source[finding.line - 1].strip() == "def unused_method(self):"


def test_dead_public_name_ignores_code_outside_src(tmp_path):
    cfg = dead_project(tmp_path)
    roots = [tmp_path / d for d in ("src", "benchmarks", "perfbench", "tests")]
    report = run_checks(roots, config=cfg)
    assert dead_names(report) == DEAD_EXPECTED  # no bench/test helper
    relaxed = run_checks(
        roots[1:], profile="relaxed", config=cfg
    )
    assert dead_names(relaxed) == []


def test_dead_public_name_is_the_same_for_one_file(tmp_path):
    cfg = dead_project(tmp_path)
    whole = run_checks([tmp_path / "src"], config=cfg)
    one = run_checks(
        [tmp_path / "src" / "pkg" / "core.py"], config=cfg
    )
    assert dead_names(one) == dead_names(whole, "core.py") == DEAD_EXPECTED


def test_dead_public_name_waiver_goes_stale_once_referenced(tmp_path):
    cfg = dead_project(tmp_path)
    core = tmp_path / "src" / "pkg" / "core.py"
    core.write_text(core.read_text().replace(
        "def unused_function():",
        "def unused_function():  # repro: waive[dead-public-name] -- kept",
    ))
    report = run_checks([tmp_path / "src"], config=cfg)
    assert "unused_function" not in dead_names(report)
    waived = [f for f in report.findings if f.waived]
    assert [f.rule for f in waived] == ["dead-public-name"]
    assert "waiver-unused" not in active_rules(report)

    bench = tmp_path / "examples" / "demo.py"
    bench.parent.mkdir()
    bench.write_text("from pkg.core import unused_function\n\nunused_function()\n")
    report = run_checks([tmp_path / "src"], config=cfg)
    assert "unused_function" not in dead_names(report)
    assert "waiver-unused" in active_rules(report)


CONSTANT_PROJECT = {
    "src/pkg/__init__.py": '''
        """Package facade."""
        __all__ = ["ONLY_IN_ALL"]
    ''',
    "src/pkg/consts.py": '''
        """Module constants, one per way of being read or not."""
        from typing import Tuple

        UNREAD = 1
        ANNOTATED: Tuple[int, ...] = (2,)
        ONLY_IN_ALL = 3
        BY_ATTRIBUTE = 4
        BY_STRING = 5
        BY_NAME = 6
        DERIVED = BY_NAME + 1
        _PRIVATE = 8
    ''',
    "benchmarks/bench_consts.py": '''
        """bench: the readers of pkg.consts."""
        from pkg import consts
        from pkg.consts import DERIVED


        def total():
            return consts.BY_ATTRIBUTE + getattr(consts, "BY_STRING") + DERIVED
    ''',
}


def constant_project(tmp_path: Path) -> CheckConfig:
    for rel, text in CONSTANT_PROJECT.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip())
    return fixture_config(root=tmp_path)


def test_dead_public_name_flags_an_unread_constant_on_its_line(tmp_path):
    cfg = constant_project(tmp_path)
    report = run_checks([tmp_path / "src"], config=cfg)
    source = (tmp_path / "src" / "pkg" / "consts.py").read_text().splitlines()
    found = {
        f.message.split("'")[1]: source[f.line - 1]
        for f in report.active
        if f.rule == "dead-public-name"
    }
    assert found["UNREAD"] == "UNREAD = 1"
    assert found["ANNOTATED"] == "ANNOTATED: Tuple[int, ...] = (2,)"
    assert "_PRIVATE" not in found


def test_dead_public_name_counts_attribute_and_string_reads_of_a_constant(
    tmp_path,
):
    cfg = constant_project(tmp_path)
    report = run_checks([tmp_path / "src"], config=cfg)
    assert dead_names(report) == ["ANNOTATED", "ONLY_IN_ALL", "UNREAD"]

    bench = tmp_path / "benchmarks" / "bench_consts.py"
    bench.write_text('"""bench: no readers left."""\n')
    report = run_checks([tmp_path / "src"], config=cfg)
    assert {"BY_ATTRIBUTE", "BY_STRING", "DERIVED"} <= set(dead_names(report))
    assert "BY_NAME" not in dead_names(report)  # DERIVED still reads it


def test_dead_public_name_flags_a_constant_listed_only_in_all(tmp_path):
    cfg = constant_project(tmp_path)
    report = run_checks([tmp_path / "src"], config=cfg)
    assert "ONLY_IN_ALL" in dead_names(report, "consts.py")


# ---------------------------------------------------------------------------
# output formats / CLI


def test_json_output_schema(capsys):
    rc = cli_main(
        [
            str(FIXTURES / "bad_mutable_default.py"),
            "--format", "json",
            "--config", str(REPO / "pyproject.toml"),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0  # fixture dir is excluded by the committed config
    assert payload["version"] == 1
    assert set(payload) == {
        "version", "profile", "files_checked", "findings", "counts",
        "exit_code",
    }
    # Bypass the exclusion to get a populated report.
    report = run_fixture("bad_mutable_default.py")
    payload = json.loads(report.render_json())
    (finding,) = [f for f in payload["findings"] if not f["waived"]]
    assert set(finding) == {
        "rule", "path", "line", "col", "message", "waived", "waive_reason",
    }
    assert finding["rule"] == "hygiene-mutable-default"
    assert finding["path"].endswith("bad_mutable_default.py")
    assert isinstance(finding["line"], int) and finding["line"] > 0
    assert payload["counts"] == {"hygiene-mutable-default": 1}
    assert payload["exit_code"] == 1


def test_cli_exit_codes_and_text(capsys, tmp_path):
    mod = _write_violating_tree(tmp_path)
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.repro-checks]\n")
    rc = cli_main([str(mod), "--config", str(pyproject)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "determinism-seedless-rng" in out

    mod.write_text(mod.read_text().replace("default_rng()", "default_rng(0)"))
    rc = cli_main([str(mod), "--config", str(pyproject)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 finding(s)" in out

    rc = cli_main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clock-raw-compare" in out


def test_cli_module_invocation_on_fixture():
    """`python -m repro.checks <bad fixture>` with the committed config."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.checks",
            str(FIXTURES / "bad_bare_except.py"),
            "--config", str(REPO / "pyproject.toml"),
        ],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    # The committed config excludes the fixture dir, so force a config
    # without the exclusion through a naked run in a temp cwd instead.
    assert proc.returncode == 0  # excluded => clean


def test_registry_is_complete():
    ids = set(all_rules())
    assert ids == {
        "determinism-random-module",
        "determinism-seedless-rng",
        "determinism-legacy-np-random",
        "determinism-wall-clock",
        "layering",
        "dead-public-name",
        "clock-raw-compare",
        "hygiene-mutable-default",
        "hygiene-bare-except",
        "hygiene-assert-validation",
        "hygiene-module-side-effect",
        "hygiene-shadow-builtin",
        "unused-import",
    }


def test_module_name_resolution():
    assert module_name_for(REPO / "src" / "repro" / "nn" / "init.py") == (
        "repro.nn.init"
    )
    assert module_name_for(REPO / "src" / "repro" / "__init__.py") == "repro"
    assert module_name_for(REPO / "benchmarks" / "bench_serving.py") is None
