"""Tests for the ``python -m repro.analysis`` command-line interface."""

from repro.analysis.__main__ import build_registry, main


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        registry = build_registry(quick=True)
        for name in ("fig1b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
                     "fig7b", "fig8", "fig9", "table1", "table2", "table3",
                     "noise"):
            assert name in registry

    def test_ablations_present(self):
        registry = build_registry(quick=True)
        assert any(n.startswith("ablation-") for n in registry)


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table2" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fast_experiment(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "==== fig9" in out
        assert "sram" in out

    def test_run_multiple(self, capsys):
        assert main(["table2", "fig1b"]) == 0
        out = capsys.readouterr().out
        assert "==== table2" in out and "==== fig1b" in out

    def test_quick_accuracy_experiment(self, capsys):
        assert main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
