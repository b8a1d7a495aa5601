"""The line-reach tracer of ``benchmarks/reach.py`` on a fixture module."""

import textwrap

from benchmarks.reach import measure, render

FIXTURE = textwrap.dedent(
    """\
    def called(x):
        if x > 0:
            return "positive"
        return "other"


    def uncalled():
        total = 0
        for i in range(3):
            total += i
        return total


    class Box:
        def size(self):
            return len([i for i in range(2)])
    """
)
MAIN = textwrap.dedent(
    """\
    import sys

    from fixpkg.mod import Box, called

    called(1)
    Box().size()
    sys.exit(3)
    """
)


def _report(tmp_path):
    entries = [("python main.py", ("main.py",), {}, 3)]
    return measure(entries, tmp_path, "fixpkg", tmp_path)


def test_report_names_the_uncalled_function_and_unreached_lines(tmp_path):
    (tmp_path / "fixpkg").mkdir()
    (tmp_path / "fixpkg" / "__init__.py").write_text("")
    (tmp_path / "fixpkg" / "mod.py").write_text(FIXTURE)
    (tmp_path / "main.py").write_text(MAIN)

    first = _report(tmp_path)
    assert first["entry_points"] == ["python main.py"]
    assert first["never_entered"] == ["fixpkg.mod:uncalled 7-11"]
    # The untaken ``return "other"`` plus the four body lines of
    # ``uncalled``; its ``def`` line runs when the module is imported.
    assert first["modules"]["fixpkg.mod"] == {"executable": 12, "unreached": 5}
    assert first["modules"]["fixpkg"] == {"executable": 0, "unreached": 0}
    assert first["totals"] == {
        "executable_lines": 12,
        "unreached_lines": 5,
        "never_entered_functions": 1,
    }
    assert render(_report(tmp_path)).encode() == render(first).encode()
