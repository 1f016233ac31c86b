"""scripts/code_lines.py counts what is neither blank, comment nor docstring."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURE = '''"""Module docstring,
two lines."""

import math  # a trailing comment leaves a code line

# a comment line


class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring."""
        text = """a string that
        is no docstring"""
        return math.hypot(1.0,
                          2.0), text
'''


def load():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "scripts", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts_code_lines_only():
    # import, class, def, the two lines of the non-docstring string and
    # the two of the return
    assert load().code_lines(FIXTURE) == 7


def test_report_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# comment\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    load().report(str(tmp_path))
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "1"], ["b.py", "7"], ["total", "8"]]
