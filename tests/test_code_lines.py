"""``scripts/code_lines.py`` counts the lines that hold code, run as CI runs it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "code_lines.py"

SOURCE = '''\
"""Module docstring,
two lines."""

import os  # a comment


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring."""
        text = """a string
        that is no docstring"""
        return (os,
                text)
'''


def test_counts_code_lines_outside_docstrings(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    )
    # import, class, def, both lines of the string, both lines of the return
    assert run.stdout.split() == ["7", f"{tmp_path}/a.py", "0", f"{tmp_path}/empty.py", "7", "total"]
