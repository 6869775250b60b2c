"""Count the code lines of a package's Python files.

A code line holds a token other than a comment, the end marker or a NL,
NEWLINE, INDENT or DEDENT token, outside the docstrings of the module, its
classes and its functions; a token spanning several lines, such as a triple-quoted
string, makes each of them a code line.  Blank lines, comments and
docstrings do not count.

Usage::

    python3 scripts/code_lines.py src/hcconfl            # the working tree
    python3 scripts/code_lines.py --rev origin/main src/hcconfl

With ``--rev`` the files are read from that revision through ``git show``.
Prints each file's count, then the total.  No module imports this script.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers the docstrings of ``source`` span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def sources(directory: str, rev: str | None) -> dict[str, str]:
    """The ``.py`` files directly in ``directory``, by path, and their text."""
    if rev is None:
        return {str(path): path.read_text() for path in sorted(Path(directory).glob("*.py"))}
    names = git("ls-tree", "--name-only", f"{rev}:{directory}").split()
    paths = [f"{directory.rstrip('/')}/{name}" for name in names if name.endswith(".py")]
    return {path: git("show", f"{rev}:{path}") for path in paths}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", help="directory whose .py files are counted")
    parser.add_argument("--rev", help="read the files at this git revision")
    args = parser.parse_args(argv)
    try:
        files = sources(args.directory, args.rev)
    except subprocess.CalledProcessError as exc:
        sys.exit(f"error: {' '.join(exc.cmd)} failed: {exc.stderr.strip()}")
    total = 0
    for path, source in files.items():
        count = code_lines(source)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
