#!/usr/bin/env python3
"""Count the code lines of each module of the package and their total.

    python3 scripts/code_lines.py

It counts the modules of src/symkrylov.  A code line is a non-blank line that is
neither a comment nor part of a docstring (the string that opens a
module, class or function body); a line that holds code and a trailing
comment counts.  This is the measure the CHANGES.md entries and the
ROADMAP quote as "code lines".  One line per module, sorted by name,
then the total.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def report(directory: str) -> None:
    """Print the code lines of each module in directory, then the total."""
    total = 0
    for name in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{name:24} {count:6}")
        total += count
    print(f"{'total':24} {total:6}")


if __name__ == "__main__":
    report(os.path.join(ROOT, "src", "symkrylov"))
