"""Count code lines: the lines of a module that are not docstrings, comments
or blank.

A docstring is the string literal that opens a module, class or function
body; every line it spans is left out, found from the `ast` spans of the
literal.  A comment line is one whose first non-blank character is `#`.
Every other line with any text counts, continuation lines included.

    python tools/code_lines.py

It prints one line per module under src/, then the total.  Only the
standard library is used.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by the docstrings of a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """Lines of `source` that are not docstrings, comments or blank."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
