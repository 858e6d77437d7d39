"""Count the code lines of Python files: lines that hold a token other than
a comment, a docstring or layout (blank lines, line breaks, indentation).

    python tools/code_lines.py src/casimir/*.py

prints each file's count and, for more than one file, the total.  A
docstring is the string that opens a module, class or function body.
"""

from __future__ import annotations

import ast
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """Number of lines of the file at path that hold code."""
    with open(path, "rb") as f:
        source = f.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with open(path, "rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> int:
    counts = [(path, code_lines(path)) for path in paths]
    for path, n in counts:
        print(f"{n:6d} {path}")
    if len(counts) > 1:
        print(f"{sum(n for _, n in counts):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
