#!/usr/bin/env python3
"""Count the code lines of Python modules.

    python scripts/code_lines.py [FILE ...]

A code line is a line that holds part of a token other than a comment,
and does not belong to a docstring (the string that opens a module, class
or function body). Blank lines, comment lines and docstrings are left
out; a statement spread over three lines counts three. Prints one
`<lines>  <file>` row per file and a total; with no files, counts every
module of src/jetforge.
"""

import ast
import glob
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = argv or sorted(glob.glob(os.path.join(ROOT, "src", "jetforge", "*.py")))
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
