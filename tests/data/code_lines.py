"""Print the code lines of each module in a source tree: the lines that
hold a token, without blank lines, comments or docstrings.

    python tests/data/code_lines.py [src/smaxplus]

A module is a ``.py`` file anywhere under the tree, named by its path
relative to it; a package's ``__init__.py`` is named by its directory.  A
token that spans lines (a string) counts each line it spans.  A docstring
is a string statement that opens a module, class or function body.  The
last line is the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
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
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    tree = Path(args[0]) if args else ROOT / "src" / "smaxplus"
    total = 0
    for path in sorted(tree.rglob("*.py")):
        name = path.relative_to(tree).with_suffix("")
        if name.name == "__init__" and name.parent.parts:
            name = name.parent
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {name.as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
