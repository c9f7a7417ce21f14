"""Print the code lines of each module in a source tree: the lines that
hold a token, without blank lines, comments or docstrings.

    python tests/data/code_lines.py [src/smaxplus] [--base REV]

A module is a ``.py`` file anywhere under the tree, named by its path
relative to it; a package's ``__init__.py`` is named by its directory.  A
token that spans lines (a string) counts each line it spans.  A docstring
is a string statement that opens a module, class or function body.  The
last line is the total.

With ``--base REV`` the tree, which must lie inside this repository, is
also counted as it is at the revision ``REV``, in an export made by
``_revision.exported``, and each module's count there is printed beside the
working tree's (``-`` where a side lacks the module), with both totals
last.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

from _revision import ROOT, exported

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


def _module_name(relative: Path) -> str:
    name = relative.with_suffix("")
    if name.name == "__init__" and name.parent.parts:
        name = name.parent
    return name.as_posix()


def tree_counts(tree: Path) -> dict:
    """Module name -> code lines, for the modules under ``tree``."""
    return {_module_name(path.relative_to(tree)): code_lines(path.read_text(encoding="utf-8"))
            for path in tree.rglob("*.py")}


def revision_counts(tree: Path, rev: str) -> dict:
    """Module name -> code lines, for ``tree`` at the revision ``rev``."""
    resolved = tree.resolve()
    if not resolved.is_relative_to(ROOT):
        sys.exit(f"--base needs a tree inside the repository {ROOT}, got {tree}")
    prefix = resolved.relative_to(ROOT).as_posix()
    with exported(rev, prefix) as export:
        return tree_counts(export / prefix)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Code lines per module of a source tree.")
    parser.add_argument("tree", nargs="?", type=Path, default=ROOT / "src" / "smaxplus")
    parser.add_argument("--base", metavar="REV", help="also count the tree at this revision")
    args = parser.parse_args(argv)
    work = tree_counts(args.tree)
    if args.base is None:
        for name in sorted(work):
            print(f"{work[name]:6d}  {name}")
        print(f"{sum(work.values()):6d}  total")
        return 0
    base = revision_counts(args.tree, args.base)
    print(f"{'base':>6}  {'work':>6}  module")
    for name in sorted(base.keys() | work.keys()):
        print(f"{base.get(name, '-'):>6}  {work.get(name, '-'):>6}  {name}")
    print(f"{sum(base.values()):6d}  {sum(work.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
