"""No function body of the package reads ``Sign.PLUS``, ``Sign.MINUS`` or
``Sign.BALANCED``.

On Python 3.10 and 3.11 the Enum metaclass defines ``__getattr__``, so each
such read takes a Python-level hook, about ten times a global read.
Function bodies read the constants ``PLUS``, ``MINUS`` and ``BALANCED`` of
``smaxplus.algebra`` instead; module-level tables, built once, may name the
members.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smaxplus"
MEMBERS = ("PLUS", "MINUS", "BALANCED")


def _sign_reads_in_functions(source: str) -> list:
    """The line numbers of ``Sign.X`` reads inside function bodies."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (isinstance(node, ast.Attribute) and node.attr in MEMBERS
                        and isinstance(node.value, ast.Name) and node.value.id == "Sign"):
                    lines.add(node.lineno)
    return sorted(lines)


def test_the_scan_sees_reads_in_function_bodies_only():
    source = (
        "TABLE = {Sign.PLUS: 1}\n"
        "def f(x):\n"
        "    return x is Sign.MINUS\n"
        "class C:\n"
        "    def g(self):\n"
        "        return (lambda: Sign.BALANCED)()\n"
    )
    assert _sign_reads_in_functions(source) == [3, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_body_reads_a_sign_member(path):
    assert _sign_reads_in_functions(path.read_text()) == []
