"""Byte-level regression corpus for ``eval_expr``: values of seeded
expressions, and the exception class, message and position of malformed
and edge inputs (regenerate with ``tests/data/make_eval_golden.py``)."""

import pytest

from golden import CORPUS, assert_matches, group
from make_eval_golden import DEPTH_ERROR
from smaxplus import eval_expr

NAME = "eval_golden.json"


@pytest.mark.parametrize("name", ["seeded", "edge"])
def test_eval_matches_corpus(name):
    assert_matches(NAME, group(NAME, name))


def test_corpus_covers_both_modes_every_size_and_the_edges():
    seeded = [e for e in group(NAME, "seeded") if "result" in e]
    assert len(seeded) == 600
    assert {(e["mode"], e["leaves"]) for e in seeded} == {
        (mode, n) for mode in ("mpa", "smpa") for n in (1, 2, 8, 20)
    }
    edges = group(NAME, "edge")
    assert len(edges) >= 50
    messages = " ".join(e["error"]["message"] for e in edges if "error" in e)
    for fragment in (
        "unexpected character",
        "unexpected end of input",
        "missing ')'",
        "missing exponent",
        "exponent must be an integer literal",
        "signed literal in mpa mode",
        "nested too deeply",
        "integer literal too long",
        "int too large to convert to float",
        "no multiplicative inverse",
    ):
        assert fragment in messages
    assert any(e["source"] == "" for e in edges)
    assert any("\t" in e["source"] and "\n" in e["source"] and "result" in e for e in edges)


def test_a_depth_error_points_into_its_source():
    # nesting too deep: captured when the position depended on the caller's
    # stack depth, so the corpus pins the message and this that it points
    # into the source (test_exprs.py pins the position itself)
    deep = [e for e in CORPUS[NAME] if e.get("error", {}).get("message") == DEPTH_ERROR]
    assert deep
    for entry in deep:
        with pytest.raises(ValueError) as caught:
            eval_expr(entry["source"], entry["mode"])
        pos = caught.value.pos
        assert str(caught.value) == f"{entry['error']['message']} (at position {pos})"
        assert 0 <= pos < len(entry["source"])
