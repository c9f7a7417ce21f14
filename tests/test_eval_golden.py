"""Byte-level regression corpus for ``eval_expr``: values of seeded
expressions, and the exception class, message and position of malformed
and edge inputs (regenerate with ``tests/data/make_eval_golden.py``)."""

import json
from pathlib import Path

import pytest

from smaxplus import eval_expr

CORPUS = json.loads((Path(__file__).parent / "data" / "eval_golden.json").read_text())


def _matches(entry) -> bool:
    try:
        got = {"result": eval_expr(entry["source"], entry["mode"]).to_json()}
    except ValueError as exc:
        pos = getattr(exc, "pos", None)
        expected = entry.get("error")
        if expected is None or type(exc).__name__ != expected["class"]:
            return False
        if expected["pos"] is None and pos is not None:
            # nesting too deep: captured when the position depended on the
            # caller's stack depth, so pin the message and that it points
            # into the source (test_exprs.py pins the position itself)
            return str(exc) == f"{expected['message']} (at position {pos})" and 0 <= pos < len(entry["source"])
        got = {"error": {"class": type(exc).__name__, "message": str(exc), "pos": pos}}
    expected = {key: entry[key] for key in ("result", "error") if key in entry}
    return json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("group", ["seeded", "edge"])
def test_eval_matches_corpus(group):
    mismatched = [k for k, entry in enumerate(CORPUS) if entry["group"] == group and not _matches(entry)]
    assert mismatched == []


def test_corpus_covers_both_modes_every_size_and_the_edges():
    seeded = [e for e in CORPUS if e["group"] == "seeded" and "result" in e]
    assert len(seeded) == 600
    assert {(e["mode"], e["leaves"]) for e in seeded} == {
        (mode, n) for mode in ("mpa", "smpa") for n in (1, 2, 8, 20)
    }
    edges = [e for e in CORPUS if e["group"] == "edge"]
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
