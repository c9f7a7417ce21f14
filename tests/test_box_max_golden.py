"""Byte-level regression corpus for the max-combine box projection
(regenerate with ``tests/data/make_box_max_golden.py``)."""

import json
from pathlib import Path

import pytest

from smaxplus import BoxSet, SVector, project_box_max

CORPUS = json.loads((Path(__file__).parent / "data" / "box_max_golden.json").read_text())


def _outcome(entry) -> dict:
    x, A = SVector.from_json(entry["x"]), BoxSet.from_json(entry["box"])
    try:
        result = project_box_max(x, A, entry["base"], entry["resolution"], entry["max_magnitude"])
        return {"result": result.to_json()}
    except ValueError as exc:
        return {"error": str(exc)}


@pytest.mark.parametrize("group", ["n1", "n2", "n3", "pinned", "fine"])
def test_box_max_matches_corpus(group):
    cases = [e for e in CORPUS if e["group"] == group]
    assert cases
    mismatched = []
    for k, entry in enumerate(cases):
        expected = {key: entry[key] for key in ("result", "error") if key in entry}
        if json.dumps(_outcome(entry), sort_keys=True) != json.dumps(expected, sort_keys=True):
            mismatched.append(k)
    assert mismatched == []


def test_corpus_covers_the_box_max_cases():
    coarse = [e for e in CORPUS if e["group"] != "fine"]
    assert {e["resolution"] for e in coarse} == {0.05}
    assert {(len(e["x"]["coords"]), e["base"]) for e in coarse} == {
        (n, base) for n in (1, 2, 3) for base in (1, 2)
    }
    assert {t for e in coarse for t in e["tags"]} == {
        "cloud",
        "cut reaches the origin",
        "error",
        "origin-anchored factor",
        "truncated",
        "unbounded factor",
        "zero query",
    }
    errors = [e["error"] for e in CORPUS if "error" in e]
    assert any("too large" in err for err in errors)
    assert any("no point of magnitude" in err for err in errors)


def test_corpus_covers_the_fine_sampler_cases():
    fine = [e for e in CORPUS if e["group"] == "fine"]
    assert {(len(e["x"]["coords"]), e["base"], e["resolution"]) for e in fine} == {
        (n, base, res) for n in (1, 2) for base in (1, 2) for res in (0.01, 1e-3)
    }
    assert {t for e in fine for t in e["tags"]} >= {
        "exact point off the grid",
        "two cuts on one ray",
        "origin beside balanced samples",
        "radius near 1e15",
        "stalled samples",
        "tail clamp",
        "truncation cuts",
        "truncation keeps",
    }
