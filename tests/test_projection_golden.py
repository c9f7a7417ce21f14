"""Byte-level regression corpus for ray-set and segment-set projections
(regenerate with ``tests/data/make_projection_golden.py``)."""

import json
from pathlib import Path

import pytest

from smaxplus import RaySet, SegmentSet, SElem, project_ray, project_segment_set

CORPUS = json.loads((Path(__file__).parent / "data" / "projection_golden.json").read_text())
PROJECT = {
    "ray": (RaySet.from_json, project_ray),
    "segment": (SegmentSet.from_json, project_segment_set),
}


def _outcome(entry) -> dict:
    load, project = PROJECT[entry["group"]]
    try:
        return {"result": project(SElem.from_json(entry["x"]), load(entry["set"]), entry["base"]).to_json()}
    except ValueError as exc:
        return {"error": str(exc)}


@pytest.mark.parametrize("group", sorted(PROJECT))
def test_projections_match_corpus(group):
    cases = [e for e in CORPUS if e["group"] == group]
    assert len(cases) == 240
    mismatched = []
    for k, entry in enumerate(cases):
        expected = {key: entry[key] for key in ("result", "error") if key in entry}
        if json.dumps(_outcome(entry), sort_keys=True) != json.dumps(expected, sort_keys=True):
            mismatched.append(k)
    assert mismatched == []


def test_corpus_covers_ties_and_unattained_infima():
    results = [e["result"] for e in CORPUS if "result" in e]
    assert any(len(r["points"]) == 3 for r in results)
    assert any(len(r["points"]) == 2 for r in results)
    assert sum("error" in e for e in CORPUS) >= 5
    assert {e["kind"] for e in CORPUS if e["group"] == "segment"} == {
        "semimodule",
        "traditional",
        "geometric",
    }
