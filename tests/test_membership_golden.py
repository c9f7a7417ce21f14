"""Regression corpus for segment membership and metric betweenness
(regenerate with ``tests/data/make_membership_golden.py``)."""

import json
from pathlib import Path

import pytest

from smaxplus import (
    SVector, as_segment_set, d_segment_contains, geometric_segment, parse_metric_id, semimodule_segment,
)

CORPUS = json.loads((Path(__file__).parent / "data" / "membership_golden.json").read_text())


def _case_id(entry):
    return f"band{entry['band']:g}-n{len(entry['a']['coords'])}"


@pytest.mark.parametrize("entry", CORPUS, ids=[_case_id(e) for e in CORPUS])
def test_membership_matches_corpus(entry):
    # point pieces, arc points at t in {0, 0.25, 0.5, 0.75, 1}, geodesic
    # vertices and random vectors, at bands +-1 and +-3: the same answers of
    # contains on both segments and of d_segment_contains under three metrics
    a = SVector.from_json(entry["a"])
    b = SVector.from_json(entry["b"])
    sets = {"semimodule": semimodule_segment(a, b), "geodesic": as_segment_set(geometric_segment(a, b))}
    for query in entry["queries"]:
        x = SVector.from_json(query["x"])
        assert {name: seg.contains(x) for name, seg in sets.items()} == query["contains"], query["kind"]
        between = {code: d_segment_contains(a, b, x, parse_metric_id(code)) for code in query["between"]}
        assert between == query["between"], query["kind"]
