"""Byte-level regression corpus for semimodule segments and their
components (regenerate with ``tests/data/make_semimodule_golden.py``)."""

import json
from pathlib import Path

import pytest

from smaxplus import SVector, SegmentSet, components, semimodule_segment

CORPUS = json.loads((Path(__file__).parent / "data" / "semimodule_golden.json").read_text())


def _case_id(entry):
    return f"n{len(entry['a']['coords'])}-{entry['style']}"


@pytest.mark.parametrize("entry", CORPUS, ids=[_case_id(e) for e in CORPUS])
def test_segment_and_components_match_corpus(entry):
    a = SVector.from_json(entry["a"])
    b = SVector.from_json(entry["b"])
    seg = semimodule_segment(a, b)
    assert json.dumps(seg.to_json(), sort_keys=True) == json.dumps(entry["segment"], sort_keys=True)
    assert components(seg) == entry["components"]
    # a set rebuilt from JSON takes the same path through components()
    assert components(SegmentSet.from_json(entry["segment"])) == entry["components"]

