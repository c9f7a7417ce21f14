"""Byte-level regression corpus for geodesics and the components of a
geodesic viewed as a segment set (regenerate with
``tests/data/make_geometric_golden.py``)."""

import json
import warnings
from pathlib import Path

import pytest

from smaxplus import (
    MagnitudeRangeWarning, SVector, SegmentSet, as_segment_set, components, geometric_segment,
)

CORPUS = json.loads((Path(__file__).parent / "data" / "geometric_golden.json").read_text())


def _case_id(entry):
    return f"n{len(entry['a']['coords'])}-{entry['style']}"


def _dump(data):
    return json.dumps(data, sort_keys=True)


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted({str(w.message) for w in caught if w.category is MagnitudeRangeWarning})


@pytest.mark.parametrize("entry", CORPUS, ids=[_case_id(e) for e in CORPUS])
def test_geodesic_and_components_match_corpus(entry):
    # bands +-3 to +-300, magnitudes 720 to 800, zeros, saturating and
    # underflowing coordinates, and lengths that depend on how the squares
    # are taken: the same vertices, length, groups and distinct warnings
    a = SVector.from_json(entry["a"])
    b = SVector.from_json(entry["b"])
    line, line_warnings = _warned(geometric_segment, a, b)
    assert _dump(line.to_json()) == _dump(entry["line"])
    seg = as_segment_set(line)
    groups, groups_warnings = _warned(components, seg)
    loaded, loaded_warnings = _warned(components, SegmentSet.from_json(seg.to_json()))
    assert groups == entry["components"]
    assert loaded == entry["components_from_json"]
    assert {
        "line": line_warnings,
        "components": groups_warnings,
        "components_from_json": loaded_warnings,
    } == entry["warnings"]
