"""Byte-level regression corpora for semimodule segments and their
components (regenerate with ``tests/data/make_semimodule_golden.py``)."""

import json
import warnings
from pathlib import Path

import pytest

from smaxplus import MagnitudeRangeWarning, SVector, SegmentSet, components, semimodule_segment

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "semimodule_golden.json").read_text())
WIDE = json.loads((DATA / "semimodule_wide_golden.json").read_text())


def _case_id(entry):
    return f"n{len(entry['a']['coords'])}-{entry['style']}"


def _dump(data):
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("entry", CORPUS, ids=[_case_id(e) for e in CORPUS])
def test_segment_and_components_match_corpus(entry):
    a = SVector.from_json(entry["a"])
    b = SVector.from_json(entry["b"])
    seg = semimodule_segment(a, b)
    assert json.dumps(seg.to_json(), sort_keys=True) == json.dumps(entry["segment"], sort_keys=True)
    assert components(seg) == entry["components"]
    # a set rebuilt from JSON takes the same path through components()
    assert components(SegmentSet.from_json(entry["segment"])) == entry["components"]


def _warned(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted({str(w.message) for w in caught if w.category is MagnitudeRangeWarning})


@pytest.mark.parametrize("entry", WIDE, ids=[_case_id(e) for e in WIDE])
def test_wide_magnitudes_match_corpus(entry):
    # exponents in +-800, past the overflow and underflow thresholds and
    # near 1e16: the same pieces, groups and distinct warnings per stage
    a = SVector.from_json(entry["a"])
    b = SVector.from_json(entry["b"])
    seg, seg_warnings = _warned(semimodule_segment, a, b)
    data = seg.to_json()
    assert _dump(data) == _dump(entry["segment"])
    groups, groups_warnings = _warned(components, seg)
    loaded, loaded_warnings = _warned(components, SegmentSet.from_json(data))
    assert groups == entry["components"]
    assert loaded == entry["components_from_json"]
    assert {
        "segment": seg_warnings,
        "components": groups_warnings,
        "components_from_json": loaded_warnings,
    } == entry["warnings"]
