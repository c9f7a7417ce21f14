"""Byte-level regression corpora for semimodule segments and their
components (regenerate with ``tests/data/make_semimodule_golden.py``)."""

import pytest

from golden import CORPUS, assert_matches, pair_id
from smaxplus import SegmentSet, components

NAME = "semimodule_golden.json"
WIDE = "semimodule_wide_golden.json"


@pytest.mark.parametrize("entry", CORPUS[NAME], ids=map(pair_id, CORPUS[NAME]))
def test_segment_and_components_match_corpus(entry):
    assert_matches(NAME, [entry])
    # a set rebuilt from JSON takes the same path through components()
    assert components(SegmentSet.from_json(entry["segment"])) == entry["components"]


@pytest.mark.parametrize("entry", CORPUS[WIDE], ids=map(pair_id, CORPUS[WIDE]))
def test_wide_magnitudes_match_corpus(entry):
    # exponents in +-800, past the overflow and underflow thresholds and
    # near 1e16: the same pieces, groups and distinct warnings per stage
    assert_matches(WIDE, [entry])
