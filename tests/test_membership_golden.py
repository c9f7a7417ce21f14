"""Regression corpus for segment membership and metric betweenness
(regenerate with ``tests/data/make_membership_golden.py``)."""

import pytest

from golden import CORPUS, assert_matches

NAME = "membership_golden.json"


def _case_id(entry):
    return f"band{entry['band']:g}-n{len(entry['a']['coords'])}"


@pytest.mark.parametrize("entry", CORPUS[NAME], ids=map(_case_id, CORPUS[NAME]))
def test_membership_matches_corpus(entry):
    # point pieces, arc points at t in {0, 0.25, 0.5, 0.75, 1}, geodesic
    # vertices and random vectors, at bands +-1 and +-3: the same answers of
    # contains on both segments and of d_segment_contains under three metrics
    assert_matches(NAME, [entry])
