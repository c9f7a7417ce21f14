"""Byte-level regression corpus for geodesics and the components of a
geodesic viewed as a segment set (regenerate with
``tests/data/make_geometric_golden.py``)."""

import pytest

from golden import CORPUS, assert_matches, pair_id

NAME = "geometric_golden.json"


@pytest.mark.parametrize("entry", CORPUS[NAME], ids=map(pair_id, CORPUS[NAME]))
def test_geodesic_and_components_match_corpus(entry):
    # bands +-3 to +-300, magnitudes 720 to 800, zeros, saturating and
    # underflowing coordinates, and lengths that depend on how the squares
    # are taken: the same vertices, length, groups and distinct warnings
    assert_matches(NAME, [entry])
