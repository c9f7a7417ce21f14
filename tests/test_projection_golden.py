"""Byte-level regression corpus for ray-set and segment-set projections
(regenerate with ``tests/data/make_projection_golden.py``)."""

import pytest

from golden import ANSWERS, CORPUS, assert_matches, group, make_projection_golden

NAME = "projection_golden.json"


@pytest.mark.parametrize("name", ["ray", "segment"])
def test_projections_match_corpus(name):
    cases = group(NAME, name)
    assert len(cases) == 240
    assert_matches(NAME, cases)


def test_pinned_line_sets_match_corpus():
    # the stored pinned cases are those the make script lists, so a refresh
    # that takes them from it again changes only what the list changes
    cases = group(NAME, "pinned")
    assert [{key: e[key] for key in e.keys() - ANSWERS} for e in cases] == make_projection_golden._pinned()
    assert_matches(NAME, cases)


def test_corpus_covers_ties_and_unattained_infima():
    corpus = CORPUS[NAME]
    results = [e["result"] for e in corpus if "result" in e]
    assert any(len(r["points"]) == 3 for r in results)
    assert any(len(r["points"]) == 2 for r in results)
    assert sum("error" in e for e in corpus) >= 5
    assert {e["kind"] for e in group(NAME, "segment")} == {
        "semimodule",
        "traditional",
        "geometric",
    }
