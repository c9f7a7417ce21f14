"""Byte-level regression corpus for the max-combine box projection
(regenerate with ``tests/data/make_box_max_golden.py``)."""

import pytest

from golden import CORPUS, assert_matches, group

NAME = "box_max_golden.json"


@pytest.mark.parametrize("name", ["n1", "n2", "n3", "pinned", "fine"])
def test_box_max_matches_corpus(name):
    assert_matches(NAME, group(NAME, name))


def test_corpus_covers_the_box_max_cases():
    corpus = CORPUS[NAME]
    assert {e["group"] for e in corpus} == {"n1", "n2", "n3", "pinned", "fine"}
    coarse = [e for e in corpus if e["group"] != "fine"]
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
    errors = [e["error"] for e in corpus if "error" in e]
    assert any("too large" in err for err in errors)
    assert any("no point of magnitude" in err for err in errors)


def test_corpus_covers_the_fine_sampler_cases():
    fine = group(NAME, "fine")
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
