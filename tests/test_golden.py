"""Every golden corpus is checked: each ``tests/data/*_golden.json`` has an
outcome registered in ``golden.OUTCOMES``, and a ``test_*_golden.py``
module compares it with that outcome."""

from pathlib import Path

from golden import DATA, OUTCOMES


def test_every_corpus_has_an_outcome():
    # a corpus file with no outcome, or none of the test modules naming it,
    # would be checked by nothing
    assert sorted(path.name for path in DATA.glob("*_golden.json")) == sorted(OUTCOMES)
    modules = " ".join(path.read_text() for path in Path(__file__).parent.glob("test_*_golden.py"))
    assert [name for name in OUTCOMES if f'"{name}"' not in modules] == []
