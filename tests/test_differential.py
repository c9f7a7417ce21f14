"""Smoke test of the suites of ``tests/data/differential.py``, which pytest
does not collect: each suite's ``record`` still runs on this checkout, and
what it returns is JSON-able and the same on a second run, so a suite that
no longer fits the library shows here rather than when a change needs its
gate."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "data"))

from differential import SUITES  # noqa: E402

# the first five segment cases of seed 22 include two one-coordinate pairs,
# whose records hold the SVG and line-projection fields too
SEED = 22


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_records_are_json_and_repeatable(suite):
    cases, record, _ = SUITES[suite]
    runs = [[json.dumps(record(case), sort_keys=True) for case in cases(5, SEED)] for _ in range(2)]
    assert len(runs[0]) == 5
    assert runs[0] == runs[1]
