"""Shared harness of the byte-level regression corpora,
``tests/data/*_golden.json``.

Each corpus's make script in ``tests/data`` has one ``outcome(entry)``
that computes a stored entry's answer fields from its stored inputs; the
script's build stores what it returns.  ``OUTCOMES`` registers each
corpus's outcome, and the ``test_<name>_golden.py`` modules compare every
stored entry with it through ``assert_matches``, per group or per entry.
Regenerate a corpus with its script (``PYTHONPATH=src python
tests/data/make_<name>_golden.py``), only when a change of output is
intended.
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))

import make_box_max_golden  # noqa: E402
import make_eval_golden  # noqa: E402
import make_geometric_golden  # noqa: E402
import make_membership_golden  # noqa: E402
import make_projection_golden  # noqa: E402
import make_semimodule_golden  # noqa: E402

# the stored fields an outcome computes; every other field is an input
ANSWERS = {"result", "error", "segment", "line", "components", "components_from_json", "warnings", "queries"}

OUTCOMES = {
    "box_max_golden.json": make_box_max_golden.outcome,
    "eval_golden.json": make_eval_golden.outcome,
    "geometric_golden.json": make_geometric_golden.outcome,
    "membership_golden.json": make_membership_golden.outcome,
    "projection_golden.json": make_projection_golden.outcome,
    "semimodule_golden.json": make_semimodule_golden.outcome,
    "semimodule_wide_golden.json": make_semimodule_golden.wide_outcome,
}
CORPUS = {name: json.loads((DATA / name).read_text()) for name in OUTCOMES}


def pair_id(entry):
    return f"n{len(entry['a']['coords'])}-{entry['style']}"


def group(name, group):
    """The entries of one group of a corpus."""
    return [entry for entry in CORPUS[name] if entry["group"] == group]


def _dump(data):
    return json.dumps(data, sort_keys=True)


def assert_matches(name, entries):
    """Each entry's stored answer fields are, byte for byte, its outcome."""
    assert entries
    got = [_dump(OUTCOMES[name](entry)) for entry in entries]
    assert got == [_dump({key: entry[key] for key in ANSWERS & entry.keys()}) for entry in entries]
