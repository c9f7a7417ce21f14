"""Regenerate ``membership_golden.json``: seeded endpoint pairs with queries
and the membership answers of the pair's segments.

Per pair ``(a, b)`` it builds two segment sets, ``semimodule_segment(a, b)``
and ``as_segment_set(geometric_segment(a, b))``, and queries both with the
same points: each point piece, each arc's ``point_at(t)`` for t in
{0, 0.25, 0.5, 0.75, 1} (of both sets), each geodesic vertex, and random
vectors.  For every query it stores the booleans of ``SegmentSet.contains``
on both sets and of ``d_segment_contains(a, b, query, mid)`` under
``rho02``, ``rho12`` and ``rho22``.  It stores no chord parameter, and no
query is placed near a piece's boundary on purpose: the answers pinned are
the ones every sensible tolerance gives.

The pairs are at n = 1, 2, 3 and 8, with exponents uniform in the bands
+-1 and +-3 and some zero coordinates.  Regenerate only when a change of
output is intended, and say why.

``outcome`` computes a stored pair's answers, per stored query, from its
stored endpoints and queries.  The build stores what it returns, and
``tests/test_membership_golden.py`` compares it with the file.

    PYTHONPATH=src python tests/data/make_membership_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from smaxplus.algebra import ZERO, SElem, Sign
from smaxplus.metrics import SVector, parse_metric_id
from smaxplus.segments import (
    ArcPiece, as_segment_set, d_segment_contains, geometric_segment, psi_inverse, semimodule_segment,
)

OUT = Path(__file__).with_name("membership_golden.json")
SEED = 20171104
SIGNS = (Sign.PLUS, Sign.MINUS, Sign.BALANCED)
BANDS = (1.0, 3.0)
# (dimension, number of pairs per band)
SIZES = ((1, 8), (2, 8), (3, 6), (8, 2))
TS = (0.0, 0.25, 0.5, 0.75, 1.0)
RANDOM_QUERIES = 4
METRICS = ("rho02", "rho12", "rho22")


def _vector(rng, n, band):
    return SVector(tuple(
        ZERO if rng.random() < 0.1 else SElem(rng.choice(SIGNS), rng.uniform(-band, band))
        for _ in range(n)
    ))


def queries(rng, a, b, band, sets, line):
    """(kind, point) pairs: the pieces' points, the geodesic's vertices
    and random vectors."""
    out = []
    for name, seg in sets:
        for piece in seg.pieces:
            if isinstance(piece, ArcPiece):
                out.extend((f"{name}-arc-{t}", piece.point_at(t)) for t in TS)
            else:
                out.append((f"{name}-point", piece.point))
    out.extend(("vertex", psi_inverse(line.chart, v)) for v in line.vertices)
    out.extend(("random", _vector(rng, len(a), band)) for _ in range(RANDOM_QUERIES))
    return out


def _sets(a, b):
    """The pair's geodesic, and its two segment sets by name."""
    line = geometric_segment(a, b)
    return line, (("semimodule", semimodule_segment(a, b)), ("geodesic", as_segment_set(line)))


def outcome(entry) -> dict:
    """The stored queries of one pair, each with its answers: ``contains``
    on both segment sets and ``d_segment_contains`` under each metric."""
    a, b = SVector.from_json(entry["a"]), SVector.from_json(entry["b"])
    _, sets = _sets(a, b)
    metrics = [parse_metric_id(code) for code in METRICS]
    answers = []
    for query in entry["queries"]:
        x = SVector.from_json(query["x"])
        answers.append({
            **query,
            "contains": {name: seg.contains(x) for name, seg in sets},
            "between": {code: d_segment_contains(a, b, x, mid) for code, mid in zip(METRICS, metrics)},
        })
    return {"queries": answers}


def entry(rng, a, b, band):
    """The stored record of one pair."""
    line, sets = _sets(a, b)
    pair = {
        "band": band,
        "a": a.to_json(),
        "b": b.to_json(),
        "queries": [{"kind": kind, "x": x.to_json()} for kind, x in queries(rng, a, b, band, sets, line)],
    }
    return {**pair, **outcome(pair)}


def build():
    rng = random.Random(SEED)
    entries = []
    for band in BANDS:
        for n, count in SIZES:
            for _ in range(count):
                a, b = _vector(rng, n, band), _vector(rng, n, band)
                entries.append(entry(rng, a, b, band))
    return entries


if __name__ == "__main__":
    entries = build()
    OUT.write_text(json.dumps(entries, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} pairs, {sum(len(e['queries']) for e in entries)} queries to {OUT}")
