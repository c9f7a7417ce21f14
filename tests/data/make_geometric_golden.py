"""Regenerate ``geometric_golden.json``: seeded endpoint pairs with the
``BrokenLine.to_json()`` of their geodesic, the ``components()`` of the
line viewed as a segment set (``as_segment_set``, also after a JSON round
trip) and, per stage, the sorted distinct ``MagnitudeRangeWarning``
messages.

The pairs are at n = 1, 2, 3, 8, 16 and 33, with exponents in the bands
+-3, +-30 and +-300, at magnitudes 720 to 800 on either side of 0, with
zero coordinates, just above the overflow threshold log(float max) =
709.78 (saturating) and below the underflow threshold (about -745).  A
last group holds pairs whose geodesic length changes when the legs'
squares are taken as ``x * x`` instead of ``x ** 2`` (the two differ in
the last bit for about one float in a thousand); they are found by a
seeded search, so the corpus pins the squaring as well as the sums.

The corpus pins the crossing parameters, every vertex, the length and
the component grouping, so a rewrite of the geodesic or of the
connectivity index can be checked byte for byte.  Regenerate only when a
change of output is intended, and say why.

``outcome`` computes a stored pair's answer fields from its stored
endpoints.  The build stores what it returns, and
``tests/test_geometric_golden.py`` compares it with the file.

    PYTHONPATH=src python tests/data/make_geometric_golden.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from make_semimodule_golden import _warned
from smaxplus import ZERO, SegmentSet, SElem, Sign, SVector, as_segment_set, components, geometric_segment

OUT = Path(__file__).with_name("geometric_golden.json")
SEED = 20171019
SIGNS = (Sign.PLUS, Sign.MINUS, Sign.BALANCED)
# (dimension, number of pairs)
SIZES = ((1, 16), (2, 16), (3, 16), (8, 16), (16, 8), (33, 8))
STYLES = ("band3", "band30", "band300", "far", "zeros", "saturating", "underflowing", "mixed")
# pairs in the last group, and the most candidates searched for them
SQUARES, SQUARES_SEARCH = 8, 200_000


def _exp(rng, style):
    if style == "mixed":
        style = rng.choice(STYLES[:-1])
    if style in ("band3", "zeros"):
        return rng.uniform(-3.0, 3.0)
    if style == "band30":
        return rng.uniform(-30.0, 30.0)
    if style == "band300":
        return rng.uniform(-300.0, 300.0)
    if style == "far":
        return rng.choice((1.0, -1.0)) * rng.uniform(720.0, 800.0)
    if style == "saturating":
        return rng.uniform(709.78, 712.0) if rng.random() < 0.6 else rng.uniform(-3.0, 3.0)
    # underflowing
    return rng.uniform(-760.0, -745.2) if rng.random() < 0.6 else rng.uniform(-3.0, 3.0)


def _pair(rng, n, style):
    zero_p = 0.3 if style == "zeros" else 0.05

    def elem():
        if rng.random() < zero_p:
            return ZERO
        return SElem(rng.choice(SIGNS), _exp(rng, style))

    a, b = [elem() for _ in range(n)], [elem() for _ in range(n)]
    if style == "zeros" and n > 1:
        # at least one coordinate zero in both endpoints
        i = rng.randrange(n)
        a[i] = b[i] = ZERO
    return SVector(tuple(a)), SVector(tuple(b))


def _squared_by_multiplying(line) -> float:
    """The geodesic length with each leg's squares taken as ``d * d``; only
    for in-range pairs, where no leg needs a rescale."""
    v = line.vertices
    return sum(math.sqrt(sum((x - y) * (x - y) for x, y in zip(p, q))) for p, q in zip(v, v[1:]))


def _square_pairs():
    """Seeded pairs (n cycling over SIZES, exponents in +-3 or +-30) whose
    length depends on how the squares are taken."""
    rng = random.Random(SEED + 1)
    found = []
    for k in range(SQUARES_SEARCH):
        n = SIZES[k % len(SIZES)][0]
        style = "band3" if k % 2 else "band30"
        a, b = _pair(rng, n, style)
        if _squared_by_multiplying(geometric_segment(a, b)) != geometric_segment(a, b).length:
            found.append((style, a, b))
            if len(found) == SQUARES:
                return found
    raise RuntimeError(f"found {len(found)} of {SQUARES} pairs in {SQUARES_SEARCH} candidates")


def outcome(entry) -> dict:
    """The stored answer of one pair: the geodesic, the components of the
    line as a segment set and of its JSON round trip, and each stage's
    warnings."""
    a, b = SVector.from_json(entry["a"]), SVector.from_json(entry["b"])
    line, line_warnings = _warned(geometric_segment, a, b)
    seg = as_segment_set(line)
    groups, groups_warnings = _warned(components, seg)
    loaded, loaded_warnings = _warned(components, SegmentSet.from_json(seg.to_json()))
    return {
        "line": line.to_json(),
        "components": groups,
        "components_from_json": loaded,
        "warnings": {
            "line": line_warnings,
            "components": groups_warnings,
            "components_from_json": loaded_warnings,
        },
    }


def entry(style, a, b) -> dict:
    """The stored record of one pair."""
    pair = {"style": style, "a": a.to_json(), "b": b.to_json()}
    return {**pair, **outcome(pair)}


def build():
    rng = random.Random(SEED)
    entries = []
    for n, count in SIZES:
        for k in range(count):
            style = STYLES[k % len(STYLES)]
            entries.append(entry(style, *_pair(rng, n, style)))
    for style, a, b in _square_pairs():
        entries.append(entry(f"squares-{style}", a, b))
    return entries


if __name__ == "__main__":
    entries = build()
    OUT.write_text(json.dumps(entries, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} pairs to {OUT}")
