"""Regenerate ``semimodule_golden.json``: seeded endpoint pairs with the
``SegmentSet.to_json()`` and ``components()`` of their semimodule segment.

The corpus pins the piece list, its order, every open/closed flag and the
component grouping, so a rewrite of the segment construction or of the
connectivity index can be checked byte for byte.  The stored results were
captured from the merge-based construction that the event sweep replaced;
regenerate only when a change of output is intended, and say why.

    PYTHONPATH=src python tests/data/make_semimodule_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from smaxplus.algebra import ZERO, SElem, Sign
from smaxplus.metrics import SVector
from smaxplus.segments import components, semimodule_segment

OUT = Path(__file__).with_name("semimodule_golden.json")
SEED = 20170822
SIGNS = (Sign.PLUS, Sign.MINUS, Sign.BALANCED)
# (dimension, number of pairs)
SIZES = ((1, 10), (2, 12), (3, 10), (4, 10), (8, 10), (16, 5), (32, 3))
STYLES = ("halves", "integers", "floats", "same_ray", "equal", "zeros", "balanced")


def _exp(rng, style):
    if style == "floats":
        return rng.uniform(-3.0, 3.0)
    if style == "integers":
        return rng.randint(-2, 2)
    # half-integers from a small pool, so several coordinates tie at one
    # event value and some ties fall at lam = 0; whole values stay ints
    k = rng.randint(-4, 4)
    return k // 2 if k % 2 == 0 else k / 2


def _elem(rng, style, sign=None, zero_p=0.0):
    if rng.random() < zero_p:
        return ZERO
    if sign is None:
        sign = Sign.BALANCED if style == "balanced" and rng.random() < 0.5 else rng.choice(SIGNS)
    return SElem(sign, _exp(rng, style))


def _pair(rng, n, style):
    zero_p = 0.3 if style == "zeros" else 0.05
    a = [_elem(rng, style, zero_p=zero_p) for _ in range(n)]
    if style == "equal":
        return SVector(tuple(a)), SVector(tuple(a))
    if style == "same_ray":
        # b on a's ray in every coordinate (a zero coordinate takes plus);
        # every third pair is a positive multiple of a
        if rng.random() < 0.34:
            shift = _exp(rng, "halves")
            b = [ZERO if c.is_zero else SElem(c.sign, c.exp + shift) for c in a]
        else:
            b = [_elem(rng, style, sign=(Sign.PLUS if c.is_zero else c.sign)) for c in a]
        return SVector(tuple(a)), SVector(tuple(b))
    b = [_elem(rng, style, zero_p=zero_p) for _ in range(n)]
    if style == "zeros" and n > 1:
        # at least one coordinate zero in both endpoints
        i = rng.randrange(n)
        a[i] = b[i] = ZERO
    return SVector(tuple(a)), SVector(tuple(b))


def build():
    rng = random.Random(SEED)
    entries = []
    for n, count in SIZES:
        for k in range(count):
            style = STYLES[k % len(STYLES)]
            a, b = _pair(rng, n, style)
            seg = semimodule_segment(a, b)
            entries.append(
                {
                    "style": style,
                    "a": a.to_json(),
                    "b": b.to_json(),
                    "segment": seg.to_json(),
                    "components": components(seg),
                }
            )
    return entries


if __name__ == "__main__":
    entries = build()
    OUT.write_text(json.dumps(entries, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} pairs to {OUT}")
