"""Regenerate ``semimodule_golden.json``: seeded endpoint pairs with the
``SegmentSet.to_json()`` and ``components()`` of their semimodule segment.

The corpus pins the piece list, its order, every open/closed flag and the
component grouping, so a rewrite of the segment construction or of the
connectivity index can be checked byte for byte.  The stored results were
captured from the merge-based construction that the event sweep replaced;
regenerate only when a change of output is intended, and say why.

With ``--wide`` it writes ``semimodule_wide_golden.json`` instead: pairs
whose exponents leave the band above, at n = 1, 2, 3, 8 and 33 -- anywhere
in +-800, just above the overflow threshold log(float max) = 709.78, below
the underflow threshold (about -745), integers, and near 1e16, where one
float ulp of an exponent exceeds the step between two sweep events, so an
arc's two ends round to the same vector.  Per pair it also stores
``components(SegmentSet.from_json(...))`` and, per stage, the sorted
distinct ``MagnitudeRangeWarning`` messages.  That corpus was captured from
the event sweep on ``SElem``/``SVector`` values, before the sweep moved to
(sign, exponent) pairs.

    PYTHONPATH=src python tests/data/make_semimodule_golden.py [--wide]
"""

from __future__ import annotations

import json
import random
import sys
import warnings
from pathlib import Path

from smaxplus.algebra import EPS, ZERO, SElem, Sign
from smaxplus.connectivity import components
from smaxplus.metrics import MagnitudeRangeWarning, SVector
from smaxplus.segments import SegmentSet, semimodule_segment

OUT = Path(__file__).with_name("semimodule_golden.json")
WIDE_OUT = Path(__file__).with_name("semimodule_wide_golden.json")
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


WIDE_SEED = 20171004
WIDE_SIZES = ((1, 12), (2, 12), (3, 12), (8, 12), (33, 6))
WIDE_STYLES = ("wide", "saturating", "underflowing", "integers", "absorbed", "mixed")
HUGE = 10**16


def _wide_exp(rng, style):
    if style == "mixed":
        style = rng.choice(WIDE_STYLES[:-1])
    if style == "wide":
        return rng.uniform(-800.0, 800.0)
    if style == "saturating":
        # around the overflow threshold, against small partners, so scaled
        # copies cross it during the sweep
        return rng.uniform(709.0, 712.0) if rng.random() < 0.6 else rng.uniform(-3.0, 3.0)
    if style == "underflowing":
        return rng.uniform(-760.0, -740.0) if rng.random() < 0.6 else rng.uniform(-3.0, 3.0)
    if style == "integers":
        return rng.choice((rng.randint(-800, 800), rng.randint(705, 714), rng.randint(-750, -740)))
    # near 1e16 the float spacing is 2, while events between small
    # exponents are fractions apart
    if rng.random() < 0.6:
        return float(HUGE + rng.randint(-4, 4))
    return rng.choice((rng.randint(-3, 3), rng.uniform(-3.0, 3.0)))


def _halves(rng):
    k = rng.randint(-3, 3)
    return k // 2 if k % 2 == 0 else k / 2


def _absorbed_exps(rng):
    # one coordinate's exponent pair: both near 1e16 at even offsets (so
    # their events are even integers), both small half-integers, or a huge
    # one against a zero or a small one.  A half-integer event just above
    # a huge pair's event rounds that pair's scaled exponent onto its
    # partner's, which makes the arc between the two events one point
    u = rng.random()
    if u < 0.45:
        return float(HUGE + 2 * rng.randint(-1, 1)), float(HUGE + 2 * rng.randint(-1, 1))
    if u < 0.8:
        return _halves(rng), _halves(rng)
    pair = (float(HUGE + 2 * rng.randint(-1, 1)), EPS if u < 0.9 else _halves(rng))
    return pair if rng.random() < 0.5 else pair[::-1]


def _wide_pair(rng, n, style):
    def elem(exp):
        if exp is EPS:
            return ZERO
        return SElem(Sign.BALANCED if rng.random() < 0.2 else rng.choice(SIGNS[:2]), exp)

    if style == "absorbed":
        pairs = [_absorbed_exps(rng) for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            # plant the pattern: events -2 (absorbed) just below -1.5
            i, j = rng.sample(range(n), 2)
            low = _halves(rng)
            pairs[i], pairs[j] = (float(HUGE + 2), float(HUGE)), (low + 1.5, low)
    else:
        pairs = [
            tuple(EPS if rng.random() < 0.1 else _wide_exp(rng, style) for _ in "ab")
            for _ in range(n)
        ]
    return tuple(SVector(tuple(elem(e) for e in side)) for side in zip(*pairs))


def _warned(fn, *args):
    """fn(*args) and the sorted distinct MagnitudeRangeWarning messages it
    emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted({str(w.message) for w in caught if w.category is MagnitudeRangeWarning})


def wide_entry(a, b):
    """The stored record of one pair."""
    seg, seg_warnings = _warned(semimodule_segment, a, b)
    data = seg.to_json()
    groups, groups_warnings = _warned(components, seg)
    loaded, loaded_warnings = _warned(components, SegmentSet.from_json(data))
    return {
        "segment": data,
        "components": groups,
        "components_from_json": loaded,
        "warnings": {
            "segment": seg_warnings,
            "components": groups_warnings,
            "components_from_json": loaded_warnings,
        },
    }


def build_wide():
    rng = random.Random(WIDE_SEED)
    entries = []
    for n, count in WIDE_SIZES:
        for k in range(count):
            style = WIDE_STYLES[k % len(WIDE_STYLES)]
            a, b = _wide_pair(rng, n, style)
            entries.append({"style": style, "a": a.to_json(), "b": b.to_json(), **wide_entry(a, b)})
    return entries


if __name__ == "__main__":
    wide = sys.argv[1:] == ["--wide"]
    entries = build_wide() if wide else build()
    out = WIDE_OUT if wide else OUT
    out.write_text(json.dumps(entries, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} pairs to {out}")
