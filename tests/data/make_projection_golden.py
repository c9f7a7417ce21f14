"""Regenerate ``projection_golden.json``: seeded nearest-point queries with
their ``ProjectionResult.to_json()`` (or the error text when the infimum is
not attained).

Three groups of cases:

* ``ray``: ``project_ray`` under both base metrics on random ray sets, with
  origin-anchored, unbounded and ``[0, 0]`` intervals, zero queries and
  queries placed at interval ends.
* ``segment``: ``project_ray`` on one-coordinate segment sets built
  by ``semimodule_segment``, ``traditional_segment`` and
  ``as_segment_set(geometric_segment(...))``.  The set itself is stored as
  JSON, so the case pins the projection and not the segment construction.
* ``pinned``: a fixed list of hand-built one-coordinate segment sets
  (``_pinned``) whose pieces share points, as JSON pieces may and library
  constructions never do, so that the corpus pins how a segment set's
  index merges them: touching, overlapping, nested and open-open pieces,
  crossing arcs, a point piece with an int exponent inside and at the
  ends of an arc, ulp-wide gaps, the refused arc on a one-ray chart, and
  one-point arcs, half open and open.

The stored results were captured from the per-input candidate scoring that
the radial kernel replaced; regenerate only when a change of output is
intended, and say why.

    PYTHONPATH=src python tests/data/make_projection_golden.py [--refresh]

``outcome`` computes a stored case's ``result`` or ``error`` from its stored
query, set and base.  The build stores what it returns, and
``tests/test_projection_golden.py`` compares it with the file.

With ``--refresh`` it keeps the stored random cases, takes the pinned
ones from ``_pinned`` again, and recomputes only the outcomes, so that a
diff of the file shows just the outcomes and pinned cases that changed.
A full rebuild no longer draws the stored segment cases: the query draws
depend on the pieces of each segment set, and the segment constructions
have changed since the cases were drawn.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from smaxplus.algebra import RAYS, ZERO, SElem, Sign
from smaxplus.metrics import SVector
from smaxplus.projection import project_ray
from smaxplus.raysets import RaySet, point_on_ray
from smaxplus.segments import (
    ArcPiece,
    PointPiece,
    SegmentSet,
    as_segment_set,
    geometric_segment,
    semimodule_segment,
    traditional_segment,
)

OUT = Path(__file__).with_name("projection_golden.json")
SEED = 20170901
RAY_CASES = 240
SEGMENT_CASES = 240


def _exp(rng):
    style = rng.randrange(3)
    if style == 0:
        return rng.randint(-2, 2)
    if style == 1:
        return rng.randint(-6, 6) / 2
    return rng.uniform(-3.0, 3.0)


def _elem(rng, zero_p=0.1):
    if rng.random() < zero_p:
        return ZERO
    return SElem(rng.choice(RAYS), _exp(rng))


def _ray_set(rng) -> RaySet:
    if rng.random() < 0.2:
        # the same interval on two or three rays, so queries tie across rays
        lo = rng.choice((0.0, math.exp(_exp(rng))))
        iv = ((lo, lo * math.exp(rng.uniform(0.0, 1.0)) or 1.0),)
        rays = rng.sample(RAYS, rng.choice((2, 3)))
        return RaySet(*(iv if ray in rays else () for ray in RAYS))
    per_ray = {}
    for ray in RAYS:
        ivs = []
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            kind = rng.randrange(6)
            lo = math.exp(_exp(rng))
            hi = lo * math.exp(rng.uniform(0.0, 1.5))
            if kind == 0:
                lo = 0.0  # anchored at the origin
            elif kind == 1:
                hi = math.inf
            elif kind == 2:
                lo = hi = 0.0  # the origin alone
            elif kind == 3:
                hi = lo  # a single point
            ivs.append((lo, hi))
        per_ray[ray] = ivs
    C = RaySet(*(per_ray[ray] for ray in RAYS))
    return C if not C.is_empty else RaySet(plus=((1.0, 2.0),))


def _ray_query(rng, C: RaySet) -> SElem:
    u = rng.random()
    if u < 0.15:
        # the midpoint of a gap on one ray, equidistant from both sides
        ray = rng.choice(RAYS)
        ivs = C.intervals(ray)
        if len(ivs) >= 2:
            return point_on_ray(ray, (ivs[0][1] + ivs[1][0]) / 2.0)
    if u < 0.45:
        # a query at an interval end, on its own ray or another one
        ray = rng.choice(RAYS)
        ends = [m for r in RAYS for iv in C.intervals(r) for m in iv if math.isfinite(m)]
        return point_on_ray(ray, rng.choice(ends)) if ends else ZERO
    return _elem(rng, zero_p=0.15)


def _segment_set(rng):
    while True:
        a = SVector((_elem(rng),))
        b = SVector((_elem(rng),))
        kind = rng.choice(("semimodule", "semimodule", "traditional", "geometric"))
        if kind == "semimodule":
            seg = semimodule_segment(a, b)
        elif kind == "traditional":
            seg = traditional_segment(a, b)
            if seg is None:
                continue
        else:
            seg = as_segment_set(geometric_segment(a, b))
        return kind, a, b, seg


def _segment_query(rng, seg: SegmentSet) -> SElem:
    open_ends = [
        (piece.chart[0], val)
        for piece in seg.pieces
        if isinstance(piece, ArcPiece)
        for val, closed in ((piece.start[0], piece.closed_lo), (piece.end[0], piece.closed_hi))
        if not closed and val != 0.0
    ]
    if open_ends and rng.random() < 0.4:
        # a query on the ray of an open end, on either side of it: the
        # infimum may sit at the excluded end
        (u, v), val = rng.choice(open_ends)
        return point_on_ray(u if val > 0.0 else v, abs(val) * rng.choice((0.5, 2.0)))
    if rng.random() < 0.5:
        # a query at, or just beyond or short of, a piece end, on either
        # chart ray or a third one
        piece = rng.choice(seg.pieces)
        if isinstance(piece, ArcPiece):
            val = rng.choice((piece.start[0], piece.end[0]))
            scale = rng.choice((1.0, 1.0, 0.5, 2.0))
            return point_on_ray(rng.choice(RAYS), abs(val) * scale)
        return piece.point[0]
    return _elem(rng, zero_p=0.15)


def _pinned() -> list:
    """The pinned cases, without their outcomes: each set with its queries,
    under both bases."""
    p, m, o = Sign.PLUS, Sign.MINUS, Sign.BALANCED
    log = math.log

    def arc(lo, hi, closed_lo=True, closed_hi=True, chart=(o, o)):
        return ArcPiece((chart,), (lo,), (hi,), closed_lo, closed_hi)

    def point(sign, exp):
        return PointPiece(SVector((SElem(sign, exp),)))

    big = 1e15
    cases = [
        # the two parts touch at 2, closed on both sides: one point from b:log 5
        ("touching closed ends", (arc(1.0, 2.0), arc(2.0, 2.0 + 1e-12)),
         (SElem(o, log(5.0)), SElem(o, log(2.0)), SElem(p, 0.0))),
        # a closed end meets an open one at 2, listed in either order
        ("closed meets open", (arc(2.0, 3.0, False, True), arc(1.0, 2.0)),
         (SElem(o, log(2.0)), SElem(o, log(5.0)), SElem(o, -1.0))),
        ("open meets closed", (arc(1.0, 2.0, True, False), arc(2.0, 3.0)),
         (SElem(o, log(2.0)), SElem(m, log(2.0)))),
        # two open ends at 2 keep their one-point gap, not attained there
        ("open-open at one point", (arc(1.0, 2.0, True, False), arc(2.0, 3.0, False, True)),
         (SElem(o, log(2.0)), SElem(o, log(5.0)), SElem(o, -1.0))),
        # the parts' ends next to the origin, or at 2, are within the tie
        # tolerance of each other, but the merged part has one end there
        ("touching at the origin", (arc(0.0, 1e-12, True, False, chart=(p, m)), arc(1e-12, 1.0, chart=(p, m))),
         (SElem(m, 0.0), SElem(o, 0.0))),
        ("overlapping near an end", (arc(1.0, 2.0), arc(2.0 - 1e-12, 2.0 + 1e-12)),
         (SElem(o, log(5.0)), SElem(p, 0.0))),
        ("overlapping", (arc(2.0, 4.0), arc(1.0, 3.0, True, False)),
         (SElem(o, log(5.0)), SElem(o, log(0.5)), SElem(o, log(3.5)), SElem(p, 0.0))),
        ("overlapping open ends", (arc(1.0, 3.0, False, False), arc(2.0, 4.0, False, False)),
         (SElem(o, 0.0), SElem(o, log(3.0)), SElem(o, log(5.0)))),
        ("nested", (arc(1.0, 4.0), arc(2.0, 3.0, False, False), arc(4.0, 1.0)),
         (SElem(o, log(2.5)), SElem(o, log(6.0)), SElem(m, log(0.5)))),
        # two arcs through the origin on one chart, and a third on another
        ("crossing arcs", (arc(2.0, -1.0, chart=(p, m)), arc(-3.0, 1.0, chart=(p, m)),
                           arc(0.5, -0.25, False, True, chart=(o, p))),
         (SElem(m, log(4.0)), SElem(p, log(3.0)), SElem(o, 0.0), ZERO, SElem(p, log(0.1)))),
        # a point piece of int exponent 1 inside an arc, and at its open ends
        ("int point inside an arc", (arc(1.0, math.e ** 2), point(o, 1)),
         (SElem(o, 1), SElem(o, 3), SElem(p, 1))),
        ("int point at an open high end", (arc(1.0, math.e, True, False), point(o, 1)),
         (SElem(o, 2), SElem(o, 1), SElem(m, 0))),
        ("int point at an open low end", (arc(math.e, math.e ** 2, False, True), point(o, 1)),
         (SElem(o, 0), SElem(o, 1), SElem(p, 0))),
        # radii near 1e15 whose logarithms are an ulp apart: closed ends
        # leave no exponent between them and merge, open ones stay apart
        ("ulp gap, closed ends", (arc(big / 2, big), arc(big + 8.0, 2 * big)),
         (SElem(o, log(big + 4.0)), SElem(o, log(big) + 1.0))),
        ("ulp gap, open ends", (arc(big / 2, big, True, False), arc(big + 8.0, 2 * big, False, True)),
         (SElem(o, log(big + 4.0)), SElem(o, log(big) + 1.0))),
        # a one-ray chart with a negative end is refused as it is read
        ("one-ray chart across the origin", (arc(1.0, -3.0),), (SElem(o, log(2.0)),)),
        # an arc whose start is its end: its point when either end is
        # closed, and no point when neither is, so a set of it alone is empty
        ("one-point arc, half open", (arc(1.0, 1.0, True, False),),
         (SElem(o, 0), SElem(o, 2), SElem(p, 0.5))),
        ("one-point open arc beside a closed one", (arc(1.0, 1.0, False, False), arc(3.0, 4.0)),
         (SElem(o, log(0.5)), SElem(o, 0))),
        ("one-point open arc alone", (arc(1.0, 1.0, False, False),), (SElem(o, 0),)),
    ]
    return [{"group": "pinned", "name": name, "x": x.to_json(), "set": SegmentSet(pieces).to_json(), "base": base}
            for name, pieces, queries in cases for x in queries for base in (1, 2)]


# each group's set reader
LOAD = {"ray": RaySet.from_json, "segment": SegmentSet.from_json, "pinned": SegmentSet.from_json}


def outcome(entry) -> dict:
    """The stored answer of one case: the projection's JSON, or the error
    text when the infimum is not attained or the set is refused."""
    load = LOAD[entry["group"]]
    try:
        return {"result": project_ray(SElem.from_json(entry["x"]), load(entry["set"]), entry["base"]).to_json()}
    except ValueError as exc:
        return {"error": str(exc)}


def build():
    rng = random.Random(SEED)
    entries = []
    for k in range(RAY_CASES):
        C = _ray_set(rng)
        x = _ray_query(rng, C)
        base = 1 + k % 2
        entry = {"group": "ray", "x": x.to_json(), "set": C.to_json(), "base": base}
        entries.append({**entry, **outcome(entry)})
    for k in range(SEGMENT_CASES):
        kind, a, b, seg = _segment_set(rng)
        x = _segment_query(rng, seg)
        base = 1 + k % 2
        entry = {
            "group": "segment",
            "kind": kind,
            "a": a.to_json(),
            "b": b.to_json(),
            "x": x.to_json(),
            "set": seg.to_json(),
            "base": base,
        }
        entries.append({**entry, **outcome(entry)})
    return entries + [{**entry, **outcome(entry)} for entry in _pinned()]


def refresh(entries):
    """The stored random cases and the pinned ones, with their outcomes
    recomputed."""
    entries = [entry for entry in entries if entry["group"] != "pinned"] + _pinned()
    for entry in entries:
        entry.pop("result", None)
        entry.pop("error", None)
        entry.update(outcome(entry))
    return entries


if __name__ == "__main__":
    entries = refresh(json.loads(OUT.read_text())) if "--refresh" in sys.argv[1:] else build()
    OUT.write_text(json.dumps(entries, sort_keys=True) + "\n")
    errors = sum("error" in e for e in entries)
    print(f"wrote {len(entries)} cases ({errors} not attained) to {OUT}")
