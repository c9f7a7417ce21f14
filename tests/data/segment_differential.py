"""Compare the segment outputs of this checkout with those of another
revision, on seeded endpoint pairs.

Per pair it compares the stored answer of the wide semimodule corpus
(``make_semimodule_golden.wide_outcome``: the segment's ``to_json``, its
``components`` and those of its JSON round trip) and of the geodesic corpus
(``make_geometric_golden.outcome``: the geodesic's ``to_json`` and the
``components`` of ``as_segment_set`` of it and of its JSON round trip),
each with its stages' sorted distinct ``MagnitudeRangeWarning`` messages;
for pairs of one or two coordinates the ``render_segment_svg`` text of the
segment and of the geodesic, read back from that JSON, with its warnings;
for pairs of one coordinate the line projections of the segment and of the
geodesic's segment set, read back from that JSON (``line_projections``:
the zero element and queries at each piece end on each ray and one ulp
off it in exponent, under both bases, each with its answer or its error);
and a ``ValueError`` message where one is raised.  Pairs have 1 to 33
coordinates, about one in ten of them zero, with exponents uniform in +-1,
+-3, +-30, +-300 or +-750 (past the overflow threshold log(float max) =
709.78 and the underflow threshold near -745), or small ints, or
half-integers, whose equal differences make several coordinates tie at one
event; in one pair in five ``b`` keeps ``a``'s rays.

    python tests/data/segment_differential.py --base HEAD~1 [--pairs 20000] [--seed 1]

It exports ``src`` of the base revision (``_revision.exported``), runs
the pairs through both trees in two child processes and compares their
records line by line.  It prints the number
of pairs that differ, with the first few, and exits 1 when any differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from _revision import ROOT, exported

BANDS = (1.0, 3.0, 30.0, 300.0, 750.0, "int", "half")
SIGNS = ("+", "-", "o")
SHOWN = 3  # differing pairs printed in full


def _exp(rng, band):
    if band == "int":
        return rng.randint(-3, 3)
    if band == "half":
        k = rng.randint(-6, 6)
        return k // 2 if k % 2 == 0 else k / 2
    return rng.uniform(-band, band)


def pairs(count: int, seed: int):
    """Seeded pairs as JSON vectors, so that both trees read the same input."""
    rng = random.Random(seed)
    for k in range(count):
        band = BANDS[k % len(BANDS)]
        n = rng.randint(1, 33)
        same_ray = rng.random() < 0.2
        a = [rng.choice(SIGNS) for _ in range(n)]
        b = a if same_ray else [rng.choice(SIGNS) for _ in range(n)]
        yield tuple(
            {"coords": [{"sign": s, "exp": "-inf" if rng.random() < 0.1 else _exp(rng, band)}
                        for s in signs]}
            for signs in (a, b)
        )


def line_projections(S) -> list:
    """The line projections of a one-coordinate segment set: for the zero
    element, and for each piece end on each ray and one ulp off it in
    exponent, under both bases, the query, the base, and the result's JSON
    or the error's text.  Warnings are not recorded: a set may warn once
    or once per query."""
    import warnings

    from smaxplus import projection
    from smaxplus.algebra import EPS, RAYS, ZERO, SElem
    from smaxplus.segments import PointPiece

    # the base revision may still project segment sets through their own entry point
    project = getattr(projection, "project_segment_set", projection.project_ray)
    ends = []
    for piece in S.pieces:
        if isinstance(piece, PointPiece):
            ends.append(piece.point[0].exp)
        else:
            ends += [math.log(abs(v)) for v in (piece.start[0], piece.end[0]) if v != 0.0]
    queries = [ZERO] + [SElem(ray, u) for t in dict.fromkeys(ends) if t is not EPS for ray in RAYS
                        for u in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in queries:
            for base in (1, 2):
                try:
                    answer = {"result": project(x, S, base).to_json()}
                except ValueError as exc:
                    answer = {"error": str(exc)}
                out.append({"x": x.to_json(), "base": base, **answer})
    return out


def record(a_json: dict, b_json: dict) -> dict:
    """What one tree makes of one pair."""
    from make_geometric_golden import outcome as geodesic_outcome
    from make_semimodule_golden import _warned, wide_outcome
    from smaxplus import BrokenLine, SegmentSet, as_segment_set
    from smaxplus.svg import render_segment_svg

    out = {"a": a_json, "b": b_json}
    try:
        out["semimodule"] = wide_outcome(out)
        out["geodesic"] = geodesic_outcome(out)
        if len(a_json["coords"]) <= 2:
            out["svg"] = {
                "semimodule": _warned(render_segment_svg, SegmentSet.from_json(out["semimodule"]["segment"])),
                "geodesic": _warned(render_segment_svg, BrokenLine.from_json(out["geodesic"]["line"])),
            }
        if len(a_json["coords"]) == 1:
            out["projection"] = {
                "semimodule": line_projections(SegmentSet.from_json(out["semimodule"]["segment"])),
                "geodesic": line_projections(as_segment_set(BrokenLine.from_json(out["geodesic"]["line"]))),
            }
    except ValueError as exc:
        out["error"] = str(exc)
    return out


def emit(count: int, seed: int) -> None:
    for a, b in pairs(count, seed):
        sys.stdout.write(json.dumps(record(a, b), sort_keys=True) + "\n")


def _child(src: Path, count: int, seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, __file__, "--emit", "--pairs", str(count), "--seed", str(seed)]
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)


def compare(base: str, count: int, seed: int) -> int:
    with exported(base, "src") as tree:
        children = [_child(tree / "src", count, seed), _child(ROOT / "src", count, seed)]
        differ = 0
        for k, (old, new) in enumerate(zip(*(child.stdout for child in children))):
            if old == new:
                continue
            differ += 1
            if differ <= SHOWN:
                old, new = json.loads(old), json.loads(new)
                fields = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
                print(f"pair {k} differs in {fields}: a = {json.dumps(old['a'])}, b = {json.dumps(old['b'])}")
        # a child that stopped early ends the loop; closing the pipes ends the other
        for child in children:
            child.stdout.close()
        codes = [child.wait() for child in children]
    if codes != [0, 0]:
        print(f"a child process failed: exit codes {codes} (base, this checkout)")
        return 1
    print(f"{differ} of {count} pairs differ between {base} and this checkout (seed {seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(args.pairs, args.seed)
    else:
        sys.exit(compare(args.base, args.pairs, args.seed))
