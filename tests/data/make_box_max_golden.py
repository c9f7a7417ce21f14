"""Regenerate ``box_max_golden.json``: seeded max-combine box projections
with their ``project_box_max(...).to_json()`` (or the error text).

Every case stores its resolution.  The random groups ``n1``-``n3`` run
at 0.05 and cover n = 1, 2, 3 under both base metrics, with zero queries,
origin-anchored intervals, unbounded intervals and ``max_magnitude``
truncation; each keeps its cloud small so the file stays compact.  A few
``pinned`` cases add a factor whose ball cut reaches the origin, a
truncation that empties a factor and a cloud refused as too large.

The ``fine`` group runs at resolutions 0.01 and 1e-3, where the sampler's
float corners show: exact points off the sample grid, two cut intervals on
one ray, the origin from a plus or minus interval beside balanced samples,
radii near 1e15 where ``lo + i * step`` stalls (ulp 0.125) so equal
radii and equal exponents must be merged, a last sample ``lo + k * step``
that rounds above the interval's high end (``[0, 0.35]`` at 0.01,
``[0, 0.072]`` at 1e-3), and truncations that cut an interval and that
keep every interval.  Every case carries tags naming what it covers, and
the test checks that each tag occurs.

The stored results were captured from the argmin sampler that built one
``SElem`` per sample and sorted them with ``SElem.sort_key``; regenerate only
when a change of output is intended, and say why.

``outcome`` computes a stored case's ``result`` or ``error`` from its stored
query, box, base, resolution and truncation.  The build stores what it
returns, after checking that the entry read back from its JSON text gives
the same, and ``tests/test_box_max_golden.py`` compares it with the file.

    PYTHONPATH=src python tests/data/make_box_max_golden.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from smaxplus.algebra import RAYS, ZERO, SElem, Sign
from smaxplus.boxmax import _ball_cut, _truncate, project_box_max
from smaxplus.metrics import SVector
from smaxplus.projection import project_ray
from smaxplus.raysets import BoxSet, RaySet

OUT = Path(__file__).with_name("box_max_golden.json")
SEED = 20170902
RESOLUTION = 0.05
CASES_PER_GROUP = 24  # per (n, base)
MAX_POINTS = (0, 24, 60, 90)  # the largest cloud kept, by n
FINE_SEED = 20260415
FINE_RESOLUTIONS = (0.01, 1e-3)
FINE_CASES = 6  # per (n, base, resolution)
FINE_MAX_POINTS = (0, 120, 160)  # the largest fine cloud kept, by n


def _elem(rng, zero_p):
    if rng.random() < zero_p:
        return ZERO
    return SElem(rng.choice(RAYS), rng.choice((rng.randint(-4, 2) / 2, rng.uniform(-2.0, 1.5))))


def _ray_set(rng) -> RaySet:
    per_ray = {}
    for ray in RAYS:
        ivs, cursor = [], 0.0
        for _ in range(rng.choice((0, 1, 1, 2))):
            lo = cursor + math.exp(rng.uniform(-2.5, 0.5))
            hi = lo + rng.choice((0.0, rng.uniform(0.05, 0.8)))
            kind = rng.randrange(8)
            if kind == 0 and not ivs:
                lo = 0.0  # anchored at the origin
            elif kind == 1:
                hi = math.inf
            ivs.append((lo, hi))
            if hi == math.inf:
                break
            cursor = hi
        per_ray[ray] = ivs
    C = RaySet(*(per_ray[ray] for ray in RAYS))
    return C if not C.is_empty else RaySet(plus=((0.5, 1.0),))


def _tags(x: SVector, A: BoxSet, base: int, max_magnitude, outcome: dict) -> list:
    tags = []
    if any(c.is_zero for c in x):
        tags.append("zero query")
    if any(lo == 0.0 for C in A.factors for ray in RAYS for lo, _ in C.intervals(ray)):
        tags.append("origin-anchored factor")
    if any(math.isinf(hi) for C in A.factors for ray in RAYS for _, hi in C.intervals(ray)):
        tags.append("unbounded factor")
    if max_magnitude is not None:
        tags.append("truncated")
    if "error" in outcome:
        tags.append("error")
        return tags
    points = [SVector.from_json(p) for p in outcome["result"]["points"]]
    D = outcome["result"]["distance"]
    for i, (xi, Ci) in enumerate(zip(x, A.factors)):
        # the origin in the cloud of an untruncated factor that does not
        # bind: its ball cut reaches the origin
        if max_magnitude is None and project_ray(xi, Ci, base).distance < D:
            if ZERO in {p[i] for p in points}:
                tags.append("cut reaches the origin")
    if len(points) > 1:
        tags.append("cloud")
    return sorted(set(tags))


def _fine_tags(x, A, base, max_magnitude, step, outcome) -> list:
    """What a fine case covers, read off its ball cuts (recomputed with the
    sampler's own ``_ball_cut``, so the tags name the branches taken)."""
    tags = []
    factors = A.factors
    if max_magnitude is not None:
        ends = [hi for C in factors for ray in RAYS for _, hi in C.intervals(ray)]
        tags.append("truncation cuts" if any(hi > max_magnitude for hi in ends) else "truncation keeps")
        factors = tuple(_truncate(C, max_magnitude) for C in factors)
    if "error" in outcome:
        return tags
    D = outcome["result"]["distance"]
    for xi, Ci in zip(x, factors):
        near = project_ray(xi, Ci, base)
        if near.distance == D:
            continue
        cut = _ball_cut(xi, Ci, D, base)
        rays = [ray for ray, _, _ in cut]
        if any(rays.count(ray) > 1 for ray in RAYS):
            tags.append("two cuts on one ray")
        if any(ray is not Sign.BALANCED and lo == 0.0 for ray, lo, _ in cut) and any(
            ray is Sign.BALANCED and hi > 0.0 for ray, _, hi in cut
        ):
            tags.append("origin beside balanced samples")
        grid = set()
        for ray, lo, hi in cut:
            ms = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
            if any(m > hi for m in ms):
                tags.append("tail clamp")
            if len(set(ms)) < len(ms):
                tags.append("stalled samples")
            if hi >= 1e14:
                tags.append("radius near 1e15")
            grid.update((ray, math.log(min(m, hi))) for m in ms + [hi] if m > 0.0)
        if any(not q.is_zero and (q.sign, q.exp) not in grid for q in near.points):
            tags.append("exact point off the grid")
    return tags


def outcome(entry) -> dict:
    """The stored answer of one case: the projection's JSON, or the error
    text."""
    x, A = SVector.from_json(entry["x"]), BoxSet.from_json(entry["box"])
    try:
        result = project_box_max(x, A, entry["base"], entry["resolution"], entry["max_magnitude"])
        return {"result": result.to_json()}
    except ValueError as exc:
        return {"error": str(exc)}


def _entry(group, x, A, base, max_magnitude=None, resolution=RESOLUTION) -> dict:
    case = {"x": x.to_json(), "box": A.to_json(), "base": base, "max_magnitude": max_magnitude,
            "resolution": resolution}
    answer = outcome(case)
    # the stored inputs, read back from the file's text, must reproduce it
    again = outcome(json.loads(json.dumps(case)))
    assert json.dumps(again, sort_keys=True) == json.dumps(answer, sort_keys=True), case
    tags = _tags(x, A, base, max_magnitude, answer)
    if group == "fine":
        tags = sorted(set(tags) | set(_fine_tags(x, A, base, max_magnitude, resolution, answer)))
    return {"group": group, **case, "tags": tags, **answer}


def _pinned() -> list:
    p, m, b = Sign.PLUS, Sign.MINUS, Sign.BALANCED
    entries = []
    for base in (1, 2):
        # the first factor binds at D = e**1.5 - 1; the second query sits at
        # radius 1 on minus, so the ball of radius D > 1 crosses the origin
        # into the second factor's plus interval [0, 3]
        x = SVector((SElem(p, 0.0), SElem(m, 0.0)))
        A = BoxSet((RaySet(plus=((math.exp(1.5), 5.0),)), RaySet(plus=((0.0, 3.0),), minus=((2.5, 2.75),))))
        entries.append(_entry("pinned", x, A, base))
        # a zero query in the second factor: the cut is [0, D] on every ray
        x = SVector((SElem(b, -0.5), ZERO))
        A = BoxSet((RaySet(balanced=((2.0, 2.25),)), RaySet(minus=((0.0, 0.5),), balanced=((1.0, 1.5),))))
        entries.append(_entry("pinned", x, A, base))
        # truncation below a factor's only interval
        x = SVector((SElem(p, 0.0),))
        A = BoxSet((RaySet(plus=((2.0, 3.0),)),))
        entries.append(_entry("pinned", x, A, base, 1.5))
        # truncation inside an unbounded interval of a non-binding factor
        x = SVector((SElem(p, 1.0), SElem(m, 0.0)))
        A = BoxSet((RaySet(minus=((1.0, 2.0),)), RaySet(minus=((0.5, math.inf),))))
        entries.append(_entry("pinned", x, A, base, 2.0))
        # the same box untruncated: the ball bounds the unbounded interval
        entries.append(_entry("pinned", x, A, base))
        # D = 1e6 puts a factor of length 1e6 inside the ball: 2e7 samples,
        # refused before any is built
        x = SVector((SElem(p, 0.0), SElem(p, 0.0)))
        A = BoxSet((RaySet(plus=((1e6 + 1.0, 1e6 + 1.0),)), RaySet(plus=((0.0, 1e6),))))
        entries.append(_entry("pinned", x, A, base))
    return entries


def _fine_pinned() -> list:
    p, m, b = Sign.PLUS, Sign.MINUS, Sign.BALANCED
    one = SElem(p, 0.0)  # radius 1
    # the first factor binds: its distance from `one` is 0.25 (0.5 for
    # `far`) under both bases, and the second factor's cut holds the cloud
    above, below, far = (RaySet(plus=(iv,)) for iv in ((1.25, 2.0), (0.5, 0.75), (1.5, 2.0)))
    entries = []
    for resolution in FINE_RESOLUTIONS:
        clamped = 0.35 if resolution == 0.01 else 0.072  # k * step rounds above it
        cases = [
            # three cut intervals on the query's ray, the exact point 1.2345
            # between two samples of the middle one
            (SVector((one, SElem(p, math.log(1.2345)))),
             BoxSet((above, RaySet(plus=((0.9, 1.0), (1.2, 1.3), (1.4, 2.0))))), None),
            # the origin from a plus (then a minus) interval, beside
            # balanced samples on the query's ray
            (SVector((one, SElem(b, math.log(0.1)))),
             BoxSet((above, RaySet(plus=((0.0, 0.05),), balanced=((0.18, 0.3),)))), None),
            (SVector((one, SElem(b, math.log(0.1)))),
             BoxSet((above, RaySet(minus=((0.0, 0.05),), balanced=((0.18, 0.3),)))), None),
            # radii near 1e15, where the ulp is 0.125: lo + i * step stalls,
            # and the exponents of about 56 radii round to one float, so a
            # cut of width 32 (the first factor at distance 16) holds
            # about 5 points
            (SVector((one, SElem(p, math.log(1e15)))),
             BoxSet((RaySet(plus=((17.0, 18.0),)), RaySet(plus=((1e15 - 64.0, 1e15 + 64.0),)))), None),
            # the last sample k * step rounds above the high end
            (SVector((one, SElem(b, math.log(0.01)))),
             BoxSet((far, RaySet(balanced=((0.0, clamped),)))), None),
            # a truncation that cuts the second factor, and one that keeps it
            (SVector((one, one)), BoxSet((below, RaySet(plus=((0.9, 1.1),)))), 1.05),
            (SVector((one, one)), BoxSet((below, RaySet(plus=((0.9, 1.1),)))), 3.0),
        ]
        for base in (1, 2):
            for x, A, max_magnitude in cases:
                entries.append(_entry("fine", x, A, base, max_magnitude, resolution))
    return entries


def _fine_random() -> list:
    rng = random.Random(FINE_SEED)
    entries = []
    for n in (1, 2):
        for base in (1, 2):
            for resolution in FINE_RESOLUTIONS:
                kept = 0
                while kept < FINE_CASES:
                    A = BoxSet(tuple(_ray_set(rng) for _ in range(n)))
                    x = SVector(tuple(_elem(rng, zero_p=0.15) for _ in range(n)))
                    max_magnitude = rng.choice((None, None, None, math.exp(rng.uniform(-1.0, 1.0))))
                    entry = _entry("fine", x, A, base, max_magnitude, resolution)
                    if "result" in entry and len(entry["result"]["points"]) > FINE_MAX_POINTS[n]:
                        continue
                    entries.append(entry)
                    kept += 1
    return entries


def build():
    rng = random.Random(SEED)
    entries = []
    for n in (1, 2, 3):
        for base in (1, 2):
            kept = 0
            while kept < CASES_PER_GROUP:
                A = BoxSet(tuple(_ray_set(rng) for _ in range(n)))
                x = SVector(tuple(_elem(rng, zero_p=0.15) for _ in range(n)))
                max_magnitude = rng.choice((None, None, None, math.exp(rng.uniform(-1.0, 1.0))))
                entry = _entry(f"n{n}", x, A, base, max_magnitude)
                if "result" in entry and len(entry["result"]["points"]) > MAX_POINTS[n]:
                    continue
                entries.append(entry)
                kept += 1
    return entries + _pinned() + _fine_pinned() + _fine_random()


if __name__ == "__main__":
    entries = build()
    text = json.dumps(entries, sort_keys=True) + "\n"
    OUT.write_text(text)
    errors = sum("error" in e for e in entries)
    tags = sorted({t for e in entries for t in e["tags"]})
    print(f"wrote {len(entries)} cases ({errors} errors, {len(text)} bytes) to {OUT}")
    print("tags:", tags)
