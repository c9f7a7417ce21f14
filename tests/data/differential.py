"""Compare the answers of this checkout with those of another revision, on
seeded cases, one suite at a time.

    python tests/data/differential.py --base REV --suite eval|segments|raysets [--cases N] [--seed 1]

It exports ``src`` of the base revision (``_revision.exported``), runs the
suite's cases through both trees in two child processes, each importing the
package from its own tree, and compares their records line by line.  It
prints the number of cases whose records differ, with the first few: each
one's case, the top-level fields of its record that differ, and those
fields on both sides.  It exits 1 when any differ or a child fails.
pytest does not collect it; ``tests/test_differential.py`` runs a few cases
of each suite in process.

A suite is an entry of ``SUITES``: a function ``cases(count, seed)`` that
yields the JSON-able cases, a function ``record(case)`` that returns what
one tree makes of one case as a JSON-able dict, and the default count.
Both functions run in each child, from this checkout's copy of this file,
so both trees read the same cases; only the package differs.  A new suite
(projection, box-max) adds one entry.

Suites:

* ``eval`` (200,000 cases): seeded sources, each evaluated in both modes.
  Half are well-formed expressions of 1 to 12 leaves, whose literals are
  small ints, halves, floats, exponent notation, ``eps``, signed literals,
  floats near the float maximum and the smallest subnormal, literals
  beyond the float range in either direction and long integers, with
  integer powers (zero, negative and long ones too) and assorted
  whitespace.  The other half are strings of up to 25 tokens and stray
  characters joined with or without a space.  The record holds, per mode,
  the value's ``to_json``, ``repr`` and exponent type (an int exponent too
  long for ``str`` as its ``hex``), or the error's class, message and
  ``pos``.
* ``segments`` (20,000 cases): seeded endpoint pairs ``(a, b)`` as JSON
  vectors.  Pairs have 1 to 33 coordinates, about one in ten of them zero,
  with exponents uniform in +-1, +-3, +-30, +-300 or +-750 (past the
  overflow threshold log(float max) = 709.78 and the underflow threshold
  near -745), or small ints, or half-integers, whose equal differences
  make several coordinates tie at one event; in one pair in five ``b``
  keeps ``a``'s rays.  The record holds the stored answer of the wide
  semimodule corpus (``make_semimodule_golden.wide_outcome``: the
  segment's ``to_json``, its ``components`` and those of its JSON round
  trip) and of the geodesic corpus (``make_geometric_golden.outcome``: the
  geodesic's ``to_json`` and the ``components`` of ``as_segment_set`` of
  it and of its JSON round trip), each with its stages' sorted distinct
  ``MagnitudeRangeWarning`` messages; for pairs of one or two coordinates
  the ``render_segment_svg`` text of the segment and of the geodesic, read
  back from that JSON, with its warnings; for pairs of one coordinate the
  line projections of the segment and of the geodesic's segment set, read
  back from that JSON (``line_projections``); and a ``ValueError`` message
  where one is raised.
* ``raysets`` (50,000 cases): seeded unions of [lo, hi] pairs on the three
  rays, whose end exponents lie in +-3, 30..40 or +-690, by turns.  Ends
  may be one ulp apart in radius or in exponent, near 1e15 (where a few
  units of radius are one exponent ulp), ints, 0 or an unbounded ``inf``
  high end, and a ray may hold a [0, 0] pair.  Pairs are given in order,
  touching or apart, or shuffled and overlapping.  The record holds the
  canonical set's ``repr`` and ``to_json``, ``has_origin``, the five
  predicates, ``ray_components``, ``find_multipoint_witness`` under both
  bases, and ``contains`` of the zero element and, on each ray, of each
  end's exponent and one ulp either side.
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

# --- eval -------------------------------------------------------------------------

MODES = ("mpa", "smpa")
_WIDE = ["1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308", "9e307", "-9e307",
         "5e-324", "-5e-324", "2.5e-308", "1e400", "-1e400", "1" + "0" * 30, "-" + "9" * 400]
_SMALL = ["0", "-0", "0.0", "-0.0", ".5", "-.25", "2.", "1E1", "3", "-2", "1.5", "-2.5"]
_POWERS = ["0", "1", "2", "3", "5", "-1", "-2", "-3", "1" + "0" * 20, "1" + "0" * 400]
_TOKENS = ["+", "*", "^", "(", ")", "eps", "p:1", "m:2.5", "b:-3", "1", "-2", "0.5", "1e308", "-1e308",
           "p:-1e308", "m:1e308", "1e400", "-1e400", "1" + "0" * 30, "p:", "e", "$", "\t", "\n", "-1", "0",
           "3", "^ 3", "^ -1"]


def _ws(rng) -> str:
    return rng.choice(["", "", " ", " ", " ", "  ", "\t", "\n"])


def _literal(rng) -> str:
    r = rng.random()
    if r < 0.08:
        return "eps"
    if r < 0.3:
        number = rng.choice(_WIDE)
    elif r < 0.5:
        number = rng.choice(_SMALL)
    elif r < 0.75:
        number = str(rng.randint(-12, 12) / 2)
    else:
        number = repr(rng.uniform(-4.0, 4.0))
    return number if rng.random() < 0.5 else rng.choice("pmb") + ":" + number


def _powered(rng, text: str) -> str:
    while rng.random() < 0.25:
        text = f"{text}{_ws(rng)}^{_ws(rng)}{rng.choice(_POWERS)}"
    return text


def _expression(rng, leaves: int) -> str:
    if leaves == 1:
        return _powered(rng, _literal(rng))
    k = rng.randint(1, leaves - 1)
    text = f"{_expression(rng, k)}{_ws(rng)}{rng.choice('+*')}{_ws(rng)}{_expression(rng, leaves - k)}"
    if rng.random() < 0.4:
        text = _powered(rng, f"({_ws(rng)}{text}{_ws(rng)})")
    return text


def eval_cases(count: int, seed: int):
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            yield "".join(rng.choice(_TOKENS) + rng.choice(("", " ")) for _ in range(rng.randint(0, 25)))
        else:
            yield _expression(rng, rng.randint(1, 12))


def eval_record(source: str) -> dict:
    from smaxplus.exprs import eval_expr

    out = {"source": source}
    for mode in MODES:
        try:
            value = eval_expr(source, mode)
        except ValueError as exc:
            out[mode] = {"class": type(exc).__name__, "message": str(exc), "pos": getattr(exc, "pos", None)}
            continue
        exp = value.exp
        try:
            out[mode] = {"json": value.to_json(), "repr": repr(value), "type": type(exp).__name__}
        except ValueError:  # an int exponent with more digits than str() allows
            out[mode] = {"sign": value.sign._value_, "hex": hex(exp), "type": type(exp).__name__}
    return out


# --- segments ---------------------------------------------------------------------

BANDS = (1.0, 3.0, 30.0, 300.0, 750.0, "int", "half")
SIGNS = ("+", "-", "o")


def _exp(rng, band):
    if band == "int":
        return rng.randint(-3, 3)
    if band == "half":
        k = rng.randint(-6, 6)
        return k // 2 if k % 2 == 0 else k / 2
    return rng.uniform(-band, band)


def segments_cases(count: int, seed: int):
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


def segments_record(case: tuple) -> dict:
    from make_geometric_golden import outcome as geodesic_outcome
    from make_semimodule_golden import _warned, wide_outcome
    from smaxplus import BrokenLine, SegmentSet, as_segment_set
    from smaxplus.svg import render_segment_svg

    a_json, b_json = case
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


# --- raysets ----------------------------------------------------------------------

RAYSET_BANDS = ((-3.0, 3.0), (30.0, 40.0), (-690.0, 690.0))


def _ray_intervals(rng, band) -> list:
    """One ray's [lo, hi] pairs: ends drawn as exponents in the band, or one
    ulp past the end before in radius or in exponent, radii near 1e15, or
    int ends; paired in order, so that they touch or leave gaps, or
    shuffled first, so that they overlap.  The last high end may be inf, a
    first end 0, and a [0, 0] pair may come first."""
    ends, t, m = [], rng.uniform(*band), 1.0
    for _ in range(2 * rng.choice((0, 0, 0, 1, 1, 2, 3))):
        r = rng.random()
        if r < 0.15:
            m = math.nextafter(m, math.inf)
        elif r < 0.3:
            t = math.nextafter(t, math.inf)
            m = math.exp(t)
        elif r < 0.4:
            m = 1e15 + rng.randint(0, 16)
        else:
            t = rng.uniform(*band)
            m = math.exp(t)
            if r < 0.5 and m < 1e300:
                m = int(m)
        ends.append(m)
    if rng.random() < 0.8:
        ends.sort()
    else:
        rng.shuffle(ends)
    ivs = [sorted(pair) for pair in zip(ends[::2], ends[1::2])]
    if ivs and rng.random() < 0.2:
        ivs[-1][1] = math.inf
    if ivs and rng.random() < 0.35:
        ivs[0][0] = 0
    if rng.random() < 0.15:
        ivs.insert(0, [0, 0])
    return ivs


def raysets_cases(count: int, seed: int):
    rng = random.Random(seed)
    k = 0
    while k < count:
        band = RAYSET_BANDS[k % len(RAYSET_BANDS)]
        case = [_ray_intervals(rng, band) for _ in range(3)]
        if any(case):
            k += 1
            yield case


def raysets_record(case: list) -> dict:
    """The canonical set of a case, its predicates, components and
    multipoint witnesses under both bases, and membership of the zero
    element and, on each ray, of each end's exponent and one ulp either
    side, as a string of 0s and 1s."""
    from smaxplus import (RaySet, find_multipoint_witness, is_chebyshev, is_connected,
                          is_geometrically_convex, is_semimodule_convex, is_traditionally_convex,
                          ray_components)
    from smaxplus.algebra import RAYS, ZERO, SElem

    C = RaySet(*case)
    out = {"case": case, "repr": repr(C), "json": C.to_json(), "has_origin": C.has_origin,
           "components": repr(ray_components(C))}
    for predicate in (is_connected, is_chebyshev, is_traditionally_convex, is_geometrically_convex,
                      is_semimodule_convex):
        out[predicate.__name__] = predicate(C)
    for base in (1, 2):
        witness = find_multipoint_witness(C, base)
        out[f"witness{base}"] = None if witness is None else witness.to_json()
    exps = dict.fromkeys(math.log(m) for ivs in case for iv in ivs for m in iv if 0 < m < math.inf)
    queries = [ZERO] + [SElem(ray, u) for t in exps for ray in RAYS
                        for u in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
    out["contains"] = "".join("1" if C.contains(x) else "0" for x in queries)
    return out


# name -> (cases, record, default count)
SUITES = {
    "eval": (eval_cases, eval_record, 200000),
    "segments": (segments_cases, segments_record, 20000),
    "raysets": (raysets_cases, raysets_record, 50000),
}
SHOWN = 3  # differing cases printed

# --- driver ------------------------------------------------------------------------


def emit(suite: str, count: int, seed: int) -> None:
    cases, record, _ = SUITES[suite]
    for case in cases(count, seed):
        sys.stdout.write(json.dumps(record(case), sort_keys=True) + "\n")


def _child(src: Path, suite: str, count: int, seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src)}
    args = [sys.executable, __file__, "--emit", "--suite", suite, "--cases", str(count), "--seed", str(seed)]
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)


def _excerpt(text: str, start: int, limit: int = 300) -> str:
    """``text`` from ``start``, cut at ``limit`` characters, with its length
    when anything is left out."""
    if start == 0 and len(text) <= limit:
        return text
    return f"{'...' if start else ''}{text[start:start + limit]}... ({len(text)} characters)"


def _show(k: int, case, old: str, new: str) -> None:
    """Print a differing case and the top-level fields of its record that
    differ, with their JSON on both sides from a little before the first
    character where they part."""
    old, new = json.loads(old), json.loads(new)
    fields = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    print(f"case {k} differs in {fields}: {_excerpt(json.dumps(case), 0)}")
    for name in fields:
        texts = [json.dumps(side.get(name)) for side in (old, new)]
        start = max(0, len(os.path.commonprefix(texts)) - 60)
        print(f"  base {name}: {_excerpt(texts[0], start)}\n  this {name}: {_excerpt(texts[1], start)}")


def compare(base: str, suite: str, count: int, seed: int) -> int:
    cases = SUITES[suite][0](count, seed)
    with exported(base, "src") as tree:
        children = [_child(tree / "src", suite, count, seed), _child(ROOT / "src", suite, count, seed)]
        differ = 0
        for k, (case, old, new) in enumerate(zip(cases, *(child.stdout for child in children))):
            if old == new:
                continue
            differ += 1
            if differ <= SHOWN:
                _show(k, case, old, new)
        # a child that stopped early ends the loop; closing the pipes ends the other
        for child in children:
            child.stdout.close()
        codes = [child.wait() for child in children]
    if codes != [0, 0]:
        print(f"a child process failed: exit codes {codes} (base, this checkout)")
        return 1
    print(f"{differ} of {count} {suite} cases differ between {base} and this checkout (seed {seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare against")
    parser.add_argument("--suite", required=True, choices=sorted(SUITES))
    parser.add_argument("--cases", type=int, help="the number of cases (default: the suite's own)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    count = SUITES[args.suite][2] if args.cases is None else args.cases
    if args.emit:
        emit(args.suite, count, args.seed)
    else:
        sys.exit(compare(args.base, args.suite, count, args.seed))
