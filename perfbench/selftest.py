"""Proof that the checkers can fail: each gets one right result, which it
must accept, and deliberately wrong ones, which it must reject.

The right results are written out by hand from the definitions, so this
needs no smaxplus.
"""

from __future__ import annotations

import math

import checks as C
from workloads import _stdout_json

L = math.log


def _p(e):
    return C.elem_json(e)


RS = {"+": [(1.0, 1.5), (2.5, 3.0)], "-": [], "o": []}
X = ("+", L(2.0))  # halfway between the two intervals
RAY_OK = {"points": [_p(("+", L(1.5))), _p(("+", L(2.5)))], "distance": 0.5, "singleton": False}

BOX_F = [RS, {"+": [], "-": [(2.0, 3.0)], "o": []}]
BOX_X = (X, ("-", 0.0))
BOX_OK = {
    "points": [{"coords": [_p(("+", L(m))), _p(("-", L(2.0)))]} for m in (1.5, 2.5)],
    "distance": math.sqrt(0.25 + 1.0),
    "singleton": False,
}

MAX_F = [{"+": [(2.0, 3.0)], "-": [], "o": []}]
MAX_X = (("+", 0.0),)
MAX_OK = {"points": [{"coords": [_p(("+", L(2.0)))]}], "distance": 1.0, "singleton": True}

E = math.e
WORKED_OK = {"pieces": [
    {"kind": "arc", "chart": [["-", "-"], ["-", "-"]], "start": [E, 1.0], "end": [E, E],
     "closed_lo": False, "closed_hi": True},
    {"kind": "arc", "chart": [["-", "-"], ["-", "-"]], "start": [1.0, E], "end": [E, E],
     "closed_lo": False, "closed_hi": False},
    {"kind": "point", "point": {"coords": [_p(("-", 1.0)), _p(("o", 0.0))]}},
    {"kind": "point", "point": {"coords": [_p(("-", 1.0)), _p(("+", 0.0))]}},
    {"kind": "point", "point": {"coords": [_p(("o", 0.0)), _p(("-", 1.0))]}},
    {"kind": "point", "point": {"coords": [_p(("+", 0.0)), _p(("-", 1.0))]}},
]}
WORKED_COMPS = [[0, 1], [2], [3], [4], [5]]
GEO_LEN = math.sqrt(2) * (E + 1.0)  # both coordinates cross rays: e + 1 each

TA, TB = (("+", 0.0),), (("+", 1.0),)
TRAD_OK = {"representable": True, "pieces": [
    {"kind": "arc", "chart": [["+", "-"]], "start": [1.0], "end": [E],
     "closed_lo": True, "closed_hi": True}]}


def _with(d, **kw):
    out = dict(d)
    out.update(kw)
    return out


def _cases():
    """(name, check, right result, wrong results)."""
    ray = lambda r: C.check_project_ray(X, RS, 2, r)
    box = lambda r: C.check_project_box(BOX_X, BOX_F, "euclid", 2, r)
    bmax = lambda r: C.check_box_max(MAX_X, MAX_F, 2, 0.01, r)
    wit = lambda r: C.check_witness(RS, 2, r)
    semi = lambda r: C.check_semimodule(C.WORKED_A, C.WORKED_B, [-0.5, -2.0], r)
    outside = {"coords": [_p(("+", L(3.5)))]}
    return [
        ("project_ray", ray, RAY_OK,
         [_with(RAY_OK, distance=0.51), _with(RAY_OK, points=RAY_OK["points"][:1])]),
        ("project_box", box, BOX_OK,
         [_with(BOX_OK, distance=BOX_OK["distance"] + 0.01),
          _with(BOX_OK, points=BOX_OK["points"][1:])]),
        ("project_box_max", bmax, MAX_OK,
         [_with(MAX_OK, distance=1.05), _with(MAX_OK, points=[outside])]),
        ("witness", wit, _p(("+", L(2.0))), [_p(("+", L(1.25)))]),
        ("predicates", lambda r: C.check_predicates(RS, r),
         {"connected": False, "chebyshev": False, "semimodule_convex": False},
         [{"chebyshev": True}, {"semimodule_convex": True}]),
        ("eval", lambda r: C.check_eval(("o", 1.0), r), {"sign": "o", "exp": 1},
         [{"sign": "+", "exp": 1}, {"sign": "o", "exp": 1.5}]),
        ("geometric", lambda r: C.check_geometric(C.WORKED_A, C.WORKED_B, r),
         {"length": GEO_LEN}, [{"length": GEO_LEN * 1.01}]),
        ("semimodule", semi, WORKED_OK,
         [{"pieces": WORKED_OK["pieces"][:5]}, {"pieces": WORKED_OK["pieces"][1:]}]),
        ("components", lambda r: C.check_components(WORKED_OK, r) or C.check_worked_example(r),
         WORKED_COMPS, [[[0, 1, 2], [3], [4], [5]], [[0, 1], [2], [3], [4]]]),
        ("traditional", lambda r: C.check_traditional(TA, TB, r), TRAD_OK,
         [_with(TRAD_OK, representable=False),
          _with(TRAD_OK, pieces=[_with(TRAD_OK["pieces"][0], closed_hi=False)])]),
        ("svg", C.check_svg, '<svg xmlns="http://www.w3.org/2000/svg"></svg>',
         ["<html></html>", "<svg>"]),
        ("cli", _stdout_json, (0, b"{}"), [(1, b"{}"), (0, b"Traceback")]),
    ]


def run() -> list:
    """Error messages for every checker that accepted a wrong result or
    rejected the right one; empty when the checkers work."""
    errors = []
    for name, check, right, wrongs in _cases():
        try:
            check(right)
        except C.CheckError as exc:
            errors.append(f"selftest {name}: right result rejected: {exc}")
        for i, wrong in enumerate(wrongs):
            try:
                check(wrong)
            except C.CheckError:
                continue
            errors.append(f"selftest {name}: wrong result {i} accepted")
    if C.check_witness(RS, 2, None) is not False:
        errors.append("selftest witness: a missing witness is not a failed operation")
    return errors
