"""Checks of smaxplus outputs, computed apart from the program.

Everything here works on the JSON form of results (``to_json()`` in process,
stdout for the CLI), so the same checker serves both paths.  Elements are
``(sign, exp)`` tuples with ``exp`` None for the zero element; ray sets are
dicts ``{"+": [(lo, hi), ...], "-": [...], "o": [...]}`` of radial
intervals, as the benchmark generated them (not as the program normalised
them).  Nothing here imports smaxplus.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

ZERO = ("o", None)
RAYS = ("+", "-", "o")
# relative tolerance of float comparisons; every quantity compared here is
# a few float operations away from the exact value
REL = 1e-9


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


def _close(u: float, v: float) -> bool:
    return abs(u - v) <= REL * max(1.0, abs(u), abs(v))


def elem(j) -> tuple:
    exp = j["exp"]
    if exp == "-inf":
        return ZERO
    return (j["sign"], float(exp))


def elem_json(e: tuple) -> dict:
    return {"sign": e[0], "exp": "-inf" if e[1] is None else e[1]}


def mag(e: tuple) -> float:
    return 0.0 if e[1] is None else math.exp(e[1])


# --- signed max-plus arithmetic --------------------------------------------


def s_add(a: tuple, b: tuple) -> tuple:
    if a[1] is None:
        return b
    if b[1] is None:
        return a
    if a[1] > b[1]:
        return a
    if b[1] > a[1]:
        return b
    return a if a[0] == b[0] else ("o", a[1])


def s_mul(a: tuple, b: tuple) -> tuple:
    if a[1] is None or b[1] is None:
        return ZERO
    if a[0] == "o" or b[0] == "o":
        sign = "o"
    else:
        sign = "+" if a[0] == b[0] else "-"
    return (sign, a[1] + b[1])


def s_pow(a: tuple, k: int) -> tuple:
    if k == 0:
        return ("+", 0.0)
    if a[1] is None:
        return ZERO
    if a[0] == "o":
        sign = "o"
    else:
        sign = "-" if a[0] == "-" and k % 2 else "+"
    return (sign, k * a[1])


def scale(lam: float, a: tuple) -> tuple:
    return a if a[1] is None else (a[0], a[1] + lam)


def same_elem(a: tuple, b: tuple) -> bool:
    if a[1] is None or b[1] is None:
        return a[1] is None and b[1] is None
    return a[0] == b[0] and _close(mag(a), mag(b))


# --- distances and ray sets --------------------------------------------------


def cross(m: float, mp: float, base: int) -> float:
    """Distance between points on two different rays: through the origin for
    the path metric, law of cosines at 120 degrees for the chord metric."""
    if base == 2:
        return m + mp
    return math.sqrt(m * m + mp * mp + m * mp)


def line_dist(x: tuple, p: tuple, base: int) -> float:
    mx, mp = mag(x), mag(p)
    if x[1] is None or p[1] is None or x[0] == p[0]:
        return abs(mx - mp)
    return cross(mx, mp, base)


def combine(ds, how: str) -> float:
    if how == "sum":
        return sum(ds)
    return math.sqrt(sum(d * d for d in ds))


def merged(ivs) -> list:
    out = []
    for lo, hi in sorted(ivs):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def connected(rs: dict) -> bool:
    """One interval on one ray, or a star: every used ray a single interval
    that starts at the origin."""
    used = [merged(ivs) for ivs in rs.values() if ivs]
    if any(len(ivs) > 1 for ivs in used):
        return False
    return len(used) == 1 or all(ivs[0][0] == 0.0 for ivs in used)


def traditionally_convex(rs: dict) -> bool:
    used = [merged(ivs) for ivs in rs.values() if ivs]
    return len(used) == 1 and len(used[0]) == 1


def in_ray_set(p: tuple, rs: dict) -> bool:
    if p[1] is None:
        return any(lo == 0.0 for ivs in rs.values() for lo, _ in ivs)
    m = mag(p)
    return any(
        lo * (1 - REL) - REL <= m <= hi * (1 + REL) + REL for lo, hi in rs.get(p[0], ())
    )


def nearest(x: tuple, rs: dict, base: int):
    """Minimum distance from ``x`` to the set and its distinct argmins.

    Per interval only one point can attain the minimum: the clamp of the
    query's radial coordinate on its own ray, the low end on other rays
    (both cross-ray forms grow with the partner's radius).
    """
    mx = mag(x)
    cands = {}
    for ray, ivs in rs.items():
        for lo, hi in merged(ivs):
            if x[1] is None or ray == x[0]:
                m = min(max(mx, lo), hi)
                d = abs(mx - m)
            else:
                m = lo
                d = cross(mx, lo, base)
            key = ZERO if m == 0.0 else (ray, m)
            cands[key] = min(d, cands.get(key, math.inf))
    best = min(cands.values())
    args = [k for k, d in cands.items() if d <= best + REL * max(1.0, best)]
    return best, args


# --- checkers ----------------------------------------------------------------


def check_project_ray(x: tuple, rs: dict, base: int, res: dict) -> None:
    best, args = nearest(x, rs, base)
    pts = [elem(p) for p in res["points"]]
    if not _close(res["distance"], best):
        raise CheckError(f"project_ray distance {res['distance']} != {best}")
    if len(pts) != len(args):
        raise CheckError(f"project_ray returned {len(pts)} nearest points, expected {len(args)}")
    for p in pts:
        if not in_ray_set(p, rs):
            raise CheckError(f"project_ray point {p} is not in the set")
        if not _close(line_dist(x, p, base), best):
            raise CheckError(f"project_ray point {p} does not attain {best}")
    if connected(rs) and len(pts) != 1:
        raise CheckError("a connected set has more than one nearest point")
    if res["singleton"] != (len(pts) == 1):
        raise CheckError("project_ray singleton flag disagrees with its points")


def check_project_box(x, factors, how: str, base: int, res: dict) -> None:
    per = [nearest(xi, rs, base) for xi, rs in zip(x, factors)]
    want = combine([b for b, _ in per], how)
    if not _close(res["distance"], want):
        raise CheckError(f"project_box distance {res['distance']} != {want}")
    count = math.prod(len(a) for _, a in per)
    if len(res["points"]) != count:
        raise CheckError(f"project_box returned {len(res['points'])} points, expected {count}")
    for p in res["points"]:
        coords = [elem(c) for c in p["coords"]]
        if not all(in_ray_set(c, rs) for c, rs in zip(coords, factors)):
            raise CheckError(f"project_box point {coords} is not in the box")
        d = combine([line_dist(xi, c, base) for xi, c in zip(x, coords)], how)
        if not _close(d, want):
            raise CheckError(f"project_box point {coords} does not attain {want}")
    if res["singleton"] != (count == 1):
        raise CheckError("project_box singleton flag disagrees with its points")


def check_witness(rs: dict, base: int, res) -> bool:
    """True when a witness was found and verified; False when none was
    returned for a disconnected set (a failed operation)."""
    if connected(rs):
        raise CheckError("witness check called on a connected set")
    if res is None:
        return False
    _, args = nearest(elem(res), rs, base)
    if len(args) < 2:
        raise CheckError(f"witness {res} has {len(args)} nearest point(s)")
    return True


def check_predicates(rs: dict, got: dict) -> None:
    conn = connected(rs)
    trad = traditionally_convex(rs)
    want = {"connected": conn, "chebyshev": conn, "geometrically_convex": conn,
            "traditionally_convex": trad}
    for key, value in want.items():
        if key in got and got[key] != value:
            raise CheckError(f"{key} is {got[key]}, expected {value}")
    sm = got.get("semimodule_convex")
    if sm is not None:
        # necessary conditions: one interval per ray; a single interval on a
        # single ray is closed under scaled combinations
        if sm and any(len(merged(ivs)) > 1 for ivs in rs.values()):
            raise CheckError("semimodule_convex holds for a ray with two intervals")
        if trad and not sm:
            raise CheckError("a single interval is not semimodule convex")


def check_box_max(x, factors, base: int, resolution: float, res: dict) -> None:
    """The grid argmin is within one grid step of the exact max-combine
    distance, and every returned point lies in the box and attains the
    returned distance within the grid's tie slack."""
    n = len(x)
    exact = max(nearest(xi, rs, base)[0] for xi, rs in zip(x, factors))
    dist = res["distance"]
    tol = REL * max(1.0, exact)
    if not (exact - tol <= dist <= exact + resolution + tol):
        raise CheckError(f"project_box_max distance {dist} is not within a step of {exact}")
    if not res["points"]:
        raise CheckError("project_box_max returned no point")
    for p in res["points"]:
        coords = [elem(c) for c in p["coords"]]
        if not all(in_ray_set(c, rs) for c, rs in zip(coords, factors)):
            raise CheckError(f"project_box_max point {coords} is not in the box")
        d = max(line_dist(xi, c, base) for xi, c in zip(x, coords))
        if not (exact - tol <= d <= dist + resolution * n + tol):
            raise CheckError(f"project_box_max point {coords} is at {d}, not {dist}")


def check_eval(want: tuple, res: dict) -> None:
    got = elem(res)
    if got[0] != want[0] or got[1] != want[1]:
        raise CheckError(f"eval gave {got}, expected {want}")


def check_geometric(a, b, res: dict) -> None:
    want = math.sqrt(sum(line_dist(ai, bi, 2) ** 2 for ai, bi in zip(a, b)))
    if not _close(res["length"], want):
        raise CheckError(f"geometric length {res['length']} != D2 distance {want}")


def _psi(u: str, v: str, e: tuple):
    if e[1] is None:
        return 0.0
    if e[0] == u:
        return mag(e)
    if e[0] == v:
        return -mag(e)
    return None


def in_piece(x, piece: dict) -> bool:
    if piece["kind"] == "point":
        return all(same_elem(xi, elem(c)) for xi, c in zip(x, piece["point"]["coords"]))
    px = [_psi(u, v, xi) for (u, v), xi in zip(piece["chart"], x)]
    if any(c is None for c in px):
        return False
    start, end = piece["start"], piece["end"]
    spans = [e - s for s, e in zip(start, end)]
    j = max(range(len(spans)), key=lambda i: abs(spans[i]))
    if spans[j] == 0.0:
        return False
    t = (px[j] - start[j]) / spans[j]
    for s, span, v in zip(start, spans, px):
        if abs(s + t * span - v) > REL * max(1.0, abs(s), abs(s + span)):
            return False
    if t < -REL or t > 1 + REL:
        return False
    if abs(t) <= REL and not piece["closed_lo"]:
        return False
    if abs(1 - t) <= REL and not piece["closed_hi"]:
        return False
    return True


def in_segment(x, seg: dict) -> bool:
    return any(in_piece(x, p) for p in seg["pieces"])


def combos(a, b, lams):
    """(lam (*) a) (+) b and a (+) (lam (*) b) for each lam <= 0."""
    out = []
    for lam in lams:
        out.append(tuple(s_add(scale(lam, ai), bi) for ai, bi in zip(a, b)))
        out.append(tuple(s_add(ai, scale(lam, bi)) for ai, bi in zip(a, b)))
    return out


def check_semimodule(a, b, lams, seg: dict) -> None:
    for name, x in [("a", a), ("b", b)] + [("combination", c) for c in combos(a, b, lams)]:
        if not in_segment(x, seg):
            raise CheckError(f"semimodule segment misses {name} {x}")


def check_traditional(a, b, seg: dict) -> None:
    """Same-ray endpoints: the chord is representable and holds both ends
    and the midpoint of the radial coordinates."""
    if not seg.get("representable"):
        raise CheckError("same-ray traditional segment is not representable")
    mid = tuple((ai[0], math.log((mag(ai) + mag(bi)) / 2)) for ai, bi in zip(a, b))
    for name, x in (("a", a), ("b", b), ("midpoint", mid)):
        if not in_segment(x, seg):
            raise CheckError(f"traditional segment misses {name} {x}")


def check_components(seg: dict, comps) -> None:
    flat = sorted(i for group in comps for i in group)
    if flat != list(range(len(seg["pieces"]))):
        raise CheckError("components do not partition the pieces")


# Counted by hand for a = (p:0, m:1), b = (m:1, p:0): (lam (*) a) (+) b is b
# for lam < -1, the balanced point (m:1, b:0) at lam = -1, and the arc
# (m:1, m:1+lam) for lam in (-1, 0], open at its low end; the other family
# mirrors it.  The two arcs meet at (m:1, m:1), so there are 5 components:
# the joined arcs, a, b and the two balanced points.
WORKED_A = (("+", 0.0), ("-", 1.0))
WORKED_B = (("-", 1.0), ("+", 0.0))
WORKED_COMPONENTS = 5


def check_worked_example(comps) -> None:
    if len(comps) != WORKED_COMPONENTS:
        raise CheckError(f"worked example has {len(comps)} components, expected 5")


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"svg does not parse: {exc}") from None
    if root.tag.rsplit("}", 1)[-1] != "svg":
        raise CheckError(f"svg root is {root.tag}")
