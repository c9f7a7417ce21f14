"""Seeded inputs for the benchmark, in the checkers' own representation.

Every generator takes a ``random.Random`` built from ``--seed``.  Sizes and
counts never depend on the seed, only the values do, so every seed gives
the same mix of operations.  Nothing here imports smaxplus.
"""

from __future__ import annotations

import math

from checks import RAYS, ZERO, mag, merged, nearest, s_add, s_mul, s_pow

# radial magnitudes stay in [e**-3, e**3], the band the repo's own random
# generators use; the wide-magnitude witness slice below is the exception
EXP_LO, EXP_HI = -3.0, 3.0


def rand_elem(rng, zero_p: float = 0.0) -> tuple:
    if rng.random() < zero_p:
        return ZERO
    return (rng.choice(RAYS), rng.uniform(EXP_LO, EXP_HI))


def segment_pair(rng, n: int):
    """Endpoints of dimension ``n`` with each sign used about n/3 times per
    endpoint (a fixed sign mix keeps the piece count steady across seeds),
    and n // 8 zero coordinates in ``a``."""
    def vec():
        signs = [RAYS[i % 3] for i in range(n)]
        rng.shuffle(signs)
        return [(s, rng.uniform(EXP_LO, EXP_HI)) for s in signs]

    a, b = vec(), vec()
    for i in rng.sample(range(n), n // 8):
        a[i] = ZERO
    return tuple(a), tuple(b)


def scaling_params(rng, a, b, count: int = 3):
    """Parameters lam < 0 for checking (lam (*) a) (+) b and its mirror,
    kept 1e-6 away from every tie value so that a signed max never falls on
    a float tie."""
    events = [
        bi[1] - ai[1] for ai, bi in zip(a, b) if ai[1] is not None and bi[1] is not None
    ]
    events += [-e for e in events]
    span = max((abs(e) for e in events), default=0.0) + 1.0
    out = []
    while len(out) < count:
        lam = -rng.uniform(0.0, span)
        if lam < 0.0 and all(abs(lam - e) > 1e-6 for e in events):
            out.append(lam)
    return out


def _interval(rng, lo_min: float = 0.05, lo_max: float = 12.0):
    lo = rng.uniform(lo_min, lo_max)
    return (lo, lo + rng.uniform(0.1, 5.0))


def ray_set(rng, kind: str) -> dict:
    """A ray set of one of four shapes: ``single`` (one interval), ``star``
    (intervals from the origin on 2 or 3 rays), ``gapped`` (two intervals on
    one ray, maybe more elsewhere) and ``split`` (intervals on two rays,
    away from the origin)."""
    rs = {r: [] for r in RAYS}
    if kind == "single":
        rs[rng.choice(RAYS)].append(_interval(rng))
    elif kind == "star":
        for r in rng.sample(RAYS, rng.choice((2, 3))):
            rs[r].append((0.0, rng.uniform(0.2, 15.0)))
    elif kind == "gapped":
        r = rng.choice(RAYS)
        lo, hi = _interval(rng)
        gap = rng.uniform(0.2, 4.0)
        rs[r] += [(lo, hi), (hi + gap, hi + gap + rng.uniform(0.1, 5.0))]
        if rng.random() < 0.5:
            rs[rng.choice([q for q in RAYS if q != r])].append(_interval(rng))
    elif kind == "split":
        for r in rng.sample(RAYS, 2):
            rs[r].append(_interval(rng))
    else:
        raise ValueError(kind)
    return rs


# Disconnected sets at magnitudes 1e6 and 1e9, for which
# find_multipoint_witness returns None against its contract (the absolute
# TIE_TOL in projection.py).  They do not depend on the seed, so every run
# fails exactly these operations.
WIDE_WITNESS_SETS = (
    {"+": [(1e6, 2e6), (3e6, 4e6)], "-": [], "o": []},
    {"+": [(1e9, 2e9), (3e9, 4e9)], "-": [], "o": []},
    {"+": [], "-": [(1e6, 2e6), (3e6, 4e6)], "o": []},
    {"+": [], "-": [], "o": [(1e9, 2e9), (3e9, 4e9)]},
)


def _kept_length(x, rs, t, base, bound):
    """Radial length of the set's points within distance ``t`` of ``x``,
    clipped at the grid bound."""
    mx = mag(x)
    total = 0.0
    for ray, ivs in rs.items():
        for lo, hi in merged(ivs):
            hi = min(hi, bound)
            if x[1] is None or ray == x[0]:
                u, v = max(lo, mx - t), min(hi, mx + t)
            else:
                # cross-ray distance grows with m; solve d(mx, m) = t
                reach = t - mx if base == 2 else (-mx + math.sqrt(max(0.0, 4 * t * t - 3 * mx * mx))) / 2
                u, v = lo, min(hi, reach)
            total += max(0.0, v - u)
    return total


def scored_points(x, factors, base, resolution, bound) -> float:
    """Estimate of the grid points a max-combine grid search must score:
    per coordinate, the points within the optimal distance."""
    t = max(nearest(xi, rs, base)[0] for xi, rs in zip(x, factors))
    return math.prod(_kept_length(xi, rs, t, base, bound) / resolution + 1 for xi, rs in zip(x, factors))


def grid_bound(x, factors) -> float:
    """Grid truncation the benchmark passes: one past the largest interval
    end or query radius, so every nearest point lies inside the grid."""
    tops = [hi for rs in factors for ivs in rs.values() for _, hi in ivs]
    return max(tops + [mag(e) for e in x]) + 1.0


def box_max_instance(rng, n: int, base: int, resolution: float, band):
    """A query and a box for the max-combine grid projection.  Factors hold
    one or two intervals with magnitudes below e**2; instances are redrawn
    until the estimated scored grid lies in ``band``, which keeps the cost
    per operation within a small factor (unbounded, it has a heavy tail)."""
    while True:
        factors = []
        for _ in range(n):
            rs = {r: [] for r in RAYS}
            for r in rng.sample(RAYS, rng.choice((1, 2))):
                lo = rng.uniform(0.1, 4.0)
                rs[r].append((lo, lo + rng.uniform(0.2, 3.0)))
            factors.append(rs)
        x = tuple((rng.choice(RAYS), rng.uniform(-2.0, 1.5)) for _ in range(n))
        bound = grid_bound(x, factors)
        if band[0] <= scored_points(x, factors, base, resolution, bound) <= band[1]:
            return x, factors, bound


# --- expressions ---------------------------------------------------------------


def _literal(rng, mode: str):
    """A literal with a half-integer magnitude, so every sum the evaluator
    forms is exact in floats."""
    if rng.random() < 0.08:
        return "eps", ZERO
    v = rng.randint(-6, 6) / 2
    text = f"{v:g}"
    if mode == "mpa" or rng.random() < 0.25:
        return text, ("+", v)
    sign = rng.choice(RAYS)
    prefix = {"+": "p", "-": "m", "o": "b"}[sign]
    return f"{prefix}:{text}", (sign, v)


# precedence: + (1) < * (2) < ^ (3) < literal (4)
def _expr(rng, mode: str, leaves: int):
    """Text, value and precedence of a random expression with ``leaves``
    literals.  Parentheses force the tree's evaluation order on the parser,
    so the value computed here is the value the parser must produce."""
    if leaves == 1:
        text, value = _literal(rng, mode)
        if rng.random() < 0.25:
            k = rng.randint(0, 3)
            return f"{text}^{k}", s_pow(value, k), 3
        return text, value, 4
    left_n = rng.randint(1, leaves - 1)
    lt, lv, lp = _expr(rng, mode, left_n)
    rt, rv, rp = _expr(rng, mode, leaves - left_n)
    op, prec, fn = ("+", 1, s_add) if rng.random() < 0.5 else ("*", 2, s_mul)
    if lp < prec:
        lt = f"({lt})"
    if rp <= prec:
        rt = f"({rt})"
    value = fn(lv, rv)
    if rng.random() < 0.15:
        k = rng.randint(0, 3)
        return f"({lt} {op} {rt})^{k}", s_pow(value, k), 3
    return f"{lt} {op} {rt}", value, prec


def expression(rng, mode: str, leaves: int = 8):
    text, value, _ = _expr(rng, mode, leaves)
    return text, value


def ray_set_json(rs: dict) -> dict:
    names = {"+": "plus", "-": "minus", "o": "balanced"}
    return {names[r]: [[lo, hi] for lo, hi in ivs] for r, ivs in rs.items() if ivs}
