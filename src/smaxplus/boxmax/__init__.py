"""Nearest points of a box under the max-combine metric.

The max combine does not factorize over coordinates: the distance is the
largest factor distance D, and the argmin set is the box of the factors cut
by the ball of radius D around the query's coordinates.  ``project_box_max``
samples each cut (``_sample``) per ray and in order, in C-level passes with
no per-sample key, dict probe or global sort.

The cloud is built without the public constructors' checks, through the
batch constructors ``_trusted_selems`` and ``_trusted_product`` of
``metrics``, and only from values the kernels have just computed: a sample
at a positive finite radius ``m`` has exponent ``math.log(m)``, which is
finite, and a product vector is a tuple of such elements.  The checks
took most of the time of a large max-combine cloud.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul
from typing import List, Optional, Tuple

from ..algebra import BALANCED, RAYS, ZERO, SElem
from ..metrics import SVector, _trusted_product, _trusted_selems, magnitude
from ..projection import ProjectionResult, _check_base, _nearest
from ..raysets import _KERNEL, BoxSet, RaySet


def project_box_max(
    x: SVector,
    A: BoxSet,
    base: int = 2,
    resolution: Optional[float] = None,
    max_magnitude: Optional[float] = None,
) -> ProjectionResult:
    """All nearest points under the max-combine metric, which does not
    factorize: the distance is D = max_i dist(x_i, C_i), and the argmin set
    is the box of the factors B_i = C_i cut by the closed ball of radius D
    around x_i.  A factor whose own distance is D has for B_i exactly its
    nearest points; every other B_i is a union of radial intervals, returned
    as a cloud sampled ``resolution`` apart (default 1e-3) from each low
    end, with the high end and the factor's own nearest points included
    exactly.  ``max_magnitude``, when given, truncates the factors first.
    Clouds of more than 5,000,000 coordinates in all (vectors times
    coordinates each) are refused before any is built.
    """
    if A.is_empty:
        raise ValueError("empty set")
    if len(x) != len(A):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(A)}")
    if resolution is None:
        resolution = 1e-3
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    if resolution == math.inf:
        # the first sample would be lo + 0 * inf = nan
        raise ValueError("resolution must be finite")
    factors = A.factors
    if max_magnitude is not None:
        factors = tuple(_truncate(C, max_magnitude) for C in factors)
        if any(C.is_empty for C in factors):
            raise ValueError(f"the box has no point of magnitude at most {max_magnitude}")
    # no factor is empty, so after the one base check each factor needs only
    # its cached kernel intervals
    cross = _check_base(base)
    per = [_nearest(xi, (Ci._index or Ci._prepare())[_KERNEL], cross) for xi, Ci in zip(x, factors)]
    D = max(d for _, d in per)
    cuts = [
        () if d == D else _ball_cut(xi, Ci, D, base)
        for xi, Ci, (_, d) in zip(x, factors, per)
    ]
    total = 1.0
    for (exact, _), cut in zip(per, cuts):
        total *= len(exact) + sum((hi - lo) / resolution + 2.0 for _, lo, hi in cut)
    if total * len(x) > 5_000_000:
        raise ValueError(f"argmin cloud too large ({total:.0f} points); raise the resolution")
    clouds = [_sample(exact, cut, resolution) for (exact, _), cut in zip(per, cuts)]
    return ProjectionResult(_trusted_product(clouds), D)


def _truncate(C: RaySet, bound: float) -> RaySet:
    """The part of a ray set of magnitude at most ``bound``: ``C`` itself
    when no interval end exceeds it (rebuilding would give an equal set, as
    the canonical form is idempotent), else the set rebuilt from the
    intervals clipped at ``bound``."""
    if all(not ivs or ivs[-1][1] <= bound for ivs in (C.plus, C.minus, C.balanced)):
        return C
    return RaySet(*(
        tuple((lo, min(hi, bound)) for lo, hi in C.intervals(ray) if lo <= bound)
        for ray in RAYS
    ))


def _ball_cut(x: SElem, C: RaySet, D: float, base: int) -> List[tuple]:
    """The radial intervals (ray, lo, hi) of ``C`` within distance ``D`` of
    ``x``.  On the query's own ray (every ray for a zero query) the ball is
    [mx - D, mx + D]; on another ray it is empty when D < mx, else [0, D - mx]
    under the path metric and, solving m^2 + m mx + mx^2 = D^2, [0, (-mx +
    D sqrt(4 - 3 (mx/D)^2)) / 2] under the chord metric (scaled by D so the
    squares neither overflow nor underflow)."""
    mx = magnitude(x)
    cut = []
    for ray in RAYS:
        if x.is_zero or ray is x.sign:
            b_lo, b_hi = mx - D, mx + D
        elif D < mx:
            continue
        elif base == 2:
            b_lo, b_hi = 0.0, D - mx
        else:
            r = mx / D if D else 0.0
            b_lo, b_hi = 0.0, (D * math.sqrt(4.0 - 3.0 * r * r) - mx) / 2.0
        for lo, hi in C.intervals(ray):
            lo, hi = max(lo, b_lo), min(hi, b_hi)
            if lo <= hi:
                cut.append((ray, lo, hi))
    return cut


def _sample(exact: Tuple[SElem, ...], cut: List[tuple], step: float) -> List[SElem]:
    """One factor's argmin cloud in ``SElem.sort_key`` order: each cut
    interval from its low end ``step`` apart with its high end, merged with
    the factor's exact points and deduplicated (the origin lies on every
    ray).  With no cut (the factor binds) the exact points are the cloud.

    The build is per ray and in order, with no per-sample key, dict probe
    or global sort; it relies on three orders.  ``_ball_cut`` lists the cut
    in ``RAYS`` order with each ray's intervals ascending and disjoint, so
    the radii ``lo + i * step`` of a ray rise with the interval and with
    ``i`` (float sums are monotone in ``i``); only a tail of an interval can
    pass ``hi``, and it is dropped, since the clamped value ``hi`` is
    sampled anyway.  ``math.log`` is monotone, so a ray's exponents arrive
    ascending and ``dict.fromkeys`` drops equal ones (equal radii, or radii
    near 1e15 whose logarithms round together) in order.  The origin's key
    ``(2, -inf)`` puts it first on the balanced ray.  An exact point equal
    to a sample adds nothing; one between samples (an off-grid clamp) is
    inserted, and only then is that ray sorted.  ``exact`` comes from
    ``_nearest``, deduplicated and sorted.

    Every interval is finite (``project_box_max`` refuses unbounded clouds)
    and ``step`` is finite, so every radius but the origin, which is the low
    end 0 only, is positive and finite: its exponent ``math.log(m)`` meets
    ``_trusted_selems``' precondition."""
    if not cut:
        return exact
    radii = {ray: [] for ray in RAYS}
    origin = False
    for ray, lo, hi in cut:
        first = 0
        if lo == 0.0:
            origin, first = True, 1
        ms = radii[ray]
        # the ray's earlier radii are at most the previous high end, below lo
        ms += map(add, repeat(lo), map(mul, range(first, int((hi - lo) / step) + 1), repeat(step)))
        while ms and ms[-1] > hi:
            ms.pop()
        if hi:
            ms.append(hi)
    exps = {ray: dict.fromkeys(map(math.log, ms)) for ray, ms in radii.items()}
    unsorted = set()
    for e in exact:
        if e.is_zero:
            origin = True
        elif e.exp not in exps[e.sign]:
            exps[e.sign][e.exp] = None
            unsorted.add(e.sign)
    cloud = []
    for ray in RAYS:
        if origin and ray is BALANCED:
            cloud.append(ZERO)
        ray_exps = exps[ray]
        if ray_exps:
            cloud += _trusted_selems(repeat(ray), sorted(ray_exps) if ray in unsorted else ray_exps)
    return cloud
