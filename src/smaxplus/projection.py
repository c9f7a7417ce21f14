"""Nearest-point maps onto line sets and boxes.

Distances along one ray are |m - m'| in the radial coordinate for both base
metrics; across rays the path metric gives m + m' and the chord metric
sqrt(m^2 + m'^2 + m m').  Both cross-ray forms are strictly increasing in
m', so per interval only one candidate can attain the minimum: on the
query's own ray the query itself, when it is a member, else the nearer end,
and the low end on the other rays.  A line set, a ray set or a
one-coordinate segment set, is a union of radial intervals with
open/closed ends that carry their ends' exponents and elements.  Each set
builds its index once, from itself alone, through one builder,
``raysets._line_index``, in one layout, whose ``_KERNEL`` slot holds the
intervals: disjoint and sorted per ray.  A ray set's are closed; a
segment set's carry its pieces' end flags, an arc giving its chord's part
on each ray it reaches, and parts that overlap or touch at a closed end
are merged, so how the pieces are listed makes no false tie.  So
``project_ray`` projects every line set through one path, and this
module knows no piece types.  One kernel decides membership and the
own-ray candidate on exponents, scores every candidate in floats, across
rays with the base's cross kernel (``metrics._CROSS``, which
``_check_base`` returns, so a path-metric candidate costs one add), and
keeps the attained ones within the absolute TIE_TOL of the best; it holds
the first attained candidate alone and starts a candidate list only at
the second.  Boxes call the kernel per factor: the sum and Euclidean
combines take the product of the factor argmins.  The max combine does not
factorize; its projection, ``project_box_max``, lives in ``boxmax``, which
only max-combine callers load.  The kernel returns the nearest points and
their distance, not a ``ProjectionResult``, so boxes, which call it once
per factor, build one result per public call.  The multipoint witness is
built in a gap, not scored.

Every nearest point is therefore the query or an interval end, and the
kernel builds no element: a member query is returned as itself, and an end
as the element its interval carries, built once with the set's index from
the end's exponent (``math.log`` of a positive finite radius), or the
element a one-point piece came as.  An end at the origin has exponent -inf
and is the zero element; an unbounded end, with exponent inf, carries no
element and is never a candidate, since every finite exponent lies at or
below it.  A product vector is a tuple of such elements, built without the
public constructor's checks through ``_trusted_svector``.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

from .algebra import (
    EPS, RAYS, SElem, Sign, _check_keys, _check_object, _is_number, _Record, _trusted_selem,
)
from .metrics import (
    _CROSS, _MAX_EXP_ARG, _MIN_EXP_ARG, MetricId, SVector, _euclid_norm, _is_base, _trusted_svector,
    magnitude,
)
from .raysets import _KERNEL, BoxSet, RaySet, point_on_ray

TIE_TOL = 1e-9


class ProjectionResult(_Record):
    """All nearest points of a query in a set, with the attained distance."""

    __slots__ = ("points", "distance")
    points: Tuple[object, ...]  # SElem for the line, SVector for products
    distance: float

    def __init__(self, points: Tuple[object, ...], distance: float):
        _set_points(self, points)
        _set_distance(self, distance)

    @property
    def is_singleton(self) -> bool:
        return len(self.points) == 1

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "distance": self.distance,
            "singleton": self.is_singleton,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProjectionResult":
        _check_object(data, "a projection result")
        points, distance, singleton = data["points"], data["distance"], data["singleton"]
        if not isinstance(points, (list, tuple)):
            raise ValueError(f"points must be a list of elements or vectors, got {points!r}")
        if not _is_number(distance):
            raise ValueError(f"distance must be a number, got {distance!r}")
        if not isinstance(singleton, bool):
            raise ValueError(f"singleton must be true or false, got {singleton!r}")
        pts = []
        for p in points:
            if not isinstance(p, dict):
                raise ValueError(f"a point must be an element or vector object, got {p!r}")
            pts.append(SVector.from_json(p) if "coords" in p else SElem.from_json(p))
        if singleton != (len(pts) == 1):
            raise ValueError(f"singleton {str(singleton).lower()} disagrees with the point count {len(pts)}")
        result = cls(tuple(pts), distance)
        _check_keys(data, ("points", "distance", "singleton"))
        return result


_set_points = ProjectionResult.points.__set__
_set_distance = ProjectionResult.distance.__set__
_exp = math.exp


def _tied(d: float, ref: float) -> bool:
    """The one tie test: ``d`` is as near as ``ref`` up to the absolute
    TIE_TOL.  It is reflexive, as any tie rule is, so ``_nearest`` skips
    it where ``d == ref``."""
    return d <= ref + TIE_TOL


def _nearest(x: SElem, intervals, cross) -> Tuple[Tuple[SElem, ...], float]:
    """The nearest points of ``x`` among radial intervals, in sort order,
    and their distance.  Intervals are given as (ray, lo, hi, closed_lo,
    closed_hi, t_lo, t_hi, e_lo, e_hi), where ``t_lo`` and ``t_hi`` are the
    ends' exponents: ``math.log`` of a positive radius, -inf at the origin
    and inf for an unbounded end; ``e_lo`` and ``e_hi`` are the ends'
    elements, ``ZERO`` at the origin and None at an unbounded end.  A
    one-point interval made from an element carries that element and its
    exponent at both ends.

    Every decision on the query's own ray (every ray for a zero query,
    whose exponent is taken as the origin's -inf) is made on exponents.
    The query is a member of an interval when ``t_lo <= x.exp <= t_hi``,
    the rule of ``RaySet.contains``, and it is not at an open end; a
    member is its own nearest point, since every other point is at a
    positive distance, and is returned at once, itself at distance 0.
    Otherwise the interval's candidate is its low end when the query lies
    at or below it, else its high end.  On another ray the candidate is
    the low end.  Candidates are scored in floats: at radial distance on
    the query's ray and at the origin, which lies on every ray, and by
    ``cross``, the base's kernel from ``metrics._CROSS``, across rays.  A
    candidate at an excluded end lowers the infimum but is not attained.
    So every argmin is an interval end, returned as the element its
    interval carries, or the origin; no element is built here.  The first
    attained candidate is held alone and returned when no other is
    attained; the candidate list starts at the second, and the argmins are
    deduplicated and sorted only when more than one ties.  When
    ``|x.exp|`` exceeds log(float max), the members are looked for before
    the radius is taken, so that an exact answer raises no
    ``MagnitudeRangeWarning``.
    """
    tx = x.exp
    if _MIN_EXP_ARG <= tx <= _MAX_EXP_ARG:
        # magnitude(x), which cannot leave the float range here
        own, mx = x.sign, _exp(tx)
    elif tx is EPS:
        own, tx, mx = None, -math.inf, 0.0
    else:
        # e**tx may leave the float range, where magnitude warns: a member
        # is answered from the exponents before the radius is taken
        own = x.sign
        for ray, _, _, closed_lo, closed_hi, t_lo, t_hi, _, _ in intervals:
            if ray is own and t_lo <= tx <= t_hi and (closed_lo or tx != t_lo) and (closed_hi or tx != t_hi):
                return (x,), 0.0
        mx = magnitude(x)
    infimum = best = math.inf
    first = attained = None  # the first attained candidate; the list from the second
    for ray, lo, hi, closed_lo, closed_hi, t_lo, t_hi, e_lo, e_hi in intervals:
        if own is None or ray is own:
            if t_lo <= tx <= t_hi and (closed_lo or tx != t_lo) and (closed_hi or tx != t_hi):
                return (x,), 0.0
            m, e = (lo, e_lo) if tx <= t_lo else (hi, e_hi)
            d = abs(mx - m)
        else:
            m, e = lo, e_lo
            d = mx if lo == 0.0 else cross(mx, lo)
        if d < infimum:
            infimum = d
        if (m != lo or closed_lo) and (m != hi or closed_hi):
            if first is None:
                first, best = e, d
                continue
            attained = attained or [(best, first)]  # best is still the first's distance here
            attained.append((d, e))
            if d < best:
                best = d
    if first is None or best != infimum and not _tied(best, infimum):
        raise ValueError("nearest-point infimum is not attained in the segment set")
    if attained is None:
        return (first,), best
    points = []  # a loop, not a comprehension, which would cost a call here
    for d, e in attained:
        if d == best or _tied(d, best):
            points.append(e)
    if len(points) == 1:
        return (points[0],), best
    # sort key -> the first argmin with it, set last; equal keys are equal elements
    by_key = {point.sort_key(): point for point in reversed(points)}
    return tuple([by_key[key] for key in sorted(by_key)]), best


def _check_base(base):
    """The one base check of the line projections, by ``MetricId``'s rule
    (``metrics._is_base``), returning the base's cross kernel
    (``metrics._CROSS``); a plain int is decided here, since
    ``project_ray`` runs the check on every call."""
    if base.__class__ is int and (base == 1 or base == 2) or _is_base(base):
        return _CROSS[base]
    raise ValueError("base metric must be 1 or 2")


def project_ray(x: SElem, C, base: int = 2) -> ProjectionResult:
    """All nearest points of ``x`` in a line set under the chosen base
    metric (1 = chord, 2 = path).  The set is a closed ray set, or a
    one-coordinate segment set, whose open arc ends are not members: a query
    at one is not its own nearest point, and an end it excludes is no
    candidate.  Where nothing in a segment set attains the infimum, the set
    is not proximinal at ``x`` and a ValueError says that the infimum is not
    attained.

    The kernel's intervals are the ``_KERNEL`` slot of the set's index; a
    segment set's index refuses an empty or a multi-coordinate set as it
    is built, before the emptiness and base checks here."""
    intervals = (C._index or C._prepare())[_KERNEL]
    if not intervals:
        raise ValueError("empty set")
    points, distance = _nearest(x, intervals, _check_base(base))
    # built as the hot classes of ``_Record`` are, with no __init__ frame
    result = object.__new__(ProjectionResult)
    _set_points(result, points)
    _set_distance(result, distance)
    return result


def distance_to_set(x: SElem, C, base: int = 2) -> float:
    """The attained minimum distance.  On a ray set the infimum is a minimum
    (the set is boundedly compact, and unbounded tails never win because
    the cross and radial forms are monotone beyond an interval's ends); on a
    segment set whose infimum sits at an open end it is not, and, as in
    ``project_ray``, a ValueError says so."""
    return project_ray(x, C, base).distance


def project_box(x: SVector, A: BoxSet, mid: MetricId) -> ProjectionResult:
    """Coordinatewise projection assembled as a Cartesian product; valid for
    the Euclidean and sum combines, whose joint minimum factorizes."""
    if A.is_empty:
        raise ValueError("empty set")
    if len(x) != len(A):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(A)}")
    if mid.combine == "max":
        raise ValueError(
            "max-combine projection does not factorize over coordinates; "
            "use project_box_max instead"
        )
    # MetricId holds base 1 or 2 and no factor is empty, so each factor
    # needs only its cached kernel intervals
    cross = _CROSS[mid.base]
    pts, dists = zip(*[_nearest(xi, (Ci._index or Ci._prepare())[_KERNEL], cross) for xi, Ci in zip(x, A.factors)])
    distance = float(sum(dists)) if mid.combine == "sum" else _euclid_norm(dists)
    return ProjectionResult(tuple(map(_trusted_svector, itertools.product(*pts))), distance)


def find_multipoint_witness(C: RaySet, base: int = 2) -> Optional[SElem]:
    """A query with at least two nearest points, built in the set's first gap;
    None when there is none, that is for a single interval or a star.

    Gaps are tried per ray in ``RAYS`` order (between its consecutive
    intervals, then between the origin and its first interval), then, with
    no origin, across it between the two smallest first low ends alpha <=
    beta (equal ends ordered by ray).  The query is at the half-gap g from
    both gap ends and nothing is nearer: the rest of its ray lies beyond
    them, and another ray is at least the query's radius m >= g away (m =
    hi1 + g in a same-ray gap, g in the origin gap; across, the query on
    beta's ray has beta - m = cross(m, alpha) = g, and a third ray's first
    low end gamma >= beta is at cross(m, gamma) >= gamma >= g).  The chord
    metric's cross point (beta^2 - alpha^2) / (2 beta + alpha) is evaluated
    on alpha and beta scaled by a power of two, and midpoints as halves
    summed, so nothing overflows or underflows: the witness is exact up to
    the rounding of m and of its exponent ``log m``, and nothing is scored.

    A query is an exponent, and a gap narrower than the float spacing (ends
    an ulp apart, or radii near 1e15 whose logarithms are a few ulps apart)
    can put the midpoint's exponent on an end's, which is a member.  The query
    is then built from the midpoint of the end exponents, strictly between
    them and so outside the set: its radius is the ends' geometric mean,
    which in a gap this narrow is their midpoint up to rounding.  The
    canonical form merges a gap with no exponent strictly inside, so every
    gap has one, and None means exactly that the set is connected.
    """
    if C.is_empty:
        raise ValueError("empty set")
    _check_base(base)
    rays = (C.plus, C.minus, C.balanced)
    has_origin = C.has_origin
    for ray, ivs in zip(RAYS, rays):
        if len(ivs) > 1:
            return _gap_witness(ray, ivs[0][1], ivs[1][0])
        if has_origin and ivs and ivs[0][0] > 0.0:
            return _gap_witness(ray, 0.0, ivs[0][0])
    firsts = sorted((ivs[0][0], i) for i, ivs in enumerate(rays) if ivs)
    if has_origin or len(firsts) < 2:
        return None
    (alpha, _), (beta, i) = firsts[:2]
    if base == 2:
        m = (beta - alpha) / 2.0
    else:
        b, e = math.frexp(beta)  # beta = b * 2**e exactly, with 0.5 <= b < 1
        a = math.ldexp(alpha, -e)
        m = math.ldexp((b * b - a * a) / (2.0 * b + a), e)
    return point_on_ray(RAYS[i], m)


def _gap_witness(ray: Sign, hi1: float, lo2: float) -> SElem:
    """The query in the gap (hi1, lo2) of a ray (hi1 = 0 for the origin):
    the element at the midpoint radius when its exponent lies strictly
    between the ends' exponents, else the element at the midpoint of those
    exponents (log lo2 - log 2 from the origin).  Some float lies strictly
    between the ends' exponents (the canonical form merges the gaps where
    none does), and then so does their rounded midpoint."""
    m = 0.5 * hi1 + 0.5 * lo2
    t1 = math.log(hi1) if hi1 > 0.0 else -math.inf
    t2 = math.log(lo2)
    t = math.log(m) if m > 0.0 else -math.inf
    if not t1 < t < t2:
        t = 0.5 * t1 + 0.5 * t2 if hi1 > 0.0 else t2 - _LOG2
    return _trusted_selem(ray, t)


_LOG2 = math.log(2.0)
