"""Nearest-point maps onto ray sets, boxes, and segment sets.

Distances along one ray are |m - m'| in the radial coordinate for both base
metrics; across rays the path metric gives m + m' and the chord metric
sqrt(m^2 + m'^2 + m m').  Both cross-ray forms are strictly increasing in
m', so per interval only one candidate can attain the minimum: the clamp of
the query's radial coordinate on its own ray, and the low endpoint on the
other rays.  Ray sets and one-coordinate segment sets both reduce to radial
intervals with open/closed ends (an arc to the part of its chord on the
query's side of the origin), and one kernel scores every candidate in
floats, keeps the attained ones within the absolute TIE_TOL of the best,
and builds elements only for those.  A ray set's intervals are prepared
once per set: the kernel reads them from the set's cached index, which
carries each end's exponent ``math.log``, so an argmin at an interval end
is built from the cached exponent, and a query that is a member by those
exponents is returned as itself at distance 0; a segment set's intervals
depend on the query and are built per call, with no exponents.  Boxes
call the kernel per factor: the sum and Euclidean combines take the
product of the factor argmins.  The max combine does not factorize; its
projection, ``project_box_max``, lives in ``boxmax``, which only
max-combine callers load.  The kernel returns the nearest points and their
distance, not a ``ProjectionResult``, so boxes, which call it once per
factor, build one result per public call.  The multipoint witness is built
in a gap, not scored.

Results are built without the public constructors' checks, through
``_trusted_selem`` and ``_trusted_svector``, and only from values the
kernels have just computed: an argmin at a positive finite radius ``m``
has exponent ``math.log(m)``, which is finite, and a product vector is a
tuple of such elements.  The one other radius an argmin can have is 0,
an interval's low end at the origin: an arc's ends, also from JSON, are
checked finite, and a ray set's only infinite end is a high end, which no
clamp reaches.  That argmin goes through ``point_on_ray``, which returns
the zero element.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional, Tuple

from .algebra import EPS, RAYS, SElem, Sign, _check_keys, _is_number, _Record, _trusted_selem
from .metrics import (
    _MAX_EXP_ARG, _MIN_EXP_ARG, MetricId, SVector, _euclid_norm, _trusted_svector,
    cross_distance, magnitude,
)
from .raysets import _KERNEL, BoxSet, RaySet, point_on_ray

if TYPE_CHECKING:
    from .segments import ArcPiece, SegmentSet

TIE_TOL = 1e-9

# the exponent of an interval end that has none known: every comparison
# with it fails
_NO_EXP = math.nan


class ProjectionResult(_Record):
    """All nearest points of a query in a set, with the attained distance."""

    __slots__ = ("points", "distance", "is_singleton")
    points: Tuple[object, ...]  # SElem for the line, SVector for products
    distance: float
    is_singleton: bool

    def __init__(self, points: Tuple[object, ...], distance: float, is_singleton: bool):
        _set_points(self, points)
        _set_distance(self, distance)
        _set_is_singleton(self, is_singleton)

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "distance": self.distance,
            "singleton": self.is_singleton,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProjectionResult":
        if not isinstance(data, dict):
            raise ValueError(f"a projection result must be an object, got {type(data).__name__}")
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
        result = cls(tuple(pts), distance, singleton)
        _check_keys(data, ("points", "distance", "singleton"))
        return result


_set_points = ProjectionResult.points.__set__
_set_distance = ProjectionResult.distance.__set__
_set_is_singleton = ProjectionResult.is_singleton.__set__


def _tied(d: float, ref: float) -> bool:
    """The one tie test: ``d`` is as near as ``ref`` up to the absolute
    TIE_TOL.  It is reflexive, as any tie rule is, so ``_nearest`` skips
    it where ``d == ref``."""
    return d <= ref + TIE_TOL


def _nearest(x: SElem, intervals, base: int) -> Tuple[Tuple[SElem, ...], float]:
    """The nearest points of ``x`` among radial intervals, in sort order,
    and their distance.  Intervals are given as (ray, lo, hi, closed_lo,
    closed_hi, point, t_lo, t_hi): ``point`` is the element to report for a
    one-point interval that came as one (a segment's point piece), else
    None, and ``t_lo``, ``t_hi`` are the ends' exponents when known (a ray
    set's index), else nan.

    Each interval offers one candidate, scored in floats: the clamp of the
    query's radial coordinate on its own ray (every ray for a zero query),
    the low end on the other rays.  The origin lies on every ray, so a low
    end at 0 is at radial distance.  A candidate at an excluded end lowers
    the infimum but is not attained.  Elements are built only for the
    argmins, and deduplicated and sorted only when more than one ties.  An
    argmin at an end with a known finite exponent is built from it, which
    is the ``math.log`` of the end; any other from ``math.log`` of its
    radius.

    A query whose exponent lies in an interval of its own ray by the known
    exponents (``t_lo <= x.exp <= t_hi``, the rule of ``RaySet.contains``)
    is a member, and its own nearest point: every other point is at a
    positive distance.  It is returned at once, itself at distance 0, and
    not rebuilt from its radius, which the ``exp``/``log`` round trip can
    move by an ulp.  The zero query takes the origin's exponent ``-inf``,
    so an interval of any ray that starts at the origin answers it.  When
    ``|x.exp|`` exceeds log(float max), the members are looked for before
    the radius is taken, so that an exact answer raises no
    ``MagnitudeRangeWarning``.
    """
    tx = x.exp
    if _MIN_EXP_ARG <= tx <= _MAX_EXP_ARG:
        # magnitude(x), which cannot leave the float range here
        own, mx = x.sign, math.exp(tx)
    elif tx is EPS:
        own, tx, mx = None, -math.inf, 0.0
    else:
        # e**tx may leave the float range, where magnitude warns: a member
        # is answered from the exponents before the radius is taken
        own = x.sign
        for ray, _, _, _, _, _, t_lo, t_hi in intervals:
            if ray is own and t_lo <= tx <= t_hi:
                return (x,), 0.0
        mx = magnitude(x)
    infimum = best = math.inf
    attained = []
    for ray, lo, hi, closed_lo, closed_hi, point, t_lo, t_hi in intervals:
        if own is None or ray is own:
            if t_lo <= tx <= t_hi:
                return (x,), 0.0
            if mx < lo:
                m, t = lo, t_lo
            elif mx > hi:
                m, t = hi, t_hi
            else:
                m, t = mx, _NO_EXP
            d = abs(mx - m)
        elif lo == 0.0:
            m, t, d = lo, t_lo, mx
        else:
            m, t, d = lo, t_lo, cross_distance(mx, lo, base)
        if d < infimum:
            infimum = d
        if (m != lo or closed_lo) and (m != hi or closed_hi):
            if d < best:
                best = d
            attained.append((d, ray, m, point, t))
    if not attained or best != infimum and not _tied(best, infimum):
        raise ValueError("nearest-point infimum is not attained in the segment set")
    points = [
        point if point is not None
        else _trusted_selem(ray, t) if -math.inf < t < math.inf
        else _trusted_selem(ray, math.log(m)) if 0.0 < m < math.inf
        else point_on_ray(ray, m)
        for d, ray, m, point, t in attained
        if d == best or _tied(d, best)
    ]
    if len(points) == 1:
        return (points[0],), best
    by_key = {}  # sort key -> the first argmin with it; equal keys are equal elements
    for point in points:
        by_key.setdefault(point.sort_key(), point)
    return tuple([by_key[key] for key in sorted(by_key)]), best


def _ray_intervals(C: RaySet, base: int) -> Tuple[tuple, ...]:
    """The kernel's intervals for a ray set, read from its index, after the
    checks every projection onto a ray set makes."""
    intervals = (C._index or C._prepare())[_KERNEL]
    if not intervals:
        raise ValueError("empty set")
    if base not in (1, 2):
        raise ValueError("base metric must be 1 or 2")
    return intervals


def project_ray(x: SElem, C: RaySet, base: int = 2) -> ProjectionResult:
    """All nearest points of ``x`` in a closed ray set under the chosen base
    metric (1 = chord, 2 = path)."""
    points, distance = _nearest(x, _ray_intervals(C, base), base)
    return ProjectionResult(points, distance, len(points) == 1)


def distance_to_set(x: SElem, C: RaySet, base: int = 2) -> float:
    """The attained minimum distance (the set is boundedly compact, so the
    infimum is a minimum; unbounded tails never win because the cross and
    radial forms are monotone beyond the clamp)."""
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
    base = mid.base
    per = [_nearest(xi, _ray_intervals(Ci, base), base) for xi, Ci in zip(x, A.factors)]
    dists = [d for _, d in per]
    distance = float(sum(dists)) if mid.combine == "sum" else _euclid_norm(dists)
    points = tuple(map(_trusted_svector, itertools.product(*[p for p, _ in per])))
    return ProjectionResult(points, distance, len(points) == 1)


def project_segment_set(x: SElem, S: SegmentSet, base: int = 2) -> ProjectionResult:
    """Nearest points of a one-coordinate segment set, honoring open ends.

    Open arc ends are not members: if an arc's infimum sits at an excluded
    endpoint it contributes no candidate.  When nothing attains the overall
    infimum the set is not proximinal at ``x`` and a ValueError is raised.
    """
    # imported here, so that projecting onto ray sets and boxes (a cold
    # `smaxplus project` or `check`) never loads the segments layer
    from .segments import PointPiece

    if not S.pieces:
        raise ValueError("empty segment set")
    intervals = []
    for piece in S.pieces:
        if isinstance(piece, PointPiece):
            if len(piece.point) != 1:
                raise ValueError("segment projection is defined on the line only")
            e = piece.point[0]
            m = magnitude(e)
            intervals.append((e.sign, m, m, True, True, e, _NO_EXP, _NO_EXP))
        else:
            intervals.append(_arc_interval(x, piece))
    points, distance = _nearest(x, intervals, base)
    return ProjectionResult(points, distance, len(points) == 1)


def _arc_interval(x: SElem, arc: ArcPiece) -> tuple:
    """The radial interval of a one-coordinate arc that holds its nearest
    point to ``x``.  An arc on chart (u, v) lies on u where its chart value
    is >= 0 and on v where it is <= 0; the part taken is the one on the
    query's ray when the arc reaches it, else the other (for a zero or
    third-ray query, u unless the arc lies wholly below 0).  A chord that
    crosses 0 holds the origin as an interior, hence closed, point."""
    if len(arc.start) != 1:
        raise ValueError("segment projection is defined on the line only")
    (u, v) = arc.chart[0]
    p, q = arc.start[0], arc.end[0]
    lo, hi, closed_lo, closed_hi = (
        (p, q, arc.closed_lo, arc.closed_hi) if p <= q else (q, p, arc.closed_hi, arc.closed_lo)
    )
    toward_v = not x.is_zero and x.sign is v and x.sign is not u
    ray = u
    if (lo <= 0.0) if toward_v else (hi < 0.0):
        ray, lo, hi, closed_lo, closed_hi = v, -hi, -lo, closed_hi, closed_lo
    if lo < 0.0:
        lo, closed_lo = 0.0, True
    return (ray, lo, hi, closed_lo, closed_hi, None, _NO_EXP, _NO_EXP)


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
    if base not in (1, 2):
        raise ValueError("base metric must be 1 or 2")
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
