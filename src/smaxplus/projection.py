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
and builds elements only for those.  Boxes call the kernel per factor: the
sum and Euclidean combines take the product of the factor argmins, and the
max combine cuts each factor by the ball of the largest factor distance.

Results are built without the public constructors' checks, through
``_trusted_selem`` and ``_trusted_svector``, and only from values the
kernels have just computed: an argmin or sample at a positive finite
radius ``m`` has exponent ``math.log(m)``, which is finite, and a product
vector is a tuple of such elements.  The checks took most of the time of a
large max-combine cloud.  A radius that is not positive and finite (a
segment set read from JSON can carry one) still goes through
``point_on_ray``, which raises.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, List, Optional, Tuple

from .algebra import RAYS, ZERO, SElem, _Record, _trusted_selem
from .metrics import MetricId, SVector, _trusted_svector, cross_distance, magnitude
from .raysets import BoxSet, RaySet, is_connected, point_on_ray

if TYPE_CHECKING:
    from .segments import ArcPiece, SegmentSet

TIE_TOL = 1e-9


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
        pts = []
        for p in data["points"]:
            pts.append(SVector.from_json(p) if "coords" in p else SElem.from_json(p))
        return cls(tuple(pts), data["distance"], data["singleton"])


_set_points = ProjectionResult.points.__set__
_set_distance = ProjectionResult.distance.__set__
_set_is_singleton = ProjectionResult.is_singleton.__set__


def _tied(d: float, ref: float) -> bool:
    """The one tie test: ``d`` is as near as ``ref`` up to the absolute
    TIE_TOL."""
    return d <= ref + TIE_TOL


def _nearest(x: SElem, intervals: List[tuple], base: int) -> ProjectionResult:
    """All nearest points of ``x`` among radial intervals, given as
    (ray, lo, hi, closed_lo, closed_hi, point) with ``point`` the element to
    report for a one-point interval that came as one (a segment's point
    piece), else None.

    Each interval offers one candidate, scored in floats: the clamp of the
    query's radial coordinate on its own ray (every ray for a zero query),
    the low end on the other rays.  The origin lies on every ray, so a low
    end at 0 is at radial distance.  A candidate at an excluded end lowers
    the infimum but is not attained.  Elements are built only for the
    argmins.
    """
    mx = magnitude(x)
    own = None if x.is_zero else x.sign
    infimum = best = math.inf
    attained = []
    for ray, lo, hi, closed_lo, closed_hi, point in intervals:
        if own is None or ray is own:
            m = min(max(mx, lo), hi)
            d = abs(mx - m)
        elif lo == 0.0:
            m, d = lo, mx
        else:
            m, d = lo, cross_distance(mx, lo, base)
        infimum = min(infimum, d)
        if (m != lo or closed_lo) and (m != hi or closed_hi):
            best = min(best, d)
            attained.append((d, ray, m, point))
    if not attained or not _tied(best, infimum):
        raise ValueError("nearest-point infimum is not attained in the segment set")
    points = {}  # sort key -> the first argmin with it; equal keys are equal elements
    for d, ray, m, point in attained:
        if _tied(d, best):
            if point is None:
                point = _trusted_selem(ray, math.log(m)) if 0.0 < m < math.inf else point_on_ray(ray, m)
            points.setdefault(point.sort_key(), point)
    return ProjectionResult(tuple([points[key] for key in sorted(points)]), best, len(points) == 1)


def project_ray(x: SElem, C: RaySet, base: int = 2) -> ProjectionResult:
    """All nearest points of ``x`` in a closed ray set under the chosen base
    metric (1 = chord, 2 = path)."""
    if C.is_empty:
        raise ValueError("empty set")
    if base not in (1, 2):
        raise ValueError("base metric must be 1 or 2")
    rays = zip(RAYS, (C.plus, C.minus, C.balanced))
    intervals = [(ray, lo, hi, True, True, None) for ray, ivs in rays for lo, hi in ivs]
    return _nearest(x, intervals, base)


def distance_to_set(x: SElem, C: RaySet, base: int = 2) -> float:
    """The attained minimum distance (the set is boundedly compact, so the
    infimum is a minimum; unbounded tails never win because the cross and
    radial forms are monotone beyond the clamp)."""
    return project_ray(x, C, base).distance


def is_chebyshev(C: RaySet) -> bool:
    """Whether every query has a unique nearest point; on the tripod this is
    exactly connectedness (for either base metric)."""
    return is_connected(C)


def project_union(x: SElem, A1: RaySet, A2: RaySet, base: int = 2) -> SElem:
    """Nearest point in a union of two sets, selected by comparing the two
    individual projections; requires both parts and the union to have unique
    nearest points everywhere."""
    union = A1.union(A2)
    for name, S in (("first set", A1), ("second set", A2), ("union", union)):
        if S.is_empty:
            raise ValueError(f"{name} is empty")
        if not is_chebyshev(S):
            raise ValueError(f"{name} is not Chebyshev")
    r1 = project_ray(x, A1, base)
    r2 = project_ray(x, A2, base)
    return r1.points[0] if r1.distance <= r2.distance else r2.points[0]


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
    per = [project_ray(xi, Ci, mid.base) for xi, Ci in zip(x, A.factors)]
    dists = [r.distance for r in per]
    if mid.combine == "sum":
        distance = float(sum(dists))
    else:
        distance = math.sqrt(sum(d * d for d in dists))
    points = tuple(map(_trusted_svector, itertools.product(*[r.points for r in per])))
    return ProjectionResult(points, distance, len(points) == 1)


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
    Clouds of more than 5,000,000 vectors are refused before any is built.
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
    per = [project_ray(xi, Ci, base) for xi, Ci in zip(x, factors)]
    D = max(r.distance for r in per)
    cuts = [
        () if r.distance == D else _ball_cut(xi, Ci, D, base)
        for xi, Ci, r in zip(x, factors, per)
    ]
    total = 1.0
    for r, cut in zip(per, cuts):
        total *= len(r.points) + sum((hi - lo) / resolution + 2.0 for _, lo, hi in cut)
    if total > 5_000_000:
        raise ValueError(f"argmin cloud too large ({total:.0f} points); raise the resolution")
    clouds = [_sample(r.points, cut, resolution) for r, cut in zip(per, cuts)]
    points = tuple(map(_trusted_svector, itertools.product(*clouds)))
    return ProjectionResult(points, D, all(len(c) == 1 for c in clouds))


def _truncate(C: RaySet, bound: float) -> RaySet:
    """The part of a ray set of magnitude at most ``bound``."""
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


_ORIGIN_KEY = ZERO.sort_key()


def _sample(exact: Tuple[SElem, ...], cut: List[tuple], step: float) -> List[SElem]:
    """One factor's argmin cloud: the exact points, then each interval from
    its low end ``step`` apart with its high end, deduplicated (the origin
    lies on every ray) and sorted.  Samples are keyed by their sort keys
    (ray order, exponent) in one dict, and an element is built only for a
    new key.  Every interval is finite (``project_box_max`` refuses
    unbounded clouds) and ``step`` is finite, so a sample other than the
    origin, which is the low end 0 only, has a positive finite radius."""
    points = {e.sort_key(): e for e in exact}
    log = math.log
    for ray, lo, hi in cut:
        order = RAYS.index(ray)
        first = 0
        if lo == 0.0:
            points.setdefault(_ORIGIN_KEY, ZERO)
            first = 1
        ms = [min(lo + i * step, hi) for i in range(first, int((hi - lo) / step) + 1)]
        if hi:
            ms.append(hi)
        for m in ms:
            key = (order, log(m))
            if key not in points:
                points[key] = _trusted_selem(ray, key[1])
    return [points[key] for key in sorted(points)]


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
            intervals.append((e.sign, m, m, True, True, e))
        else:
            intervals.append(_arc_interval(x, piece))
    return _nearest(x, intervals, base)


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
    return (ray, lo, hi, closed_lo, closed_hi, None)


def find_multipoint_witness(C: RaySet, base: int = 2) -> Optional[SElem]:
    """A query with at least two nearest points, when the set is
    disconnected; None for connected sets.

    Candidates: midpoints of same-ray gaps between consecutive intervals,
    and, for components on two different rays reachable through the origin
    gap, the point on the farther ray equidistant to both component tips.
    """
    if C.is_empty:
        raise ValueError("empty set")
    candidates: List[SElem] = []
    for ray in RAYS:
        ivs = C.intervals(ray)
        for (lo1, hi1), (lo2, hi2) in zip(ivs, ivs[1:]):
            candidates.append(point_on_ray(ray, (hi1 + lo2) / 2.0))
        # the origin lies on every ray, so a set containing it has a radial
        # gap up to the ray's first non-anchored interval
        if C.has_origin and ivs and ivs[0][0] > 0.0:
            candidates.append(point_on_ray(ray, ivs[0][0] / 2.0))
    if not C.has_origin:
        firsts = [
            (C.intervals(ray)[0][0], ray) for ray in RAYS if C.intervals(ray)
        ]
        if len(firsts) >= 2:
            firsts.sort()
            (alpha, _), (beta, ray_b) = firsts[0], firsts[1]
            if base == 2:
                m = (beta - alpha) / 2.0
            else:
                m = (beta * beta - alpha * alpha) / (2.0 * beta + alpha)
            candidates.append(point_on_ray(ray_b, m))
    for x in candidates:
        if len(project_ray(x, C, base).points) >= 2:
            return x
    return None
