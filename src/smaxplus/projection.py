"""Nearest-point maps onto ray sets, boxes, and segment sets.

Distances along one ray are |m - m'| in the radial coordinate for both base
metrics; across rays the path metric gives m + m' and the chord metric
sqrt(m^2 + m'^2 + m m').  Both cross-ray forms are strictly increasing in
m', so per interval only one candidate can attain the minimum: the clamp of
the query's radial coordinate on its own ray, and the low endpoint on the
other rays.  Projections therefore reduce to scoring a finite candidate set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import RAYS, SElem, Sign, ZERO
from .metrics import MetricId, SVector, cross_distance, magnitude
from .raysets import BoxSet, RaySet, is_connected, point_on_ray
from .segments import ArcPiece, PointPiece, SegmentSet

TIE_TOL = 1e-9


@dataclass(frozen=True)
class ProjectionResult:
    """All nearest points of a query in a set, with the attained distance."""

    points: Tuple[object, ...]  # SElem for the line, SVector for products
    distance: float
    is_singleton: bool

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


def _result_from_candidates(cands: List[Tuple[SElem, float]]) -> ProjectionResult:
    best = min(d for _, d in cands)
    argmins: List[SElem] = []
    for p, d in cands:
        if d <= best + TIE_TOL and p not in argmins:
            argmins.append(p)
    argmins.sort(key=SElem.sort_key)
    return ProjectionResult(tuple(argmins), best, len(argmins) == 1)


def project_ray(x: SElem, C: RaySet, base: int = 2) -> ProjectionResult:
    """All nearest points of ``x`` in a closed ray set under the chosen base
    metric (1 = chord, 2 = path)."""
    if C.is_empty:
        raise ValueError("empty set")
    if base not in (1, 2):
        raise ValueError("base metric must be 1 or 2")
    mx = magnitude(x)
    own_ray = None if x.is_zero else x.sign
    cands: List[Tuple[SElem, float]] = []
    for ray in RAYS:
        same = own_ray is None or ray is own_ray
        for lo, hi in C.intervals(ray):
            if same:
                m = min(max(mx, lo), hi)
                d = abs(mx - m)
            else:
                m = lo
                d = cross_distance(mx, lo, base)
            cands.append((point_on_ray(ray, m), d))
    return _result_from_candidates(cands)


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
            "use project_box_max (grid search) instead"
        )
    per = [project_ray(xi, Ci, mid.base) for xi, Ci in zip(x, A.factors)]
    dists = [r.distance for r in per]
    if mid.combine == "sum":
        distance = float(sum(dists))
    else:
        distance = math.sqrt(sum(d * d for d in dists))
    points = tuple(
        SVector(combo) for combo in itertools.product(*[r.points for r in per])
    )
    return ProjectionResult(points, distance, len(points) == 1)


def project_box_max(
    x: SVector,
    A: BoxSet,
    base: int = 2,
    resolution: float = 1e-3,
    max_magnitude: Optional[float] = None,
) -> ProjectionResult:
    """Grid argmin under the max-combine metric, which genuinely does not
    factorize; returns the sampled argmin cloud."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    from . import oracle  # deferred: the oracle module builds on this one

    if max_magnitude is None:
        mx = max(magnitude(c) for c in x)
        bound = max(max(f.max_magnitude() for f in A.factors), mx) + 1.0
        # unbounded factors are truncated at the default grid bound
        max_magnitude = bound if math.isfinite(bound) else oracle.DEFAULT_GRID.max_magnitude
        max_magnitude = max(max_magnitude, mx + 1.0)
    g = oracle.GridSpec(resolution=resolution, max_magnitude=max_magnitude)
    return oracle.grid_project(x, A, MetricId("max", base), g)


def project_segment_set(x: SElem, S: SegmentSet, base: int = 2) -> ProjectionResult:
    """Nearest points of a one-coordinate segment set, honoring open ends.

    Open arc ends are not members: if an arc's infimum sits at an excluded
    endpoint it contributes no candidate.  When nothing attains the overall
    infimum the set is not proximinal at ``x`` and a ValueError is raised.
    """
    if not S.pieces:
        raise ValueError("empty segment set")
    mx = magnitude(x)
    own_ray = None if x.is_zero else x.sign

    def elem_dist(e: SElem) -> float:
        if own_ray is None or e.is_zero or e.sign is own_ray:
            return abs(mx - magnitude(e))
        return cross_distance(mx, magnitude(e), base)

    attained: List[Tuple[SElem, float]] = []
    infimum = math.inf
    for piece in S.pieces:
        if isinstance(piece, PointPiece):
            if len(piece.point) != 1:
                raise ValueError("segment projection is defined on the line only")
            e = piece.point[0]
            d = elem_dist(e)
            attained.append((e, d))
            infimum = min(infimum, d)
            continue
        for e, d, closed in _arc_candidates(x, piece, base):
            infimum = min(infimum, d)
            if closed:
                attained.append((e, d))
    if not attained or min(d for _, d in attained) > infimum + TIE_TOL:
        raise ValueError("nearest-point infimum is not attained in the segment set")
    return _result_from_candidates(attained)


def _arc_candidates(x: SElem, arc: ArcPiece, base: int):
    """Per-arc minimizer candidates as (element, distance, attained)."""
    if len(arc.start) != 1:
        raise ValueError("segment projection is defined on the line only")
    (u, v) = arc.chart[0]
    p, q = arc.start[0], arc.end[0]
    lo_val, hi_val = (p, q) if p <= q else (q, p)
    lo_closed = arc.closed_lo if p <= q else arc.closed_hi
    hi_closed = arc.closed_hi if p <= q else arc.closed_lo

    mx = magnitude(x)
    if x.is_zero:
        psi_x: Optional[float] = 0.0
    elif x.sign is u:
        psi_x = mx
    elif x.sign is v:
        psi_x = -mx
    else:
        psi_x = None

    out = []

    def emit(val: float, closed: bool):
        e = _chart_point(u, v, val)
        if psi_x is not None:
            d = _chart_line_dist(psi_x, val, base)
        else:
            d = cross_distance(mx, abs(val), base)
        out.append((e, d, closed))

    if psi_x is not None:
        t = min(max(psi_x, lo_val), hi_val)
        if t == lo_val:
            emit(lo_val, lo_closed)
            if not lo_closed:
                # the closed part of the arc still attains values arbitrarily
                # close to the open end; nothing attains the infimum there
                pass
        elif t == hi_val:
            emit(hi_val, hi_closed)
        else:
            emit(t, True)
    else:
        # distance decreases toward small |value|; candidates are the point
        # of smallest absolute value (0 if the arc crosses the origin)
        if lo_val <= 0.0 <= hi_val:
            interior = lo_val < 0.0 < hi_val
            closed = interior or (lo_val == 0.0 and lo_closed) or (hi_val == 0.0 and hi_closed)
            emit(0.0, closed)
        elif lo_val > 0.0:
            emit(lo_val, lo_closed)
        else:
            emit(hi_val, hi_closed)
    return out


def _chart_point(u: Sign, v: Sign, val: float) -> SElem:
    if val > 0:
        return SElem(u, math.log(val))
    if val < 0:
        return SElem(v, math.log(-val))
    return ZERO


def _chart_line_dist(psi_x: float, val: float, base: int) -> float:
    # same side of the chart (or either at the origin) is radial distance
    # for both metrics; opposite sides go through the origin, which only the
    # chord metric shortcuts
    same_side = psi_x == 0.0 or val == 0.0 or (psi_x > 0) == (val > 0)
    if same_side or base == 2:
        return abs(psi_x - val)
    return cross_distance(abs(psi_x), abs(val), base)


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
