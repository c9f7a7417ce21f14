"""Closed subsets of the signed max-plus line, and boxes of them.

A closed set is stored per ray (plus / minus / balanced) as a sorted list of
disjoint closed intervals in the radial coordinate m = e**|a| in [0, inf);
``hi`` may be infinite.  The origin (the zero element) is shared by the three
rays: it belongs to the set exactly when some interval starts at 0.  The
representation is canonical -- touching intervals merge, and redundant
degenerate origin intervals collapse -- so structural equality is set
equality.  Finite interval unions cannot encode every closed set (no
Cantor-like sets); that restriction is deliberate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .algebra import RAYS, SElem, Sign, ZERO, _check_keys, _Record

Interval = Tuple[float, float]


def _canonical_intervals(intervals) -> Tuple[Interval, ...]:
    cleaned = []
    for lo, hi in intervals:
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi) or math.isinf(lo):
            raise ValueError(f"bad interval [{lo}, {hi}]")
        if lo < 0 or hi < lo:
            raise ValueError(f"bad interval [{lo}, {hi}]")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged: List[List[float]] = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class RaySet(_Record):
    """A closed subset of the tripod, as per-ray interval unions."""

    __slots__ = ("plus", "minus", "balanced")
    plus: Tuple[Interval, ...]
    minus: Tuple[Interval, ...]
    balanced: Tuple[Interval, ...]

    def __init__(self, plus=(), minus=(), balanced=()):
        plus = _canonical_intervals(plus)
        minus = _canonical_intervals(minus)
        balanced = _canonical_intervals(balanced)
        # a degenerate [0,0] interval is just the origin; if the origin is
        # already present through a fatter interval, drop the duplicates,
        # otherwise keep a single copy on the balanced ray by convention
        lists = {"plus": list(plus), "minus": list(minus), "balanced": list(balanced)}
        zero_only = [name for name, ivs in lists.items() if ivs and ivs[0] == (0.0, 0.0)]
        fat_origin = any(ivs and ivs[0][0] == 0.0 and ivs[0][1] > 0.0 for ivs in lists.values())
        if zero_only:
            for name in zero_only:
                lists[name].pop(0)
            if not fat_origin:
                lists["balanced"].insert(0, (0.0, 0.0))
        object.__setattr__(self, "plus", tuple(lists["plus"]))
        object.__setattr__(self, "minus", tuple(lists["minus"]))
        object.__setattr__(self, "balanced", tuple(lists["balanced"]))

    def intervals(self, ray: Sign) -> Tuple[Interval, ...]:
        if ray is Sign.PLUS:
            return self.plus
        if ray is Sign.MINUS:
            return self.minus
        return self.balanced

    @property
    def is_empty(self) -> bool:
        return not (self.plus or self.minus or self.balanced)

    @property
    def has_origin(self) -> bool:
        return any(ivs and ivs[0][0] == 0.0 for ivs in (self.plus, self.minus, self.balanced))

    def contains(self, a: SElem) -> bool:
        """Membership, decided on exponents: ``point_on_ray`` stores the
        radius ``m`` as ``log m``, and ``exp(log m)`` can round below an
        interval's low end, while ``log`` is monotone, so every point built
        from a radius in an interval is a member."""
        if a.is_zero:
            return self.has_origin
        t = a.exp
        return any(
            hi > 0.0 and (lo == 0.0 or math.log(lo) <= t) and t <= math.log(hi)
            for lo, hi in self.intervals(a.sign)
        )

    def union(self, other: "RaySet") -> "RaySet":
        return RaySet(
            self.plus + other.plus,
            self.minus + other.minus,
            self.balanced + other.balanced,
        )

    def to_json(self) -> dict:
        def enc(ivs):
            return [[lo, "inf" if math.isinf(hi) else hi] for lo, hi in ivs]

        return {"plus": enc(self.plus), "minus": enc(self.minus), "balanced": enc(self.balanced)}

    @classmethod
    def from_json(cls, data: dict) -> "RaySet":
        def dec(ivs):
            return tuple(
                (lo, math.inf if hi == "inf" else float(hi)) for lo, hi in ivs
            )

        C = cls(dec(data.get("plus", ())), dec(data.get("minus", ())), dec(data.get("balanced", ())))
        _check_keys(data, ("plus", "minus", "balanced"))
        return C


def point_on_ray(ray: Sign, m: float) -> SElem:
    """The element at radial coordinate ``m`` on a ray (the origin for m = 0)."""
    if m < 0:
        raise ValueError("radial coordinate must be nonnegative")
    if m == 0.0:
        return ZERO
    return SElem(ray, math.log(m))


def ray_components(C: RaySet) -> List[dict]:
    """Connected components of the set.

    Intervals anchored at the origin on any ray merge into one star-shaped
    component; every other interval is a component of its own.  Components
    are returned as ``{"kind": "star", "arms": {ray: hi...}}`` or
    ``{"kind": "interval", "ray": ray, "lo": lo, "hi": hi}``.
    """
    if C.is_empty:
        raise ValueError("empty set")
    comps: List[dict] = []
    arms = {}
    for ray in RAYS:
        for lo, hi in C.intervals(ray):
            if lo == 0.0:
                arms[ray] = hi
            else:
                comps.append({"kind": "interval", "ray": ray, "lo": lo, "hi": hi})
    if arms:
        comps.insert(0, {"kind": "star", "arms": arms})
    return comps


def is_connected(C: RaySet) -> bool:
    """Connected iff a single interval on a single ray, or a star: every
    nonempty ray a single interval anchored at the origin."""
    if C.is_empty:
        raise ValueError("empty set")
    per_ray = [C.intervals(r) for r in RAYS]
    nonempty = [ivs for ivs in per_ray if ivs]
    if any(len(ivs) > 1 for ivs in nonempty):
        return False
    if len(nonempty) == 1:
        return True
    return all(ivs[0][0] == 0.0 for ivs in nonempty)


def is_traditionally_convex(C: RaySet) -> bool:
    """The embedded image is convex in the plane iff the set is a single
    interval on a single ray (chords between distinct rays leave the tripod)."""
    if C.is_empty:
        raise ValueError("empty set")
    nonempty = [ivs for ivs in (C.plus, C.minus, C.balanced) if ivs]
    return len(nonempty) == 1 and len(nonempty[0]) == 1


def is_geometrically_convex(C: RaySet) -> bool:
    """Containing every geodesic between its points is the same as being
    connected, on the tripod."""
    return is_connected(C)


def _positive_part(ivs: Tuple[Interval, ...]) -> Optional[Interval]:
    # single-interval ray parts only; the caller has already bailed otherwise
    if not ivs:
        return None
    lo, hi = ivs[0]
    if hi == 0.0:
        return None
    return (lo, hi)


def _covers(iv: Optional[Interval], u: float, v: float) -> bool:
    """Whether [u, v] intersected with (0, inf) is inside the interval."""
    return iv is not None and iv[0] <= u and iv[1] >= v


def is_semimodule_convex(C: RaySet) -> bool:
    """Decide closure under scaled-combination segments between all pairs.

    Structure first: each ray must carry at most one interval, and an origin
    member forces every nonempty ray to anchor at 0 (the segment from any
    point to the origin is the full radial stretch).  The remaining
    obligations come from cross-ray pairs and are monotone in the interval
    endpoints, so checking the endpoint configuration decides all pairs:

    * opposite signed rays: a pair with magnitudes x > y forces the balanced
      point at y and the signed stretch (y, x] on the larger side; a tie
      forces the balanced point at the common magnitude;
    * a signed ray against the balanced ray: magnitudes x > y force the
      signed stretch (y, x]; x < y force the balanced stretch [x, y].
    """
    if C.is_empty:
        raise ValueError("empty set")
    for ray in RAYS:
        if len(C.intervals(ray)) > 1:
            return False
    if C.has_origin:
        for ray in RAYS:
            for lo, _ in C.intervals(ray):
                if lo > 0.0:
                    return False
    p = _positive_part(C.plus)
    m = _positive_part(C.minus)
    b = _positive_part(C.balanced)

    if p and m:
        p0, p1 = p
        m0, m1 = m
        if m0 <= p1 and not _covers(b, m0, min(m1, p1)):
            return False
        if p0 <= m1 and not _covers(b, p0, min(p1, m1)):
            return False
        if m0 < p1 and not p0 <= m0:
            return False
        if p0 < m1 and not m0 <= p0:
            return False
    for signed in (p, m):
        if signed and b:
            s0, s1 = signed
            b0, b1 = b
            if b0 < s1 and not s0 <= b0:
                return False
            if s0 < b1 and not b0 <= s0:
                return False
    return True


class BoxSet(_Record):
    """A Cartesian product of per-coordinate ray sets."""

    __slots__ = ("factors",)
    factors: Tuple[RaySet, ...]

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("boxes must have at least one factor")
        object.__setattr__(self, "factors", factors)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def is_empty(self) -> bool:
        return any(f.is_empty for f in self.factors)

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "BoxSet":
        A = cls(tuple(RaySet.from_json(f) for f in data["factors"]))
        _check_keys(data, ("factors",))
        return A


def is_box_semimodule_convex(A: BoxSet) -> bool:
    return all(is_semimodule_convex(f) for f in A.factors)
