"""Closed subsets of the signed max-plus line, and boxes of them.

A closed set is stored per ray (plus / minus / balanced) as a sorted list of
disjoint closed intervals in the radial coordinate m = e**|a| in [0, inf);
``hi`` may be infinite.  The origin (the zero element) is shared by the three
rays: it belongs to the set exactly when some interval starts at 0.  The
representation is canonical -- touching intervals merge, and redundant
degenerate origin intervals collapse -- so structural equality is set
equality.  Finite interval unions cannot encode every closed set (no
Cantor-like sets); that restriction is deliberate.

Elements store the exponent t = log m, not the radius, so two intervals of
a ray whose gap holds no element -- no float lies strictly between
``log hi1`` and ``log lo2``, as for radii near 1e15 a few units apart --
also merge.  The set predicates, which compare radii, then agree with
membership, which compares exponents, and every gap holds an element.

A ray set builds its index at construction, and its canonical form is read
back from it: ``_line_index`` merges the closed intervals as given, on
exponents, and the fields are its kernel intervals' radial ends.  So the
merge is decided once, for the predicates and for membership alike.  The
index also holds what projections and membership tests read: the kernel's
interval tuples with the ends' exponents and elements, and per ray the
ascending exponent ends, which ``contains`` bisects.  It is not a field of
the value.  A one-coordinate segment set builds the same index, in the
same layout, from its pieces' radial parts, on its first projection.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Tuple

from .algebra import (MINUS, PLUS, RAYS, SElem, Sign, ZERO, _SIGN_ORDER, _check_keys, _check_object,
                      _is_number, _Record, _trusted_selem)

Interval = Tuple[float, float]


def _checked_intervals(intervals) -> List[Interval]:
    """The intervals as sorted (lo, hi) float pairs, each end checked."""
    cleaned = []
    for lo, hi in intervals:
        if not (_is_number(lo) and _is_number(hi)):
            raise ValueError(f"bad interval: its ends must be numbers, got [{lo!r}, {hi!r}]")
        try:
            # + 0.0 turns an end -0.0 into 0.0 and leaves every other float as it is
            lo = float(lo) + 0.0
            hi = float(hi) + 0.0
        except OverflowError:  # an int end beyond the float range; lo is a float once converted
            end = "high" if isinstance(lo, float) else "low"
            raise ValueError(f"bad interval: its {end} end lies beyond the float range") from None
        # false for a nan end, a negative lo, hi < lo and lo = inf
        if not 0.0 <= lo <= hi or lo == math.inf:
            raise ValueError(f"bad interval [{lo}, {hi}]")
        cleaned.append((lo, hi))
    cleaned.sort()
    return cleaned


_ORIGIN_ONLY = (0.0, 0.0)
_NEG_INF = -math.inf
# the index's slot of the kernel intervals, after the three rays' ends,
# which sit at the rays' positions in RAYS; the same in a segment set's index
_KERNEL = 3


def _line_index(parts) -> tuple:
    """The one index of a line set, a ray set or a one-coordinate segment
    set: the tuple (plus ends, minus ends, balanced ends, kernel intervals).

    ``parts`` are kernel tuples (ray, lo, hi, closed_lo, closed_hi, t_lo,
    t_hi, e_lo, e_hi), sorted by ray in ``RAYS`` order, then by ``lo``,
    closed low ends first.  ``t_lo`` and ``t_hi`` are the ends' exponents
    ``math.log``: -inf for an end at the origin, and inf for an unbounded
    one.  ``e_lo`` and ``e_hi`` are the ends' elements, which the kernel
    returns as nearest points: ``ZERO`` at the origin, the element of
    exponent ``t`` on the ray at a positive finite radius, and None for an
    unbounded end, which is never a candidate.

    Per ray, a part merges into the interval before it when it overlaps it,
    touches it at a closed end, or leaves a gap with no exponent strictly
    inside between two closed ends, so no element; a gap from the origin
    always holds one.  All on exponents, as membership is decided; this is
    the one merge of the ray set's canonical form too, which its
    constructor reads back from the kernel intervals.  Two open ends at
    one point stay apart.  The merged interval keeps the higher high end,
    of two equal ones the closed one, and each end's tuple fields as they
    came, so a point piece's int exponent survives.  So the kernel
    intervals are disjoint and sorted per ray, and a ray's ends are their
    exponents in ascending order, (t_lo, t_hi, t_lo, ...), which
    ``RaySet.contains`` bisects."""
    merged, ends = [], {ray: [] for ray in RAYS}
    for part in parts:
        ray, _, hi, closed_lo, closed_hi, t_lo, t_hi, _, e_hi = part
        if merged and merged[-1][0] is ray:
            # the interval before, and how many of the facing ends are closed
            _, lo1, hi1, closed_lo1, closed_hi1, t_lo1, t_hi1, e_lo1, _ = merged[-1]
            closed = closed_lo + closed_hi1
            if t_lo < t_hi1 or t_lo == t_hi1 and closed or closed == 2 and t_lo <= math.nextafter(t_hi1, math.inf):
                if (hi, closed_hi) > (hi1, closed_hi1):
                    merged[-1] = (ray, lo1, hi, closed_lo1, closed_hi, t_lo1, t_hi, e_lo1, e_hi)
                    ends[ray][-1] = t_hi
                continue
        merged.append(part)
        ends[ray] += t_lo, t_hi
    return (*map(tuple, ends.values()), tuple(merged))


def _kernel_interval(ray: Sign, lo: float, hi: float, closed_lo: bool, closed_hi: bool) -> tuple:
    """The kernel's tuple for the radial interval [lo, hi] on a ray with
    these end flags: (ray, lo, hi, closed_lo, closed_hi, t_lo, t_hi, e_lo,
    e_hi), as ``_line_index`` describes; a segment set's index builds its
    arcs' parts with it too."""
    t_lo = math.log(lo) if lo > 0.0 else _NEG_INF
    t_hi = math.log(hi) if hi > 0.0 else _NEG_INF
    e_hi = None if hi == math.inf else _end_element(ray, t_hi)
    return (ray, lo, hi, closed_lo, closed_hi, t_lo, t_hi, _end_element(ray, t_lo), e_hi)


def _end_element(ray: Sign, t: float) -> SElem:
    """The element at a finite interval end of exponent ``t`` on a ray:
    ``ZERO`` at the origin (``t`` = -inf)."""
    return _trusted_selem(ray, t) if t > _NEG_INF else ZERO


class RaySet(_Record):
    """A closed subset of the tripod, as per-ray interval unions.

    The fields are the three interval tuples, read back from the kernel
    intervals of the index the constructor builds (``_line_index``).  The
    slot ``_index`` keeps that index for projections and membership tests;
    it is not a field."""

    __slots__ = ("plus", "minus", "balanced", "_index")
    _fields = ("plus", "minus", "balanced")
    plus: Tuple[Interval, ...]
    minus: Tuple[Interval, ...]
    balanced: Tuple[Interval, ...]
    _index: tuple

    def __init__(self, plus=(), minus=(), balanced=()):
        rays = [_checked_intervals(ivs) for ivs in (plus, minus, balanced)]
        # a degenerate [0, 0] interval is just the origin: drop those, and
        # keep one on the balanced ray only when no other interval starts
        # there.  Sorted, they come first on their ray, and none would merge
        # with an interval past 0: a gap from the origin holds an exponent
        if _ORIGIN_ONLY in rays[0][:1] + rays[1][:1] + rays[2][:1]:
            rays = [[iv for iv in ivs if iv != _ORIGIN_ONLY] for ivs in rays]
            if not any(ivs and ivs[0][0] == 0.0 for ivs in rays):
                rays[2].insert(0, _ORIGIN_ONLY)
        index = _line_index([_kernel_interval(ray, lo, hi, True, True) for ray, ivs in zip(RAYS, rays) for lo, hi in ivs])
        fields = {ray: [] for ray in RAYS}
        for part in index[_KERNEL]:
            fields[part[0]].append(part[1:3])
        # the fields name the rays in RAYS order
        for name, ray in zip(self._fields, RAYS):
            object.__setattr__(self, name, tuple(fields[ray]))
        object.__setattr__(self, "_index", index)

    def intervals(self, ray: Sign) -> Tuple[Interval, ...]:
        if ray is PLUS:
            return self.plus
        if ray is MINUS:
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
        from a radius in an interval is a member.  ``a`` is in an interval
        iff its exponent is at least the interval's ``t_lo`` and at most
        its ``t_hi``: bisecting the ray's exponent ends, an odd count of
        ends at most ``t`` puts it inside an interval, an even one only on
        a high end."""
        if a.is_zero:
            return self.has_origin
        ends = self._index[_SIGN_ORDER[a.sign]]
        t = a.exp
        k = bisect_right(ends, t)
        return k % 2 == 1 or (k > 0 and ends[k - 1] == t)

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
        _check_object(data, "a ray set")

        def dec(name):
            ivs = data.get(name, ())
            if not isinstance(ivs, (list, tuple)):
                raise ValueError(f"{name} must be a list of [lo, hi] pairs, got {ivs!r}")
            out = []
            for iv in ivs:
                if not isinstance(iv, (list, tuple)) or len(iv) != 2:
                    raise ValueError(f"{name} interval must be a [lo, hi] pair, got {iv!r}")
                ends = (iv[0], math.inf if iv[1] == "inf" else iv[1])
                if not all(map(_is_number, ends)):
                    raise ValueError(f'{name} interval ends must be numbers or "inf" as hi, got {iv!r}')
                out.append(ends)
            return tuple(out)

        C = cls(dec("plus"), dec("minus"), dec("balanced"))
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
    nonempty = [ivs for ivs in (C.plus, C.minus, C.balanced) if ivs]
    if any(len(ivs) > 1 for ivs in nonempty):
        return False
    return len(nonempty) == 1 or all(ivs[0][0] == 0.0 for ivs in nonempty)


def is_traditionally_convex(C: RaySet) -> bool:
    """The embedded image is convex in the plane iff the set is a single
    interval on a single ray (chords between distinct rays leave the tripod)."""
    if C.is_empty:
        raise ValueError("empty set")
    nonempty = [ivs for ivs in (C.plus, C.minus, C.balanced) if ivs]
    return len(nonempty) == 1 and len(nonempty[0]) == 1


def is_chebyshev(C: RaySet) -> bool:
    """Whether every query has a unique nearest point; on the tripod this is
    exactly connectedness (for either base metric)."""
    return is_connected(C)


def is_geometrically_convex(C: RaySet) -> bool:
    """Containing every geodesic between its points is the same as being
    connected, on the tripod."""
    return is_connected(C)


def _positive_part(ivs: Tuple[Interval, ...]) -> Optional[Interval]:
    # single-interval ray parts only; the caller has already bailed otherwise
    return ivs[0] if ivs and ivs[0][1] > 0.0 else None


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

    The signed stretch of an opposite pair needs no rule of its own: it is
    the stretch that the balanced point at y, once present, forces with x.
    """
    if C.is_empty:
        raise ValueError("empty set")
    rays = (C.plus, C.minus, C.balanced)
    if any(len(ivs) > 1 for ivs in rays):
        return False
    if C.has_origin and any(ivs and ivs[0][0] > 0.0 for ivs in rays):
        return False
    p = _positive_part(C.plus)
    m = _positive_part(C.minus)
    b = _positive_part(C.balanced)

    if p and m:
        for (_, s1), (t0, t1) in ((p, m), (m, p)):
            if t0 <= s1 and not _covers(b, t0, min(t1, s1)):
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
        _check_object(data, "a box")
        factors = data["factors"]
        if not isinstance(factors, (list, tuple)):
            raise ValueError(f"factors must be a list of ray sets, got {factors!r}")
        A = cls(tuple(RaySet.from_json(f) for f in factors))
        _check_keys(data, ("factors",))
        return A


def is_box_semimodule_convex(A: BoxSet) -> bool:
    return all(is_semimodule_convex(f) for f in A.factors)
