"""Connected components of a segment set.

``components`` groups the pieces of a ``SegmentSet`` into connected
components; ``component_count`` and ``isolated_points`` read them.  The
membership test it runs where an endpoint may lie inside another piece is
``segments._piece_member``, the one ``SegmentSet.contains`` uses.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import List, Optional, Sequence

from ..metrics import _MAX_EXP_ARG, _MIN_EXP_ARG, SVector
from ..segments import ArcPiece, PointPiece, PsiChart, SegmentSet, _piece_member, _radius, psi_inverse

_first = itemgetter(0)

# ---------------------------------------------------------------------------
# Connectivity of a segment set
# ---------------------------------------------------------------------------
#
# Two connected pieces have a connected union iff the closure of one meets
# the other, and a piece's closure adds at most its two endpoints.  Every
# closure endpoint gets an exact key (signature, radii), two tuples that
# compare and hash in C: per coordinate the ray as a Sign (None at the
# origin) and the radial magnitude, read off the chart value or the point's
# magnitude with no log/exp round trip.  A dict from keys to pieces joins the
# pieces that share an endpoint, unless every one of them leaves it open.
# An arc with no negative chart value, as every arc of the sweep (whose
# charts map each coordinate to its own ray), is keyed in C-level passes:
# the signs are the chart's first rays, None where a value is 0, and the
# radii are the values as they are; its interior lies on the first rays
# wherever either end's value is positive.  Only an arc with a negative
# value, such as a geodesic leg on the second chart ray, builds its keys per
# coordinate.
# An endpoint can also lie inside another arc; the interior of an arc keeps
# one ray per coordinate unless a coordinate crosses the origin, so arcs are
# indexed by that sign signature and the general membership test runs only
# on the arcs whose signature is the endpoint's, and on every arc that
# crosses.  Sweep, geodesic and traditional arcs never cross (a geodesic
# leg ends where its coordinate reaches 0), so only a hand-built or JSON arc
# adds tests.
# Two skips keep both passes to the work that can join something.  The
# union step runs only on keys that two or more pieces share.  The
# union-find is the only record of joins: roots are read only through
# ``find``, which halves the paths it walks.  Before the endpoint pass a
# signature group whose pieces all share one root is noted.  With no
# arc crossing the origin, an endpoint whose group is noted and shares its
# own piece's root is skipped: every candidate in the group would be
# skipped as joined already.  Both rest on one invariant: unions only
# merge, so pieces that share a root keep sharing one, and the root of any
# piece of a noted group stays the root of all of them.  Pieces
# built by the sweep meet only at shared endpoints: on the 67 seeded pairs
# of the segment-sweep benchmark the endpoint pass visits no candidate, and
# the whole pass is O(P n).


def _point_key(x: SVector) -> tuple:
    radii = tuple([math.exp(t) if _MIN_EXP_ARG <= (t := c.exp) <= _MAX_EXP_ARG else _radius(t)
                   for c in x])
    return tuple([c.sign if m > 0.0 else None for c, m in zip(x, radii)]), radii


def _chart_key(chart: PsiChart, p: Sequence[float]) -> tuple:
    signs = tuple([u if s > 0.0 else v if s < 0.0 else None for (u, v), s in zip(chart, p)])
    return signs, tuple(map(abs, p))


# the sign of a nonnegative chart value 0 (or -0.0), which lies at the
# origin; dict.get gives the first chart ray for every other value
_ORIGIN_SIGN = {0.0: None}


def _interior_signature(arc: ArcPiece) -> Optional[tuple]:
    # None when a coordinate crosses the origin, where the interior takes
    # both chart rays
    if any(s < 0.0 < e or e < 0.0 < s for s, e in zip(arc.start, arc.end)):
        return None
    return tuple([u if s > 0.0 or e > 0.0 else v if s < 0.0 or e < 0.0 else None
                  for (u, v), s, e in zip(arc.chart, arc.start, arc.end)])


def _closure_point(piece, end: int) -> SVector:
    if isinstance(piece, PointPiece):
        return piece.point
    return psi_inverse(piece.chart, piece.end if end else piece.start)


def components(seg: SegmentSet) -> List[List[int]]:
    """Indices of the pieces grouped into connected components."""
    pieces = seg.pieces
    parent = list(range(len(pieces)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    keys = []  # per piece: the keys of its closure endpoints
    at_key: dict = {}  # endpoint key -> [(piece index, whether the piece contains it)]
    by_signature: dict = {}  # sign signature of a point / of an arc's interior -> pieces
    for i, piece in enumerate(pieces):
        if isinstance(piece, PointPiece):
            keys.append((_point_key(piece.point),))
            at_key.setdefault(keys[i][0], []).append((i, True))
            by_signature.setdefault(keys[i][0][0], []).append(i)
            continue
        start, end = tuple(piece.start), tuple(piece.end)
        low, high = min(start, default=-1.0), min(end, default=-1.0)
        if low >= 0.0 and high >= 0.0:
            # no chart value is negative, as on every arc of the sweep
            firsts = tuple(map(_first, piece.chart))
            keys.append((
                (firsts if low else tuple(map(_ORIGIN_SIGN.get, start, firsts)), start),
                (firsts if high else tuple(map(_ORIGIN_SIGN.get, end, firsts)), end),
            ))
            signature = (
                firsts if low or high else tuple(map(_ORIGIN_SIGN.get, map(max, start, end), firsts))
            )
        else:
            keys.append((_chart_key(piece.chart, start), _chart_key(piece.chart, end)))
            signature = _interior_signature(piece)
        at_key.setdefault(keys[i][0], []).append((i, piece.closed_lo))
        at_key.setdefault(keys[i][1], []).append((i, piece.closed_hi))
        by_signature.setdefault(signature, []).append(i)

    # pieces sharing an endpoint touch unless every one of them leaves it
    # open; a key of one piece joins nothing
    for sharing in at_key.values():
        if len(sharing) > 1:
            holder = next((i for i, contains in sharing if contains), None)
            if holder is not None:
                for i, _ in sharing:
                    union(holder, i)

    # an endpoint inside another arc, or next to a point within the
    # membership tolerance: test only the pieces with the endpoint's signs,
    # and the arcs that cross the origin (signature None).  With no such
    # arc, an endpoint whose signature group already shares its own root
    # has nothing left to join
    crossing = by_signature.get(None, ())
    # signature -> a piece of its group, where the whole group shares one root
    joined = {} if crossing else {
        signature: group[0] for signature, group in by_signature.items()
        if len(group) == 1 or len(set(map(find, group))) == 1
    }
    for i, piece in enumerate(pieces):
        # union(i, j) keeps i's root, so it stays current through the loop
        root = find(i)
        for end, key in enumerate(keys[i]):
            shared = joined.get(key[0])
            if shared is not None and find(shared) == root:
                continue
            x = None
            for j in chain(by_signature.get(key[0], ()), crossing):
                if j == i or key in keys[j] or find(j) == root:
                    continue
                if x is None:
                    x = _closure_point(piece, end)
                if _piece_member(pieces[j], x):
                    union(i, j)

    groups: dict = {}
    for i in range(len(pieces)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def component_count(seg: SegmentSet) -> int:
    return len(components(seg))


def isolated_points(seg: SegmentSet) -> List[SVector]:
    """Members of singleton components consisting of a single point piece."""
    out = []
    for group in components(seg):
        if len(group) == 1 and isinstance(seg.pieces[group[0]], PointPiece):
            out.append(seg.pieces[group[0]].point)
    return out
