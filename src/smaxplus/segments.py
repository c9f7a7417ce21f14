"""Segments between points of the signed max-plus product space.

Three different segment notions between two vectors:

* geometric: the shortest path under the inner product metric.  Under a
  per-coordinate signed chart the path is a straight chord; pulled back it
  is a broken line with at most one interior breakpoint per coordinate
  (where a coordinate crosses the origin of its tripod).
* traditional: the straight chord between the embedded images, when that
  chord stays inside the embedded tripod product (only same-ray or radial
  coordinates qualify).
* semimodule: the set of combinations ``(lam (*) a) (+) (gam (*) b)`` with
  ``max(lam, gam) = 0``.  Because signed addition is discontinuous, this set
  can be disconnected and non-closed; it is computed symbolically by
  splitting the scaling parameter at the values where a scaled coordinate
  magnitude crosses its partner's.

Segment sets are stored as disjoint pieces: isolated points, and affine arcs
in chart coordinates with explicit open/closed endpoint flags.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import List, Optional, Sequence, Tuple

from .algebra import EPS, RAYS, SElem, Sign, ZERO, _Record, s_oplus, scalar_mul
from .metrics import (
    _MAX_EXP_ARG,
    _SQRT_FLOAT_MIN,
    D1,
    MagnitudeRangeWarning,
    MetricId,
    SVector,
    magnitude,
    rho,
)

PsiChart = Tuple[Tuple[Sign, Sign], ...]


class ChartError(ValueError):
    """A coordinate lies on a ray the chart does not map."""


def vec_oplus(x: SVector, y: SVector) -> SVector:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return SVector(tuple(s_oplus(a, b) for a, b in zip(x, y)))


def vec_scale(lam, x: SVector) -> SVector:
    return SVector(tuple(scalar_mul(lam, c) for c in x))


def _complement(tag: Sign) -> Sign:
    for t in RAYS:
        if t is not tag:
            return t
    raise AssertionError


def chart_for(a: SVector, b: SVector) -> PsiChart:
    """Per-coordinate ordered ray pair covering both endpoints.

    Zero coordinates can sit on any ray; they adopt the partner's ray and a
    deterministic complementary tag (preferring plus, then minus, then
    balanced) so that the chart is reproducible.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    pairs = []
    for x, y in zip(a, b):
        if x.is_zero and y.is_zero:
            pairs.append((Sign.PLUS, Sign.MINUS))
        elif x.is_zero:
            pairs.append((_complement(y.sign), y.sign))
        elif y.is_zero:
            pairs.append((x.sign, _complement(x.sign)))
        else:
            pairs.append((x.sign, y.sign))
    return tuple(pairs)


def psi(chart: PsiChart, x: SVector) -> Tuple[float, ...]:
    """Signed magnitude coordinates: +m on the first chart ray, -m on the
    second, 0 at the zero element."""
    if len(chart) != len(x):
        raise ValueError(f"dimension mismatch: {len(chart)} vs {len(x)}")
    out = []
    for (u, v), c in zip(chart, x):
        if c.is_zero:
            out.append(0.0)
        elif c.sign is u:
            out.append(magnitude(c))
        elif c.sign is v:
            out.append(-magnitude(c))
        else:
            raise ChartError(f"coordinate {c!r} lies on neither chart ray ({u._value_},{v._value_})")
    return tuple(out)


def psi_inverse(chart: PsiChart, p: Sequence[float]) -> SVector:
    """Pull chart coordinates back: positive values to the first ray,
    negative to the second, zero to the zero element."""
    if len(chart) != len(p):
        raise ValueError(f"dimension mismatch: {len(chart)} vs {len(p)}")
    coords = []
    for (u, v), s in zip(chart, p):
        if s > 0:
            coords.append(SElem(u, math.log(s)))
        elif s < 0:
            coords.append(SElem(v, math.log(-s)))
        else:
            coords.append(ZERO)
    return SVector(tuple(coords))


def _chart_json(chart: PsiChart) -> list:
    return [[u._value_, v._value_] for u, v in chart]


def _chart_from_json(data) -> PsiChart:
    return tuple((Sign(u), Sign(v)) for u, v in data)


class BrokenLine(_Record):
    """A geodesic for the inner metric, in chart coordinates.

    ``vertices`` holds the chart images of both endpoints with the interior
    breakpoints in between; ``breakpoint_params`` are the strictly increasing
    chord parameters in (0, 1) at which some coordinate crosses zero.
    """

    __slots__ = ("chart", "vertices", "breakpoint_params", "length")
    chart: PsiChart
    vertices: Tuple[Tuple[float, ...], ...]
    breakpoint_params: Tuple[float, ...]
    length: float

    def __init__(self, chart: PsiChart, vertices, breakpoint_params, length: float):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "breakpoint_params", breakpoint_params)
        object.__setattr__(self, "length", length)

    def to_json(self) -> dict:
        return {
            "chart": _chart_json(self.chart),
            "t": list(self.breakpoint_params),
            "vertices": [list(v) for v in self.vertices],
            "length": self.length,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BrokenLine":
        return cls(
            _chart_from_json(data["chart"]),
            tuple(tuple(v) for v in data["vertices"]),
            tuple(data["t"]),
            data["length"],
        )


def _euclid(p: Sequence[float], q: Sequence[float]) -> float:
    """Chart distance; inf where it exceeds the float range."""
    try:
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
    except OverflowError:  # float ** raises where * would give inf
        d = math.inf
    if d == math.inf or (d < _SQRT_FLOAT_MIN and p != q):
        # the squares overflow, or fall below the normal float range (where
        # they round to 0.0 or lose digits, as in metrics.cross_distance):
        # rescale by the largest difference, halving first on overflow
        # because a difference itself can exceed the float maximum
        h = 0.5 if d == math.inf else 1.0
        diffs = [abs(h * a - h * b) for a, b in zip(p, q)]
        big = max(diffs)
        d = big / h * math.sqrt(sum((x / big) ** 2 for x in diffs))
    return d


def _saturated(length: float) -> float:
    """A length beyond the float range saturates at the float maximum with
    a warning, as ``magnitude`` does."""
    if length == math.inf:
        warnings.warn(
            "geometric length overflows the float range; saturating",
            MagnitudeRangeWarning,
            stacklevel=3,
        )
        return sys.float_info.max
    return length


# the open interval (0, 1) of crossing parameters, as floats
_T_MIN, _T_MAX = math.ulp(0.0), math.nextafter(1.0, 0.0)


def geometric_segment(a: SVector, b: SVector) -> BrokenLine:
    """Shortest inner-metric path between two vectors.

    Only coordinates whose chart values have strictly opposite signs generate
    interior breakpoints (a coordinate that is zero at an endpoint crosses
    nowhere in the open chord); equal crossing parameters collapse to one
    vertex, in which each crossing coordinate is exactly 0.0.  A parameter
    that rounds to 0.0 or 1.0 (one chart value beyond the float range of the
    other, as at a saturated magnitude) is kept inside the open interval at
    the nearest float.  The length equals the inner product distance of the
    endpoints.
    """
    chart = chart_for(a, b)
    alpha = psi(chart, a)
    beta = psi(chart, b)
    crossing = {
        j: alpha[j] / (alpha[j] - beta[j])
        for j in range(len(alpha))
        if (alpha[j] > 0.0 > beta[j]) or (alpha[j] < 0.0 < beta[j])
    }
    ts = sorted(set(crossing.values()))
    if ts and not 0.0 < ts[0] <= ts[-1] < 1.0:
        crossing = {j: min(max(t, _T_MIN), _T_MAX) for j, t in crossing.items()}
        ts = sorted(set(crossing.values()))
    vertices = [alpha]
    for t in ts:
        vertices.append(
            tuple(
                0.0 if crossing.get(j) == t else (1.0 - t) * alpha[j] + t * beta[j]
                for j in range(len(alpha))
            )
        )
    vertices.append(beta)
    length = _saturated(sum(_euclid(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)))
    return BrokenLine(chart, tuple(vertices), tuple(ts), length)


def d_segment_contains(x: SVector, y: SVector, z: SVector, mid: MetricId, tol: float = 1e-9) -> bool:
    """Whether ``z`` lies metrically between ``x`` and ``y``: the triangle
    inequality holds with equality within ``tol``."""
    return abs(rho(mid, x, z) + rho(mid, z, y) - rho(mid, x, y)) <= tol


class PointPiece(_Record):
    """A segment piece that is one point."""

    __slots__ = ("point",)
    point: SVector

    def __init__(self, point: SVector):
        object.__setattr__(self, "point", point)

    def to_json(self) -> dict:
        return {"kind": "point", "point": self.point.to_json()}


class ArcPiece(_Record):
    """An affine arc in chart coordinates, with endpoint inclusion flags.

    The arc is {psi_inverse(chart, (1-t) start + t end) : t in (0,1)} plus
    the endpoints whose flag is set.  Interior points never cross a
    coordinate zero, so the pullback is continuous and injective.
    """

    __slots__ = ("chart", "start", "end", "closed_lo", "closed_hi")
    chart: PsiChart
    start: Tuple[float, ...]
    end: Tuple[float, ...]
    closed_lo: bool
    closed_hi: bool

    def __init__(self, chart: PsiChart, start, end, closed_lo: bool, closed_hi: bool):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "closed_lo", closed_lo)
        object.__setattr__(self, "closed_hi", closed_hi)

    def point_at(self, t: float) -> SVector:
        p = tuple((1.0 - t) * s + t * e for s, e in zip(self.start, self.end))
        return psi_inverse(self.chart, p)

    def chord_length(self) -> float:
        return _saturated(_euclid(self.start, self.end))

    def param_of(self, x: SVector, tol: float = 1e-9) -> Optional[float]:
        """Chord parameter of ``x`` on this arc, or None when off the arc
        (off-chart, inconsistent, outside range, or at an excluded end)."""
        try:
            px = psi(self.chart, x)
        except (ChartError, ValueError):
            return None
        t = None
        for s, e, v in zip(self.start, self.end, px):
            span = e - s
            if abs(span) <= tol:
                if abs(v - s) > tol * max(1.0, abs(s)):
                    return None
            else:
                ti = (v - s) / span
                if t is None:
                    t = ti
                elif abs(ti - t) > 1e-6:
                    return None
        if t is None:
            # every span is within tol, so the arc is one point up to tol
            # and the parameter is undetermined: take an end the arc includes
            t = 0.0 if self.closed_lo else 1.0
        if t < -tol or t > 1.0 + tol:
            return None
        if abs(t) <= tol and not self.closed_lo:
            return None
        if abs(t - 1.0) <= tol and not self.closed_hi:
            return None
        # verify the remaining coordinates agree
        q = self.point_at(min(max(t, 0.0), 1.0))
        if rho(D1, q, x) > 1e-8 * max(1.0, *(abs(c) for c in px)):
            return None
        return min(max(t, 0.0), 1.0)

    def contains(self, x: SVector) -> bool:
        return self.param_of(x) is not None

    def to_json(self) -> dict:
        return {
            "kind": "arc",
            "chart": _chart_json(self.chart),
            "start": list(self.start),
            "end": list(self.end),
            "closed_lo": self.closed_lo,
            "closed_hi": self.closed_hi,
        }


def _piece_from_json(data: dict):
    if data["kind"] == "point":
        return PointPiece(SVector.from_json(data["point"]))
    if data["kind"] == "arc":
        return ArcPiece(
            _chart_from_json(data["chart"]),
            tuple(data["start"]),
            tuple(data["end"]),
            data["closed_lo"],
            data["closed_hi"],
        )
    raise ValueError(f"unknown piece kind {data['kind']!r}")


class SegmentSet(_Record):
    """A segment as a finite union of pairwise disjoint pieces."""

    __slots__ = ("pieces",)
    pieces: Tuple[object, ...]

    def __init__(self, pieces):
        object.__setattr__(self, "pieces", pieces)

    def contains(self, x: SVector) -> bool:
        return any(_piece_member(piece, x) for piece in self.pieces)

    def has_open_piece(self) -> bool:
        return any(
            isinstance(p, ArcPiece) and not (p.closed_lo and p.closed_hi) for p in self.pieces
        )

    def sample(self, spacing: float) -> List[SVector]:
        """Points covering every piece to within ``spacing`` in chart space."""
        out: List[SVector] = []
        for piece in self.pieces:
            if isinstance(piece, PointPiece):
                out.append(piece.point)
                continue
            n_steps = max(2, int(math.ceil(piece.chord_length() / spacing)) + 1)
            for i in range(n_steps + 1):
                t = i / n_steps
                if (t == 0.0 and not piece.closed_lo) or (t == 1.0 and not piece.closed_hi):
                    t = (0.5 / n_steps) if t == 0.0 else 1.0 - 0.5 / n_steps
                out.append(piece.point_at(t))
        return out

    def to_json(self) -> dict:
        return {"pieces": [p.to_json() for p in self.pieces]}

    @classmethod
    def from_json(cls, data: dict) -> "SegmentSet":
        return cls(tuple(_piece_from_json(p) for p in data["pieces"]))


def _phi_close(x: SVector, y: SVector, tol: float) -> bool:
    return len(x) == len(y) and rho(D1, x, y) <= tol


def as_segment_set(line: BrokenLine) -> SegmentSet:
    """View a broken line as a segment set (half-open pieces at the interior
    vertices so the pieces stay disjoint)."""
    verts = line.vertices
    arcs = []
    for i in range(len(verts) - 1):
        if verts[i] == verts[i + 1]:
            continue
        last = i == len(verts) - 2
        arcs.append(ArcPiece(line.chart, verts[i], verts[i + 1], True, last))
    if not arcs:
        return SegmentSet((PointPiece(psi_inverse(line.chart, verts[0])),))
    return SegmentSet(tuple(arcs))


def traditional_segment(a: SVector, b: SVector) -> Optional[SegmentSet]:
    """The chord between the embedded images, when it stays inside the
    embedded tripod product; None when some coordinate pair sits on two
    distinct rays (such a chord leaves the tripod)."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if not x.is_zero and not y.is_zero and x.sign is not y.sign:
            return None
    if a == b:
        return SegmentSet((PointPiece(a),))
    chart = chart_for(a, b)
    return SegmentSet((ArcPiece(chart, psi(chart, a), psi(chart, b), True, True),))


# ---------------------------------------------------------------------------
# Semimodule segments
# ---------------------------------------------------------------------------
#
# With max(lam, gam) = 0 the segment splits into the two one-parameter
# families {(lam (*) a) (+) b : lam <= 0} and {a (+) (gam (*) b) : gam <= 0},
# which share their lam = gam = 0 point a (+) b.  In the first family,
# coordinate i of the scaled copy has magnitude exponent lam + |a(i)|, which
# overtakes the frozen partner's |b(i)| exactly at the event value
# lam = |b(i)| - |a(i)|.  One sweep per family walks lam down from 0 over the
# sorted negative event values.  The set of "moving" coordinates (those the
# scaled copy dominates) only shrinks, and between consecutive events the
# image is an affine arc in chart coordinates, parameterized by e**lam; below
# the last event only coordinates where b is zero still move, down to b at
# lam = eps.
#
# Tie rule.  At an event a tying coordinate takes the value
# (sign a(i), |b(i)|) (+) b(i).  With equal signs this is b(i): the coordinate
# joins continuously, and the event point is both the lower end of the arc
# above and the upper end of the arc below.  With opposite signs it jumps
# through the balanced value (o, |b(i)|), which is the arc above's end when
# a(i) is balanced, the arc below's end when b(i) is, and neither otherwise.
#
# Flags.  Each arc end is offered to exactly one point: an event point to
# the two arcs beside it (the arc above first), the shared point a (+) b to
# the top arcs of both families (the first family first), and b (resp. a) to
# the lower end of its family's last arc.  A point closes the first offered
# end it equals; a point that closes nothing is an isolated piece, and a
# point equal to one placed before is dropped.  So every flag is final once
# the sweep ends.  Pieces come out as the first family's arcs from lam = 0
# down, the second family's, then the isolated points in sweep order.
#
# Values.  The sweep runs on (sign, exp) pairs, the fields of an SElem, so
# its equality tests and its set of met points compare and hash tuples in C;
# SElem and SVector values are built only for the point pieces it returns.
# Radii are magnitude()'s: math.exp in the float range, magnitude outside.
#
# Cost.  Sorting the events is O(n log n); each event builds one event point
# and one arc in O(n).  A segment with P pieces costs O(P n), the size of its
# output.

_LO, _HI = 1, 2  # positions of the end vectors in an arc record


def _radius(c: tuple) -> float:
    if c[1] is EPS:
        return 0.0
    m = math.exp(c[1]) if c[1] <= _MAX_EXP_ARG else 0.0
    return m or magnitude(SElem(*c))


def _oplus(x: tuple, y: tuple) -> tuple:
    # s_oplus on (sign, exp) pairs
    if x[1] is EPS or y[1] is EPS:
        return y if x[1] is EPS else x
    if x[1] != y[1]:
        return x if x[1] > y[1] else y
    return x if x[0] is y[0] else (Sign.BALANCED, x[1])


def _scaled_coord(pi: tuple, qi: tuple, lam) -> tuple:
    # scaled copy of p's nonzero coordinate; at the tie the exponent is
    # taken from the partner so the equality is exact in floats, and a sum
    # that overflows to -inf is the zero element, as SElem makes it
    if qi[1] is not EPS and qi[1] - pi[1] == lam:
        return (pi[0], qi[1])
    t = lam + pi[1]
    return (pi[0], t) if t != -math.inf else (Sign.BALANCED, EPS)


def _family_value(p: tuple, q: tuple, ends: list, moving: set, lam) -> tuple:
    # (lam (*) p) (+) q.  The moving coordinates' scaled values are in ends;
    # elsewhere q wins the signed max unless the float sum lam + |p(i)|
    # reaches |q(i)|, so a scaled copy is built only then
    return tuple([
        _oplus(ends[i], qi) if i in moving
        else qi if pi[1] is EPS or lam + pi[1] < qi[1]
        else _oplus(_scaled_coord(pi, qi, lam), qi)
        for i, (pi, qi) in enumerate(zip(p, q))
    ])


def _family_sweep(p: tuple, q: tuple, offset: int):
    """Sweep {(lam (*) p) (+) q : lam <= 0} from lam = 0 down, on
    (sign, exp) pairs.

    Returns the arcs as (chart, lo_vec, hi_vec, start, end) records, and the
    points the sweep meets (the lam = 0 point, each event point, then q) with
    the arc ends offered to each as (record index + ``offset``, end) pairs.
    """
    # every arc chart maps a coordinate's own ray to +magnitude, so the
    # chart images are the coordinates' magnitudes
    fixed = [(Sign.PLUS, Sign.PLUS) if e is EPS else (s, s) for s, e in q]
    chart = list(fixed)
    ties = {}
    moving = set()
    for i, ((ps, pe), (_, qe)) in enumerate(zip(p, q)):
        if pe is EPS:
            continue
        if qe is not EPS:
            event = qe - pe
            if not event < 0:
                continue
            ties.setdefault(event, []).append(i)
        moving.add(i)
        chart[i] = (ps, ps)
    ends = list(q)
    radii = tuple(map(_radius, q))
    mags = list(radii)

    def scale_moving(lam):
        for i in moving:
            ends[i] = c = _scaled_coord(p[i], q[i], lam)
            mags[i] = _radius(c)

    scale_moving(0)  # an int, so integer exponents stay ints in a (+) b
    hi_vec, hi = tuple(ends), tuple(mags)
    arcs = []
    claims = [(_family_value(p, q, ends, moving, 0), [(offset, _HI)] if moving else [])]
    for event in sorted(ties, reverse=True):
        scale_moving(event)
        arcs.append((tuple(chart), tuple(ends), hi_vec, tuple(mags), hi))
        point = _family_value(p, q, ends, moving, event)
        for i in ties[event]:
            ends[i], mags[i], chart[i] = q[i], radii[i], fixed[i]
            moving.discard(i)
        hi_vec, hi = tuple(ends), tuple(mags)
        below = [(offset + len(arcs), _HI)] if moving else []
        claims.append((point, [(offset + len(arcs) - 1, _LO)] + below))
    if moving:
        # only coordinates where q is zero still move; they reach it at eps
        arcs.append((tuple(chart), q, hi_vec, radii, hi))
    claims.append((q, [(offset + len(arcs) - 1, _LO)] if arcs else []))
    return arcs, claims


def _point_piece(x: tuple) -> PointPiece:
    return PointPiece(SVector(tuple([SElem(s, e) for s, e in x])))


def semimodule_segment(a: SVector, b: SVector) -> SegmentSet:
    """The set of max-normalized scaled combinations of the two endpoints,
    as disjoint pieces with explicit endpoint flags."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    pa = tuple([(c.sign, c.exp) for c in a])
    pb = tuple([(c.sign, c.exp) for c in b])
    arcs_a, claims_a = _family_sweep(pa, pb, 0)
    arcs_b, claims_b = _family_sweep(pb, pa, len(arcs_a))
    arcs = arcs_a + arcs_b
    # both sweeps start at a (+) b, which may close either family's top arc
    (top, top_a), (_, top_b) = claims_a.pop(0), claims_b.pop(0)
    closed = set()
    seen = set()
    isolated = []
    for x, offered in [(top, top_a + top_b)] + claims_a + claims_b:
        if x in seen:
            continue
        seen.add(x)
        for end in offered:
            if arcs[end[0]][end[1]] == x:
                closed.add(end)
                break
        else:
            isolated.append(x)
    pieces: List[object] = []
    for j, (chart, lo_vec, hi_vec, start, end) in enumerate(arcs):
        closed_lo, closed_hi = (j, _LO) in closed, (j, _HI) in closed
        if lo_vec == hi_vec:
            # exponents near 1e16 absorb the step between two events, so
            # both ends round to the same floats: the arc is one point
            if (closed_lo or closed_hi) and _point_piece(lo_vec) not in pieces:
                pieces.append(_point_piece(lo_vec))
            continue
        pieces.append(ArcPiece(chart, start, end, closed_lo, closed_hi))
    pieces.extend(_point_piece(x) for x in isolated)
    return SegmentSet(tuple(pieces))


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
# An endpoint can also lie inside another arc; the interior of an arc keeps
# one ray per coordinate, so arcs are indexed by that sign signature and the
# general membership test runs only on the arcs whose signature is the
# endpoint's.  Pieces built by the sweep meet only at shared endpoints, so
# for them that test almost never runs, and the whole pass is O(P n).


def _point_key(x: SVector) -> tuple:
    radii = tuple([magnitude(c) for c in x])
    return tuple([c.sign if m > 0.0 else None for c, m in zip(x, radii)]), radii


def _chart_key(chart: PsiChart, p: Sequence[float]) -> tuple:
    signs = tuple([u if s > 0.0 else v if s < 0.0 else None for (u, v), s in zip(chart, p)])
    return signs, tuple(map(abs, p))


def _interior_signature(arc: ArcPiece) -> tuple:
    return tuple([u if s > 0.0 or e > 0.0 else v if s < 0.0 or e < 0.0 else None
                  for (u, v), s, e in zip(arc.chart, arc.start, arc.end)])


def _piece_member(piece, x: SVector) -> bool:
    if isinstance(piece, PointPiece):
        return piece.point == x or _phi_close(piece.point, x, 1e-9)
    return piece.contains(x)


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
        keys.append((_chart_key(piece.chart, piece.start), _chart_key(piece.chart, piece.end)))
        at_key.setdefault(keys[i][0], []).append((i, piece.closed_lo))
        at_key.setdefault(keys[i][1], []).append((i, piece.closed_hi))
        by_signature.setdefault(_interior_signature(piece), []).append(i)

    # pieces sharing an endpoint touch unless every one of them leaves it open
    for sharing in at_key.values():
        holder = next((i for i, contains in sharing if contains), None)
        if holder is not None:
            for i, _ in sharing:
                union(holder, i)

    # an endpoint inside another arc, or next to a point within the
    # membership tolerance: test only the pieces with the endpoint's signs
    for i, piece in enumerate(pieces):
        for end, key in enumerate(keys[i]):
            x = None
            for j in by_signature.get(key[0], ()):
                if j == i or key in keys[j] or find(i) == find(j):
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
