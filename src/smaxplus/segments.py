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
in chart coordinates with explicit open/closed endpoint flags.  Their
connected components are computed in ``connectivity``, which no CLI call
loads; the membership test it shares with ``SegmentSet.contains``,
``_piece_member``, stays here.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from itertools import repeat
from operator import add, itemgetter, mul, sub
from typing import List, Optional, Sequence, Tuple

from .algebra import (BALANCED, EPS, PLUS, SElem, Sign, ZERO, _check_keys, _is_number, _Record, _set_exp,
                      _set_sign, _trusted_selem, s_oplus, scalar_mul)
from .metrics import (
    _MAX_EXP_ARG,
    _MIN_EXP_ARG,
    _SQRT_FLOAT_MIN,
    MagnitudeRangeWarning,
    MetricId,
    SVector,
    _trusted_svector,
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


# the first ray, in the order plus, minus, balanced, that is not the key
_COMPLEMENT = {Sign.PLUS: Sign.MINUS, Sign.MINUS: Sign.PLUS, Sign.BALANCED: Sign.PLUS}


def _radius(t) -> float:
    """``magnitude``'s value for the exponent ``t``: 0.0 for ``EPS``,
    ``math.exp`` where it cannot leave the float range, and ``magnitude``,
    which saturates or underflows with a warning, elsewhere."""
    if t is EPS:
        return 0.0
    if _MIN_EXP_ARG <= t <= _MAX_EXP_ARG:
        return math.exp(t)
    return magnitude(SElem(PLUS, t))


def _chart_values(a: SVector, b: SVector) -> tuple:
    """``(chart, psi(chart, a), psi(chart, b))`` for ``chart = chart_for(a,
    b)``, in one pass over the coordinate pairs, with ``_radius``'s radii.

    A nonzero coordinate keeps its own ray.  A zero one adopts the
    complement of its partner's ray (plus, then minus, then balanced; plus
    and minus when both are zero), so that the chart is reproducible, and
    maps to 0.0.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    chart, alpha, beta = [], [], []
    for x, y in zip(a, b):
        u, s, v, t = x.sign, x.exp, y.sign, y.exp
        if s is EPS:
            u = _COMPLEMENT[v]
        if t is EPS:
            v = _COMPLEMENT[u]
        chart.append((u, v))
        alpha.append(math.exp(s) if _MIN_EXP_ARG <= s <= _MAX_EXP_ARG else _radius(s))
        r = math.exp(t) if _MIN_EXP_ARG <= t <= _MAX_EXP_ARG else _radius(t)
        beta.append(r if u is v or t is EPS else -r)
    return tuple(chart), tuple(alpha), tuple(beta)


def chart_for(a: SVector, b: SVector) -> PsiChart:
    """Per-coordinate ordered ray pair covering both endpoints.

    Zero coordinates can sit on any ray; they adopt the partner's ray and a
    deterministic complementary tag (preferring plus, then minus, then
    balanced) so that the chart is reproducible.  It is taken in one pass
    with the chart values, so an exponent outside the float range warns as
    ``psi`` does.
    """
    return _chart_values(a, b)[0]


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
    negative to the second, zero to the zero element.  The chart's rays are
    Signs, as in every chart the library builds or reads."""
    if len(chart) != len(p):
        raise ValueError(f"dimension mismatch: {len(chart)} vs {len(p)}")
    coords = []
    # the log of a finite nonzero value is a finite float, which needs no
    # check; SElem refuses the log of an infinite one
    for (u, v), s in zip(chart, p):
        if s > 0:
            coords.append(_trusted_selem(u, math.log(s)) if s < math.inf else SElem(u, math.inf))
        elif s < 0:
            coords.append(_trusted_selem(v, math.log(-s)) if s > -math.inf else SElem(v, math.inf))
        else:
            coords.append(ZERO)
    return SVector(tuple(coords))


def _chart_json(chart: PsiChart) -> list:
    return [[u._value_, v._value_] for u, v in chart]


def _chart_from_json(data) -> PsiChart:
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"chart must be a list of [u, v] sign pairs, got {data!r}")
    for pair in data:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"chart entry must be a [u, v] sign pair, got {pair!r}")
    return tuple((Sign(u), Sign(v)) for u, v in data)


def _numbers_from_json(name: str, data) -> Tuple[float, ...]:
    """A JSON list of numbers as a tuple, or a ValueError naming ``name``."""
    if not isinstance(data, (list, tuple)) or not all(map(_is_number, data)):
        raise ValueError(f"{name} must be a list of numbers, got {data!r}")
    return tuple(data)


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
        _set_line_chart(self, chart)
        _set_vertices(self, vertices)
        _set_breakpoint_params(self, breakpoint_params)
        _set_length(self, length)

    def to_json(self) -> dict:
        return {
            "chart": _chart_json(self.chart),
            "t": list(self.breakpoint_params),
            "vertices": [list(v) for v in self.vertices],
            "length": self.length,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BrokenLine":
        if not isinstance(data, dict):
            raise ValueError(f"a broken line must be an object, got {type(data).__name__}")
        vertices, length = data["vertices"], data["length"]
        if not isinstance(vertices, (list, tuple)):
            raise ValueError(f"vertices must be a list of vertices, got {vertices!r}")
        if not _is_number(length):
            raise ValueError(f"length must be a number, got {length!r}")
        line = cls(
            _chart_from_json(data["chart"]),
            tuple(_numbers_from_json("vertex", v) for v in vertices),
            _numbers_from_json("t", data["t"]),
            length,
        )
        _check_keys(data, ("chart", "t", "vertices", "length"))
        return line


_set_line_chart, _set_vertices, _set_breakpoint_params, _set_length = (
    getattr(BrokenLine, name).__set__ for name in BrokenLine.__slots__
)


def _euclid(p: Sequence[float], q: Sequence[float]) -> float:
    """Chart distance; inf where it exceeds the float range."""
    try:
        # ** 2, not x * x, which differs from it in the last bit for about
        # one float in a thousand
        d = math.sqrt(sum(map(pow, map(sub, p, q), repeat(2))))
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
    chart, alpha, beta = _chart_values(a, b)
    crossing = {}  # crossing parameter -> the coordinates that cross there
    for j, (x, y) in enumerate(zip(alpha, beta)):
        if x > 0.0 > y or x < 0.0 < y:
            crossing.setdefault(min(max(x / (x - y), _T_MIN), _T_MAX), []).append(j)
    ts = sorted(crossing)
    vertices = [alpha]
    for t in ts:
        # (1 - t) alpha + t beta, in C-level passes
        vertex = list(map(add, map(mul, repeat(1.0 - t), alpha), map(mul, repeat(t), beta)))
        for j in crossing[t]:
            vertex[j] = 0.0
        vertices.append(tuple(vertex))
    vertices.append(beta)
    length = _saturated(sum(map(_euclid, vertices, vertices[1:])))
    return BrokenLine(chart, tuple(vertices), tuple(ts), length)


# The one membership tolerance, relative to a value's scale max(1, |v|).  A
# chart value is a radius e**t of an exponent t, which rounding moves by
# about |t| ulps relative to itself (at most about 8e-14 inside the float
# range, where |t| < 710), and a chord value or a distance adds a few ulps
# more; 1e-9 clears that by four orders of magnitude and still tells apart
# points that differ in the ninth digit.  The floor 1 makes it absolute
# below radius 1, near the origin, where the zero element sits at 0.0.
_REL = 1e-9


def d_segment_contains(x: SVector, y: SVector, z: SVector, mid: MetricId) -> bool:
    """Whether ``z`` lies metrically between ``x`` and ``y``: the triangle
    inequality holds with equality within ``_REL * max(1, rho(x, y))``."""
    d = rho(mid, x, y)
    return abs(rho(mid, x, z) + rho(mid, z, y) - d) <= _REL * max(1.0, d)


class PointPiece(_Record):
    """A segment piece that is one point."""

    __slots__ = ("point",)
    point: SVector

    def __init__(self, point: SVector):
        _set_point(self, point)

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
        _set_chart(self, chart)
        _set_start(self, start)
        _set_end(self, end)
        _set_closed_lo(self, closed_lo)
        _set_closed_hi(self, closed_hi)

    def point_at(self, t: float) -> SVector:
        p = tuple((1.0 - t) * s + t * e for s, e in zip(self.start, self.end))
        return psi_inverse(self.chart, p)

    def chord_length(self) -> float:
        return _saturated(_euclid(self.start, self.end))

    def param_of(self, x: SVector) -> Optional[float]:
        """Chord parameter of ``x`` on this arc, or None when off the arc
        (off-chart, off the chord, or at an excluded end).

        The coordinate whose span is largest against its scale max(1,
        |start|, |end|) fixes ``t``: it pins ``t`` the tightest.  An arc
        whose span there is at most ``_REL`` times the scale is one point up
        to the tolerance, and ``t`` is an end it includes.  Otherwise ``x``
        is at an excluded end when ``t`` is within ``_REL`` of it, a test in
        parameter space, so that it leaves in the interior of a short arc
        with two open ends.  Clamped to [0, 1], ``t`` must then give every
        coordinate within ``_REL`` times its scale."""
        try:
            px = psi(self.chart, x)
        except (ChartError, ValueError):
            return None
        start, end = self.start, self.end
        scales = [max(1.0, abs(s), abs(e)) for s, e in zip(start, end)]
        j = max(range(len(px)), key=lambda i: abs(end[i] - start[i]) / scales[i])
        span = end[j] - start[j]
        if abs(span) <= _REL * scales[j] and (self.closed_lo or self.closed_hi):
            # shorter than the tolerance, the arc is one point up to it
            t = 0.0 if self.closed_lo else 1.0
        else:
            # a span of 0 here is a point with both ends open, which is empty
            t = (px[j] - start[j]) / span if span else 0.0
            if (t <= _REL and not self.closed_lo) or (t >= 1.0 - _REL and not self.closed_hi):
                return None
            t = min(max(t, 0.0), 1.0)
        for s, e, v, scale in zip(start, end, px, scales):
            if abs(v - ((1.0 - t) * s + t * e)) > _REL * scale:
                return None
        return t

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


_set_point = PointPiece.point.__set__
_set_chart, _set_start, _set_end, _set_closed_lo, _set_closed_hi = (
    getattr(ArcPiece, name).__set__ for name in ArcPiece.__slots__
)


def _piece_from_json(data: dict):
    if data["kind"] == "point":
        piece = PointPiece(SVector.from_json(data["point"]))
    elif data["kind"] == "arc":
        start, end = _numbers_from_json("start", data["start"]), _numbers_from_json("end", data["end"])
        # library-built ends are finite floats: radii saturate at the float maximum
        for name, values in (("start", start), ("end", end)):
            if any(_huge(x) or not math.isfinite(x) for x in values):
                raise ValueError(f"arc ends must be finite, got {name} {list(values)}")
        chart = _chart_from_json(data["chart"])
        # point_at and param_of zip the three, which would drop coordinates
        if not len(chart) == len(start) == len(end):
            lengths = f"{len(chart)}, {len(start)} and {len(end)}"
            raise ValueError(f"arc chart, start and end must have one length, got {lengths}")
        flags = data["closed_lo"], data["closed_hi"]
        for name, flag in zip(("closed_lo", "closed_hi"), flags):
            if not isinstance(flag, bool):
                raise ValueError(f"{name} must be true or false, got {flag!r}")
        piece = ArcPiece(chart, start, end, *flags)
    else:
        raise ValueError(f"unknown piece kind {data['kind']!r}")
    # a piece's JSON keys are its kind and its fields
    _check_keys(data, ("kind", *type(piece)._fields))
    return piece


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
        S = cls(tuple(_piece_from_json(p) for p in data["pieces"]))
        dims = sorted({len(p.point) if isinstance(p, PointPiece) else len(p.chart) for p in S.pieces})
        if len(dims) > 1:
            raise ValueError(f"segment set pieces must share one dimension, got dimensions {dims}")
        # `smaxplus segment --kind traditional` adds the flag to a segment set
        _check_keys(data, ("pieces", "representable"))
        return S


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
    return SegmentSet((ArcPiece(*_chart_values(a, b), True, True),))


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
# SElem and SVector values are built only for the point pieces it returns,
# without the constructors' checks: every pair was read from SElem fields,
# or made from such pairs as _scaled_coord and _oplus make them, and is
# therefore normalized ((BALANCED, EPS) for zero, an int or finite float
# exponent otherwise).  Radii follow the one rule of _radius: math.exp
# inside [_MIN_EXP_ARG, _MAX_EXP_ARG], magnitude outside.  An event point
# starts from a copy of q and is rebuilt only at the moving coordinates and
# the idle ones, where p is nonzero and the scaled copy no longer moves (its
# event is >= 0, or it left at a tie): there the float test of the signed
# max decides, as at every other lam.  Where p is zero the point is q.
#
# Order.  The coordinates where p is nonzero sit in one list, the idle ones
# first and then the moving ones in the order they leave, so that at each
# event the moving ones are the list's tail, headed by those that tie
# there.  A moving coordinate's scaled copy is (sign p(i), lam + |p(i)|),
# written inline; only a tied one, and a sum that overflows to -inf, go
# through _scaled_coord, the one statement of the tie rule, and the radius
# is taken from its result.  Past its event a moving copy's exponent
# exceeds q's, and it wins the signed max; where rounding or a tie says
# otherwise, _oplus decides.
#
# Cost.  Sorting the events is O(n log n); each event builds one event point
# and one arc in O(n).  A segment with P pieces costs O(P n), the size of its
# output.

_LO, _HI = 1, 2  # positions of the end vectors in an arc record
_NEG_INF = -math.inf


def _oplus(x: tuple, y: tuple) -> tuple:
    # s_oplus on (sign, exp) pairs
    if x[1] is EPS or y[1] is EPS:
        return y if x[1] is EPS else x
    if x[1] != y[1]:
        return x if x[1] > y[1] else y
    return x if x[0] is y[0] else (BALANCED, x[1])


def _scaled_coord(pi: tuple, qi: tuple, lam) -> tuple:
    # scaled copy of p's nonzero coordinate; at the tie the exponent is
    # taken from the partner so the equality is exact in floats, and a sum
    # that overflows to -inf is the zero element, as SElem makes it
    if qi[1] is not EPS and qi[1] - pi[1] == lam:
        return (pi[0], qi[1])
    t = lam + pi[1]
    return (pi[0], t) if t != -math.inf else (BALANCED, EPS)


def _family_sweep(p: tuple, q: tuple, offset: int):
    """Sweep {(lam (*) p) (+) q : lam <= 0} from lam = 0 down, on
    (sign, exp) pairs.

    Returns the arcs as (chart, lo_vec, hi_vec, start, end) records, and the
    points the sweep meets (the lam = 0 point, each event point, then q) with
    the arc ends offered to each as (record index + ``offset``, end) pairs.
    """
    # every arc chart maps a coordinate's own ray to +magnitude, so the
    # chart images are the coordinates' magnitudes
    fixed = [(PLUS, PLUS) if e is EPS else (s, s) for s, e in q]
    chart = list(fixed)
    # the coordinates where p is nonzero as (i, sign, |p(i)|, |q(i)|)
    # records, with -inf for eps (below every sum, as eps is)
    idle, ties, free = [], {}, []
    for i, ((ps, pe), (_, qe)) in enumerate(zip(p, q)):
        if pe is EPS:
            continue
        if qe is EPS:
            free.append((i, ps, pe, _NEG_INF))
        else:
            event = qe - pe
            if not event < 0:
                idle.append((i, ps, pe, qe))
                continue
            ties.setdefault(event, []).append((i, ps, pe, qe))
        chart[i] = (ps, ps)
    events = sorted(ties, reverse=True)
    # the idle ones, then the moving ones in the order they leave, those
    # where q is zero last: at each lam the idle ones are a prefix and the
    # moving ones the rest, headed by those that tie at lam
    order = idle + [record for event in events for record in ties[event]] + free
    ends = list(q)
    radii = tuple([_radius(e) for _, e in q])
    mags = list(radii)

    def step(lam, start: int, tied: int) -> tuple:
        # scale the moving coordinates order[start:], of which the first
        # `tied` tie at lam, into ends and mags; return (lam (*) p) (+) q
        value = list(q)
        for k, (i, sign, pe, qe) in enumerate(order[start:]):
            t = lam + pe
            if k < tied or t == _NEG_INF:
                c = _scaled_coord(p[i], q[i], lam)
                t = c[1]
            else:
                c = (sign, t)
            ends[i] = c
            mags[i] = math.exp(t) if _MIN_EXP_ARG <= t <= _MAX_EXP_ARG else _radius(t)
            # the scaled copy wins where its exponent exceeds q's
            value[i] = c if t > qe else _oplus(c, q[i])
        for i, _, pe, qe in order[:start]:
            if not lam + pe < qe:
                value[i] = _oplus(_scaled_coord(p[i], q[i], lam), q[i])
        return tuple(value)

    start = len(idle)
    # an int lam, so integer exponents stay ints in a (+) b
    claims = [(step(0, start, 0), [(offset, _HI)] if start < len(order) else [])]
    hi_vec, hi = tuple(ends), tuple(mags)
    arcs = []
    for event in events:
        tied = ties[event]
        point = step(event, start, len(tied))
        arcs.append((tuple(chart), tuple(ends), hi_vec, tuple(mags), hi))
        for i, _, _, _ in tied:
            ends[i], mags[i], chart[i] = q[i], radii[i], fixed[i]
        start += len(tied)
        hi_vec, hi = tuple(ends), tuple(mags)
        below = [(offset + len(arcs), _HI)] if start < len(order) else []
        claims.append((point, [(offset + len(arcs) - 1, _LO)] + below))
    if start < len(order):
        # only coordinates where q is zero still move; they reach it at eps
        arcs.append((tuple(chart), q, hi_vec, radii, hi))
    claims.append((q, [(offset + len(arcs) - 1, _LO)] if arcs else []))
    return arcs, claims


_first, _second = itemgetter(0), itemgetter(1)


def _point_piece(x: tuple) -> PointPiece:
    # normalized pairs (see Values above): the elements are built as
    # _trusted_selems builds them, in C-level passes
    elems = list(map(object.__new__, repeat(SElem, len(x))))
    deque(map(_set_sign, elems, map(_first, x)), 0)
    deque(map(_set_exp, elems, map(_second, x)), 0)
    return PointPiece(_trusted_svector(tuple(elems)))


def _huge(e) -> bool:
    # an int exponent that float() refuses
    return e.__class__ is int and abs(e) > sys.float_info.max


def semimodule_segment(a: SVector, b: SVector) -> SegmentSet:
    """The set of max-normalized scaled combinations of the two endpoints,
    as disjoint pieces with explicit endpoint flags."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    pa = tuple([(c.sign, c.exp) for c in a])
    pb = tuple([(c.sign, c.exp) for c in b])
    try:
        arcs_a, claims_a = _family_sweep(pa, pb, 0)
        arcs_b, claims_b = _family_sweep(pb, pa, len(arcs_a))
    except OverflowError:
        # float(int) in a sum or difference of exponents: an int exponent,
        # or the difference of two, lies beyond the float range
        i = next(i for i, ((_, s), (_, t)) in enumerate(zip(pa, pb))
                 if _huge(s) or _huge(t) or s.__class__ is t.__class__ is int and _huge(t - s))
        raise ValueError(f"coordinate {i}: an integer exponent or exponent difference beyond the"
                         " float range cannot be combined with float exponents") from None
    arcs = arcs_a + arcs_b
    # both sweeps start at a (+) b, which may close either family's top arc
    (top, top_a), (_, top_b) = claims_a.pop(0), claims_b.pop(0)
    closed = {_LO: [False] * len(arcs), _HI: [False] * len(arcs)}  # per end, the flags per arc
    seen = set()
    isolated = []
    for x, offered in [(top, top_a + top_b)] + claims_a + claims_b:
        met = len(seen)
        seen.add(x)
        if len(seen) == met:
            continue
        for j, end in offered:
            if arcs[j][end] == x:
                closed[end][j] = True
                break
        else:
            isolated.append(x)
    pieces: List[object] = []
    for (chart, lo_vec, hi_vec, start, end), closed_lo, closed_hi in zip(arcs, closed[_LO], closed[_HI]):
        if lo_vec != hi_vec:
            pieces.append(ArcPiece(chart, start, end, closed_lo, closed_hi))
        elif closed_lo or closed_hi:
            # at exponents near 1e16 both ends round alike: the arc is one point, in
            # no piece yet, as a point joins `seen` before it closes at most one end
            pieces.append(_point_piece(lo_vec))
    pieces.extend(_point_piece(x) for x in isolated)
    return SegmentSet(tuple(pieces))


def _piece_member(piece, x: SVector) -> bool:
    if isinstance(piece, PointPiece):
        if piece.point == x:
            return True
        # decided as the one-point arc of the point's own chart
        chart, end, _ = _chart_values(piece.point, piece.point)
        piece = ArcPiece(chart, end, end, True, True)
    return piece.contains(x)
