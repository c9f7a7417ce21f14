"""The planar tripod embedding and the metrics built on it.

The signed elements embed into the complex plane as three rays from the
origin at mutual 120-degree angles (plus at 120, minus at 240, balanced along
the positive reals), a point with magnitude exponent ``t`` landing at radius
``e**t``; the zero element is the origin since ``e**-inf = 0``.

Two metrics on elements: the chord (Euclidean) distance between embedded
points, and the inner (path) distance measured along the tripod, through the
origin for points on different rays.  Vectors combine the coordinate
distances by max, Euclidean norm or sum, giving six product metrics.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections import deque
from itertools import product, repeat
from typing import Iterable, Iterator, List, Sequence, Sized, Tuple

from .algebra import EPS, SElem, Sign, _check_keys, _check_object, _Record, _set_exp, _set_sign


class MagnitudeRangeWarning(RuntimeWarning):
    """Emitted when e**t leaves the float range: it saturates at the float
    maximum on overflow and rounds to 0.0 on underflow."""


_MAX_EXP_ARG = math.log(sys.float_info.max)
# e**t is a positive float, which magnitude returns with no warning, for
# every t in [_MIN_EXP_ARG, _MAX_EXP_ARG]
_MIN_EXP_ARG = -_MAX_EXP_ARG
_SQRT_FLOAT_MIN = math.sqrt(sys.float_info.min)

THETA = complex(-0.5, math.sqrt(3.0) / 2.0)

_RAY_DIRECTION = {
    Sign.PLUS: THETA,
    Sign.MINUS: THETA * THETA,
    Sign.BALANCED: complex(1.0, 0.0),
}


def magnitude(a: SElem) -> float:
    """Radial coordinate e**|a| of the embedded point; exactly 0 for the zero
    element, saturating on float overflow and reaching 0.0 on underflow, each
    with a warning."""
    t = a.exp
    if t is EPS:
        return 0.0
    if t > _MAX_EXP_ARG:
        warnings.warn(
            f"magnitude exponent {t} overflows the float range; saturating",
            MagnitudeRangeWarning,
            stacklevel=2,
        )
        return sys.float_info.max
    try:
        m = math.exp(t)
    except OverflowError:  # an int exponent below the float range
        m = 0.0
    if m == 0.0:
        warnings.warn(
            f"magnitude exponent {t} underflows the float range; embedding at the origin",
            MagnitudeRangeWarning,
            stacklevel=2,
        )
    return m


def phi(a: SElem) -> complex:
    """Embed a signed element into the plane."""
    return _RAY_DIRECTION[a.sign] * magnitude(a)


def cross_distance(m: float, mp: float, base: int) -> float:
    """Distance between points of radial coordinates m and m' on two
    distinct rays: m + m' through the origin for the path metric (base 2),
    and for the chord metric (base 1) the law of cosines at 120 degrees
    (``_chord_cross``).  ``_CROSS`` maps each base to its kernel, which the
    projection kernel calls directly."""
    return m + mp if base == 2 else _chord_cross(m, mp)


def _chord_cross(m: float, mp: float) -> float:
    """The chord metric across rays, sqrt(m^2 + m'^2 + m m'), which avoids
    the roundoff of complex subtraction.  Where the squares overflow, or
    fall below the normal float range (d < sqrt(float min), where they round
    to 0.0 or lose digits), it is taken as big * sqrt(1 + r + r^2) with
    r = small / big."""
    d = math.sqrt(m * m + mp * mp + m * mp)
    if d == math.inf or (d < _SQRT_FLOAT_MIN and (m or mp)):
        big, small = max(m, mp), min(m, mp)
        r = small / big
        d = big * math.sqrt(1.0 + r + r * r)
    return d


# the cross-ray kernel of each base metric: 1 (chord) and 2 (path)
_CROSS = {1: _chord_cross, 2: operator.add}


def _euclid_norm(ds: Sequence[float]) -> float:
    """The Euclidean combine sqrt(sum(d * d)) of nonempty distances.  Where
    the squares overflow, or fall below the normal float range (as in
    ``_chord_cross``), it is taken as big * sqrt(sum((d / big)**2)) with
    big the largest distance; an infinite distance gives inf."""
    d = math.sqrt(sum([x * x for x in ds]))
    if d == math.inf or (d < _SQRT_FLOAT_MIN and any(ds)):
        big = max(ds)
        if big < math.inf:
            d = big * math.sqrt(sum([(x / big) ** 2 for x in ds]))
    return d


def d1(a: SElem, b: SElem) -> float:
    """Chord distance between the embedded points; same-ray pairs reduce to
    |m - m'| on the common ray."""
    m = magnitude(a)
    mp = magnitude(b)
    if a.sign is b.sign:
        return abs(m - mp)
    return cross_distance(m, mp, 1)


def d2(a: SElem, b: SElem) -> float:
    """Path distance along the tripod (through the origin across rays)."""
    m = magnitude(a)
    mp = magnitude(b)
    if a.sign is b.sign:
        return abs(m - mp)
    return cross_distance(m, mp, 2)


_BASE = {1: d1, 2: d2}


class SVector(_Record):
    """A fixed-length tuple of signed elements; immutable like ``SElem``,
    with the ``_Record`` equality and hash written out because they are
    hot."""

    __slots__ = ("coords",)
    coords: Tuple[SElem, ...]

    def __init__(self, coords: Tuple[SElem, ...]):
        coords = tuple(coords)
        if not coords:
            raise ValueError("vectors must have at least one coordinate")
        for c in coords:
            if not isinstance(c, SElem):
                raise TypeError("vector coordinates must be SElem")
        _set_coords(self, coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[SElem]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> SElem:
        return self.coords[i]

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"

    def to_json(self) -> dict:
        return {"coords": [c.to_json() for c in self.coords]}

    @classmethod
    def from_json(cls, data: dict) -> "SVector":
        _check_object(data, "a vector")
        coords = data["coords"]
        if not isinstance(coords, (list, tuple)):
            raise ValueError(f"coords must be a list of elements, got {coords!r}")
        v = cls(tuple(SElem.from_json(c) for c in coords))
        _check_keys(data, ("coords",))
        return v


_set_coords = SVector.coords.__set__


def _trusted_svector(coords: Tuple[SElem, ...]) -> SVector:
    """An SVector built without ``__init__``'s checks.  The caller
    guarantees a nonempty tuple whose parts are SElem values the library
    returned."""
    v = object.__new__(SVector)
    _set_coords(v, coords)
    return v


# The batch forms of ``_trusted_selem`` and ``_trusted_svector``, for the
# clouds and point pieces the library builds by the thousand.  C-level
# passes (allocate, then set each field) replace a Python call per value;
# the slot setters return None, so an empty deque drains their maps.


def _trusted_selems(signs: Iterable[Sign], exps: Sized) -> List[SElem]:
    """One element per exponent of the sized iterable ``exps``, in order,
    with the sign ``signs`` gives it, under ``_trusted_selem``'s
    precondition for each: ``signs`` yields Signs, at least one per
    exponent, and every exponent is a finite float, or the pair is one read
    from an SElem's fields."""
    elems = list(map(object.__new__, repeat(SElem, len(exps))))
    deque(map(_set_sign, elems, signs), 0)
    deque(map(_set_exp, elems, exps), 0)
    return elems


def _trusted_product(clouds: Sequence[Sequence[SElem]]) -> Tuple[SVector, ...]:
    """The vectors of ``itertools.product(*clouds)``, in its order, each
    built as ``_trusted_svector`` builds one and under its precondition: the
    clouds are nonempty sequences of SElem values the library returned."""
    vectors = tuple(map(object.__new__, repeat(SVector, math.prod(map(len, clouds)))))
    deque(map(_set_coords, vectors, product(*clouds)), 0)
    return vectors


def phi_n(x: SVector) -> Tuple[complex, ...]:
    """Coordinatewise embedding of a vector into C^n."""
    return tuple(phi(c) for c in x)


def _is_base(base) -> bool:
    """Whether ``base`` names a base metric, 1 (chord) or 2 (path): it
    equals 1 or 2 and its type subclasses int or float but not bool.
    ``True == 1``, and numpy's bool and integer scalars equal 1 or 2
    without subclassing int; each is refused, since ``cross_distance``
    reads any base but 2 as the chord metric."""
    kind = base.__class__
    if kind is not int and (issubclass(kind, bool) or not issubclass(kind, (int, float))):
        return False
    return base == 1 or base == 2


_COMBINE_BY_K = {0: "max", 1: "euclid", 2: "sum"}
_K_BY_COMBINE = {v: k for k, v in _COMBINE_BY_K.items()}


class MetricId(_Record):
    """One of the six product metrics: a combine rule over a base metric."""

    __slots__ = ("combine", "base")
    combine: str  # "max" | "euclid" | "sum"
    base: int  # 1 (chord) | 2 (path)

    def __init__(self, combine: str, base: int):
        if combine not in _K_BY_COMBINE:
            raise ValueError(f"unknown combine rule {combine!r}")
        # 2.0 == 2: the base is stored as an int, so that equal ids print
        # alike
        if not _is_base(base):
            raise ValueError(f"unknown base metric {base!r}")
        object.__setattr__(self, "combine", combine)
        object.__setattr__(self, "base", int(base))

    @property
    def code(self) -> str:
        return f"rho{_K_BY_COMBINE[self.combine]}{self.base}"

    def __repr__(self) -> str:
        return self.code


D1 = MetricId("euclid", 1)
D2 = MetricId("euclid", 2)

_ALIASES = {"d1": D1, "d2": D2}


def parse_metric_id(code: str) -> MetricId:
    """Parse ``rho<k><j>`` codes and the aliases ``D1`` (= rho11), ``D2`` (= rho12)."""
    lowered = code.strip().lower()
    if lowered in _ALIASES:
        return _ALIASES[lowered]
    if len(lowered) == 5 and lowered.startswith("rho"):
        k, j = lowered[3], lowered[4]
        if k in "012" and j in "12":
            return MetricId(_COMBINE_BY_K[int(k)], int(j))
    raise ValueError(f"unknown metric id {code!r}")


def rho(mid: MetricId, x: SVector, y: SVector) -> float:
    """Distance between two vectors under the chosen product metric."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    base = _BASE[mid.base]
    ds = [base(a, b) for a, b in zip(x, y)]
    if mid.combine == "max":
        return max(ds)
    if mid.combine == "sum":
        return float(sum(ds))
    return _euclid_norm(ds)
