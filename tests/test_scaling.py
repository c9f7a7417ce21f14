"""Scale equivariance of the ray-set predicates and of segments over the
exponent range.

``λ ⊗ x`` adds λ to the exponent of every nonzero element and multiplies
every radius by ``e**λ``; the origin and unbounded ends stay where they
are.  Connectedness, convexity and membership are properties of the
configuration of exponents, so they answer alike for a set and its scaled
copy, far outside the ``[e**-3, e**3]`` band of the random generators.

Sets are drawn with end exponents on a dyadic grid (multiples of
``2**-20``), and each end radius is built as ``exp(t + λ)``, so ``λ ⊗`` is
exact in the exponent at every λ tested.  Membership is compared for
queries half a grid step off every end exponent, which ``λ ⊗`` maps
exactly, and for the elements ``point_on_ray`` builds from the end radii,
which its contract makes members at every λ.  A query exactly at an end
exponent ``t`` is not compared: the end is stored as ``log(exp(t + λ))``,
which rounds differently at different λ, so such a query can be a member
at one λ and not at another.

Segments are drawn between vectors whose exponents lie on the same grid,
so ``λ ⊗`` is exact on the endpoints.  The semimodule, geometric and
traditional segments of the scaled endpoints are the scaled segments:
the same pieces, charts, flags and breakpoints, point pieces at exactly
the scaled elements, and chart values ``e**λ`` times the unscaled ones
to within rounding.  ``components`` groups the pieces alike, and a
segment set answers ``contains`` alike for a query and its scaled copy.
Past ``|exp| ≈ 709`` a radius saturates or underflows, so there only the
exponent decisions must commute, and a ``MagnitudeRangeWarning`` says
that the radii did not.
"""

import math
import random
import warnings

import pytest

from smaxplus.algebra import RAYS, ZERO, SElem
from smaxplus.connectivity import components
from smaxplus.metrics import MagnitudeRangeWarning, SVector
from smaxplus.raysets import (
    RaySet, is_chebyshev, is_connected, is_geometrically_convex, is_semimodule_convex,
    is_traditionally_convex, point_on_ray,
)
from smaxplus.segments import (
    PointPiece, geometric_segment, semimodule_segment, traditional_segment, vec_scale,
)

STEP = 2.0 ** -20
LAMBDAS = [30, -30, 300, -300, 690, -690]
PREDICATES = [is_connected, is_chebyshev, is_traditionally_convex, is_geometrically_convex,
              is_semimodule_convex]


def _draw(rng):
    """A set's shape: a pool of one to six grid exponents in [-3, 3], per
    ray the intervals between consecutive ones of a sample of the pool (a
    shared pool gives equal radii across rays, which the semimodule rule
    compares), and whether the first interval of each ray starts at the
    origin and the last is unbounded."""
    pool = sorted({rng.randrange(-3 * 2 ** 20, 3 * 2 ** 20) * STEP for _ in range(rng.randint(1, 6))})
    shape = {}
    for ray in RAYS:
        ends = sorted(rng.sample(pool, min(len(pool), rng.choice((0, 1, 2, 2, 4)))))
        ends += ends[-1:] * (len(ends) % 2)
        shape[ray] = list(zip(ends[::2], ends[1::2]))
    return pool, shape, rng.random() < 0.4, rng.random() < 0.3


def _scaled_set(shape, origin, unbounded, lam) -> RaySet:
    rays = []
    for ray in RAYS:
        ivs = [(math.exp(a + lam), math.exp(b + lam)) for a, b in shape[ray]]
        if ivs and origin:
            ivs[0] = (0.0, ivs[0][1])
        if ivs and unbounded:
            ivs[-1] = (ivs[-1][0], math.inf)
        rays.append(tuple(ivs))
    return RaySet(*rays)


def _cases(seed, count):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        pool, shape, origin, unbounded = _draw(rng)
        if any(shape.values()):
            cases.append((pool, shape, origin, unbounded))
    return cases


CASES = _cases(12, 400)


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
def test_predicates_commute_with_scaling(predicate):
    answers = set()
    for _, shape, origin, unbounded in CASES:
        expected = predicate(_scaled_set(shape, origin, unbounded, 0))
        answers.add(expected)
        for lam in LAMBDAS:
            assert predicate(_scaled_set(shape, origin, unbounded, lam)) is expected, (shape, origin, unbounded, lam)
    assert answers == {True, False}


@pytest.mark.parametrize("lam", LAMBDAS)
def test_membership_commutes_with_scaling(lam):
    answers = set()
    for pool, shape, origin, unbounded in CASES:
        C0, C = (_scaled_set(shape, origin, unbounded, s) for s in (0, lam))
        assert C.contains(ZERO) is C0.contains(ZERO) is C.has_origin
        for ray in RAYS:
            for t in pool:
                for off in (-STEP / 2, STEP / 2):
                    expected = C0.contains(SElem(ray, t + off))
                    answers.add(expected)
                    assert C.contains(SElem(ray, t + off + lam)) is expected, (shape, ray, t + off, lam)
            for lo, hi in C.intervals(ray):
                for m in (lo, hi):
                    if m < math.inf:
                        assert C.contains(point_on_ray(ray, m)), (shape, ray, m, lam)
    assert answers == {True, False}


# --- segments ---------------------------------------------------------------------


def _grid_coord(rng, sign=None) -> SElem:
    if rng.random() < 0.1:
        return ZERO
    return SElem(sign or rng.choice(RAYS), rng.randrange(-3 * 2 ** 20, 3 * 2 ** 20) * STEP)


def _segment_pairs(seed, count):
    """Endpoint pairs at n = 1, 2, 3 and 8 with grid exponents in [-3, 3],
    about one in ten coordinates zero; in about one coordinate in three
    ``b`` keeps ``a``'s ray, so that some traditional segments exist."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        a = [_grid_coord(rng) for _ in range((1, 2, 3, 8)[k % 4])]
        b = [_grid_coord(rng, c.sign if not c.is_zero and rng.random() < 0.3 else None) for c in a]
        pairs.append((SVector(tuple(a)), SVector(tuple(b))))
    return pairs


SEGMENT_PAIRS = _segment_pairs(2, 60)


def _chart_close(u, v, lam) -> bool:
    """Whether the chart value ``v`` is ``e**λ`` times ``u``: the same sign,
    and log radii λ apart to within 1e-9, far above the few ulps of
    ``exp`` and ``log`` at exponents below 710."""
    if u == 0.0 or v == 0.0:
        return u == v
    return (u > 0.0) == (v > 0.0) and abs(math.log(abs(v)) - lam - math.log(abs(u))) <= 1e-9


def _all_close(us, vs, lam) -> bool:
    return len(us) == len(vs) and all(_chart_close(u, v, lam) for u, v in zip(us, vs))


def _same_structure(S0, S, lam) -> bool:
    """Whether the pieces of ``S`` are those of ``S0`` in order: the same
    kinds, charts and flags, and point pieces at exactly ``λ ⊗`` of the
    unscaled ones.  The decisions of the exponents alone."""
    if len(S0.pieces) != len(S.pieces):
        return False
    for p0, p in zip(S0.pieces, S.pieces):
        if type(p0) is not type(p):
            return False
        if isinstance(p0, PointPiece):
            if vec_scale(lam, p0.point) != p.point:
                return False
        elif (p0.chart, p0.closed_lo, p0.closed_hi) != (p.chart, p.closed_lo, p.closed_hi):
            return False
    return True


def _same_pieces(S0, S, lam) -> bool:
    """``_same_structure``, and arcs whose chart ends are the scaled ones."""
    return _same_structure(S0, S, lam) and all(
        isinstance(p0, PointPiece) or _all_close(p0.start, p.start, lam) and _all_close(p0.end, p.end, lam)
        for p0, p in zip(S0.pieces, S.pieces))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_segments_commute_with_scaling(lam):
    kinds = set()
    for a, b in SEGMENT_PAIRS:
        sa, sb = vec_scale(lam, a), vec_scale(lam, b)
        seg0, seg = semimodule_segment(a, b), semimodule_segment(sa, sb)
        assert _same_pieces(seg0, seg, lam), (a, b, lam)
        assert components(seg) == components(seg0), (a, b, lam)
        line0, line = geometric_segment(a, b), geometric_segment(sa, sb)
        assert line.chart == line0.chart and len(line.vertices) == len(line0.vertices), (a, b, lam)
        assert all(_all_close(v0, v, lam) for v0, v in zip(line0.vertices, line.vertices)), (a, b, lam)
        assert line.breakpoint_params == pytest.approx(line0.breakpoint_params, rel=1e-12), (a, b, lam)
        trad0, trad = traditional_segment(a, b), traditional_segment(sa, sb)
        assert (trad is None) is (trad0 is None), (a, b, lam)
        assert trad is None or _same_pieces(trad0, trad, lam), (a, b, lam)
        kinds.add((len(components(seg0)) > 1, len(line0.breakpoint_params) > 0, trad0 is None))
    # disconnected and connected segments, geodesics with and without
    # breakpoints, and pairs with and without a traditional segment
    assert {k[0] for k in kinds} == {k[1] for k in kinds} == {k[2] for k in kinds} == {True, False}


def _member_queries(seg):
    """Members of a semimodule segment: its point pieces, and points of its
    arcs inside the chord and at their closed ends."""
    queries = []
    for piece in seg.pieces:
        if isinstance(piece, PointPiece):
            queries.append(piece.point)
        else:
            ts = [0.0] * piece.closed_lo + [0.3, 0.5] + [1.0] * piece.closed_hi
            queries += [piece.point_at(t) for t in ts]
    return queries


def _off(x: SVector) -> SVector:
    """``x`` with every nonzero exponent raised by 0.5: off the chord of
    every arc through ``x``."""
    return SVector(tuple(c if c.is_zero else SElem(c.sign, c.exp + 0.5) for c in x))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_segment_members_stay_members(lam):
    for a, b in SEGMENT_PAIRS:
        seg = semimodule_segment(vec_scale(lam, a), vec_scale(lam, b))
        for x in _member_queries(semimodule_segment(a, b)):
            assert seg.contains(vec_scale(lam, x)), (a, b, x, lam)


# Segment membership allows 1e-9 times max(1, |v|) per chart value: an
# absolute 1e-9 below radius 1, which at λ <= -30 exceeds every radius of
# these segments, so every point near one with its rays is a member.
_ABSOLUTE_FLOOR = pytest.mark.xfail(
    strict=True, reason="the segment membership tolerance is absolute below radius 1")


@pytest.mark.parametrize("lam", [lam if lam > 0 else pytest.param(lam, marks=_ABSOLUTE_FLOOR) for lam in LAMBDAS])
def test_segment_nonmembers_stay_nonmembers(lam):
    answers = set()
    for a, b in SEGMENT_PAIRS:
        seg0 = semimodule_segment(a, b)
        seg = semimodule_segment(vec_scale(lam, a), vec_scale(lam, b))
        for x in map(_off, _member_queries(seg0)):
            expected = seg0.contains(x)
            answers.add(expected)
            assert seg.contains(vec_scale(lam, x)) is expected, (a, b, x, lam)
    assert False in answers


@pytest.mark.parametrize("lam", [720, -750])
def test_saturated_segments_keep_their_exponent_decisions(lam):
    # every radius e**(t + λ) lies past e**709.78, where it saturates, or
    # below e**-745.13, where it underflows to the origin
    for a, b in SEGMENT_PAIRS[:24]:
        sa, sb = vec_scale(lam, a), vec_scale(lam, b)
        if a == b == SVector((ZERO,) * len(a)):
            continue
        with pytest.warns(MagnitudeRangeWarning):
            seg = semimodule_segment(sa, sb)
        assert _same_structure(semimodule_segment(a, b), seg, lam), (a, b, lam)
        with pytest.warns(MagnitudeRangeWarning):
            line = geometric_segment(sa, sb)
        assert line.chart == geometric_segment(a, b).chart, (a, b, lam)
        trad0 = traditional_segment(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MagnitudeRangeWarning)
            trad = traditional_segment(sa, sb)
        assert (trad is None) is (trad0 is None), (a, b, lam)
        assert trad is None or _same_structure(trad0, trad, lam), (a, b, lam)
