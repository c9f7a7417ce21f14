"""Nearest-point maps, Chebyshev decisions, product and union laws."""

import math
import random
import warnings

import numpy
import pytest

from smaxplus import (
    BoxSet,
    MagnitudeRangeWarning,
    MetricId,
    ProjectionResult,
    RaySet,
    SElem,
    SVector,
    Sign,
    ZERO,
    as_segment_set,
    d1,
    d2,
    distance_to_set,
    find_multipoint_witness,
    geometric_segment,
    is_chebyshev,
    is_connected,
    is_geometrically_convex,
    is_semimodule_convex,
    parse_metric_id,
    point_on_ray,
    project_box,
    project_box_max,
    project_ray,
    semimodule_segment,
)

from smaxplus.algebra import RAYS
from smaxplus.metrics import _CROSS
from smaxplus.projection import _check_base

from grid_oracle import GridSpec, grid_project
from instances import (
    random_connected_ray_set,
    random_disconnected_ray_set,
    random_ray_set,
    random_selem,
    random_semimodule_convex_ray_set,
    random_svector,
)

TRIPLE = RaySet(plus=((1, 1),), minus=((1, 1),), balanced=((1, 1),))


def base_metric(base):
    return d1 if base == 1 else d2


class TestProjectRay:
    def test_all_three_at_distance_one(self):
        for base in (1, 2):
            r = project_ray(ZERO, TRIPLE, base)
            assert set(r.points) == {SElem.pos(0), SElem.neg(0), SElem.bal(0)}
            assert r.distance == pytest.approx(1.0, abs=1e-12)
            assert not r.is_singleton

    def test_cross_ray_clamp(self):
        C = RaySet(plus=((1, 2),))
        r = project_ray(SElem.neg(0), C, 2)
        assert r.points == (SElem.pos(0),)
        assert r.distance == pytest.approx(2.0, abs=1e-12)
        r = project_ray(SElem.neg(0), C, 1)
        assert r.distance == pytest.approx(math.sqrt(3), abs=1e-12)
        # grid search agrees
        g = GridSpec(resolution=1e-3, max_magnitude=5.0)
        for base in (1, 2):
            got = grid_project(
                SVector((SElem.neg(0),)), BoxSet((C,)), MetricId("euclid", base), g
            )
            assert got.distance == pytest.approx(
                project_ray(SElem.neg(0), C, base).distance, abs=2e-3
            )

    def test_own_ray_interior(self):
        C = RaySet(plus=((1, 2),))
        x = SElem.pos(math.log(1.5))
        r = project_ray(x, C, 2)
        assert r.points == (x,) and r.distance == 0.0 and r.is_singleton

    def test_result_invariants(self):
        rng = random.Random(41)
        for _ in range(200):
            C = random_ray_set(rng)
            x = random_selem(rng)
            for base in (1, 2):
                r = project_ray(x, C, base)
                d = base_metric(base)
                assert len(set(r.points)) == len(r.points)
                for p in r.points:
                    assert C.contains(p) or min(
                        abs(math.exp(p.exp) - e)
                        for ivs in (C.plus, C.minus, C.balanced)
                        for iv in ivs
                        for e in iv
                    ) < 1e-9 if not p.is_zero else True
                    assert d(x, p) == pytest.approx(r.distance, abs=1e-9)
                assert r.is_singleton == (len(r.points) == 1)

    @pytest.mark.parametrize("base", [1, 2])
    @pytest.mark.parametrize(
        "x, C, nearest",
        [
            # one attained candidate
            (SElem.neg(0), RaySet(plus=((1, 2),)), (SElem.pos(0),)),
            # two, no tie: the own ray's high end wins over the cross-ray end
            (SElem.pos(math.log(3.0)), RaySet(plus=((1, 2),), minus=((5, 6),)), (SElem.pos(math.log(2.0)),)),
            # two tied
            (ZERO, RaySet(plus=((1, 2),), minus=((1, 2),)), (SElem.pos(0.0), SElem.neg(0.0))),
            # three, the later two tied and nearer than the first
            (ZERO, RaySet(plus=((3, 4),), minus=((1, 2),), balanced=((1, 2),)), (SElem.neg(0.0), SElem.bal(0.0))),
            (SElem.pos(0), RaySet(plus=((5, 6),), minus=((1, 2),), balanced=((1, 2),)),
             (SElem.neg(0.0), SElem.bal(0.0))),
        ],
    )
    def test_one_two_and_three_attained_candidates(self, x, C, nearest, base):
        r = project_ray(x, C, base)
        assert r.points == nearest
        assert r.distance == base_metric(base)(x, nearest[0])

    def test_errors(self):
        with pytest.raises(ValueError):
            project_ray(ZERO, RaySet(), 2)
        with pytest.raises(ValueError):
            project_ray(ZERO, TRIPLE, 3)


def _point_piece_set(e: SElem):
    from smaxplus.segments import PointPiece, SegmentSet

    return SegmentSet((PointPiece(SVector((e,))),))


# the entry points that take a base metric, each on a set it accepts (the
# last is project_ray on a segment set), and the one base check they share;
# cross_distance would read any base but 2 as the chord metric, True (== 1)
# too
BASE_TAKERS = {
    "_check_base": _check_base,
    "project_ray": lambda base: project_ray(SElem.neg(1), RaySet(plus=((1, 2),)), base),
    "find_multipoint_witness": lambda base: find_multipoint_witness(RaySet(plus=((1, 2), (3, 4))), base),
    "project_box_max": lambda base: project_box_max(
        SVector((SElem.neg(1),)), BoxSet((RaySet(plus=((1, 2),)),)), base
    ),
    "project_segment_set": lambda base: project_ray(SElem.neg(1), _point_piece_set(SElem.pos(1)), base),
}


@pytest.mark.parametrize(
    "base",
    [0, 3, 5, "2", "x", None, True, *(pytest.param(b, id=repr(b)) for b in (numpy.True_, numpy.int64(2)))],
)
@pytest.mark.parametrize("entry", sorted(BASE_TAKERS))
def test_a_base_other_than_1_or_2_is_refused(entry, base):
    # numpy's bool and integer scalars equal 1 or 2 but subclass no int
    with pytest.raises(ValueError, match="^base metric must be 1 or 2$"):
        BASE_TAKERS[entry](base)


@pytest.mark.parametrize("base", [1, 2, 2.0, numpy.float64(2.0)], ids=repr)
@pytest.mark.parametrize("entry", sorted(BASE_TAKERS))
def test_a_float_base_is_accepted(entry, base):
    # the check returns the base's cross-ray kernel
    assert _check_base(base) is _CROSS[int(base)]
    assert BASE_TAKERS[entry](base) == BASE_TAKERS[entry](int(base))


MEMBER_BANDS = [(-3.0, 3.0), (30.0, 40.0), (-690.0, 690.0)]


def _random_member(rng, C: RaySet, band) -> SElem:
    """A nonzero member: an interval end's exponent, or an exponent drawn
    between the ends' (past the band for an end at 0 or at inf)."""
    ray, lo, hi = rng.choice([(ray, lo, hi) for ray in (Sign.PLUS, Sign.MINUS, Sign.BALANCED)
                              for lo, hi in C.intervals(ray) if hi > 0.0])
    t_lo = math.log(lo) if lo > 0.0 else band[0] - 5.0
    t_hi = math.log(hi) if hi < math.inf else band[1] + 5.0
    t = rng.choice((t_lo, t_hi)) if rng.random() < 0.2 else rng.uniform(t_lo, t_hi)
    x = SElem(ray, t)
    assert C.contains(x)
    return x


class TestMembersProjectToThemselves:
    """A member is its own unique nearest point, at distance 0: reported as
    the query itself, not rebuilt from its radius through ``exp``/``log``."""

    @pytest.mark.parametrize("band", MEMBER_BANDS)
    def test_project_ray(self, band):
        rng = random.Random(48)
        for _ in range(300):
            C = random_ray_set(rng, band)
            x = _random_member(rng, C, band)
            for base in (1, 2):
                assert project_ray(x, C, base) == ProjectionResult((x,), 0.0)

    @pytest.mark.parametrize("band", MEMBER_BANDS)
    def test_project_box(self, band):
        rng = random.Random(49)
        for k in range(120):
            A = BoxSet(tuple(random_ray_set(rng, band) for _ in range(1 + k % 3)))
            x = SVector(tuple(_random_member(rng, C, band) for C in A.factors))
            for code in ("rho11", "rho12", "rho21", "rho22"):
                assert project_box(x, A, parse_metric_id(code)) == ProjectionResult((x,), 0.0)
            assert project_box_max(x, A, 1 + k % 2) == ProjectionResult((x,), 0.0)

    def test_members_outside_the_float_range_do_not_warn(self):
        # the answer is exact, so the radius, which saturates or underflows
        # with a warning, is never taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = SElem.pos(800)
            assert project_ray(x, RaySet(plus=((1, math.inf),))) == ProjectionResult((x,), 0.0)
            y = SElem.pos(-800)
            assert project_ray(y, RaySet(plus=((0, 1),)), 1) == ProjectionResult((y,), 0.0)
        # a query there that is not a member still warns
        with pytest.warns(MagnitudeRangeWarning, match="overflows"):
            project_ray(SElem.neg(800), RaySet(plus=((1, math.inf),)))

    def test_a_zero_query_in_a_set_that_holds_the_origin(self):
        # the origin is a member, so it alone is nearest, though m:-23.03
        # (radius 1e-10) is within TIE_TOL of it
        C = RaySet(plus=((0, 1),), minus=((1e-10, 1),))
        assert C.contains(ZERO)
        for base in (1, 2):
            assert project_ray(ZERO, C, base) == ProjectionResult((ZERO,), 0.0)

    def test_a_member_whose_radius_rounds_away(self):
        # exp/log moves this member's radius by an ulp: the kernel used to
        # report p:-0.44743874464378225
        x = SElem.pos(-0.4474387446437822)
        assert math.log(math.exp(x.exp)) != x.exp
        assert project_ray(x, RaySet(plus=((0.01, 100),)), 2).points == (x,)


class TestDistance:
    def test_examples(self):
        C = RaySet(balanced=((2, 3),))
        assert distance_to_set(SElem.bal(math.log(2.5)), C) == 0.0
        assert distance_to_set(ZERO, C) == pytest.approx(2.0, abs=1e-12)
        assert distance_to_set(SElem.neg(0), RaySet(plus=((1, 2),)), base=1) == pytest.approx(
            math.sqrt(3), abs=1e-12
        )

    def test_unbounded_interval(self):
        C = RaySet(plus=((1, math.inf),))
        assert distance_to_set(SElem.pos(9), C) == 0.0
        assert distance_to_set(ZERO, C) == pytest.approx(1.0)


class TestChebyshev:
    def test_examples(self):
        assert is_chebyshev(RaySet(plus=((0, 1),), minus=((0, 3),)))
        assert not is_chebyshev(TRIPLE)
        assert is_chebyshev(RaySet(minus=((1, 2),)))

    def test_connected_sets_project_uniquely(self):
        rng = random.Random(42)
        for _ in range(30):
            C = random_connected_ray_set(rng)
            for _ in range(100):
                x = random_selem(rng)
                r1 = project_ray(x, C, 1)
                r2 = project_ray(x, C, 2)
                assert r1.is_singleton and r2.is_singleton
                assert r1.points == r2.points

    def test_disconnected_sets_have_witnesses(self):
        rng = random.Random(43)
        for _ in range(30):
            C = random_disconnected_ray_set(rng)
            for base in (1, 2):
                w = find_multipoint_witness(C, base)
                assert w is not None
                assert len(project_ray(w, C, base).points) >= 2

    def test_connected_sets_have_no_witness(self):
        rng = random.Random(44)
        for _ in range(30):
            C = random_connected_ray_set(rng)
            assert find_multipoint_witness(C, 2) is None

    def test_witness_for_star_plus_detached_interval(self):
        # a star through the origin with a non-anchored interval on another
        # ray: the only gap is radial, between the origin and that interval
        C = RaySet(plus=((0, 1),), minus=((2, 3),))
        assert not is_connected(C)
        for base in (1, 2):
            w = find_multipoint_witness(C, base)
            assert w is not None
            assert len(project_ray(w, C, base).points) >= 2

    def test_geometric_convexity_matches_chebyshev(self):
        rng = random.Random(45)
        for i in range(100):
            C = random_ray_set(rng) if i % 2 else random_connected_ray_set(rng)
            assert is_geometrically_convex(C) == is_chebyshev(C)


def _assert_witness(C, w, base):
    """``w`` lies outside ``C`` and its two nearest interval ends, measured
    with ``d1``/``d2``, are equally near within a relative 1e-12.  Outside
    the set, the nearest point of each interval is one of its ends."""
    assert w is not None and not C.contains(w)
    dist = base_metric(base)
    ends = {
        point_on_ray(ray, m)
        for ray in (Sign.PLUS, Sign.MINUS, Sign.BALANCED)
        for interval in C.intervals(ray)
        for m in interval
        if m < math.inf
    }
    near, second = sorted(dist(w, p) for p in ends)[:2]
    assert second - near <= 1e-12 * second, (w, near, second)


WIDE_WITNESS_SETS = [
    # equal first low ends on two or three rays: the witness is the origin
    RaySet(plus=((1, 2),), minus=((1, 4),)),
    RaySet(plus=((1, 2),), minus=((1, 4),), balanced=((1, 3),)),
    # the chord metric's cross point, whose squares overflow and underflow
    RaySet(plus=((1e200, 2e200),), minus=((3e200, 4e200),)),
    RaySet(plus=((1e-200, 2e-200),), minus=((3e-200, 4e-200),)),
    # a same-ray gap whose ends sum beyond the float range
    RaySet(plus=((1e307, 1e308), (1.5e308, 1.7e308))),
    RaySet(plus=((1e6, 2e6), (3e6, 4e6))),
    RaySet(plus=((1e9, 2e9), (3e9, 4e9))),
    RaySet(minus=((1e6, 2e6), (3e6, 4e6))),
    RaySet(balanced=((1e9, 2e9), (3e9, 4e9))),
]

WITNESS_BANDS = [(-3.0, 3.0), (-690.0, 690.0)]


def _radius_with_log(t: float):
    """The least radius whose ``math.log`` is exactly ``t``, or None when
    the logarithm skips ``t``."""
    m = math.exp(t)
    while math.log(m) < t:
        m = math.nextafter(m, math.inf)
    while math.log(math.nextafter(m, 0.0)) >= t:
        m = math.nextafter(m, 0.0)
    return m if math.log(m) == t else None


class TestWitnessConstruction:
    @pytest.mark.parametrize("base", [1, 2])
    @pytest.mark.parametrize("C", WIDE_WITNESS_SETS)
    def test_witness_at_any_magnitude(self, C, base):
        _assert_witness(C, find_multipoint_witness(C, base), base)

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="^empty set$"):
            find_multipoint_witness(RaySet())

    @pytest.mark.parametrize("base", [0, 3, 5, "2", None])
    def test_bad_base_raises_on_every_set(self, base):
        for C in (RaySet(plus=((1, 2),)), RaySet(plus=((1, 2), (3, 4))), TRIPLE):
            with pytest.raises(ValueError, match="base metric"):
                find_multipoint_witness(C, base)

    def test_no_candidate_is_scored(self, monkeypatch):
        import smaxplus.projection as projection

        calls = []
        monkeypatch.setattr(projection, "_nearest", lambda *a: calls.append(a))
        rng = random.Random(46)
        for _ in range(50):
            C = random_disconnected_ray_set(rng)
            for base in (1, 2):
                assert find_multipoint_witness(C, base) is not None
        assert calls == []

    @pytest.mark.parametrize("base", [1, 2])
    @pytest.mark.parametrize(
        "C, ends",
        [
            # no float radius strictly inside the gap: the midpoint radius
            # rounds onto an end, which is a member
            (RaySet(plus=((1, 1), (math.nextafter(1, 2), 3))), ((Sign.PLUS, 1.0), (Sign.PLUS, math.nextafter(1, 2)))),
            # the origin gap below the smallest float: half of it is 0
            (RaySet(plus=((0, 1),), minus=((5e-324, 1),)), ((Sign.MINUS, 5e-324), (Sign.PLUS, 0.0))),
            (RaySet(balanced=((0, 0), (5e-324, 1))), ((Sign.BALANCED, 0.0), (Sign.BALANCED, 5e-324))),
        ],
    )
    def test_witness_in_a_gap_narrower_than_a_float(self, C, ends, base):
        w = find_multipoint_witness(C, base)
        assert w is not None and not C.contains(w)
        expected = sorted({point_on_ray(ray, m) for ray, m in ends}, key=SElem.sort_key)
        assert project_ray(w, C, base).points == tuple(expected)

    @pytest.mark.parametrize("base", [1, 2])
    def test_a_gap_with_no_exponent_inside_has_no_witness(self, base):
        # near 1e15 the radii 8 apart have exponents at most an ulp apart:
        # no element lies in the gap, so the canonical form merges it away
        C = RaySet(plus=((1e15, 1e15), (1e15 + 8.0, 1e15 + 9.0)))
        assert C == RaySet(plus=((1e15, 1e15 + 9.0),))
        assert is_connected(C)
        assert find_multipoint_witness(C, base) is None
        # a later gap on the same ray is still found (checked with relative
        # distances: project_ray's absolute TIE_TOL misjudges ties at 1e15)
        C = RaySet(plus=((1e15, 1e15), (1e15 + 8.0, 1e15 + 9.0), (2e15, 3e15)))
        _assert_witness(C, find_multipoint_witness(C, base), base)

    def test_witness_exactly_when_disconnected_at_exponent_ulp_gaps(self):
        # gaps whose ends' exponents are one ulp apart (merged: no element
        # lies in them) or two (kept: the exponent between is an element)
        rng = random.Random(52)
        kept = 0
        for _ in range(300):
            ray = rng.choice((Sign.PLUS, Sign.MINUS, Sign.BALANCED))
            hi1 = math.exp(rng.uniform(math.log(1e6), math.log(1e300)))
            ulps = rng.choice((1, 2))
            t2 = math.log(hi1)
            for _ in range(ulps):
                t2 = math.nextafter(t2, math.inf)
            lo2 = _radius_with_log(t2)
            if lo2 is None:
                continue
            ivs = ((0.5 * hi1, hi1), (lo2, 2.0 * lo2))
            C = RaySet(**{ray.name.lower(): ivs})
            assert len(C.intervals(ray)) == (1 if ulps == 1 else 2)
            kept += ulps == 2
            for base in (1, 2):
                w = find_multipoint_witness(C, base)
                assert is_connected(C) == (w is None)
                if w is not None:
                    assert not C.contains(w) and math.log(hi1) < w.exp < t2
        assert 100 < kept < 200

    @pytest.mark.parametrize("band", WITNESS_BANDS)
    def test_witness_exactly_when_disconnected(self, band):
        rng = random.Random(47)
        generators = (random_ray_set, random_disconnected_ray_set, random_connected_ray_set)
        for i in range(600):
            C = generators[i % 3](rng, band)
            for base in (1, 2):
                w = find_multipoint_witness(C, base)
                if is_connected(C):
                    assert w is None
                else:
                    _assert_witness(C, w, base)


class TestSemimoduleConvexBounds:
    def test_at_most_three_points_on_the_line(self):
        rng = random.Random(46)
        for _ in range(40):
            C = random_semimodule_convex_ray_set(rng)
            assert is_semimodule_convex(C)
            for _ in range(50):
                x = random_selem(rng)
                for base in (1, 2):
                    assert len(project_ray(x, C, base).points) <= 3

    def test_at_most_3n_points_in_boxes(self):
        rng = random.Random(47)
        for _ in range(10):
            n = rng.randint(1, 3)
            box = BoxSet(tuple(random_semimodule_convex_ray_set(rng) for _ in range(n)))
            for _ in range(10):
                x = random_svector(rng, n)
                for code in ("rho11", "rho12", "rho21", "rho22"):
                    r = project_box(x, box, parse_metric_id(code))
                    assert len(r.points) <= 3**n


class TestProjectBox:
    def test_triple_power_counts(self):
        for n in (1, 2, 3):
            box = BoxSet((TRIPLE,) * n)
            x0 = SVector((ZERO,) * n)
            for code in ("rho11", "rho12", "rho21", "rho22"):
                r = project_box(x0, box, parse_metric_id(code))
                assert len(r.points) == 3**n
        r1 = project_box(SVector((ZERO,)), BoxSet((TRIPLE,)), parse_metric_id("rho12"))
        assert set(p[0] for p in r1.points) == set(project_ray(ZERO, TRIPLE, 2).points)

    def test_connected_factors_give_singleton(self):
        rng = random.Random(48)
        for _ in range(20):
            n = rng.randint(1, 3)
            box = BoxSet(tuple(random_connected_ray_set(rng) for _ in range(n)))
            x = random_svector(rng, n)
            for code in ("rho11", "rho22"):
                assert project_box(x, box, parse_metric_id(code)).is_singleton

    def test_max_combine_refused(self):
        with pytest.raises(ValueError, match="factoriz"):
            project_box(SVector((ZERO,)), BoxSet((TRIPLE,)), parse_metric_id("rho01"))

    def test_distance_combines_coordinate_minima(self):
        box = BoxSet((TRIPLE, TRIPLE))
        x0 = SVector((ZERO, ZERO))
        assert project_box(x0, box, parse_metric_id("rho22")).distance == pytest.approx(2.0)
        assert project_box(x0, box, parse_metric_id("rho12")).distance == pytest.approx(
            math.sqrt(2.0)
        )


    def test_euclid_combine_below_the_square_range(self):
        # the distance e**-399 - e**-400 squares to 0.0
        box = BoxSet((RaySet(plus=((math.exp(-399), math.exp(-398)),)),))
        x = SVector((SElem.pos(-400),))
        r = project_box(x, box, parse_metric_id("rho12"))
        assert r.distance == pytest.approx(math.exp(-399) - math.exp(-400), rel=1e-12)
        assert r.distance == project_box(x, box, parse_metric_id("rho22")).distance

    def test_euclid_combine_beyond_the_square_range(self):
        box = BoxSet((RaySet(plus=((1, 2),)), RaySet(minus=((1, 2),))))
        x = SVector((SElem.pos(500), SElem.pos(500)))
        r = project_box(x, box, parse_metric_id("rho11"))
        assert r.distance == pytest.approx(math.exp(500) * math.sqrt(2), rel=1e-12)


class TestProjectBoxMax:
    def test_interval_times_point_cloud(self):
        # a product of two path-metric balls of radius 1, queried from a
        # point at distance 0 in the first factor and 1 in the second: every
        # first-factor point within the larger distance is an argmin
        ball = RaySet(plus=((0, 1),), minus=((0, 1),))
        box = BoxSet((ball, ball))
        x = SVector((ZERO, SElem.pos(math.log(2))))
        r = project_box_max(x, box, base=2, resolution=0.05)
        assert len(r.points) > 10
        # the second coordinate pins (up to grid slack) to the ball surface
        # nearest the query, while the first sweeps its whole factor
        for p in r.points:
            assert d2(p[1], SElem.pos(0)) <= 0.15
        firsts = {p[0] for p in r.points}
        assert len(firsts) > 10
        spread = [0.0 if e.is_zero else math.exp(e.exp) for e in firsts]
        assert max(spread) - min(spread) > 0.8
        # the factorized product would be a single point
        per0 = project_ray(ZERO, ball, 2)
        per1 = project_ray(SElem.pos(math.log(2)), ball, 2)
        assert len(per0.points) * len(per1.points) == 1

    def test_membership_and_singleton(self):
        single = RaySet(plus=((2, 2),))
        box = BoxSet((single,))
        r = project_box_max(SVector((SElem.neg(0),)), box, base=2, resolution=0.01)
        assert r.points == (SVector((SElem.pos(math.log(2)),)),)
        x = SVector((SElem.pos(math.log(2)),))
        r = project_box_max(x, box, base=2, resolution=0.01)
        assert r.distance == pytest.approx(0.0, abs=1e-12)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            project_box_max(SVector((ZERO,)), BoxSet((TRIPLE,)), resolution=0.0)


@pytest.mark.parametrize(
    "project",
    [lambda x, A: project_box(x, A, parse_metric_id("rho12")), project_box_max],
    ids=["box", "box-max"],
)
def test_box_projection_errors(project):
    with pytest.raises(ValueError, match="^empty set$"):
        project(SVector((ZERO, ZERO)), BoxSet((TRIPLE, RaySet())))
    with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
        project(SVector((ZERO,)), BoxSet((TRIPLE, TRIPLE)))


class TestFactorization:
    def test_joint_grid_matches_product(self):
        rng = random.Random(49)
        g = GridSpec(resolution=5e-3, max_magnitude=8.0)
        for _ in range(6):
            n = rng.randint(2, 3)
            box = BoxSet(tuple(_small_ray_set(rng) for _ in range(n)))
            x = random_svector(rng, n)
            for code in ("rho11", "rho12", "rho21", "rho22"):
                mid = parse_metric_id(code)
                joint = grid_project(x, box, mid, g)
                analytic = project_box(x, box, mid)
                assert joint.distance == pytest.approx(
                    analytic.distance, abs=g.resolution * n
                )
                for p in analytic.points:
                    assert any(
                        all(d2(a, b) <= 2 * g.resolution * n for a, b in zip(p, q))
                        for q in joint.points
                    )

    def test_max_combine_does_not_factorize(self):
        ball = RaySet(plus=((0, 1),), minus=((0, 1),))
        box = BoxSet((ball, ball))
        x = SVector((ZERO, SElem.pos(math.log(2))))
        g = GridSpec(resolution=0.05, max_magnitude=4.0)
        joint = grid_project(x, box, parse_metric_id("rho02"), g)
        per = [project_ray(xi, Ci, 2) for xi, Ci in zip(x, box.factors)]
        product_count = len(per[0].points) * len(per[1].points)
        assert len(joint.points) > product_count


def _small_ray_set(rng) -> RaySet:
    ivs = {ray: [] for ray in Sign}
    for ray in Sign:
        if rng.random() < 0.7:
            a, b = sorted(rng.uniform(0.1, 3.0) for _ in range(2))
            ivs[ray].append((a, b))
    if not any(ivs.values()):
        ivs[Sign.PLUS].append((0.5, 1.5))
    return RaySet(tuple(ivs[Sign.PLUS]), tuple(ivs[Sign.MINUS]), tuple(ivs[Sign.BALANCED]))


class TestUnions:
    def test_union_projection_selects_the_closer_part(self):
        # onto a Chebyshev union of two Chebyshev parts, the projection is
        # the nearer of the parts' projections
        A1 = RaySet(plus=((0, 1),))
        A2 = RaySet(plus=((1, 2),))
        x = SElem.pos(math.log(3))
        r = project_ray(x, A1.union(A2), 2)
        assert r.points == (SElem.pos(math.log(2)),) and r.is_singleton
        r1, r2 = project_ray(x, A1, 2), project_ray(x, A2, 2)
        assert r.points == (r1 if r1.distance <= r2.distance else r2).points
        assert r.distance == min(r1.distance, r2.distance)

    def test_member_projects_to_itself(self):
        A1 = RaySet(plus=((0, 2),))
        A2 = RaySet(plus=((1, 3),))
        x = SElem.pos(math.log(1.5))
        assert project_ray(x, A1.union(A2), 2).points == (x,)
        assert project_ray(x, A1, 2).points == (x,)

    def test_union_projection_agrees_on_each_part(self):
        # when the union projection lands inside a part, it is that part's
        # projection too
        rng = random.Random(50)
        for _ in range(50):
            lo = rng.uniform(0.1, 2.0)
            mid_ = lo + rng.uniform(0.1, 1.0)
            hi = mid_ + rng.uniform(0.1, 2.0)
            parts = [RaySet(plus=((lo, mid_),)), RaySet(plus=((mid_, hi),))]
            union = parts[0].union(parts[1])
            assert is_chebyshev(union)
            x = random_selem(rng)
            a = project_ray(x, union, 2).points[0]
            for part in parts:
                if part.contains(a):
                    assert project_ray(x, part, 2).points[0] == a

    def test_nested_chebyshev_family_union(self):
        # a nested family of intervals, pairwise contained: the union is
        # again Chebyshev
        rng = random.Random(51)
        for _ in range(20):
            center = rng.uniform(1.0, 3.0)
            family = [
                RaySet(minus=((max(center - k * 0.3, 0.0), center + k * 0.3),))
                for k in range(1, 6)
            ]
            union = family[0]
            for part in family[1:]:
                union = union.union(part)
            assert is_chebyshev(union)


class TestGraphAndContinuity:
    def test_projection_graph_is_closed(self):
        # pairs (x_k, y_k) with y_k a nearest point of x_k converge to a
        # pair in the graph, even across a tie jump
        C = RaySet(plus=((1, 2), (4, 5)))
        mid_gap = point_on_ray(Sign.PLUS, 3.0)
        xs = [point_on_ray(Sign.PLUS, 3.0 + 1.0 / k) for k in range(2, 200)]
        ys = [project_ray(x, C, 2).points[-1] for x in xs]  # the right endpoint
        assert all(y == point_on_ray(Sign.PLUS, 4.0) for y in ys)
        limit_pair = (mid_gap, point_on_ray(Sign.PLUS, 4.0))
        assert limit_pair[1] in project_ray(limit_pair[0], C, 2).points

    def test_projection_is_continuous_on_connected_sets(self):
        rng = random.Random(52)
        for _ in range(25):
            C = random_connected_ray_set(rng)
            for base in (1, 2):
                worst = {}
                for _ in range(40):
                    x = random_selem(rng)
                    px = project_ray(x, C, base).points[0]
                    for delta in (1e-2, 1e-3, 1e-4):
                        x2 = _perturb(x, delta)
                        px2 = project_ray(x2, C, base).points[0]
                        d = base_metric(base)
                        worst[delta] = max(worst.get(delta, 0.0), d(px, px2))
                assert worst[1e-2] + 1e-12 >= worst[1e-3] >= worst[1e-4] - 1e-12
                # projections onto connected sets are nonexpansive in the
                # path metric, and nearly so in the chord metric
                assert worst[1e-4] <= 3e-4


def _perturb(x: SElem, delta: float) -> SElem:
    m = 0.0 if x.is_zero else math.exp(x.exp)
    m2 = m + delta
    sign = x.sign if not x.is_zero else Sign.BALANCED
    return SElem(sign, math.log(m2))


class TestSegmentSetProjection:
    def test_non_closed_segment_example(self):
        seg = semimodule_segment(SVector((SElem.pos(1),)), SVector((SElem.neg(0),)))
        for base in (1, 2):
            r = project_ray(ZERO, seg, base)
            assert set(r.points) == {SElem.neg(0), SElem.bal(0)}
            assert r.distance == pytest.approx(1.0, abs=1e-12)

    def test_open_end_excluded_but_interior_attained(self):
        seg = semimodule_segment(SVector((SElem.pos(1),)), SVector((SElem.neg(0),)))
        x = SElem.pos(0.5)  # interior of the half-open arc
        r = project_ray(x, seg, 2)
        assert r.points == (x,) and r.distance == 0.0

    def test_unattained_infimum_raises(self):
        from smaxplus.segments import ArcPiece, SegmentSet

        chart = ((Sign.PLUS, Sign.PLUS),)
        open_arc = SegmentSet((ArcPiece(chart, (1.0,), (2.0,), False, True),))
        with pytest.raises(ValueError, match="not attained"):
            project_ray(ZERO, open_arc, 2)

    @pytest.mark.parametrize("base", [1, 2])
    def test_across_the_origin(self, base):
        # a geodesic from p:1 to m:1 crosses the origin; queries on the minus
        # ray and on the balanced ray take the chart's second ray or its origin
        seg = as_segment_set(geometric_segment(SVector((SElem.pos(1),)), SVector((SElem.neg(1),))))
        cases = [
            (SElem.neg(0.5), SElem.neg(0.5), 0.0),
            (SElem.neg(2), SElem.neg(1), math.e**2 - math.e),
            (SElem.bal(0.3), ZERO, math.e**0.3),
            (ZERO, ZERO, 0.0),
        ]
        _assert_unique_projections(seg, cases, base)

    @pytest.mark.parametrize("base", [1, 2])
    def test_arc_from_the_second_chart_ray(self, base):
        from smaxplus.segments import ArcPiece, SegmentSet

        # plus radius 2 (closed) through the origin to minus radius 3 (open)
        arc = SegmentSet((ArcPiece(((Sign.PLUS, Sign.MINUS),), (2.0,), (-3.0,), True, False),))
        cases = [
            (SElem.bal(0), ZERO, 1.0),
            (SElem.pos(math.log(5)), SElem.pos(math.log(2)), 3.0),
            (SElem.neg(math.log(2.5)), SElem.neg(math.log(2.5)), 0.0),
        ]
        _assert_unique_projections(arc, cases, base)
        with pytest.raises(ValueError, match="not attained"):
            project_ray(SElem.neg(math.log(4)), arc, base)


    @pytest.mark.parametrize("base", [1, 2])
    def test_a_query_at_an_open_end_is_not_a_member(self, base):
        from smaxplus.segments import ArcPiece, SegmentSet

        # the end's exponent is the query's, but the end is excluded, so the
        # infimum 0 is not attained; on either chart ray, at either end
        chart = ((Sign.PLUS, Sign.MINUS),)
        for start, end, closed_lo, closed_hi, x in [
            ((1.0,), (2.0,), True, False, SElem.pos(math.log(2.0))),
            ((1.0,), (2.0,), False, True, SElem.pos(0.0)),
            ((-2.0,), (-1.0,), False, True, SElem.neg(math.log(2.0))),
            ((-2.0,), (-1.0,), True, False, SElem.neg(0.0)),
            # a subnormal end, whose exponent is below -log(float max)
            ((5e-324,), (1.0,), False, True, SElem.pos(math.log(5e-324))),
        ]:
            arc = SegmentSet((ArcPiece(chart, start, end, closed_lo, closed_hi),))
            with pytest.raises(ValueError, match="not attained"):
                project_ray(x, arc, base)

    @pytest.mark.parametrize("base", [1, 2])
    def test_an_arc_on_a_one_ray_chart_reaches_both_sides(self, base):
        from smaxplus.segments import ArcPiece, SegmentSet

        # chart (o, o) with a negative end breaks ArcPiece's precondition,
        # which the constructor does not check: the balanced radii up to 1
        # from the positive chart values and up to 3 from the negative ones;
        # project_ray takes both parts, whatever ray the query is on
        arc = SegmentSet((ArcPiece(((Sign.BALANCED, Sign.BALANCED),), (1.0,), (-3.0,), True, True),))
        x = SElem.bal(math.log(2.0))
        assert project_ray(x, arc, base) == ProjectionResult((x,), 0.0)
        _assert_unique_projections(arc, [(SElem.bal(math.log(4.0)), SElem.bal(math.log(3.0)), 1.0)], base)

    @pytest.mark.parametrize("base", [1, 2])
    def test_a_json_arc_on_a_one_ray_chart_stays_on_its_side(self, base, tmp_path, capsys):
        import json

        from smaxplus.cli import main
        from smaxplus.segments import SegmentSet

        # psi maps a chart coordinate (o, o) to its first ray only, so a
        # negative start or end there would be a point that contains refuses
        # and project_ray takes: the reader refuses it and names the coordinate
        def arc(chart, start, end):
            return {"kind": "arc", "chart": chart, "start": start, "end": end, "closed_lo": True, "closed_hi": True}

        message = "arc chart coordinate {} names one ray twice, so its ends there must be >= 0"
        for chart, start, end, i in [
            ([["o", "o"]], [1.0], [-3.0], 0),
            ([["o", "o"]], [-1e-300], [2.0], 0),
            ([["+", "-"], ["o", "o"]], [1.0, 1.0], [-2.0, -0.5], 1),
        ]:
            with pytest.raises(ValueError, match=f"^{message.format(i)}$"):
                SegmentSet.from_json({"pieces": [arc(chart, start, end)]})
        query, target = tmp_path / "x.json", tmp_path / "seg.json"
        query.write_text(json.dumps({"coords": [{"sign": "o", "exp": math.log(2.0)}]}))
        target.write_text(json.dumps({"pieces": [arc([["o", "o"]], [1.0], [-3.0])]}))
        assert main(["project", str(query), str(target), "--base", f"d{base}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": f"{target}: not a segment set (ValueError: {message.format(0)})"}
        # on its nonnegative side the arc loads, and contains and project_ray agree
        S = SegmentSet.from_json({"pieces": [arc([["o", "o"]], [0.0], [3.0])]})
        x = SElem.bal(math.log(2.0))
        assert S.contains(SVector((x,))) and project_ray(x, S, base) == ProjectionResult((x,), 0.0)

    @pytest.mark.parametrize("base", [1, 2])
    def test_a_crossing_arc_projects_as_the_ray_set_of_its_points(self, base):
        from smaxplus.segments import ArcPiece, SegmentSet

        # the arc reaches 1e-12 on plus and 1 on minus through the origin,
        # which both parts hold; from p:0 the plus end and the origin, on
        # the minus part, are within TIE_TOL of each other, as they are in
        # the ray set of the same points
        arc = SegmentSet((ArcPiece(((Sign.PLUS, Sign.MINUS),), (1e-12,), (-1.0,), True, True),))
        stars = RaySet(plus=((0.0, 1e-12),), minus=((0.0, 1.0),))
        for x in (SElem.pos(0.0), SElem.neg(1.0), SElem.bal(0.0), ZERO):
            r = project_ray(x, arc, base)
            assert r == project_ray(x, stars, base), x
        assert len(project_ray(SElem.pos(0.0), arc, base).points) == 2

    def test_the_index_is_built_once_and_is_no_field(self, monkeypatch):
        import copy
        import pickle

        import smaxplus.segments as segments

        builds = []
        build = segments._build_index
        monkeypatch.setattr(segments, "_build_index", lambda S: builds.append(S) or build(S))
        seg = semimodule_segment(SVector((SElem.pos(1),)), SVector((SElem.neg(0),)))
        before = (seg, hash(seg), repr(seg), seg.to_json(), pickle.dumps(seg))
        for x, base in ((ZERO, 1), (SElem.pos(0.5), 2), (SElem.bal(3.0), 2)):
            project_ray(x, seg, base)
        distance_to_set(SElem.pos(0.5), seg)
        assert builds == [seg] and seg._index is not None
        assert (seg, hash(seg), repr(seg), seg.to_json(), pickle.dumps(seg)) == before
        for twin in (pickle.loads(pickle.dumps(seg)), copy.copy(seg), copy.deepcopy(seg)):
            assert twin == seg and twin._index is None

    def test_documented_errors(self):
        from smaxplus.segments import ArcPiece, PointPiece, SegmentSet

        with pytest.raises(ValueError, match="^empty segment set$"):
            project_ray(ZERO, SegmentSet(()))
        plane = ((Sign.PLUS, Sign.MINUS),) * 2
        for piece in (PointPiece(SVector((ZERO, ZERO))), ArcPiece(plane, (1.0, 1.0), (2.0, 2.0), True, True)):
            with pytest.raises(ValueError, match="defined on the line only"):
                project_ray(ZERO, SegmentSet((piece,)))


def _balanced_arcs(*parts):
    """A one-coordinate segment set of arcs on the balanced ray, each given
    as (lo, hi, closed_lo, closed_hi)."""
    from smaxplus.segments import ArcPiece, SegmentSet

    chart = ((Sign.BALANCED, Sign.BALANCED),)
    return SegmentSet(tuple(ArcPiece(chart, (lo,), (hi,), c_lo, c_hi) for lo, hi, c_lo, c_hi in parts))


def _json_arc(start, end, closed_lo, closed_hi) -> dict:
    """The JSON of a one-coordinate arc on the balanced ray's one-ray chart."""
    return {"kind": "arc", "chart": [["o", "o"]], "start": [start], "end": [end],
            "closed_lo": closed_lo, "closed_hi": closed_hi}


def _index(C):
    return C._index or C._prepare()


def _kernel(C):
    """The (ray, lo, hi, closed_lo, closed_hi) of a line set's kernel intervals."""
    from smaxplus.raysets import _KERNEL

    return [iv[:5] for iv in _index(C)[_KERNEL]]


def _random_closed_intervals(rng):
    """Per ray, closed radial intervals that touch, overlap, nest, sit an
    ulp-wide gap apart near 1e15, start at the origin or are one point,
    [0, 0] among them."""
    per_ray = []
    for _ in RAYS:
        ivs = []
        for _ in range(rng.choice((0, 1, 2, 3, 4))):
            lo = math.exp(rng.uniform(-3.0, 3.0))
            hi = lo * math.exp(rng.uniform(0.0, 1.5))
            kind = rng.randrange(8)
            if ivs and kind == 0:  # touching the last one
                lo = ivs[-1][1]
                hi = lo * math.exp(rng.uniform(0.0, 1.0))
            elif ivs and kind == 1:  # overlapping or nested in it
                lo = rng.uniform(*ivs[-1])
                hi = lo * math.exp(rng.uniform(0.0, 1.0))
            elif kind == 2:  # no exponent between it and a second one
                ivs.append((5e14, 1e15))
                lo, hi = 1e15 + 8.0, 2e15
            elif kind == 3:
                lo = 0.0
            elif kind == 4:
                hi = lo
            elif kind == 5 and rng.random() < 0.3:
                lo = hi = 0.0
            ivs.append((lo, hi))
        per_ray.append(ivs)
    return per_ray


class TestOneLineIndex:
    """A one-coordinate segment set's index is the ray set's: disjoint,
    sorted intervals per ray, whose parts that overlap or touch at a closed
    end merge, whatever order the pieces come in."""

    @pytest.mark.parametrize("base", [1, 2])
    def test_touching_pieces_give_one_nearest_point(self, base):
        # pieces [1, 2] and [2, 2 + 1e-12] used to answer both 2 and 2 + 1e-12
        S = _balanced_arcs((1.0, 2.0, True, True), (2.0, 2.0 + 1e-12, True, True))
        x = SElem.bal(math.log(5.0))
        end = SElem.bal(math.log(2.0 + 1e-12))
        assert project_ray(x, S, base) == ProjectionResult((end,), math.exp(x.exp) - (2.0 + 1e-12))
        assert _kernel(S) == [(Sign.BALANCED, 1.0, 2.0 + 1e-12, True, True)]

    @pytest.mark.parametrize("base", [1, 2])
    def test_a_closed_end_wins_over_an_open_one_at_the_same_point(self, base):
        o = Sign.BALANCED
        at_two = SElem.bal(math.log(2.0))
        for parts, kernel in [
            # a high end meets a low end, closed on either side
            (((1.0, 2.0, True, False), (2.0, 3.0, True, True)), [(o, 1.0, 3.0, True, True)]),
            (((2.0, 3.0, False, True), (1.0, 2.0, True, True)), [(o, 1.0, 3.0, True, True)]),
            # two high ends at 2, and two low ends at 1
            (((1.5, 2.0, True, False), (1.0, 2.0, True, True)), [(o, 1.0, 2.0, True, True)]),
            (((1.0, 2.0, False, True), (1.0, 1.5, True, True)), [(o, 1.0, 2.0, True, True)]),
        ]:
            S = _balanced_arcs(*parts)
            assert _kernel(S) == kernel, parts
            assert project_ray(at_two, S, base) == ProjectionResult((at_two,), 0.0), parts

    @pytest.mark.parametrize("base", [1, 2])
    def test_two_open_ends_at_one_point_keep_their_gap(self, base):
        o = Sign.BALANCED
        S = _balanced_arcs((2.0, 3.0, False, True), (1.0, 2.0, True, False))
        assert _kernel(S) == [(o, 1.0, 2.0, True, False), (o, 2.0, 3.0, False, True)]
        with pytest.raises(ValueError, match="not attained"):
            project_ray(SElem.bal(math.log(2.0)), S, base)
        x = SElem.bal(math.log(2.5))
        assert project_ray(x, S, base) == ProjectionResult((x,), 0.0)

    @pytest.mark.parametrize("base", [1, 2])
    def test_nested_and_crossing_pieces(self, base):
        from smaxplus.segments import ArcPiece, PointPiece, SegmentSet

        o, p, m = Sign.BALANCED, Sign.PLUS, Sign.MINUS
        # an open part inside a closed one, and a point piece of int
        # exponent 1 at the open high end of another part, whose element the
        # merged end keeps
        S = _balanced_arcs((1.0, 4.0, True, True), (2.0, 3.0, False, False), (5.0, math.e ** 2, False, True))
        assert _kernel(S) == [(o, 1.0, 4.0, True, True), (o, 5.0, math.e ** 2, False, True)]
        T = SegmentSet((ArcPiece(((o, p),), (1.0,), (math.e,), True, False), PointPiece(SVector((SElem.bal(1),)))))
        assert _kernel(T) == [(o, 1.0, math.e, True, True)]
        nearest = project_ray(SElem.bal(2), T, base).points
        assert nearest == (SElem.bal(1),) and type(nearest[0].exp) is int
        # two arcs through the origin, and one on another chart, project as
        # the ray set of their points
        arcs = SegmentSet((
            ArcPiece(((p, m),), (2.0,), (-1.0,), True, True),
            ArcPiece(((m, p),), (3.0,), (-1.5,), True, True),
            ArcPiece(((p, o),), (0.5,), (1.5,), True, True),
        ))
        C = RaySet(plus=((0.0, 2.0),), minus=((0.0, 3.0),))
        assert _index(arcs) == _index(C)
        for x in (SElem.neg(math.log(4.0)), SElem.pos(math.log(3.0)), SElem.bal(0.0), ZERO):
            assert project_ray(x, arcs, base) == project_ray(x, C, base), x

    @pytest.mark.parametrize("base", [1, 2])
    @pytest.mark.parametrize("flags", [(True, False), (False, True)])
    def test_a_one_point_json_arc_is_its_point_when_an_end_is_closed(self, flags, base):
        # `contains` takes the point through the closed end, so the index
        # holds it closed, and no query meets an excluded end at it
        from smaxplus.segments import SegmentSet

        S = SegmentSet.from_json({"pieces": [_json_arc(1.0, 1.0, *flags)]})
        one = SElem.bal(0)
        assert S.contains(SVector((one,)))
        assert _kernel(S) == [(Sign.BALANCED, 1.0, 1.0, True, True)]
        assert project_ray(one, S, base) == ProjectionResult((one,), 0.0)
        for x in (SElem.bal(2), SElem.pos(0.5)):
            end = SElem.bal(0.0)
            assert project_ray(x, S, base) == ProjectionResult((end,), base_metric(base)(x, end)), x

    @pytest.mark.parametrize("base", [1, 2])
    def test_a_one_point_json_arc_open_at_both_ends_holds_no_point(self, base):
        # the arc holds no point, so its open ends must not lower the infimum
        from smaxplus.segments import SegmentSet

        S = SegmentSet.from_json({"pieces": [_json_arc(1.0, 1.0, False, False), _json_arc(3.0, 4.0, True, True)]})
        assert not S.contains(SVector((SElem.bal(0),)))
        assert _kernel(S) == [(Sign.BALANCED, 3.0, 4.0, True, True)]
        x, three = SElem.bal(math.log(0.5)), SElem.bal(math.log(3.0))
        assert project_ray(x, S, base) == ProjectionResult((three,), 2.5)
        alone = SegmentSet.from_json({"pieces": [_json_arc(1.0, 1.0, False, False)]})
        with pytest.raises(ValueError, match="^empty set$"):
            project_ray(x, alone, base)

    def test_the_index_of_closed_parts_is_the_ray_sets(self):
        """A segment set of closed arcs, listed in any order and on either
        side of their charts, has the index of the ray set of the same
        intervals: ends, kernel intervals and their end elements.  The one
        difference is the origin: the ray set drops a [0, 0] interval, and
        keeps one on the balanced ray only when no other interval holds the
        origin, while the segment set keeps each [0, 0] part on its own ray
        unless a part there starts at the origin.  So those lone origins are
        left out of the comparison, and the ray set then holds the origin."""
        from smaxplus.raysets import _KERNEL
        from smaxplus.segments import ArcPiece, SegmentSet

        def without_lone_origins(index):
            kernel = [iv for iv in index[_KERNEL] if iv[2] > 0.0]
            return (*(tuple(t for iv in kernel if iv[0] is ray for t in iv[5:7]) for ray in RAYS), tuple(kernel))

        rng = random.Random(57)
        lone_origins = 0
        for _ in range(2000):
            per_ray = _random_closed_intervals(rng)
            pieces = []
            for ray, ivs in zip(RAYS, per_ray):
                for lo, hi in ivs:
                    other = rng.choice([r for r in RAYS if r is not ray])
                    if rng.random() < 0.5:
                        pieces.append(ArcPiece(((ray, other),), (lo,), (hi,), True, True))
                    else:  # at negative chart values, on the chart's second ray
                        pieces.append(ArcPiece(((other, ray),), (-hi,), (-lo,), True, True))
            if not pieces:
                continue
            rng.shuffle(pieces)
            S, C = SegmentSet(pieces), RaySet(*per_ray)
            if any(iv[1] == 0.0 for iv in _index(S)[_KERNEL]):
                lone_origins += 1
                assert C.has_origin
                assert without_lone_origins(_index(S)) == without_lone_origins(_index(C)), per_ray
            else:
                assert _index(S) == _index(C), per_ray
        assert lone_origins > 50


LINE_BANDS = MEMBER_BANDS + [(-40.0, -30.0)]


def _closed_arc(rng, band):
    """A closed one-coordinate arc whose chart values have one sign, so that
    it lies on one ray, with that ray and its ends' exponents in order."""
    from smaxplus.segments import ArcPiece

    u, v = rng.choice(RAYS), rng.choice(RAYS)
    t1, t2 = sorted(rng.uniform(*band) for _ in range(2))
    a, b = math.exp(t1), math.exp(t2)
    if rng.random() < 0.5:  # at chart values <= 0, on v
        arc, ray = ArcPiece(((u, v),), (-a,), (-b,), True, True), v
    else:
        arc, ray = ArcPiece(((u, v),), (b,), (a,), True, True), u
    return arc, ray, math.log(a), math.log(b)


class TestNearestPointsAreQueriesOrEnds:
    """Every nearest point on the line is the query, when it is a member,
    or an end of the set, built from the end's exponent: never a point
    rebuilt from the query's radius."""

    @pytest.mark.parametrize("band", LINE_BANDS)
    def test_a_query_inside_a_closed_arc_projects_to_itself(self, band):
        from smaxplus.segments import PointPiece, SegmentSet

        rng = random.Random(54)
        for k in range(300):
            arc, ray, t_lo, t_hi = _closed_arc(rng, band)
            t = rng.uniform(t_lo, t_hi)
            if not t_lo < t < t_hi:
                continue
            x = SElem(ray, t)
            other = PointPiece(SVector((SElem(rng.choice(RAYS), rng.uniform(*band)),)))
            S = SegmentSet((arc, other) if k % 2 else (arc,))
            for base in (1, 2):
                assert project_ray(x, S, base) == ProjectionResult((x,), 0.0), (x, S)

    @pytest.mark.parametrize("base", [1, 2])
    def test_a_member_at_e_minus_36_is_one_point(self, base):
        # the geodesic from b:0 to p:1 passes the origin at chart value
        # 1.1e-16, so the query, at radius 2.2e-16 inside its first arc, is
        # within TIE_TOL of the second arc's end; it used to come back as a
        # two-point tie at distance 0
        seg = as_segment_set(geometric_segment(SVector((SElem.bal(0.0),)), SVector((SElem.pos(1),))))
        x = SElem.bal(-36.04365338911715)
        assert project_ray(x, seg, base) == ProjectionResult((x,), 0.0)

    @pytest.mark.parametrize("band", LINE_BANDS)
    def test_ray_set_points_are_the_query_or_stored_ends(self, band):
        rng = random.Random(55)
        for _ in range(200):
            C = random_ray_set(rng, band)
            ends = {(ray, math.log(m)) for ray in RAYS for iv in C.intervals(ray) for m in iv
                    if 0.0 < m < math.inf}
            if C.has_origin:
                ends.add((ZERO.sign, ZERO.exp))
            x = _near_an_end(rng, sorted(ends, key=repr), band)
            for base in (1, 2):
                for p in project_ray(x, C, base).points:
                    assert p == x or (p.sign, p.exp) in ends, (x, C, p)

    @pytest.mark.parametrize("band", LINE_BANDS)
    def test_segment_set_points_are_the_query_or_stored_ends(self, band):
        from smaxplus.segments import PointPiece

        rng = random.Random(56)
        for k in range(200):
            a, b = (SVector((random_selem(rng, 0.1, band),)) for _ in range(2))
            S = semimodule_segment(a, b) if k % 2 else as_segment_set(geometric_segment(a, b))
            ends = {(ZERO.sign, ZERO.exp)}
            for piece in S.pieces:
                if isinstance(piece, PointPiece):
                    ends.add((piece.point[0].sign, piece.point[0].exp))
                    continue
                (u, v), = piece.chart
                ends.update((u, math.log(val)) if val > 0.0 else (v, math.log(-val))
                            for val in (piece.start[0], piece.end[0]) if val != 0.0)
            x = _near_an_end(rng, sorted(ends, key=repr), band)
            for base in (1, 2):
                try:
                    points = project_ray(x, S, base).points
                except ValueError:  # an infimum at an open end
                    continue
                for p in points:
                    assert p == x or (p.sign, p.exp) in ends, (x, S, p)


def _near_an_end(rng, ends, band) -> SElem:
    """A query at one of ``ends``, given as (sign, exponent) pairs, or one
    or two ulps off it in exponent, on its ray or another; else one drawn
    in the band."""
    sign, t = rng.choice(ends)
    if rng.random() < 0.3 or t is ZERO.exp:
        return random_selem(rng, 0.1, band)
    toward = rng.choice((-math.inf, math.inf))
    for _ in range(rng.choice((0, 1, 2))):
        t = math.nextafter(t, toward)
    return SElem(rng.choice(RAYS) if rng.random() < 0.3 else sign, t)


class TestNearestPointsAreTheIndexElements:
    """A prepared set's index carries each interval end's element, and a
    non-member query is answered with those objects, so that a projection
    builds no element of its own; a member is answered with itself."""

    @staticmethod
    def _ends(C):
        from smaxplus.raysets import _KERNEL

        return [iv[7:] for iv in (C._index or C._prepare())[_KERNEL]]

    @staticmethod
    def _assert_answers(C, cases):
        for base in (1, 2):
            for x, end in cases:
                first, again = project_ray(x, C, base), project_ray(x, C, base)
                assert len(first.points) == 1 and first.points[0] is end, (x, base)
                assert again.points[0] is first.points[0], (x, base)

    def test_ray_set(self):
        C = RaySet(plus=((2, 3),), balanced=((0, 1),))
        (p_lo, p_hi), (origin, b_hi) = self._ends(C)
        assert origin is ZERO
        self._assert_answers(C, [
            (SElem.pos(math.log(4)), p_hi),
            (SElem.pos(math.log(1.9)), p_lo),
            (SElem.bal(math.log(1.5)), b_hi),
            (SElem.neg(math.log(0.5)), origin),
        ])
        tied = project_ray(SElem.pos(0.0), C, 2).points  # radius 1: 1 from 2 and from 0
        assert tied[0] is p_lo and tied[1] is origin

    def test_one_coordinate_segment_set(self):
        from smaxplus.segments import ArcPiece, PointPiece, SegmentSet

        point = SElem.bal(math.log(5))
        # a chord from p:log 2 to m:0 that crosses the origin, and a point piece
        S = SegmentSet((
            ArcPiece(((Sign.PLUS, Sign.MINUS),), (2.0,), (-1.0,), True, True),
            PointPiece(SVector((point,))),
        ))
        (u_origin, u_hi), (v_origin, v_hi), (p_lo, p_hi) = self._ends(S)
        assert u_origin is v_origin is ZERO and p_lo is p_hi is point
        self._assert_answers(S, [
            (SElem.pos(math.log(3)), u_hi),
            (SElem.neg(math.log(1.5)), v_hi),
            (SElem.bal(math.log(4.5)), point),
            (SElem.bal(0.0), ZERO),
        ])

    def test_a_member_is_answered_with_itself(self):
        C = RaySet(plus=((2, 3),), balanced=((0, 1),))
        for x in (SElem.pos(math.log(2.5)), SElem.pos(math.log(2)), ZERO):
            for base in (1, 2):
                assert project_ray(x, C, base).points[0] is x

    def test_boxes(self):
        C = RaySet(plus=((2, 3),), balanced=((0, 1),))
        D = RaySet(plus=((1, 2),))
        (_, p_hi), (origin, _) = self._ends(C)
        (d_lo, _), = self._ends(D)
        inside = SElem.pos(math.log(1.5))
        x = SVector((SElem.pos(math.log(4)), inside))
        for mid in (MetricId("sum", 2), MetricId("euclid", 1)):
            point, = project_box(x, BoxSet((C, D)), mid).points
            assert point.coords[0] is p_hi and point.coords[1] is inside
        point, = project_box(SVector((ZERO, ZERO)), BoxSet((C, D)), MetricId("sum", 2)).points
        assert point.coords[0] is origin and point.coords[1] is d_lo
        # the first factor binds at D = 1; the second is sampled in its cut
        r = project_box_max(x, BoxSet((C, D)), 2, resolution=0.25)
        assert r.distance == pytest.approx(1.0) and len(r.points) > 1
        assert all(v.coords[0] is p_hi for v in r.points)


def _assert_unique_projections(S, cases, base):
    for x, nearest, distance in cases:
        r = project_ray(x, S, base)
        assert r.is_singleton and r.points[0].sign is nearest.sign, x
        assert r.points[0].exp == pytest.approx(nearest.exp, abs=1e-12), x
        assert r.distance == pytest.approx(distance, abs=1e-12), x


class TestOracleAgreement:
    def test_project_ray_matches_grid(self):
        rng = random.Random(53)
        g = GridSpec(resolution=1e-3, max_magnitude=25.0)
        for _ in range(20):
            C = random_ray_set(rng)
            box = BoxSet((C,))
            x = random_selem(rng)
            for base in (1, 2):
                analytic = project_ray(x, C, base)
                gridded = grid_project(SVector((x,)), box, MetricId("euclid", base), g)
                assert gridded.distance == pytest.approx(analytic.distance, abs=2e-3)
                for p in analytic.points:
                    assert any(d2(p, q[0]) <= 2e-3 for q in gridded.points)


def test_projection_result_json_round_trip():
    r = project_ray(ZERO, TRIPLE, 2)
    again = ProjectionResult.from_json(r.to_json())
    assert again.points == r.points
    assert again.distance == r.distance
    assert again.is_singleton == r.is_singleton


def test_projection_result_json_rejects_unknown_keys():
    data = {**project_ray(ZERO, TRIPLE, 2).to_json(), "singular": True}
    with pytest.raises(ValueError, match=r"unknown keys \['singular'\]"):
        ProjectionResult.from_json(data)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"points": 5}, "points must be a list of elements or vectors, got 5"),
        ({"points": [5]}, "a point must be an element or vector object, got 5"),
        ({"points": [{"coords": 5}]}, "coords must be a list of elements, got 5"),
        ({"distance": "1.0"}, "distance must be a number, got '1.0'"),
        ({"distance": True}, "distance must be a number, got True"),
        ({"singleton": 1}, "singleton must be true or false, got 1"),
    ],
)
def test_projection_result_json_shape_errors_are_named(change, message):
    data = {**project_ray(ZERO, TRIPLE, 2).to_json(), **change}
    with pytest.raises(ValueError) as err:
        ProjectionResult.from_json(data)
    assert str(err.value) == message
    with pytest.raises(ValueError, match="a projection result must be an object, got list"):
        ProjectionResult.from_json([data])


def test_projection_result_json_refuses_a_singleton_flag_the_points_contradict():
    two = {"points": [SElem.pos(1).to_json(), SElem.pos(2).to_json()], "distance": 1, "singleton": True}
    with pytest.raises(ValueError, match="^singleton true disagrees with the point count 2$"):
        ProjectionResult.from_json(two)
    one = {"points": [SElem.pos(1).to_json()], "distance": 1, "singleton": False}
    with pytest.raises(ValueError, match="^singleton false disagrees with the point count 1$"):
        ProjectionResult.from_json(one)
    assert ProjectionResult.from_json({**one, "singleton": True}).is_singleton
    assert ProjectionResult._fields == ("points", "distance")
