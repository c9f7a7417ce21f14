"""Charts, broken lines, and the three segment notions."""

import math
import random
import sys
import warnings
from itertools import chain

import pytest

from smaxplus import (
    D1,
    D2,
    ArcPiece,
    BrokenLine,
    ChartError,
    MagnitudeRangeWarning,
    PointPiece,
    SElem,
    SVector,
    SegmentSet,
    Sign,
    ZERO,
    as_segment_set,
    chart_for,
    component_count,
    components,
    d2,
    d_segment_contains,
    geometric_segment,
    isolated_points,
    parse_metric_id,
    psi,
    psi_inverse,
    rho,
    semimodule_segment,
    traditional_segment,
)
import smaxplus.connectivity as connectivity_module
import smaxplus.metrics as metrics_module
import smaxplus.segments as segments_module
from smaxplus.segments import vec_oplus, vec_scale
from smaxplus.svg import Scene

from grid_oracle import GridSpec, grid_segment_sm
from instances import hausdorff_phi, random_svector

LN2 = math.log(2.0)
LN3 = math.log(3.0)

A3 = SVector((SElem.pos(0), SElem.neg(LN3), SElem.bal(LN2)))
B3 = SVector((SElem.neg(0), SElem.bal(0), SElem.pos(0)))


def V(*elems):
    return SVector(tuple(elems))


class TestCharts:
    def test_worked_chart_values(self):
        chart = chart_for(A3, B3)
        assert chart == (
            (Sign.PLUS, Sign.MINUS),
            (Sign.MINUS, Sign.BALANCED),
            (Sign.BALANCED, Sign.PLUS),
        )
        assert psi(chart, A3) == pytest.approx((1.0, 3.0, 2.0), rel=1e-14)
        assert psi(chart, B3) == pytest.approx((-1.0, -1.0, -1.0), rel=1e-14)

    def test_zero_maps_to_origin(self):
        chart = chart_for(V(ZERO), V(SElem.pos(1)))
        assert psi(chart, V(ZERO)) == (0.0,)

    def test_pullback_examples(self):
        chart = chart_for(A3, B3)
        got = psi_inverse(chart, (0.0, 1.0, 0.5))
        assert got == V(ZERO, SElem.neg(0.0), SElem.bal(math.log(0.5)))
        assert psi_inverse(chart, (0.0, 0.0, 0.0)) == V(ZERO, ZERO, ZERO)

    def test_pullback_round_trip(self):
        # ln(exp(t)) can drift by an ulp, so compare signs exactly and
        # exponents to within 1e-12
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 4)
            a, b = random_svector(rng, n), random_svector(rng, n)
            chart = chart_for(a, b)
            for x in (a, b):
                back = psi_inverse(chart, psi(chart, x))
                for orig, got in zip(x, back):
                    assert got.is_zero == orig.is_zero
                    if not orig.is_zero:
                        assert got.sign is orig.sign
                        assert got.exp == pytest.approx(orig.exp, abs=1e-12)

    def test_off_chart_rejected(self):
        chart = chart_for(V(SElem.pos(1)), V(SElem.neg(1)))
        with pytest.raises(ChartError):
            psi(chart, V(SElem.bal(1)))

    def test_zero_coordinate_gets_deterministic_complement(self):
        chart = chart_for(V(ZERO), V(SElem.pos(2)))
        assert chart == ((Sign.MINUS, Sign.PLUS),)
        chart = chart_for(V(SElem.bal(1)), V(ZERO))
        assert chart == ((Sign.BALANCED, Sign.PLUS),)
        assert chart_for(V(ZERO), V(ZERO)) == ((Sign.PLUS, Sign.MINUS),)


class TestGeometricSegment:
    def test_worked_example(self):
        line = geometric_segment(A3, B3)
        assert line.breakpoint_params == pytest.approx((0.5, 2 / 3, 0.75), abs=1e-12)
        assert len(line.vertices) == 5
        assert line.vertices[1] == pytest.approx((0.0, 1.0, 0.5), abs=1e-12)
        assert line.vertices[2] == pytest.approx((-1 / 3, 1 / 3, 0.0), abs=1e-12)
        assert line.vertices[3] == pytest.approx((-0.5, 0.0, -0.25), abs=1e-12)
        assert line.length == pytest.approx(math.sqrt(29), rel=1e-12)
        assert rho(D2, A3, B3) == pytest.approx(line.length, rel=1e-12)

    def test_degenerate(self):
        line = geometric_segment(A3, A3)
        assert line.breakpoint_params == ()
        assert line.length == 0.0

    def test_same_rays_no_breakpoints(self):
        a = V(SElem.pos(0), SElem.neg(1))
        b = V(SElem.pos(2), SElem.neg(0.2))
        line = geometric_segment(a, b)
        assert line.breakpoint_params == ()
        assert len(line.vertices) == 2

    def test_breakpoint_bound(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randint(1, 5)
            a, b = random_svector(rng, n), random_svector(rng, n)
            line = geometric_segment(a, b)
            assert len(line.breakpoint_params) <= n
            assert list(line.breakpoint_params) == sorted(set(line.breakpoint_params))
            assert all(0 < t < 1 for t in line.breakpoint_params)

    def test_squares_beyond_the_float_range_rescale(self):
        # e**460 squared overflows, while the path length 2 e**460 fits
        m = math.exp(460)
        assert geometric_segment(V(SElem.pos(460)), V(SElem.neg(460))).length == 2 * m
        arc = ArcPiece(((Sign.PLUS, Sign.MINUS),) * 2, (m, m), (-m, m), True, True)
        assert arc.chord_length() == 2 * m

    def test_length_beyond_the_float_range_saturates(self):
        a, b = V(SElem.pos(800), SElem.neg(1)), V(SElem.neg(2), SElem.bal(805))
        with pytest.warns(MagnitudeRangeWarning) as record:
            line = geometric_segment(a, b)
        assert line.length == sys.float_info.max
        assert "geometric length overflows the float range; saturating" in {str(w.message) for w in record}
        top = sys.float_info.max
        arc = ArcPiece(((Sign.PLUS, Sign.MINUS),), (top,), (-top,), True, True)
        with pytest.warns(MagnitudeRangeWarning, match="geometric length overflows"):
            assert arc.chord_length() == top

    def test_squares_below_the_float_range_rescale(self):
        # (e**-400 - e**-401)**2 is about 1e-348 and rounds to 0.0
        length = geometric_segment(V(SElem.pos(-400)), V(SElem.pos(-401))).length
        assert length == pytest.approx(math.exp(-400) - math.exp(-401), rel=1e-12, abs=0.0)
        m = math.exp(-400)
        arc = ArcPiece(((Sign.PLUS, Sign.MINUS),) * 2, (m, m), (-m, m), True, True)
        assert arc.chord_length() == 2 * m
        assert geometric_segment(V(SElem.pos(-400)), V(SElem.pos(-400))).length == 0.0

    def test_saturated_crossings_stay_inside_the_open_interval(self):
        # e**2 / (max + e**2) rounds to 1.0 and would put a breakpoint on b
        a, b = V(SElem.pos(800), SElem.neg(1)), V(SElem.neg(2), SElem.bal(805))
        with pytest.warns(MagnitudeRangeWarning) as record:
            line = geometric_segment(a, b)
            ends = psi(line.chart, a), psi(line.chart, b)
        assert "geometric length overflows the float range; saturating" in {str(w.message) for w in record}
        ts = line.breakpoint_params
        assert len(ts) == 2 and 0.0 < ts[0] < ts[1] < 1.0
        # each crossing coordinate is exactly 0.0 at its vertex
        assert line.vertices[1][1] == 0.0 and line.vertices[2][0] == 0.0
        assert (line.vertices[0], line.vertices[-1]) == ends
        assert line.length == sys.float_info.max

    def test_breakpoints_sit_at_the_origin_exactly(self):
        # interpolating (p:-0.8) to (m:0.6) at the crossing gives -5.6e-17,
        # which pulls back to m:-37.4 instead of eps
        line = geometric_segment(V(SElem.pos(-0.8)), V(SElem.neg(0.6)))
        assert line.vertices[1] == (0.0,)
        assert psi_inverse(line.chart, line.vertices[1]) == V(ZERO)
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(1, 4)
            a, b = random_svector(rng, n), random_svector(rng, n)
            line = geometric_segment(a, b)
            alpha, beta = line.vertices[0], line.vertices[-1]
            for t, vert in zip(line.breakpoint_params, line.vertices[1:-1]):
                for j in range(n):
                    if alpha[j] * beta[j] < 0.0 and alpha[j] / (alpha[j] - beta[j]) == t:
                        assert vert[j] == 0.0
                        assert psi_inverse(line.chart, vert)[j] == ZERO

    def test_svg_breakpoint_dots_are_the_vertices(self, monkeypatch):
        # the dot is drawn at the stored breakpoint, eps, not re-interpolated
        # to m:-37.4 (both print as 0.000000 in the SVG)
        line = geometric_segment(V(SElem.pos(-0.8)), V(SElem.neg(0.6)))
        scene = Scene(1)
        dots = []
        monkeypatch.setattr(scene, "add_point", lambda x, fill, radius: dots.append((x, fill)))
        scene.add_broken_line(line)
        assert [x for x, fill in dots if fill == "#ff7f0e"] == [V(ZERO)]

    def test_vertices_are_geodesic_points(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 4)
            a, b = random_svector(rng, n), random_svector(rng, n)
            line = geometric_segment(a, b)
            for vert in line.vertices:
                v = psi_inverse(line.chart, vert)
                assert abs(rho(D2, a, v) + rho(D2, v, b) - rho(D2, a, b)) <= 1e-9

    def test_splitting_at_a_vertex(self):
        rng = random.Random(24)
        for _ in range(60):
            n = rng.randint(2, 4)
            a, b = random_svector(rng, n), random_svector(rng, n)
            line = geometric_segment(a, b)
            if len(line.vertices) < 3:
                continue
            c = psi_inverse(line.chart, line.vertices[1])
            left = geometric_segment(a, c)
            right = geometric_segment(c, b)
            assert left.length + right.length == pytest.approx(line.length, rel=1e-9, abs=1e-12)
            # every sample of the halves sits metrically between a and b,
            # and every sample of the whole lies in one of the halves
            for half, (p, q) in ((left, (a, c)), (right, (c, b))):
                for vert in half.vertices:
                    z = psi_inverse(half.chart, vert)
                    assert d_segment_contains(a, b, z, D2)
            for t in (0.1, 0.35, 0.6, 0.85):
                alpha, beta = psi(line.chart, a), psi(line.chart, b)
                z = psi_inverse(
                    line.chart,
                    tuple((1 - t) * u + t * v for u, v in zip(alpha, beta)),
                )
                assert d_segment_contains(a, c, z, D2) or d_segment_contains(c, b, z, D2)

    def test_line_segment_equals_metric_betweenness(self):
        # on the line, the geodesic is exactly the set of metrically
        # between points for the path metric
        rng = random.Random(25)
        for _ in range(100):
            a, b = random_svector(rng, 1), random_svector(rng, 1)
            line = geometric_segment(a, b)
            seg = as_segment_set(line)
            alpha, beta = psi(line.chart, a)[0], psi(line.chart, b)[0]
            lo, hi = min(alpha, beta), max(alpha, beta)
            for _ in range(20):
                s = rng.uniform(lo - 1.0, hi + 1.0)
                z = psi_inverse(line.chart, (s,))
                inside = abs(d2(a[0], z[0]) + d2(z[0], b[0]) - d2(a[0], b[0])) <= 1e-9
                assert seg.contains(z) == inside


class TestBetweenness:
    def test_examples(self):
        line = geometric_segment(A3, B3)
        x0 = psi_inverse(line.chart, line.vertices[1])
        assert d_segment_contains(A3, B3, x0, D2)
        assert d_segment_contains(A3, B3, A3, D2)
        one = V(SElem.pos(1))
        assert not d_segment_contains(V(SElem.pos(0)), V(SElem.neg(0)), one, D1)


class TestTraditionalSegment:
    def test_same_ray_arc(self):
        seg = traditional_segment(V(SElem.pos(0), SElem.pos(1)), V(SElem.pos(2), SElem.pos(0.5)))
        assert seg is not None
        assert len(seg.pieces) == 1 and isinstance(seg.pieces[0], ArcPiece)
        assert component_count(seg) == 1

    def test_cross_ray_not_representable(self):
        assert traditional_segment(V(SElem.pos(0)), V(SElem.neg(0))) is None

    def test_radial_chord(self):
        seg = traditional_segment(V(ZERO, ZERO), V(SElem.neg(1), SElem.bal(0.5)))
        assert seg is not None
        arc = seg.pieces[0]
        assert arc.contains(V(SElem.neg(1 - math.log(2)), SElem.bal(0.5 - math.log(2))))

    def test_point_segment(self):
        seg = traditional_segment(V(SElem.pos(1)), V(SElem.pos(1)))
        assert isinstance(seg.pieces[0], PointPiece)


class TestSemimoduleSegment:
    def test_balanced_tie(self):
        seg = semimodule_segment(V(SElem.pos(1)), V(SElem.neg(1)))
        pts = {p.point for p in seg.pieces}
        assert pts == {V(SElem.pos(1)), V(SElem.neg(1)), V(SElem.bal(1))}
        assert component_count(seg) == 3

    def test_signed_balanced_pair(self):
        seg = semimodule_segment(V(SElem.pos(1)), V(SElem.bal(1)))
        pts = {p.point for p in seg.pieces}
        assert pts == {V(SElem.pos(1)), V(SElem.bal(1))}

    def test_three_component_example(self):
        seg = semimodule_segment(V(SElem.pos(1)), V(SElem.neg(0)))
        assert component_count(seg) == 3
        assert seg.has_open_piece()
        arcs = [p for p in seg.pieces if isinstance(p, ArcPiece)]
        assert len(arcs) == 1
        arc = arcs[0]
        assert not arc.closed_lo and arc.closed_hi
        assert sorted(abs(v) for v in (arc.start[0], arc.end[0])) == pytest.approx(
            [1.0, math.e], rel=1e-12
        )
        pts = {p.point for p in seg.pieces if isinstance(p, PointPiece)}
        assert pts == {V(SElem.neg(0)), V(SElem.bal(0))}
        # membership respects the open lower end
        assert seg.contains(V(SElem.pos(0.5)))
        assert seg.contains(V(SElem.pos(1)))
        assert not seg.contains(V(SElem.pos(0)))

    def test_opposite_to_larger(self):
        r, s = 0.5, 1.5
        seg = semimodule_segment(V(SElem.neg(r)), V(SElem.pos(s)))
        assert component_count(seg) == 3
        pts = {p.point for p in seg.pieces if isinstance(p, PointPiece)}
        assert pts == {V(SElem.neg(r)), V(SElem.bal(r))}

    def test_balanced_to_larger(self):
        r, s = 0.5, 1.5
        seg = semimodule_segment(V(SElem.bal(r)), V(SElem.pos(s)))
        assert component_count(seg) == 2
        assert seg.has_open_piece()

    def test_signed_to_balanced_stretch(self):
        r, s = 0.5, 1.5
        seg = semimodule_segment(V(SElem.neg(r)), V(SElem.bal(s)))
        assert component_count(seg) == 2
        arcs = [p for p in seg.pieces if isinstance(p, ArcPiece)]
        assert len(arcs) == 1 and arcs[0].closed_lo and arcs[0].closed_hi
        assert seg.contains(V(SElem.bal(r)))
        assert seg.contains(V(SElem.bal(s)))

    def test_same_ray_is_closed_interval(self):
        seg = semimodule_segment(V(SElem.pos(0.5)), V(SElem.pos(1.5)))
        assert component_count(seg) == 1
        assert not seg.has_open_piece()
        assert seg.contains(V(SElem.pos(0.5)))
        assert seg.contains(V(SElem.pos(1.5)))
        assert seg.contains(V(SElem.pos(1.0)))
        assert not seg.contains(V(SElem.pos(1.6)))

    def test_endpoint_identical(self):
        seg = semimodule_segment(V(SElem.pos(1)), V(SElem.pos(1)))
        assert [type(p) for p in seg.pieces] == [PointPiece]

    def test_five_components(self):
        a = V(SElem.pos(0), SElem.neg(1))
        b = V(SElem.neg(1), SElem.pos(0))
        seg = semimodule_segment(a, b)
        assert component_count(seg) == 5
        iso = isolated_points(seg)
        assert len(iso) == 4
        assert set(iso) == {
            a,
            b,
            V(SElem.neg(1), SElem.bal(0)),
            V(SElem.bal(0), SElem.neg(1)),
        }

    def test_geometric_segment_is_one_component(self):
        seg = as_segment_set(geometric_segment(A3, B3))
        assert component_count(seg) == 1

    @pytest.mark.parametrize("r,s", [(0.0, LN2), (0.0, 1.0), (LN2, 2.0), (1.0, 2.0)])
    def test_matches_parameter_sweep(self, r, s):
        cases = [
            (V(SElem.pos(r)), V(SElem.neg(r))),
            (V(SElem.pos(r)), V(SElem.bal(r))),
            (V(SElem.neg(r)), V(SElem.pos(s))),
            (V(SElem.bal(r)), V(SElem.pos(s))),
            (V(SElem.neg(r)), V(SElem.bal(s))),
            (V(SElem.pos(r)), V(SElem.pos(s))),
        ]
        g = GridSpec(resolution=2e-3, max_magnitude=math.exp(3))
        for a, b in cases:
            seg = semimodule_segment(a, b)
            cloud = grid_segment_sm(a, b, g)
            samples = seg.sample(5e-4)
            assert hausdorff_phi(samples, cloud) <= 4e-3

    def test_matches_parameter_sweep_2d(self):
        rng = random.Random(26)
        g = GridSpec(resolution=5e-3, max_magnitude=math.exp(3))
        for _ in range(10):
            a, b = random_svector(rng, 2), random_svector(rng, 2)
            seg = semimodule_segment(a, b)
            cloud = grid_segment_sm(a, b, g)
            assert hausdorff_phi(seg.sample(2e-3), cloud) <= 1.5e-2

    def test_definition_sweep_is_subset(self):
        # every scaled combination is contained in the symbolic segment
        rng = random.Random(27)
        for _ in range(40):
            n = rng.randint(1, 3)
            a, b = random_svector(rng, n), random_svector(rng, n)
            seg = semimodule_segment(a, b)
            lams = [ZERO.exp] + [rng.uniform(-4, 0) for _ in range(15)] + [0.0]
            for lam in lams:
                assert seg.contains(vec_oplus(vec_scale(lam, a), b))
                assert seg.contains(vec_oplus(a, vec_scale(lam, b)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            semimodule_segment(V(SElem.pos(1)), V(SElem.pos(1), SElem.pos(2)))

    def test_sub_tolerance_arc_contains_its_closed_end(self):
        # two event values 1 ulp apart make piece 0 an arc of length 2.2e-16,
        # closed only at a (+) b; every coordinate span is within the
        # membership tolerance, so the parameter must fall on the closed end
        a = V(
            SElem.neg(0.3), SElem.bal(0.2999999999999999), SElem.bal(0.3), ZERO,
            SElem.bal(0.29999999999999977), SElem.neg(0.3000000000000001),
            SElem.bal(0.6999999999999998), SElem.neg(0.1),
        )
        b = V(
            SElem.bal(2.3), SElem.pos(1.1), SElem.neg(0.20000000000000032), SElem.pos(1.1),
            SElem.bal(0.7), SElem.bal(0.3), SElem.pos(0.1), SElem.bal(2.3),
        )
        seg = semimodule_segment(a, b)
        arc = seg.pieces[0]
        assert isinstance(arc, ArcPiece) and not arc.closed_lo and arc.closed_hi
        assert arc.chord_length() < 1e-9
        assert seg.contains(vec_oplus(a, b))
        assert components(seg) == [[0, 3, 4], [1], [2], [5], [6], [7], [8]]


class TestWideMagnitudes:
    @pytest.mark.parametrize(
        "exps, match", [((800, 0, 1, 805), "overflows"), ((-800, 0, -1, -805), "underflows")]
    )
    def test_range_warnings_stay_loud(self, exps, match):
        # the sweep's radii leave the float range with a warning, and the
        # segment stays usable
        a = V(SElem.pos(exps[0]), SElem.neg(exps[1]))
        b = V(SElem.neg(exps[2]), SElem.pos(exps[3]))
        with pytest.warns(MagnitudeRangeWarning, match=match):
            seg = semimodule_segment(a, b)
        with warnings.catch_warnings(record=True):
            groups = components(seg)
        assert sorted(i for g in groups for i in g) == list(range(len(seg.pieces)))

    def test_exponent_sum_past_the_float_range_is_zero(self):
        # the event lam = -1e308 - 1e308 rounds to -inf, where the scaled copy
        # of p:0 is the zero element, as SElem makes it: the arc down to b is
        # the point b
        a, b = V(SElem.bal(1e308), SElem.pos(0)), V(SElem.neg(-1e308), ZERO)
        with warnings.catch_warnings(record=True):
            seg = semimodule_segment(a, b)
        assert [type(piece) for piece in seg.pieces] == [ArcPiece, PointPiece]
        assert seg.pieces[1] == PointPiece(b)

    @pytest.mark.parametrize(
        "a_exp, b_exp", [(10**400, 0), (-10**400, 0), (10**308, -10**308)], ids=["above", "below", "event"]
    )
    def test_int_exponents_beyond_the_float_range_next_to_floats(self, a_exp, b_exp):
        # float() refuses the int exponent, or the int event b_exp - a_exp,
        # that the sweep would add to a float; the error names the coordinate
        a, b = V(SElem.pos(1.5), SElem.pos(a_exp)), V(SElem.neg(0), SElem.pos(b_exp))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="^coordinate 1: "), warnings.catch_warnings(record=True):
                semimodule_segment(x, y)

    def test_int_exponents_beyond_the_float_range_alone(self):
        # int exponents add exactly, and only the radii leave the float range
        a, b = V(SElem.pos(10**400), SElem.neg(3)), V(SElem.neg(-2 * 10**400), SElem.pos(0))
        with pytest.warns(MagnitudeRangeWarning):
            seg = semimodule_segment(a, b)
            groups = components(seg)
        assert len(seg.pieces) == 5 and groups == [[0], [1, 3, 4], [2]]


MEMBERSHIP_BANDS = (3.0, 10.0, 20.0, 30.0, 100.0)
BETWEENNESS_METRICS = [parse_metric_id(code) for code in ("rho02", "rho12", "rho22")]


def _pairs(band, count=400):
    """Seeded endpoint pairs at n = 1, 2, 3 with exponents in +-band."""
    rng = random.Random(int(band))
    for k in range(count):
        n = 1 + k % 3
        yield random_svector(rng, n, band=(-band, band)), random_svector(rng, n, band=(-band, band))


class TestMembershipAtAnyMagnitude:
    """A segment's own points are its members at any magnitude: membership
    is decided per chart coordinate, relative to the coordinate's scale."""

    @pytest.mark.parametrize("band", MEMBERSHIP_BANDS)
    def test_geodesic_points_are_members_and_between(self, band):
        missed = []
        for a, b in _pairs(band):
            line = geometric_segment(a, b)
            seg = as_segment_set(line)
            vertices = [psi_inverse(line.chart, v) for v in line.vertices]
            samples = [arc.point_at(t) for arc in seg.pieces if isinstance(arc, ArcPiece)
                       for t in (0.13, 0.5, 0.77)]
            missed += [("contains", z) for z in vertices + samples if not seg.contains(z)]
            missed += [(mid, z) for z in vertices for mid in BETWEENNESS_METRICS
                       if not d_segment_contains(a, b, z, mid)]
        assert not missed, f"{len(missed)} misses, the first {missed[:3]}"

    @pytest.mark.parametrize("band", MEMBERSHIP_BANDS)
    def test_semimodule_points_are_members(self, band):
        # point pieces, interior samples and closed ends, also of arcs
        # shorter than the tolerance (some chart span is nonzero, but every
        # span is at most 1e-9 times max(1, |start|, |end|))
        missed, short = [], 0
        for a, b in _pairs(band):
            seg = semimodule_segment(a, b)
            for piece in seg.pieces:
                if isinstance(piece, PointPiece):
                    points = [piece.point]
                else:
                    spans = [abs(e - s) / max(1.0, abs(s), abs(e)) for s, e in zip(piece.start, piece.end)]
                    short += 0.0 < max(spans) <= 1e-9
                    ts = [0.0] * piece.closed_lo + [0.13, 0.5, 0.77] + [1.0] * piece.closed_hi
                    points = [piece.point_at(t) for t in ts]
                missed += [z for z in points if not seg.contains(z)]
        assert not missed, f"{len(missed)} misses, the first {missed[:3]}"
        assert short > 0 or band < 20


# exponent intervals per band; the edge band straddles e**+-709.78, past
# which radii saturate, and reaches e**-745, below which they underflow
CHART_BANDS = {
    "3": ((-3.0, 3.0),),
    "300": ((-300.0, 300.0),),
    "edge": ((-746.0, -708.0), (708.0, 746.0)),
    "800": ((-800.0, 800.0),),
}


def _chart_pairs(band):
    """Seeded pairs at n = 1..33, three per n, with a zero coordinate in a,
    one in b and one in both where n allows; in the third pair b's nonzero
    coordinates lie on a's rays, so that the chord is representable."""
    rng = random.Random(sum(map(ord, band)))

    def coord(sign=None):
        if rng.random() < 0.1:
            return ZERO
        return SElem(sign or rng.choice((Sign.PLUS, Sign.MINUS, Sign.BALANCED)),
                     rng.uniform(*rng.choice(CHART_BANDS[band])))

    for n in range(1, 34):
        for k in range(3):
            a = [coord() for _ in range(n)]
            b = [coord(x.sign if k == 2 and not x.is_zero else None) for x in a]
            a[0] = ZERO
            b[n // 2] = ZERO
            if n > 2:
                a[-1] = b[-1] = ZERO
            yield V(*a), V(*b)


def _messages(record) -> set:
    return {str(w.message) for w in record if issubclass(w.category, MagnitudeRangeWarning)}


class TestOnePassChart:
    """The geodesic's and the chord's chart values, taken in one pass, are
    psi's on chart_for's chart, to the sign of a zero, with the same range
    warnings."""

    @pytest.mark.parametrize("band", sorted(CHART_BANDS))
    def test_chart_values_are_psi(self, band):
        length_message = "geometric length overflows the float range; saturating"
        chords = warned = 0
        for a, b in _chart_pairs(band):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                line = geometric_segment(a, b)
            got = _messages(record) - {length_message}
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                alpha, beta = psi(line.chart, a), psi(line.chart, b)
            want = _messages(record)
            # repr tells -0.0 (an underflow on the second ray) from 0.0
            assert repr((alpha, beta)) == repr((line.vertices[0], line.vertices[-1]))
            assert got == want
            warned += bool(want)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                seg = traditional_segment(a, b)
            if seg is not None and a != b:
                expected = SegmentSet((ArcPiece(line.chart, alpha, beta, True, True),))
                assert repr(seg) == repr(expected)
                assert _messages(record) == want
                chords += 1
        assert chords > 20
        assert warned > 20 or band in ("3", "300")


class TestJson:
    def test_broken_line_round_trip(self):
        line = geometric_segment(A3, B3)
        again = BrokenLine.from_json(line.to_json())
        assert again == line

    def test_segment_set_round_trip(self):
        seg = semimodule_segment(V(SElem.pos(1)), V(SElem.neg(0)))
        again = SegmentSet.from_json(seg.to_json())
        assert again == seg

    ARC = {"kind": "arc", "chart": [["+", "-"]], "start": [1.0], "end": [2.0],
           "closed_lo": True, "closed_hi": True}

    @pytest.mark.parametrize(
        "end", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-beyond-the-float-range")]
    )
    def test_arc_ends_must_be_finite(self, end):
        # a NaN start used to load and project p:0 onto itself at distance 0,
        # and an int beyond the float range raised OverflowError
        for name in ("start", "end"):
            with pytest.raises(ValueError, match=f"^arc ends must be finite, got {name} "):
                SegmentSet.from_json({"pieces": [{**self.ARC, name: [end]}]})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"start": ["1"]}, "start must be a list of numbers, got ['1']"),
            ({"start": 5}, "start must be a list of numbers, got 5"),
            ({"start": [True]}, "start must be a list of numbers, got [True]"),
            ({"end": None}, "end must be a list of numbers, got None"),
            ({"closed_lo": "yes"}, "closed_lo must be true or false, got 'yes'"),
            ({"closed_hi": 1}, "closed_hi must be true or false, got 1"),
        ],
    )
    def test_arc_shape_errors_are_named(self, change, message):
        # a string or bare number as an end raised TypeError, and a string
        # flag or a bool end loaded as given
        assert SegmentSet.from_json({"pieces": [self.ARC]}).pieces[0].closed_lo is True
        with pytest.raises(ValueError) as err:
            SegmentSet.from_json({"pieces": [{**self.ARC, **change}]})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "start, end",
        [([1.0, 2.0], [3.0]), ([1.0], [2.0, 3.0]), ([1.0, 2.0], [3.0, 4.0])],
        ids=["long-start", "long-end", "short-chart"],
    )
    def test_arc_lengths_must_agree(self, start, end):
        # point_at and param_of zip the three and would drop coordinates
        with pytest.raises(ValueError, match="arc chart, start and end must have one length"):
            SegmentSet.from_json({"pieces": [{**self.ARC, "start": start, "end": end}]})

    def test_pieces_must_share_one_dimension(self):
        point = {"kind": "point", "point": V(ZERO, ZERO).to_json()}
        with pytest.raises(ValueError, match=r"pieces must share one dimension, got dimensions \[1, 2\]"):
            SegmentSet.from_json({"pieces": [self.ARC, point]})
        assert len(SegmentSet.from_json({"pieces": [self.ARC, {**point, "point": V(ZERO).to_json()}]}).pieces) == 2

    @pytest.mark.parametrize(
        "load, data",
        [
            (SegmentSet.from_json, {"pieces": [], "bogus": 1}),
            (SegmentSet.from_json, {"pieces": [{"kind": "point", "point": V(ZERO).to_json(), "x": 0}]}),
            (SegmentSet.from_json, {"pieces": [{**ARC, "closed": True}]}),
            (BrokenLine.from_json, {"chart": [], "t": [], "vertices": [], "length": 0.0, "len": 0}),
        ],
        ids=["segment-set", "point-piece", "arc-piece", "broken-line"],
    )
    def test_unknown_keys_rejected(self, load, data):
        with pytest.raises(ValueError, match=r"unknown keys \['(bogus|x|closed|len)'\]"):
            load(data)

    LINE_JSON = {"chart": [["+", "-"]], "t": [], "vertices": [[1.0], [2.0]], "length": 1.0}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"chart": 5}, "chart must be a list of [u, v] sign pairs, got 5"),
            ({"chart": [["+"]]}, "chart entry must be a [u, v] sign pair, got ['+']"),
            ({"vertices": 5}, "vertices must be a list of vertices, got 5"),
            ({"vertices": [[1.0], 2.0]}, "vertex must be a list of numbers, got 2.0"),
            ({"vertices": [[1.0], [True]]}, "vertex must be a list of numbers, got [True]"),
            ({"t": [0.5, "x"]}, "t must be a list of numbers, got [0.5, 'x']"),
            ({"length": "1"}, "length must be a number, got '1'"),
        ],
    )
    def test_broken_line_shape_errors_are_named(self, change, message):
        assert BrokenLine.from_json(self.LINE_JSON).length == 1.0
        with pytest.raises(ValueError) as err:
            BrokenLine.from_json({**self.LINE_JSON, **change})
        assert str(err.value) == message

    def test_broken_line_must_be_an_object(self):
        with pytest.raises(ValueError, match="a broken line must be an object, got list"):
            BrokenLine.from_json([1, 2])



LINE = ((Sign.PLUS, Sign.MINUS),)
PLANE = LINE * 2


def _arc(start, end, lo=True, hi=True):
    return ArcPiece(LINE if len(start) == 1 else PLANE, start, end, lo, hi)


def _point(*ms):
    # given by exponents, so its magnitudes differ from chart values by the
    # log/exp round trip
    return PointPiece(
        V(*(ZERO if m == 0 else SElem(Sign.PLUS if m > 0 else Sign.MINUS, math.log(abs(m))) for m in ms))
    )


HAND_BUILT = {
    "point-inside": ((_arc((1.0,), (3.0,)), _point(2.0)), [[0, 1]]),
    "point-at-open-end": ((_arc((1.0,), (3.0,), False, False), _point(3.0)), [[0, 1]]),
    "open-meets-open": ((_arc((1.0,), (2.0,), True, False), _arc((2.0,), (3.0,), False)), [[0], [1]]),
    "closed-meets-open": ((_arc((1.0,), (2.0,)), _arc((2.0,), (3.0,), False)), [[0, 1]]),
    "through-origin": ((_arc((-1.0,), (0.0,), True, False), _arc((0.0,), (2.0,))), [[0, 1]]),
    # the arc's interior lies on both rays of its chart
    "point-on-crossing-arc": ((_arc((1.0,), (-1.0,)), _point(-0.5)), [[0, 1]]),
    "t-junction": (
        (_arc((1.0, 1.0), (3.0, 1.0), False, False), _arc((2.0, 1.0), (2.0, 3.0), False)),
        [[0, 1]],
    ),
    "apart": ((_arc((1.0,), (3.0,)), _point(4.0), _point(-2.0)), [[0], [1], [2]]),
    # the group of signature (+, +) has two roots, so the end (3, 1) of the
    # second arc is still tested, and lies inside the third arc
    "end-inside-another-component": (
        (_arc((1.0, 1.0), (2.0, 1.0)), _arc((2.0, 1.0), (3.0, 1.0)), _arc((3.0, 0.0), (3.0, 2.0))),
        [[0, 1, 2]],
    ),
    # only the middle piece holds the key (2, 2) the three share
    "three-share-a-key": (
        (_arc((1.0, 1.0), (2.0, 2.0), True, False), _arc((2.0, 2.0), (3.0, 2.0)),
         _arc((2.0, 2.0), (2.0, 3.0), False)),
        [[0, 1, 2]],
    ),
    # the groups (+, None) = {0, 1, 4} and (+, +) = {2, 3} each share one
    # root; the open end (2.5, 0) of arc 2 lies inside arc 1, which merges
    # them, and arc 4's ends are then skipped under the merged root
    "union-merges-joined-groups": (
        (_arc((1.0, 0.0), (2.0, 0.0)), _arc((2.0, 0.0), (3.0, 0.0)),
         _arc((2.5, 0.0), (2.5, 1.0), False), _arc((2.5, 1.0), (3.5, 1.0)), _arc((3.0, 0.0), (4.0, 0.0))),
        [[0, 1, 2, 3, 4]],
    ),
}


class TestComponents:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_sets(self, name):
        pieces, expected = HAND_BUILT[name]
        seg = SegmentSet(pieces)
        assert components(seg) == expected
        assert components(SegmentSet.from_json(seg.to_json())) == expected

    def test_membership_tests_stay_linear(self, monkeypatch):
        # the sweep never calls the general membership test, and the
        # endpoint index calls it at most a constant times per piece (the
        # all-pairs scan made O(P**2) calls)
        calls = []
        param_of = ArcPiece.param_of
        monkeypatch.setattr(
            ArcPiece, "param_of", lambda self, x: calls.append(1) or param_of(self, x)
        )
        rng = random.Random(128)
        a, b = random_svector(rng, 128), random_svector(rng, 128)
        seg = semimodule_segment(a, b)
        assert len(calls) == 0
        assert len(seg.pieces) > 100
        groups = components(seg)
        assert len(calls) <= 2 * len(seg.pieces)
        assert sorted(i for g in groups for i in g) == list(range(len(seg.pieces)))

    def test_sweep_builds_vectors_only_for_point_pieces(self, monkeypatch):
        # the sweep runs on (sign, exp) pairs; the only SVectors it builds
        # are the points of the point pieces it returns, one trusted vector
        # each, and none through the checked constructor
        rng = random.Random(128)
        a, b = random_svector(rng, 128), random_svector(rng, 128)
        built, trusted = [], []
        init = SVector.__init__
        monkeypatch.setattr(SVector, "__init__", lambda self, coords: built.append(1) or init(self, coords))
        make = segments_module._trusted_svector
        monkeypatch.setattr(segments_module, "_trusted_svector", lambda coords: trusted.append(1) or make(coords))
        seg = semimodule_segment(a, b)
        points = sum(isinstance(piece, PointPiece) for piece in seg.pieces)
        assert points > 0
        assert len(built) == 0
        assert len(trusted) == points

    def test_segments_call_neither_magnitude_nor_psi(self, monkeypatch):
        # inside the float range a radius is math.exp's: the sweep and the
        # geodesic's one-pass chart values take it without magnitude, and
        # neither calls the per-coordinate psi
        calls = []
        for module, name in ((metrics_module, "magnitude"), (segments_module, "magnitude"),
                             (segments_module, "psi")):
            helper = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, name=name, helper=helper: calls.append(name) or helper(*args)
            )
        rng = random.Random(128)
        a, b = random_svector(rng, 128, band=(-3.0, 3.0)), random_svector(rng, 128, band=(-3.0, 3.0))
        seg = semimodule_segment(a, b)
        line = geometric_segment(a, b)
        assert len(seg.pieces) > 100 and line.breakpoint_params
        assert calls == []

    def test_sweep_skips_the_passes_that_cannot_join_anything(self, monkeypatch):
        # on this sweep every endpoint's signature group already shares the
        # endpoint's root before the endpoint pass, so the pass visits no
        # candidate piece; and the tie rule runs only where a coordinate ties
        # at an event, not per moving coordinate and event (the float test
        # rules out every idle coordinate here)
        rule, visits = [], []
        scaled = segments_module._scaled_coord
        monkeypatch.setattr(
            segments_module, "_scaled_coord", lambda pi, qi, lam: rule.append(lam) or scaled(pi, qi, lam)
        )
        rng = random.Random(128)
        a, b = random_svector(rng, 128), random_svector(rng, 128)
        seg = semimodule_segment(a, b)
        events = [y.exp - x.exp for p, q in ((a, b), (b, a)) for x, y in zip(p, q)
                  if not x.is_zero and not y.is_zero and y.exp - x.exp < 0]
        assert sorted(rule) == sorted(events) and len(events) > 100
        # the pass chains each endpoint's signature group with the arcs
        # that cross the origin
        monkeypatch.setattr(
            connectivity_module, "chain", lambda *groups: (visits.append(j) or j for j in chain(*groups))
        )
        assert len(components(seg)) > 1 and visits == []

    def test_sweep_arcs_are_keyed_without_the_comprehension(self, monkeypatch):
        # a sweep arc's chart values are radii, never negative, so
        # components keys its ends and its interior from the chart's first
        # rays; the per-coordinate comprehension serves only arcs with a
        # negative chart value, as on a geodesic that crosses the origin
        calls = []
        for name in ("_chart_key", "_interior_signature"):
            helper = getattr(connectivity_module, name)
            monkeypatch.setattr(
                connectivity_module, name, lambda *args, helper=helper: calls.append(1) or helper(*args)
            )
        rng = random.Random(128)
        a, b = random_svector(rng, 128), random_svector(rng, 128)
        seg = semimodule_segment(a, b)
        arcs = [piece for piece in seg.pieces if isinstance(piece, ArcPiece)]
        # some ends sit at the origin in a coordinate (b is zero there)
        assert any(0.0 in arc.start for arc in arcs)
        components(seg)
        assert calls == []
        line = geometric_segment(a, b)
        assert line.breakpoint_params
        assert components(as_segment_set(line)) == [list(range(len(line.vertices) - 1))]
        assert calls
