"""Embedding, base metrics and the six product metrics."""

import cmath
import copy
import math
import pickle
import random
import re
import sys

import numpy
import pytest

from smaxplus import (
    D1,
    D2,
    MagnitudeRangeWarning,
    MetricId,
    RaySet,
    SElem,
    SVector,
    Sign,
    THETA,
    ZERO,
    d1,
    d2,
    magnitude,
    parse_metric_id,
    phi,
    phi_n,
    project_ray,
    rho,
    s_oplus,
    s_otimes,
)

from smaxplus.metrics import _CROSS, cross_distance

from instances import random_selem, random_svector

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def chord(a, b):
    return abs(phi(a) - phi(b))


class TestEmbedding:
    def test_examples(self):
        assert phi(ZERO) == 0j
        assert phi(SElem.bal(0)) == 1 + 0j
        z = phi(SElem.pos(0))
        assert abs(z - complex(-0.5, math.sqrt(3) / 2)) < 1e-15

    def test_rays_at_120_degrees(self):
        zp, zm, zb = phi(SElem.pos(0)), phi(SElem.neg(0)), phi(SElem.bal(0))
        for z in (zp, zm, zb):
            assert abs(abs(z) - 1.0) < 1e-15
        assert abs(cmath.phase(zp) - 2 * math.pi / 3) < 1e-15
        assert abs(cmath.phase(zm) + 2 * math.pi / 3) < 1e-15
        assert cmath.phase(zb) == 0.0

    def test_injective_on_samples(self):
        rng = random.Random(7)
        pts = [random_selem(rng) for _ in range(200)]
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                if a != b:
                    assert abs(phi(a) - phi(b)) > 0

    def test_phi_n(self):
        assert phi_n(SVector((ZERO, ZERO))) == (0j, 0j)
        v = SVector((SElem.pos(1.5),))
        assert phi_n(v) == (phi(v[0]),)
        a = SVector((SElem.pos(0), SElem.neg(LN3), SElem.bal(LN2)))
        za = phi_n(a)
        assert abs(za[0] - THETA) < 1e-15
        assert abs(za[1] - 3 * THETA * THETA) < 1e-14
        assert abs(za[2] - 2) < 1e-15

    def test_magnitude_overflow_warns_and_saturates(self):
        with pytest.warns(MagnitudeRangeWarning):
            m = magnitude(SElem.pos(1e4))
        assert math.isfinite(m)

    def test_magnitude_underflow_warns(self):
        # e**-800 rounds to 0.0: the point lands on the origin, which is
        # reported as overflow is
        with pytest.warns(MagnitudeRangeWarning, match="underflow"):
            m = magnitude(SElem.pos(-800))
        assert m == 0.0

    def test_magnitude_of_an_int_below_the_float_range(self):
        # math.exp cannot take the int; the radius underflows as above
        with pytest.warns(MagnitudeRangeWarning, match="underflow"):
            m = magnitude(SElem.pos(-10**400))
        assert m == 0.0


class TestBaseMetrics:
    def test_d1_examples(self):
        r, s = 0.3, 1.1
        assert d1(SElem.pos(r), SElem.pos(s)) == pytest.approx(abs(math.exp(r) - math.exp(s)), abs=1e-15)
        assert d1(SElem.pos(0), SElem.neg(0)) == pytest.approx(math.sqrt(3), abs=1e-15)
        assert d1(ZERO, SElem.bal(r)) == pytest.approx(math.exp(r), abs=1e-15)

    def test_d2_examples(self):
        assert d2(SElem.pos(0), SElem.neg(LN3)) == pytest.approx(4.0, abs=1e-12)
        a = SElem.neg(0.7)
        assert d2(a, a) == 0.0
        assert d2(ZERO, SElem.pos(1.2)) == pytest.approx(math.exp(1.2), abs=1e-12)

    def test_d1_is_chord_length(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = random_selem(rng), random_selem(rng)
            c = chord(a, b)
            assert d1(a, b) == pytest.approx(c, rel=1e-12, abs=1e-15)

    def test_d1_le_d2_with_equality_cases(self):
        rng = random.Random(12)
        for _ in range(500):
            a, b = random_selem(rng), random_selem(rng)
            assert d1(a, b) <= d2(a, b) + 1e-12
            if a.sign is b.sign or a.is_zero or b.is_zero:
                assert d1(a, b) == pytest.approx(d2(a, b), abs=1e-12)

    def test_d2_d1_equivalence_constant(self):
        # the path metric exceeds the chord by at most 2/sqrt(3)
        rng = random.Random(13)
        worst = 0.0
        for _ in range(2000):
            a, b = random_selem(rng), random_selem(rng)
            c = d1(a, b)
            if c > 0:
                worst = max(worst, d2(a, b) / c)
        assert worst <= 2 / math.sqrt(3) + 1e-9

    def test_metric_axioms(self):
        rng = random.Random(14)
        for _ in range(2000):
            a, b, c = (random_selem(rng) for _ in range(3))
            for d in (d1, d2):
                assert d(a, b) == d(b, a)
                assert d(a, a) == 0.0
                assert (d(a, b) == 0.0) == (a == b) or d(a, b) < 1e-15
                assert d(a, c) <= d(a, b) + d(b, c) + 1e-9

    def test_d2_matches_isometric_models(self):
        # two independent planar models of the path metric: the coordinate
        # cross with the taxicab metric, and a folded graph with the max metric
        def cross_model(x):
            m = magnitude(x)
            if x.sign is Sign.PLUS:
                return (m, 0.0)
            if x.sign is Sign.MINUS:
                return (-m, 0.0)
            return (0.0, m)

        def fold_model(x):
            m = magnitude(x)
            if x.sign is Sign.PLUS:
                return (m, m)
            if x.sign is Sign.MINUS:
                return (-m, m)
            return (0.0, -m)

        rng = random.Random(15)
        for _ in range(1000):
            a, b = random_selem(rng), random_selem(rng)
            pa, pb = cross_model(a), cross_model(b)
            taxi = abs(pa[0] - pb[0]) + abs(pa[1] - pb[1])
            qa, qb = fold_model(a), fold_model(b)
            cheb = max(abs(qa[0] - qb[0]), abs(qa[1] - qb[1]))
            assert d2(a, b) == pytest.approx(taxi, rel=1e-12, abs=1e-12)
            assert d2(a, b) == pytest.approx(cheb, rel=1e-12, abs=1e-12)

    def test_chord_distance_beyond_the_square_range(self):
        # m * m overflows past about 1.3e154 although the distance fits
        big = math.exp(400.0)
        assert d1(SElem.pos(400.0), SElem.neg(0.0)) == pytest.approx(big, rel=1e-15)
        assert d1(SElem.pos(400.0), SElem.bal(399.0)) == pytest.approx(
            big * math.sqrt(1 + math.exp(-1) + math.exp(-2)), rel=1e-15
        )
        r = project_ray(SElem.pos(400.0), RaySet(minus=((1.0, 2.0),)), 1)
        assert r.distance == pytest.approx(big, rel=1e-15)
        assert r.points == (SElem.neg(0.0),)
        # results in range keep the direct form's floats
        assert cross_distance(3.0, 4.0, 1) == math.sqrt(9.0 + 16.0 + 12.0)

    def test_chord_distance_below_the_square_range(self):
        # m * m underflows to 0.0 below about 1.5e-154 although the distance
        # is a normal float
        small = math.exp(-460.0)
        d = d1(SElem.pos(-460.0), SElem.neg(-470.0))
        assert d > 0.0
        assert d == pytest.approx(small * math.sqrt(1 + math.exp(-10) + math.exp(-20)), rel=1e-15, abs=0.0)
        r = project_ray(SElem.pos(-460.0), RaySet(minus=((1e-205, 1e-204),)), 1)
        assert r.distance > 0.0
        assert r.distance == pytest.approx(small, rel=1e-4, abs=0.0)
        assert cross_distance(0.0, 0.0, 1) == 0.0

    def test_the_cross_kernel_table_is_cross_distance(self):
        # bit for bit, at 0, subnormals and radii near the float maximum,
        # where the chord's squares leave the float range and it rescales
        tiny, huge = 5e-324, sys.float_info.max
        specials = [0.0, tiny, 1e-310, 2.2e-308, 1e-160, 1.0, 1e154, 1e200, huge / 3, huge]
        rng = random.Random(35)
        radii = specials + [math.exp(rng.uniform(-744.0, 709.0)) for _ in range(200)]
        rescaled = 0
        for m in radii:
            for mp in specials + rng.sample(radii, 20):
                for base in (1, 2):
                    assert _CROSS[base](m, mp).hex() == cross_distance(m, mp, base).hex(), (m, mp, base)
                naive = math.sqrt(m * m + mp * mp + m * mp)
                rescaled += naive == math.inf or 0.0 < max(m, mp) and naive < math.sqrt(sys.float_info.min)
        assert rescaled > 1000


class TestProductMetrics:
    def test_metric_id_codes(self):
        assert parse_metric_id("rho01") == MetricId("max", 1)
        assert parse_metric_id("rho22") == MetricId("sum", 2)
        assert parse_metric_id("D1") == D1 == MetricId("euclid", 1)
        assert parse_metric_id("d2") == D2 == MetricId("euclid", 2)
        assert D2.code == "rho12"
        with pytest.raises(ValueError):
            parse_metric_id("rho31")
        with pytest.raises(ValueError):
            MetricId("median", 1)
        with pytest.raises(ValueError):
            MetricId("max", 3)

    @pytest.mark.parametrize("base", [True, False])
    def test_a_bool_base_is_refused(self, base):
        # True == 1, but a flag is no base metric
        with pytest.raises(ValueError, match=f"^unknown base metric {base}$"):
            MetricId("sum", base)

    @pytest.mark.parametrize("base", [numpy.True_, numpy.int64(2), numpy.int64(1)], ids=repr)
    def test_a_base_of_no_int_or_float_type_is_refused(self, base):
        # numpy's bool and integer scalars equal 1 or 2 but subclass neither
        with pytest.raises(ValueError, match=f"^unknown base metric {re.escape(repr(base))}$"):
            MetricId("sum", base)

    def test_equal_ids_print_alike(self):
        for base in (2, 2.0, numpy.float64(2.0)):
            mid = MetricId("sum", base)
            assert mid == MetricId("sum", 2) and hash(mid) == hash(MetricId("sum", 2))
            assert type(mid.base) is int
            assert mid.code == repr(mid) == "rho22"

    def test_worked_triple(self):
        a = SVector((SElem.pos(0), SElem.neg(LN3), SElem.bal(LN2)))
        b = SVector((SElem.neg(0), SElem.bal(0), SElem.pos(0)))
        assert rho(D2, a, b) == pytest.approx(math.sqrt(29), rel=1e-12)
        assert rho(parse_metric_id("rho22"), a, b) == pytest.approx(9.0, rel=1e-12)
        assert rho(parse_metric_id("rho02"), a, b) == pytest.approx(4.0, rel=1e-12)

    def test_identity_and_mismatch(self):
        x = SVector((SElem.pos(1), SElem.neg(2)))
        for k in "012":
            for j in "12":
                assert rho(parse_metric_id(f"rho{k}{j}"), x, x) == 0.0
        with pytest.raises(ValueError):
            rho(D2, x, SVector((ZERO,)))

    def test_euclid_combine_beyond_the_square_range(self):
        # d * d overflows past about 1.3e154 although the distance fits
        x = SVector((SElem.pos(500), SElem.pos(0)))
        y = SVector((SElem.neg(500), SElem.pos(0)))
        d = rho(parse_metric_id("rho21"), x, y)
        assert d == pytest.approx(math.exp(500) * math.sqrt(3), rel=1e-15)
        assert rho(parse_metric_id("rho11"), x, y) == pytest.approx(d, rel=1e-15)
        # results in range keep the direct form's floats
        u = SVector((SElem.pos(1), SElem.neg(2), SElem.bal(0)))
        v = SVector((SElem.neg(0), SElem.neg(1), ZERO))
        ds = [d1(a, b) for a, b in zip(u, v)]
        assert rho(D1, u, v) == math.sqrt(sum(d * d for d in ds))

    def test_euclid_combine_below_the_square_range(self):
        # d * d underflows to 0.0 below about 1.5e-154 for distinct points
        x, y = SVector((SElem.pos(-400),)), SVector((SElem.pos(-401),))
        d = rho(parse_metric_id("rho01"), x, y)
        assert d == pytest.approx(math.exp(-400) - math.exp(-401), rel=1e-15)
        assert rho(parse_metric_id("rho11"), x, y) == d
        assert rho(parse_metric_id("rho12"), x, y) == d
        assert rho(D1, x, x) == 0.0

    def test_axioms_random(self):
        rng = random.Random(16)
        mids = [parse_metric_id(f"rho{k}{j}") for k in "012" for j in "12"]
        for _ in range(300):
            n = rng.randint(1, 4)
            x, y, z = (random_svector(rng, n) for _ in range(3))
            for mid in mids:
                assert rho(mid, x, y) == rho(mid, y, x)
                assert rho(mid, x, z) <= rho(mid, x, y) + rho(mid, y, z) + 1e-9


class TestOperationContinuity:
    def test_product_is_continuous(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = random_selem(rng, zero_prob=0.0), random_selem(rng, zero_prob=0.0)
            base = s_otimes(a, b)
            prev = math.inf
            for delta in (1e-2, 1e-4, 1e-6):
                a2 = SElem(a.sign, a.exp + delta)
                b2 = SElem(b.sign, b.exp + delta)
                gap = d2(base, s_otimes(a2, b2))
                assert gap <= prev + 1e-15
                # shifting both magnitudes by delta scales the product by
                # e**(2 delta), so the distance is m (e**(2 delta) - 1)
                assert gap <= magnitude(base) * (math.exp(2 * delta) - 1) + 1e-12
                prev = gap

    def test_sum_is_discontinuous(self):
        # approaching a balanced tie from below stays balanced, from above
        # jumps to the signed value; the two limit points stay apart
        r = 0.5
        low_limit = SElem.bal(r)
        high_limit = SElem.pos(r)
        for k in (10, 1000, 10**6):
            below = s_oplus(SElem.pos(r - 1.0 / k), SElem.bal(r))
            above = s_oplus(SElem.pos(r + 1.0 / k), SElem.bal(r))
            assert d2(below, low_limit) == 0.0
            assert d2(above, high_limit) <= math.exp(r) * (math.exp(1.0 / k) - 1) + 1e-12
        assert d2(low_limit, high_limit) == pytest.approx(2 * math.exp(r), rel=1e-12)


def test_svector_json_round_trip():
    v = SVector((SElem.pos(1), ZERO, SElem.bal(-0.5)))
    assert SVector.from_json(v.to_json()) == v


class TestSVectorContract:
    V = SVector((SElem.pos(1), ZERO, SElem.bal(-0.5)))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.V.coords = (ZERO,)
        with pytest.raises(AttributeError):
            del self.V.coords
        assert self.V == SVector((SElem.pos(1.0), ZERO, SElem.bal(-0.5)))

    def test_equality_and_hash(self):
        w = SVector([SElem.pos(1.0), ZERO, SElem.bal(-0.5)])
        assert w == self.V and hash(w) == hash(self.V)
        assert self.V != self.V.coords
        assert self.V.coords != self.V
        assert SVector((ZERO,)) != SVector((ZERO, ZERO))

    def test_pickle_and_deepcopy(self):
        for w in (pickle.loads(pickle.dumps(self.V)), copy.deepcopy(self.V), copy.copy(self.V)):
            assert w == self.V and type(w.coords) is tuple
            assert w.to_json() == self.V.to_json()

    def test_constructor_checks(self):
        with pytest.raises(ValueError):
            SVector(())
        with pytest.raises(TypeError):
            SVector((1.0,))
        with pytest.raises(TypeError):
            SVector((ZERO, (Sign.PLUS, 1.0)))
