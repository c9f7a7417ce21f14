"""The exact max-combine box projection against the grid oracle, and the
float pitfalls of turning a distance back into a ball radius."""

import math
import random

import numpy as np
import pytest

from smaxplus import (
    BoxSet,
    MetricId,
    RaySet,
    SElem,
    SVector,
    Sign,
    ZERO,
    magnitude,
    point_on_ray,
    project_box_max,
    project_ray,
    rho,
)
from smaxplus.algebra import RAYS
from smaxplus.metrics import cross_distance

from grid_oracle import GridSpec, grid_project
from instances import random_ray_set, random_svector

RESOLUTION = 1e-2
REL = 1e-9


def _radial(elems):
    """Ray index (-1 for the origin, which lies on every ray) and radius."""
    ray = np.array([-1 if e.is_zero else RAYS.index(e.sign) for e in elems])
    return ray, np.array([magnitude(e) for e in elems])


def _farthest(qs, ps) -> float:
    """The largest path distance from a point of ``qs`` to its nearest point
    of ``ps`` (one coordinate)."""
    if not qs:
        return 0.0
    (qr, qm), (pr, pm) = _radial(qs), _radial(ps)
    same = (qr[:, None] == pr[None, :]) | (qr[:, None] < 0) | (pr[None, :] < 0)
    d = np.where(same, np.abs(qm[:, None] - pm[None, :]), qm[:, None] + pm[None, :])
    return float(d.min(axis=1).max())


def _coords(points, i):
    return list({p[i] for p in points})


def test_against_the_grid():
    """Per instance: the grid's distance is at most n grid steps above the
    exact one; every returned point is in the box and attains it; every
    returned point is one step from a grid argmin; and every grid argmin
    that attains the exact distance is one step from a returned point.

    Grid argmins beyond the exact distance are the grid's tie slack (up to
    n steps above its own best), not argmins, and can lie on another
    interval entirely, so only the attaining ones are held to the cloud.
    The max combine makes both clouds products of per-coordinate clouds, so
    each check runs per coordinate.
    """
    rng = random.Random(3)
    g = GridSpec(resolution=RESOLUTION, max_magnitude=21.0)  # above e**3
    held = 0
    for k in range(60):
        n, base = 1 + k % 2, 1 + (k // 2) % 2
        box = BoxSet(tuple(random_ray_set(rng) for _ in range(n)))
        x = random_svector(rng, n)
        mid = MetricId("max", base)
        exact = project_box_max(x, box, base, RESOLUTION)
        D = exact.distance
        assert D == max(project_ray(xi, Ci, base).distance for xi, Ci in zip(x, box.factors))
        grid = grid_project(x, box, mid, g)
        assert 0.0 <= grid.distance - D <= RESOLUTION * n, k
        for p in exact.points:
            assert all(C.contains(c) for c, C in zip(p, box.factors)), (k, p)
            assert math.isclose(rho(mid, x, p), D, rel_tol=REL, abs_tol=1e-12), (k, p)
        attaining = [q for q in grid.points if rho(mid, x, q) <= D * (1 + REL) + 1e-12]
        held += len(attaining)
        for i in range(n):
            assert _farthest(_coords(exact.points, i), _coords(grid.points, i)) <= RESOLUTION, k
            assert _farthest(_coords(attaining, i), _coords(exact.points, i)) <= RESOLUTION, k
    assert held > 1000


def _naive_chord_reach(mx: float, D: float) -> float:
    """The chord-metric ball radius on another ray, (-mx + sqrt(4 D^2 -
    3 mx^2)) / 2, evaluated as written."""
    return (-mx + math.sqrt(4 * D * D - 3 * mx * mx)) / 2


class TestPinnedPitfalls:
    def test_origin_at_distance_mx(self):
        # the origin is the nearest point and D = mx; the written radius lands
        # below 0 and would lose it
        x = SElem.pos(1.5)
        mx = magnitude(x)
        assert _naive_chord_reach(mx, mx) < 0.0
        origin = RaySet(minus=((0.0, 3.0),))
        for base in (1, 2):
            r = project_box_max(SVector((x,)), BoxSet((origin,)), base)
            assert r.distance == mx
            assert r.points == (SVector((ZERO,)),) and r.is_singleton
            # the same origin in a factor that does not bind: D comes from
            # the first factor and equals the second query's radius
            y = SElem(Sign.MINUS, x.exp)
            near_own = RaySet(minus=((mx * 1.5, mx * 2.0),), plus=((0.0, 3.0),))
            r = project_box_max(SVector((x, y)), BoxSet((origin, near_own)), base, 0.1)
            assert r.distance == mx
            assert ZERO in {p[1] for p in r.points}

    def test_chord_argmin_at_a_low_end(self):
        # the nearest point is an interval's low end on another ray; the
        # written radius lands an ulp below it
        x, lo = SElem.pos(1.5), 2.0
        assert _naive_chord_reach(magnitude(x), cross_distance(magnitude(x), lo, 1)) < lo
        C = RaySet(minus=((lo, 5.0),))
        r = project_box_max(SVector((x,)), BoxSet((C,)), 1)
        assert r.distance == project_ray(x, C, 1).distance
        assert r.points == (SVector((point_on_ray(Sign.MINUS, lo),)),)
        # with a second factor inside the ball, the low end stays the only
        # first coordinate
        wide = RaySet(plus=((0.0, 3.0),))
        r = project_box_max(SVector((x, ZERO)), BoxSet((C, wide)), 1, 0.5)
        assert {p[0] for p in r.points} == {point_on_ray(Sign.MINUS, lo)}
        assert not r.is_singleton

    def test_cloud_size_is_refused_before_it_is_built(self):
        # D = 1e6 from the first factor puts the whole second factor in the
        # ball: 1e6 / 1e-6 = 1e12 samples, refused from the counts alone
        far = RaySet(plus=((1e6 + 1.0, 1e6 + 1.0),))
        wide = RaySet(plus=((0.0, 1e6),))
        x = SVector((SElem.pos(0.0), SElem.pos(0.0)))
        with pytest.raises(ValueError, match="too large"):
            project_box_max(x, BoxSet((far, wide)), 2, 1e-6)
        # 101 samples and the second factor's own nearest point, m = 1
        r = project_box_max(x, BoxSet((far, wide)), 2, 1e4)
        assert r.distance == 1e6 and len(r.points) == 102


def test_max_magnitude_truncates_the_factors():
    C = RaySet(plus=((2.0, 3.0), (10.0, 11.0)))
    x = SVector((SElem.pos(math.log(9.0)),))
    assert project_box_max(x, BoxSet((C,))).distance == pytest.approx(1.0)
    r = project_box_max(x, BoxSet((C,)), max_magnitude=5.0)
    assert r.distance == pytest.approx(6.0)
    assert r.points == (SVector((point_on_ray(Sign.PLUS, 3.0),)),)
    with pytest.raises(ValueError, match="magnitude"):
        project_box_max(x, BoxSet((C,)), max_magnitude=1.0)
