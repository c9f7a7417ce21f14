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
import smaxplus.boxmax as boxmax_module
from smaxplus.algebra import RAYS
from smaxplus.boxmax import _sample, _truncate
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

    def test_cloud_size_counts_coordinates(self, monkeypatch):
        # D = 1 from the first factor; the other two cut [1, 2] into 1502
        # samples each: about 2.26 million vectors under the 5 million
        # limit, but 6.8 million coordinates, refused before any is sampled
        sampled = []
        monkeypatch.setattr(boxmax_module, "_sample", lambda *args: sampled.append(args))
        factor = RaySet(plus=((1.0, 2.0),))
        x = SVector((SElem.pos(math.log(3.0)), SElem.pos(math.log(1.5)), SElem.pos(math.log(1.5))))
        with pytest.raises(ValueError, match="too large"):
            project_box_max(x, BoxSet((factor, factor, factor)), 2, 1 / 1500)
        assert sampled == []


def test_max_magnitude_truncates_the_factors():
    C = RaySet(plus=((2.0, 3.0), (10.0, 11.0)))
    x = SVector((SElem.pos(math.log(9.0)),))
    assert project_box_max(x, BoxSet((C,))).distance == pytest.approx(1.0)
    r = project_box_max(x, BoxSet((C,)), max_magnitude=5.0)
    assert r.distance == pytest.approx(6.0)
    assert r.points == (SVector((point_on_ray(Sign.PLUS, 3.0),)),)
    with pytest.raises(ValueError, match="magnitude"):
        project_box_max(x, BoxSet((C,)), max_magnitude=1.0)


def test_the_cloud_skips_the_validating_constructors(monkeypatch):
    """Every argmin is a value the kernels computed (a sample at a positive
    finite radius, or a tuple of such elements), so the result is built
    without running ``SElem.__init__`` or ``SVector.__init__`` once."""
    x = SVector((SElem.pos(0.2), SElem.neg(-0.5)))
    A = BoxSet((
        RaySet(plus=((0.5, 2.0),), balanced=((0.0, 1.0),)),
        RaySet(minus=((1.5, 3.0),), plus=((0.2, 0.8),)),
    ))
    calls = []
    for cls in (SElem, SVector):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            calls.append(_name)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    r = project_box_max(x, A, 2, RESOLUTION)
    assert len(r.points) > 100
    assert calls == []
    # the same values through the validating constructors
    rebuilt = tuple(SVector(tuple(SElem(c.sign, c.exp) for c in p)) for p in r.points)
    assert rebuilt == r.points and len(calls) == 3 * len(r.points)


def test_an_infinite_resolution_is_refused():
    # its first sample would be lo + 0 * inf = nan
    x = SVector((SElem.pos(0.0), SElem.pos(0.0)))
    A = BoxSet((RaySet(plus=((5.0, 5.0),)), RaySet(plus=((0.5, 2.0),))))
    with pytest.raises(ValueError, match="resolution must be finite"):
        project_box_max(x, A, 2, math.inf)


def _reference_sample(exact, cut, step):
    """The argmin sampler as first written: every sample keyed by its sort
    key in one dict (the first element per key kept), then sorted."""
    points = {e.sort_key(): e for e in exact}
    for ray, lo, hi in cut:
        order = RAYS.index(ray)
        first = 0
        if lo == 0.0:
            points.setdefault(ZERO.sort_key(), ZERO)
            first = 1
        ms = [min(lo + i * step, hi) for i in range(first, int((hi - lo) / step) + 1)]
        if hi:
            ms.append(hi)
        for m in ms:
            key = (order, math.log(m))
            if key not in points:
                points[key] = SElem(ray, key[1])
    return [points[key] for key in sorted(points)]


def _random_cut(rng, step):
    """Ball-cut intervals (ray, lo, hi) as ``_ball_cut`` lists them: in
    ``RAYS`` order, ascending and disjoint on each ray.  Some start at the
    origin, some sit near 1e15 (ulp 0.125, so samples stall), and some end
    an ulp below a sample, where ``lo + k * step`` rounds above the end."""
    cut = []
    for ray in RAYS:
        if rng.random() < 0.35:
            continue
        cursor = 1e15 - 8.0 if rng.random() < 0.1 else 0.0
        for k in range(rng.choice((1, 1, 2, 3))):
            lo = cursor
            if k or cursor or rng.random() < 0.7:
                lo += rng.choice((step, 1.0)) * rng.uniform(0.01, 3.0)
            hi = lo + step * rng.choice((0.0, rng.uniform(0.0, 20.0), rng.uniform(0.0, 120.0)))
            if rng.random() < 0.3:
                hi = max(lo, math.nextafter(lo + math.ceil((hi - lo) / step) * step, 0.0))
            cut.append((ray, lo, hi))
            cursor = hi
    return cut


def _random_exact(rng, cut, step):
    """A factor's exact points as ``_nearest`` returns them: deduplicated and
    sorted.  Off the sample grid, on it, at an interval end, or outside the
    cut altogether."""
    pts = set()
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.randrange(5)
        if kind == 0:
            pts.add(ZERO)
        elif kind == 4 or not cut:
            pts.add(SElem(rng.choice(RAYS), rng.uniform(-3.0, 2.0)))
        else:
            ray, lo, hi = rng.choice(cut)
            m = (rng.uniform(lo, hi), lo + rng.randint(0, int((hi - lo) / step)) * step, hi)[kind - 1]
            if 0.0 < m <= hi:
                pts.add(SElem(ray, math.log(m)))
    return tuple(sorted(pts, key=SElem.sort_key))


def test_sampler_matches_the_dict_and_sort_reference():
    """Seeded cuts (about 5000 intervals) against ``_reference_sample``: the
    same elements in the same order, with the same exponents bit for bit.
    The counts show that every float corner of the sampler was reached."""
    rng = random.Random(15)
    seen = dict.fromkeys(
        ("off grid", "two on one ray", "origin beside balanced", "near 1e15", "stalled", "equal exps", "clamp"), 0
    )
    intervals = 0
    for _ in range(1600):
        step = rng.choice((0.37, 0.05, 0.01, 1e-3))
        cut = _random_cut(rng, step)
        exact = _random_exact(rng, cut, step)
        got = list(_sample(exact, cut, step))
        want = _reference_sample(exact, cut, step)
        assert [(e.sign, repr(e.exp)) for e in got] == [(e.sign, repr(e.exp)) for e in want], (exact, cut, step)
        intervals += len(cut)
        rays = [ray for ray, _, _ in cut]
        seen["two on one ray"] += any(rays.count(ray) > 1 for ray in RAYS)
        seen["origin beside balanced"] += any(r is not Sign.BALANCED and lo == 0.0 for r, lo, _ in cut) and any(
            r is Sign.BALANCED and hi > 0.0 for r, _, hi in cut
        )
        grid = set()
        for ray, lo, hi in cut:
            ms = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
            seen["near 1e15"] += hi > 1e14
            seen["clamp"] += any(m > hi for m in ms)
            seen["stalled"] += len(set(ms)) < len(ms)
            kept = [min(m, hi) for m in ms if m > 0.0] + [hi]
            seen["equal exps"] += len({math.log(m) for m in kept if m}) < len(set(kept) - {0.0})
            grid.update((ray, math.log(m)) for m in kept if m)
        seen["off grid"] += any(not e.is_zero and (e.sign, e.exp) not in grid for e in exact)
    assert intervals >= 5000 and min(seen.values()) >= 40, (intervals, seen)


def test_truncate_matches_the_rebuilding_reference():
    """``_truncate`` against rebuilding every ray set, with bounds below,
    at and above interval ends: equal sets, the same intervals."""
    rng = random.Random(16)
    cuts = keeps = 0
    for _ in range(2000):
        C = random_ray_set(rng)
        ends = [v for ray in RAYS for iv in C.intervals(ray) for v in iv if v < math.inf]
        top = max(ends + [0.0])
        bound = rng.choice((rng.choice(ends + [0.0]), top, top)) * rng.choice((1.0, 0.5, 2.0, math.nextafter(1.0, 2.0)))
        want = RaySet(*(
            tuple((lo, min(hi, bound)) for lo, hi in C.intervals(ray) if lo <= bound) for ray in RAYS
        ))
        got = _truncate(C, bound)
        assert got == want and got.to_json() == want.to_json(), (C, bound)
        if any(hi > bound for ray in RAYS for _, hi in C.intervals(ray)):
            cuts += 1
        else:
            keeps += 1
    assert cuts >= 500 and keeps >= 500
