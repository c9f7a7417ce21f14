"""Acceptance suite: one test per criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; the suite pins every tolerance stated in the criteria.
"""

import itertools
import math
import random
import time

import pytest

from smaxplus import (
    BoxSet,
    MetricId,
    Pair,
    RaySet,
    SElem,
    SVector,
    Sign,
    ZERO,
    classify,
    d1,
    d2,
    eval_expr,
    ext_otimes,
    find_multipoint_witness,
    geometric_segment,
    lift,
    pair_balance,
    pair_minus,
    pair_oplus,
    pair_otimes,
    parse_metric_id,
    project_box,
    project_ray,
    project_segment_set,
    rho,
    s_abs,
    s_oplus,
    s_otimes,
    semimodule_segment,
)
from smaxplus.connectivity import component_count, isolated_points
from smaxplus.segments import ArcPiece

from grid_oracle import GridSpec, grid_project, grid_segment_sm
from instances import (
    hausdorff_phi,
    random_connected_ray_set,
    random_disconnected_ray_set,
    random_ray_set,
    random_selem,
    random_svector,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)
TRIPLE = RaySet(plus=((1, 1),), minus=((1, 1),), balanced=((1, 1),))


def V(*elems):
    return SVector(tuple(elems))


def test_criterion_01_expression_evaluates_exactly():
    source = "2 + (3^5 + 2^-1) * 1 + eps^2"
    got = eval_expr(source, mode="mpa")
    assert got == SElem.pos(16)
    assert got.exp == 16 and isinstance(got.exp, int)
    runtime = min(
        _timed(lambda: eval_expr(source, mode="mpa")) for _ in range(5)
    )
    assert runtime < 1e-3, f"evaluation took {runtime * 1e3:.3f} ms"
    print(f"criterion 1: value 16 exact, runtime {runtime * 1e6:.1f} us")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_worked_geodesic():
    a = V(SElem.pos(0), SElem.neg(LN3), SElem.bal(LN2))
    b = V(SElem.neg(0), SElem.bal(0), SElem.pos(0))
    line = geometric_segment(a, b)
    expect_t = (0.5, 2.0 / 3.0, 0.75)
    assert len(line.breakpoint_params) == 3
    for got, want in zip(line.breakpoint_params, expect_t):
        assert abs(got - want) <= 1e-12
    expect_vertices = ((0.0, 1.0, 0.5), (-1 / 3, 1 / 3, 0.0), (-0.5, 0.0, -0.25))
    for got, want in zip(line.vertices[1:-1], expect_vertices):
        for g_, w_ in zip(got, want):
            assert abs(g_ - w_) <= 1e-12
    root29 = math.sqrt(29.0)
    assert abs(line.length - root29) <= 1e-12 * root29
    independent = rho(parse_metric_id("D2"), a, b)
    assert abs(independent - line.length) <= 1e-12 * root29
    print(f"criterion 2: breakpoints {line.breakpoint_params}, length {line.length:.12f}")


def test_criterion_03_segment_closed_forms_match_sweep():
    g = GridSpec(resolution=1e-3, max_magnitude=math.exp(3.0))
    levels = [0.0, LN2, 1.0, 2.0]
    cases = []
    for r in levels:
        cases.append((V(SElem.pos(r)), V(SElem.neg(r))))
        cases.append((V(SElem.pos(r)), V(SElem.bal(r))))
    for r, s in itertools.combinations(levels, 2):
        cases.append((V(SElem.neg(r)), V(SElem.pos(s))))
        cases.append((V(SElem.bal(r)), V(SElem.pos(s))))
        cases.append((V(SElem.neg(r)), V(SElem.bal(s))))
        cases.append((V(SElem.pos(r)), V(SElem.pos(s))))
    worst = 0.0
    for a, b in cases:
        seg = semimodule_segment(a, b)
        cloud = grid_segment_sm(a, b, g)
        gap = hausdorff_phi(seg.sample(2.5e-4), cloud)
        worst = max(worst, gap)
        assert gap <= 2e-3, (a, b, gap)
    print(f"criterion 3: {len(cases)} segment cases, worst Hausdorff {worst:.2e}")


def test_criterion_04_non_closed_segment():
    seg = semimodule_segment(V(SElem.pos(1)), V(SElem.neg(0)))
    assert component_count(seg) == 3
    arcs = [p for p in seg.pieces if isinstance(p, ArcPiece)]
    assert len(arcs) == 1
    arc = arcs[0]
    open_end_value = min(abs(arc.start[0]), abs(arc.end[0]))
    closed = arc.closed_lo if abs(arc.start[0]) == open_end_value else arc.closed_hi
    assert not closed, "the arc must be open at its lower end"
    for base in (1, 2):
        r = project_segment_set(ZERO, seg, base)
        assert set(r.points) == {SElem.neg(0), SElem.bal(0)}
        assert abs(r.distance - 1.0) <= 1e-12
    print("criterion 4: 3 components, open lower end, projection {m:0, b:0}")


def test_criterion_05_five_component_segment():
    a = V(SElem.pos(0), SElem.neg(1))
    b = V(SElem.neg(1), SElem.pos(0))
    seg = semimodule_segment(a, b)
    assert component_count(seg) == 5
    iso = isolated_points(seg)
    assert len(iso) == 4
    print("criterion 5: 5 components with 4 isolated points")


def test_criterion_06_triple_power_projections():
    r = project_ray(ZERO, TRIPLE, 2)
    assert len(r.points) == 3
    all_codes = [f"rho{k}{j}" for k in "012" for j in "12"]
    analytic_codes = [f"rho{k}{j}" for k in "12" for j in "12"]
    g = GridSpec(resolution=1e-2, max_magnitude=4.0)
    for n in (1, 2, 3):
        box = BoxSet((TRIPLE,) * n)
        x0 = V(*(ZERO,) * n)
        for code in all_codes:
            got = grid_project(x0, box, parse_metric_id(code), g)
            assert len(got.points) == 3**n, (n, code)
        for code in analytic_codes:
            got = project_box(x0, box, parse_metric_id(code))
            assert len(got.points) == 3**n, (n, code)
    print("criterion 6: 3^n argmins for n in {1,2,3}, grid (all six) and analytic")


def test_criterion_07_unique_projection_suite():
    t0 = time.perf_counter()
    rng = random.Random(77)
    for _ in range(50):
        C = random_connected_ray_set(rng)
        for _ in range(10_000):
            x = random_selem(rng)
            r1 = project_ray(x, C, 1)
            r2 = project_ray(x, C, 2)
            assert r1.is_singleton and r2.is_singleton
            assert r1.points == r2.points
    for _ in range(50):
        C = random_disconnected_ray_set(rng)
        for base in (1, 2):
            w = find_multipoint_witness(C, base)
            assert w is not None, C
            assert len(project_ray(w, C, base).points) >= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    print(f"criterion 7: 50x10^4 singleton queries + 50 witnesses in {elapsed:.1f} s")


def test_criterion_08_product_factorization():
    rng = random.Random(78)
    g = GridSpec(resolution=1e-3, max_magnitude=6.0)
    codes = [f"rho{k}{j}" for k in "12" for j in "12"]
    instances = 0
    for _ in range(25):
        for n in (2, 3):
            box = BoxSet(tuple(_modest_ray_set(rng) for _ in range(n)))
            x = random_svector(rng, n)
            for code in codes:
                mid = parse_metric_id(code)
                joint = grid_project(x, box, mid, g)
                analytic = project_box(x, box, mid)
                assert abs(joint.distance - analytic.distance) <= g.resolution * n, (
                    code,
                    joint.distance,
                    analytic.distance,
                )
                for p in analytic.points:
                    assert any(
                        all(d2(ai, bi) <= 2 * g.resolution * n for ai, bi in zip(p, q))
                        for q in joint.points
                    ), (code, p)
            instances += 1
    assert instances == 50
    # a constructed max-combine instance where factorization fails
    ball = RaySet(plus=((0, 1),), minus=((0, 1),))
    box = BoxSet((ball, ball))
    x = V(ZERO, SElem.pos(LN2))
    joint = grid_project(x, box, parse_metric_id("rho02"), GridSpec(0.01, 4.0))
    per = [project_ray(xi, Ci, 2) for xi, Ci in zip(x, box.factors)]
    assert len(joint.points) > len(per[0].points) * len(per[1].points)
    print(f"criterion 8: {instances} factorizing instances; max-combine cloud "
          f"{len(joint.points)} >> product {len(per[0].points) * len(per[1].points)}")


def _modest_ray_set(rng) -> RaySet:
    ivs = {ray: [] for ray in Sign}
    for ray in Sign:
        if rng.random() < 0.7:
            a, b = sorted(rng.uniform(0.05, 2.5) for _ in range(2))
            ivs[ray].append((a, b))
    if not any(ivs.values()):
        ivs[Sign.PLUS].append((0.5, 1.5))
    return RaySet(tuple(ivs[Sign.PLUS]), tuple(ivs[Sign.MINUS]), tuple(ivs[Sign.BALANCED]))


def test_criterion_09_algebra_suite():
    failures = 0
    # sign tables: 3 x 3 signs x {<, =, >}
    for sa, sb in itertools.product(Sign, Sign):
        for ea, eb in ((1, 2), (2, 2), (2, 1)):
            a, b = SElem(sa, ea), SElem(sb, eb)
            add = s_oplus(a, b)
            mul = s_otimes(a, b)
            want_add = (
                a if ea > eb else b if eb > ea else a if sa is sb else SElem(Sign.BALANCED, ea)
            )
            if add != want_add:
                failures += 1
            if mul.exp != ea + eb:
                failures += 1
            want_sign = (
                Sign.BALANCED
                if Sign.BALANCED in (sa, sb)
                else (Sign.PLUS if sa is sb else Sign.MINUS)
            )
            if mul.sign is not want_sign:
                failures += 1
    # quotient coherence over a 7 x 7 rational scalar grid
    from smaxplus import EPS

    scalars = [EPS, -2, -1, -0.5, 0.5, 1, 2]
    grid_pairs = [Pair(a, b) for a in scalars for b in scalars]
    for u, v in itertools.product(grid_pairs, grid_pairs):
        if classify(pair_oplus(u, v)) != s_oplus(classify(u), classify(v)):
            failures += 1
        if classify(pair_otimes(u, v)) != s_otimes(classify(u), classify(v)):
            failures += 1
    # pair-operator identities and absolute-value multiplicativity
    for u, v in itertools.product(grid_pairs, grid_pairs):
        if pair_balance(u) != pair_balance(pair_minus(u)):
            failures += 1
        if pair_balance(pair_balance(u)) != pair_balance(u):
            failures += 1
        if pair_otimes(u, pair_balance(v)) != pair_balance(pair_otimes(u, v)):
            failures += 1
        if pair_minus(pair_oplus(u, v)) != pair_oplus(pair_minus(u), pair_minus(v)):
            failures += 1
        if pair_otimes(pair_minus(u), v) != pair_minus(pair_otimes(u, v)):
            failures += 1
    elems = [ZERO] + [SElem(s, e) for s in Sign for e in (-2, -1, -0.5, 0.5, 1, 2)]
    for a, b in itertools.product(elems, elems):
        if s_abs(s_otimes(a, b)) != ext_otimes(s_abs(a), s_abs(b)):
            failures += 1
        if classify(lift(a)) != a:
            failures += 1
    assert failures == 0
    print("criterion 9: algebra suite zero failures")


def test_criterion_10_metric_suite():
    rng = random.Random(79)
    mids = [parse_metric_id(f"rho{k}{j}") for k in "012" for j in "12"]
    n_triples = 100_000
    for _ in range(n_triples):
        a, b, c = (random_selem(rng) for _ in range(3))
        assert d1(a, c) <= d1(a, b) + d1(b, c) + 1e-9
        assert d2(a, c) <= d2(a, b) + d2(b, c) + 1e-9
        assert d1(a, b) <= d2(a, b) + 1e-12
        if a.sign is b.sign:
            assert abs(d1(a, b) - d2(a, b)) <= 1e-12
    for _ in range(2_000):
        x, y, z = (random_svector(rng, 2) for _ in range(3))
        for mid in mids:
            assert rho(mid, x, z) <= rho(mid, x, y) + rho(mid, y, z) + 1e-9
    # one-sided limits of the sum at a balanced tie stay separated
    r = 0.5
    for k in (10, 10**3, 10**6):
        below = s_oplus(SElem.pos(r - 1.0 / k), SElem.bal(r))
        above = s_oplus(SElem.pos(r + 1.0 / k), SElem.bal(r))
        assert d2(below, SElem.bal(r)) == 0.0
        assert d2(above, SElem.pos(r)) <= math.exp(r) * (math.exp(1.0 / k) - 1.0) + 1e-12
    assert d2(SElem.bal(r), SElem.pos(r)) == pytest.approx(2 * math.exp(r), rel=1e-12)
    print(f"criterion 10: triangle inequality on {n_triples} triples, limits separated")


def test_criterion_11_oracle_equivalence():
    rng = random.Random(80)
    g = GridSpec(resolution=1e-3, max_magnitude=25.0)
    for i in range(100):
        C = random_ray_set(rng)
        box = BoxSet((C,))
        x = random_selem(rng)
        for base in (1, 2):
            analytic = project_ray(x, C, base)
            gridded = grid_project(V(x), box, MetricId("euclid", base), g)
            assert abs(gridded.distance - analytic.distance) <= 2e-3, (i, base)
            for p in analytic.points:
                assert any(d2(p, q[0]) <= 2e-3 for q in gridded.points), (i, base, p)
            dist_fn = d1 if base == 1 else d2
            for q in gridded.points:
                assert dist_fn(x, q[0]) <= analytic.distance + 3 * g.resolution
    print("criterion 11: 100 instances, both bases, clouds within one grid step")
