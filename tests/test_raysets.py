"""Interval-union set representation and the convexity predicates."""

import json
import math
import random

import pytest

from smaxplus import (
    BoxSet,
    RaySet,
    SElem,
    SVector,
    Sign,
    ZERO,
    distance_to_set,
    is_box_semimodule_convex,
    is_connected,
    is_geometrically_convex,
    is_semimodule_convex,
    is_traditionally_convex,
    point_on_ray,
    project_ray,
    ray_components,
    semimodule_segment,
)

from grid_oracle import GridSpec, grid_connected, grid_segment_sm
from instances import (
    random_connected_ray_set,
    random_ray_set,
    random_selem,
    random_semimodule_convex_ray_set,
)

TRIPLE = RaySet(plus=((1, 1),), minus=((1, 1),), balanced=((1, 1),))  # {p0, m0, b0}


def contains_with_slack(C: RaySet, a: SElem, tol: float = 1e-9) -> bool:
    if a.is_zero:
        return C.has_origin
    m = math.exp(a.exp)
    return any(lo - tol <= m <= hi + tol for lo, hi in C.intervals(a.sign))


class TestRepresentation:
    def test_canonical_merging(self):
        C = RaySet(plus=((2, 3), (1, 2), (5, 6)))
        assert C.plus == ((1.0, 3.0), (5.0, 6.0))

    def test_gaps_without_an_element_merge(self):
        # the ends' exponents are at most an ulp apart: no element between
        C = RaySet(plus=((1e15, 1e15), (1e15 + 8.0, 1e15 + 9.0)))
        assert C == RaySet(plus=((1e15, 1e15 + 9.0),))
        assert is_connected(C) and C.contains(point_on_ray(Sign.PLUS, 1e15 + 4.0))
        # a radius ulp at 1 is many exponent ulps (0 to 2.2e-16), and a gap
        # from the origin always holds elements
        assert len(RaySet(plus=((1, 1), (math.nextafter(1, 2), 3))).plus) == 2
        assert len(RaySet(balanced=((0, 0), (5e-324, 1))).balanced) == 2

    def test_zero_ends_print_as_zero(self):
        # -0.0 == 0.0, so the two sets are equal; they print and serialize alike
        C, D = RaySet(plus=((-0.0, 1),)), RaySet(plus=((0.0, 1),))
        assert C == D and hash(C) == hash(D)
        assert repr(C) == repr(D) == "RaySet(plus=((0.0, 1.0),), minus=(), balanced=())"
        assert json.dumps(C.to_json()) == json.dumps(D.to_json())
        assert C.to_json()["plus"] == [[0.0, 1.0]]
        assert repr(RaySet(minus=((-0.0, -0.0),))) == repr(RaySet(minus=((0, 0),)))

    def test_origin_dedupe(self):
        # pure origin markers collapse onto the fatter interval
        C = RaySet(plus=((0, 2),), minus=((0, 0),), balanced=((0, 0),))
        assert C.minus == () and C.balanced == ()
        assert C.has_origin

    def test_origin_convention(self):
        just_origin = RaySet(plus=((0, 0),))
        assert just_origin.balanced == ((0.0, 0.0),)
        assert just_origin.plus == ()
        assert just_origin.contains(ZERO)

    def test_validation(self):
        with pytest.raises(ValueError):
            RaySet(plus=((-1, 2),))
        with pytest.raises(ValueError):
            RaySet(plus=((3, 2),))
        with pytest.raises(ValueError):
            RaySet(plus=((math.inf, math.inf),))
        with pytest.raises(ValueError):
            point_on_ray(Sign.PLUS, -1.0)
        # an end is an int or a float, as in JSON: not a str, nor a bool
        for bad in ((("1", 2),), ((True, 2),), ((1, "2"),), ((0, False),), ((1, "inf"),)):
            with pytest.raises(ValueError, match="must be numbers"):
                RaySet(plus=bad)
            with pytest.raises(ValueError, match="must be numbers"):
                RaySet(balanced=((0, 1),) + bad)
        # the JSON reader keeps its own message
        with pytest.raises(ValueError, match='numbers or "inf" as hi'):
            RaySet.from_json({"plus": [["1", 2]]})
        numpy = pytest.importorskip("numpy")
        C = RaySet(plus=((numpy.float64(1.0), numpy.float64(2.0)),))
        assert C == RaySet(plus=((1, 2),)) and repr(C) == repr(RaySet(plus=((1.0, 2.0),)))

    def test_unbounded(self):
        C = RaySet(plus=((1, math.inf),))
        assert C.contains(SElem.pos(100))
        assert not C.contains(SElem.pos(-1))
        assert RaySet.from_json(C.to_json()) == C

    def test_contains(self):
        C = RaySet(plus=((1, 2),))
        assert C.contains(SElem.pos(0))  # m = 1, interval endpoint
        assert not C.contains(SElem.neg(0))
        D = RaySet(minus=((0, 1),))
        assert D.contains(ZERO)

    def test_json_round_trip(self):
        rng = random.Random(31)
        for _ in range(50):
            C = random_ray_set(rng)
            assert RaySet.from_json(C.to_json()) == C

    def test_components(self):
        C = RaySet(plus=((0, 1), (2, 3)), minus=((0, 5),))
        comps = ray_components(C)
        kinds = sorted(c["kind"] for c in comps)
        assert kinds == ["interval", "star"]
        with pytest.raises(ValueError):
            ray_components(RaySet())


class TestConnectedness:
    def test_examples(self):
        assert is_connected(RaySet(plus=((1, 2),)))
        assert is_connected(RaySet(plus=((0, 1),), minus=((0, 3),)))
        assert not is_connected(TRIPLE)
        assert is_connected(RaySet(plus=((0, 0),)))  # the origin alone
        with pytest.raises(ValueError):
            is_connected(RaySet())

    def test_two_intervals_disconnected(self):
        assert not is_connected(RaySet(plus=((1, 2), (3, 4)),))
        assert not is_connected(RaySet(plus=((1, 2),), minus=((1, 2),)))

    def test_agrees_with_grid_flooding(self):
        rng = random.Random(32)
        g = GridSpec(resolution=0.01, max_magnitude=25.0)
        for i in range(100):
            C = random_connected_ray_set(rng) if i % 2 else random_ray_set(rng)
            assert is_connected(C) == grid_connected(C, g)


class TestMembership:
    """Membership is decided on exponents, where points live: a point built
    from a radius in an interval is a member even when ``exp(log m)`` rounds
    out of the interval."""

    def test_low_end_that_rounds_below_itself(self):
        m = 0.17199819598650706
        assert math.exp(math.log(m)) < m
        assert RaySet(balanced=((m, 1.0),)).contains(point_on_ray(Sign.BALANCED, m))

    def test_nearest_points_are_members(self):
        rng = random.Random(11)
        outside = []
        for _ in range(20_000):
            C = random_ray_set(rng)
            x = random_selem(rng)
            outside += [(x, C, p) for p in project_ray(x, C, 2).points if not C.contains(p)]
        assert outside == []

    def test_agrees_with_the_per_interval_rule(self):
        # the rule contains applied before it bisected the cached ends: two
        # math.log per interval per call
        def per_interval(C, a):
            if a.is_zero:
                return C.has_origin
            t = a.exp
            return any(
                hi > 0.0 and (lo == 0.0 or math.log(lo) <= t) and t <= math.log(hi)
                for lo, hi in C.intervals(a.sign)
            )

        rng = random.Random(35)
        checked = 0
        for i in range(400):
            C = random_ray_set(rng, ((-3.0, 3.0), (30.0, 40.0), (-690.0, 690.0))[i % 3])
            if i % 4 == 0:
                C = C.union(RaySet(**{rng.choice(("plus", "minus", "balanced")): ((rng.random(), math.inf),)}))
            if i % 5 == 0:
                C = C.union(RaySet(balanced=((0, 0),)))
            queries = [ZERO, *(random_selem(rng) for _ in range(5))]
            for ray in (Sign.PLUS, Sign.MINUS, Sign.BALANCED):
                for lo, hi in C.intervals(ray):
                    for m in (lo, hi):
                        if 0.0 < m < math.inf:
                            t = math.log(m)
                            queries += [SElem(ray, t), SElem(ray, math.nextafter(t, math.inf)),
                                        SElem(ray, math.nextafter(t, -math.inf))]
                    queries.append(SElem(rng.choice((Sign.PLUS, Sign.MINUS, Sign.BALANCED)), -700.0))
            for a in queries:
                assert C.contains(a) == per_interval(C, a), (C, a)
                checked += 1
        assert checked > 10_000


class TestPreparedIndex:
    """A ray set builds what its projections and membership tests read at
    construction, in a slot that is not a field, and reads its canonical
    intervals back from it."""

    SETS = (TRIPLE, RaySet(plus=((0, 1), (2, math.inf)), balanced=((0, 0),)),
            RaySet(plus=((1e15, 1e15), (1e15 + 8.0, 1e15 + 9.0), (2e15, 3e15)), minus=((0, 0), (1, 2))),
            RaySet(balanced=((0, 0), (5e-324, 1), (1, math.nextafter(1, 2)), (math.nextafter(2, 3), 3))))

    def test_value_contract_ignores_the_index(self):
        import copy
        import pickle

        for C in (*self.SETS, random_ray_set(random.Random(36))):
            before = (C, hash(C), repr(C), C.to_json(), pickle.dumps(C), C._index)
            project_ray(SElem.pos(0.5), C, 2)
            after = (C, hash(C), repr(C), C.to_json(), pickle.dumps(C), C._index)
            assert before == after
            # a copy is rebuilt from the fields, and builds an equal index
            for twin in (pickle.loads(pickle.dumps(C)), copy.copy(C), copy.deepcopy(C)):
                assert twin == C and repr(twin) == repr(C) and hash(twin) == hash(C)
                assert twin._index == C._index

    def test_built_once_per_set(self, monkeypatch):
        import smaxplus.raysets as raysets

        builds = []
        build = raysets._line_index
        monkeypatch.setattr(raysets, "_line_index", lambda parts: builds.append(parts) or build(parts))
        C = RaySet(plus=((1, 2), (3, 4)), minus=((0, 5),))
        assert len(builds) == 1
        for base in (1, 2, 1):
            project_ray(SElem.pos(0.9), C, base)
        assert C.contains(SElem.neg(1.0)) and not C.contains(SElem.pos(1.0))
        distance_to_set(ZERO, C)
        assert len(builds) == 1
        # a set built afresh has its own index
        RaySet(plus=((1, 2), (3, 4)), minus=((0, 5),))
        assert len(builds) == 2

    def test_the_fields_are_the_kernel_intervals(self):
        from smaxplus.algebra import RAYS
        from smaxplus.raysets import _KERNEL

        rng = random.Random(37)
        sets = [*self.SETS, *(random_ray_set(rng) for _ in range(300))]
        for C in sets:
            kernel = C._index[_KERNEL]
            assert [(part[0], part[1], part[2]) for part in kernel] == [
                (ray, lo, hi) for ray in RAYS for lo, hi in C.intervals(ray)]
            assert all(part[3] and part[4] for part in kernel)
            # each ray's exponent ends sit at the ray's position in RAYS
            for k, ray in enumerate(RAYS):
                ends = [m for iv in C.intervals(ray) for m in iv]
                assert C._index[k] == tuple(math.log(m) if m > 0.0 else -math.inf for m in ends)
            assert RaySet(C.plus, C.minus, C.balanced) == C

class TestTraditionalConvexity:
    def test_examples(self):
        assert is_traditionally_convex(RaySet(plus=((1, 2),)))
        assert not is_traditionally_convex(RaySet(plus=((0, 1),), minus=((0, 1),)))
        assert is_traditionally_convex(RaySet(balanced=((0, 0),)))  # a single point
        with pytest.raises(ValueError):
            is_traditionally_convex(RaySet())

    def test_implies_geometric(self):
        rng = random.Random(33)
        for _ in range(200):
            C = random_ray_set(rng) if rng.random() < 0.5 else random_connected_ray_set(rng)
            if is_traditionally_convex(C):
                assert is_geometrically_convex(C)


class TestGeometricConvexity:
    def test_examples(self):
        assert is_geometrically_convex(RaySet(plus=((0, 1),), minus=((0, 3),)))
        assert not is_geometrically_convex(RaySet(plus=((1, 1),), minus=((1, 1),)))
        assert is_geometrically_convex(RaySet(balanced=((2, 2),)))

    def test_connected_supersets_contain_the_geodesic(self):
        # the geodesic between two points lies in every connected set
        # containing both
        rng = random.Random(34)
        from smaxplus.segments import as_segment_set, geometric_segment

        for _ in range(50):
            a, b = random_selem(rng), random_selem(rng)
            seg = as_segment_set(geometric_segment(SVector((a,)), SVector((b,))))
            supersets = [_connected_superset(rng, a, b) for _ in range(5)]
            for z in seg.sample(0.05):
                for C in supersets:
                    assert contains_with_slack(C, z[0], tol=1e-6)


def _connected_superset(rng, a: SElem, b: SElem) -> RaySet:
    pad = math.exp(rng.uniform(0.0, 1.0))
    tops = {ray: 0.0 for ray in Sign}
    for e in (a, b):
        if not e.is_zero:
            tops[e.sign] = max(tops[e.sign], math.exp(e.exp))
    if a.is_zero or b.is_zero or a.sign is not b.sign:
        ivs = {ray: ((0.0, tops[ray] + pad),) for ray in Sign}
        return RaySet(ivs[Sign.PLUS], ivs[Sign.MINUS], ivs[Sign.BALANCED])
    ms = sorted((math.exp(a.exp), math.exp(b.exp)))
    lo = max(0.0, ms[0] - rng.uniform(0.0, ms[0]))
    ivs = {ray: () for ray in Sign}
    ivs[a.sign] = ((lo, ms[1] + pad),)
    return RaySet(ivs[Sign.PLUS], ivs[Sign.MINUS], ivs[Sign.BALANCED])


class TestSemimoduleConvexity:
    def test_examples(self):
        assert is_semimodule_convex(TRIPLE)
        assert not is_semimodule_convex(RaySet(plus=((1, 1),), minus=((1, 1),)))
        assert is_semimodule_convex(RaySet(plus=((1, 2),)))
        # the degenerate balanced interval is the origin, not a balanced arm
        assert is_semimodule_convex(RaySet(balanced=((0, 0),)))
        with pytest.raises(ValueError):
            is_semimodule_convex(RaySet())

    def test_star_needs_wide_balanced_arm(self):
        wide = RaySet(plus=((0, 2),), minus=((0, 3),), balanced=((0, 2),))
        narrow = RaySet(plus=((0, 2),), minus=((0, 3),), balanced=((0, 1),))
        assert is_semimodule_convex(wide)
        assert not is_semimodule_convex(narrow)

    def test_balanced_stretch_shape(self):
        assert is_semimodule_convex(RaySet(minus=((1, 1),), balanced=((1, 4),)))
        assert not is_semimodule_convex(RaySet(minus=((1, 1),), balanced=((2, 4),)))

    @pytest.mark.parametrize(
        "C, x, y",
        [
            (RaySet(plus=((1, 2), (4, 5))), SElem.pos(math.log(2)), SElem.pos(math.log(4))),
            # an origin member with a ray not anchored at 0
            (RaySet(plus=((0, 1),), minus=((2, 3),)), ZERO, SElem.neg(math.log(2))),
            (RaySet(minus=((2, 3),), balanced=((0, 0),)), ZERO, SElem.neg(math.log(2))),
            (RaySet(plus=((1, 2),), minus=((3, 4),)), SElem.pos(0), SElem.neg(math.log(3))),
            (
                RaySet(plus=((2, 3),), minus=((1, 4),), balanced=((1, 3),)),
                SElem.pos(math.log(2)),
                SElem.neg(0),
            ),
            (
                RaySet(plus=((1, 4),), minus=((2, 3),), balanced=((1, 3),)),
                SElem.pos(0),
                SElem.neg(math.log(2)),
            ),
            (RaySet(plus=((2, 3),), balanced=((1, 4),)), SElem.pos(math.log(2)), SElem.bal(0)),
        ],
        ids=[
            "two-intervals",
            "origin-unanchored",
            "origin-alone-unanchored",
            "plus-minus-gap",
            "minus-wider",
            "plus-wider",
            "balanced-wider",
        ],
    )
    def test_rejected_with_a_witness_pair(self, C, x, y):
        # the segment between the two members leaves the set by about 1
        assert not is_semimodule_convex(C)
        assert C.contains(x) and C.contains(y)
        seg = semimodule_segment(SVector((x,)), SVector((y,)))
        assert max(distance_to_set(z[0], C) for z in seg.sample(0.05)) >= 0.975

    def test_generator_produces_convex_sets(self):
        rng = random.Random(35)
        for _ in range(100):
            assert is_semimodule_convex(random_semimodule_convex_ray_set(rng))

    def test_pair_check_against_segment_enumeration(self):
        # sampled-pair soundness: the endpoint-based decision agrees with
        # enumerating actual segments between members (~200 pairs per verdict)
        rng = random.Random(36)
        g = GridSpec(resolution=0.02, max_magnitude=25.0)
        convex_pairs = 0
        nonconvex_sets = 0
        for i in range(24):
            C = (
                random_semimodule_convex_ray_set(rng)
                if i % 2
                else random_ray_set(rng)
            )
            verdict = is_semimodule_convex(C)
            members = _sample_members(rng, C, 8)
            pairs = [(x, y) for x in members for y in members]
            if verdict:
                for x, y in pairs:
                    cloud = grid_segment_sm(SVector((x,)), SVector((y,)), g)
                    for z in cloud:
                        assert contains_with_slack(C, z[0], tol=1e-6), (C, x, y, z)
                    convex_pairs += len(pairs)
            else:
                violated = False
                for x, y in pairs:
                    cloud = grid_segment_sm(SVector((x,)), SVector((y,)), g)
                    if any(not contains_with_slack(C, z[0], tol=1e-6) for z in cloud):
                        violated = True
                        break
                assert violated, C
                nonconvex_sets += 1
        assert convex_pairs >= 200
        assert nonconvex_sets >= 5

    def test_box_convexity(self):
        assert is_box_semimodule_convex(BoxSet((TRIPLE, TRIPLE, TRIPLE)))
        bad = RaySet(plus=((1, 1),), minus=((1, 1),))
        assert not is_box_semimodule_convex(BoxSet((TRIPLE, bad)))
        assert is_box_semimodule_convex(BoxSet((RaySet(plus=((1, 2),)),)))

    def test_symbolic_segments_stay_inside_convex_sets(self):
        rng = random.Random(37)
        for _ in range(30):
            C = random_semimodule_convex_ray_set(rng)
            members = _sample_members(rng, C, 6)
            for x in members:
                for y in members:
                    seg = semimodule_segment(SVector((x,)), SVector((y,)))
                    for z in seg.sample(0.05):
                        assert contains_with_slack(C, z[0], tol=1e-6)


def _sample_members(rng, C: RaySet, count: int):
    """Random members of the set: interval endpoints plus interior draws."""
    out = []
    choices = []
    for ray in Sign:
        for lo, hi in C.intervals(ray):
            hi = min(hi, 25.0)
            choices.append((ray, lo, hi))
    if C.has_origin:
        out.append(ZERO)
    for ray, lo, hi in choices:
        out.append(point_on_ray(ray, lo) if lo > 0 else ZERO)
        if hi > lo:
            out.append(point_on_ray(ray, hi))
    while len(out) < count + len(choices):
        ray, lo, hi = rng.choice(choices)
        m = rng.uniform(lo, hi)
        out.append(point_on_ray(ray, m) if m > 0 else ZERO)
    # dedupe, keep deterministic order
    seen = []
    for e in out:
        if e not in seen:
            seen.append(e)
    return seen


def test_box_json_round_trip():
    rng = random.Random(38)
    box = BoxSet(tuple(random_ray_set(rng) for _ in range(3)))
    assert BoxSet.from_json(box.to_json()) == box


@pytest.mark.parametrize(
    "data, message",
    [
        ({"plus": [[1, 2, 3]]}, "plus interval must be a [lo, hi] pair, got [1, 2, 3]"),
        ({"minus": [[1]]}, "minus interval must be a [lo, hi] pair, got [1]"),
        ({"balanced": [5]}, "balanced interval must be a [lo, hi] pair, got 5"),
        ({"plus": 5}, "plus must be a list of [lo, hi] pairs, got 5"),
        ([[1, 2]], "a ray set must be an object, got list"),
    ],
    ids=["three-ends", "one-end", "bare-number", "ray-not-a-list", "set-not-an-object"],
)
def test_ray_set_json_shape_errors_are_named(data, message):
    with pytest.raises(ValueError) as err:
        RaySet.from_json(data)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        BoxSet.from_json({"factors": [{"plus": [[0, 1]]}, data]})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "interval",
    [[True, 2], [1, True], [1, "7"], [None, 2], ["inf", 2], [1, "-inf"], [1, [2]]],
    ids=["bool-lo", "bool-hi", "string-hi", "null-lo", "inf-lo", "minus-inf-hi", "list-hi"],
)
def test_ray_set_json_interval_ends_must_be_numbers(interval):
    message = f'minus interval ends must be numbers or "inf" as hi, got {interval!r}'
    with pytest.raises(ValueError) as err:
        RaySet.from_json({"plus": [[0, 1]], "minus": [interval]})
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        BoxSet.from_json({"factors": [{"minus": [interval]}]})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "interval, end", [((1, 10**400), "high"), ((10**400, 10**401), "low")], ids=["high", "low"]
)
def test_int_interval_ends_beyond_the_float_range_are_named(interval, end):
    # float() refuses such an int; it used to escape as an OverflowError
    message = f"bad interval: its {end} end lies beyond the float range"
    for make in (
        lambda: RaySet(plus=(interval,)),
        lambda: RaySet.from_json({"minus": [list(interval)]}),
        lambda: BoxSet.from_json({"factors": [{"plus": [[0, 1]]}, {"balanced": [list(interval)]}]}),
    ):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message


def test_ray_set_json_takes_ints_floats_and_an_inf_high_end():
    C = RaySet.from_json({"plus": [[1, "inf"]], "minus": [[0, 2.5]], "balanced": [[0.5, 3]]})
    assert C == RaySet(plus=((1.0, math.inf),), minus=((0.0, 2.5),), balanced=((0.5, 3.0),))
    assert RaySet.from_json(C.to_json()) == C


def test_box_json_factors_must_be_a_list():
    with pytest.raises(ValueError, match=r"^factors must be a list of ray sets, got 5$"):
        BoxSet.from_json({"factors": 5})
