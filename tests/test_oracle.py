"""Determinism and refinement behavior of the brute-force routines, and
their independence from the code they check."""

import ast
import math
import random
from pathlib import Path

import pytest

from smaxplus import (
    BoxSet,
    MetricId,
    RaySet,
    SElem,
    SVector,
    is_connected,
)

from grid_oracle import (
    GridSpec,
    grid_connected,
    grid_of_ray_set,
    grid_project,
    grid_segment_sm,
)
from instances import random_connected_ray_set, random_disconnected_ray_set, random_ray_set

CORPUS = [
    RaySet(plus=((1, 2),)),
    RaySet(plus=((1, 2), (4, 5)),),
    RaySet(plus=((0, 1),), minus=((0, 3),)),
    RaySet(plus=((1, 1),), minus=((1, 1),), balanced=((1, 1),)),
    RaySet(balanced=((0, 0),)),
]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(resolution=0.0)
        with pytest.raises(ValueError):
            GridSpec(resolution=5.0, max_magnitude=1.0)
        with pytest.raises(ValueError):
            GridSpec(resolution=1e-3, max_magnitude=math.inf)

    def test_grid_includes_endpoints(self):
        g = GridSpec(resolution=0.3, max_magnitude=10.0)
        _, ms = grid_of_ray_set(RaySet(plus=((1.0, 2.0),)), g)
        assert ms.min() == 1.0 and ms.max() == 2.0

    def test_truncation_error(self):
        g = GridSpec(resolution=0.1, max_magnitude=2.0)
        with pytest.raises(ValueError):
            grid_of_ray_set(RaySet(plus=((5.0, 6.0),)), g)


class TestDeterminism:
    def test_identical_spec_identical_output(self):
        g = GridSpec(resolution=0.01, max_magnitude=10.0)
        x = SVector((SElem.neg(0.3),))
        for C in CORPUS:
            box = BoxSet((C,))
            r1 = grid_project(x, box, MetricId("euclid", 2), g)
            r2 = grid_project(x, box, MetricId("euclid", 2), g)
            assert r1.points == r2.points and r1.distance == r2.distance
            assert grid_connected(C, g) == grid_connected(C, g)
        a, b = SVector((SElem.pos(1),)), SVector((SElem.neg(0.5),))
        assert grid_segment_sm(a, b, g) == grid_segment_sm(a, b, g)

    def test_seeded_generators_are_reproducible(self):
        assert random_ray_set(random.Random(9)) == random_ray_set(random.Random(9))


class TestRefinement:
    def test_boolean_answers_stable_under_halving(self):
        for C in CORPUS:
            expected = is_connected(C)
            for res in (0.04, 0.02, 0.01):
                g = GridSpec(resolution=res, max_magnitude=10.0)
                assert grid_connected(C, g) == expected

    def test_argmin_cloud_diameter_shrinks(self):
        x = SVector((SElem.pos(0.5),))
        C = RaySet(minus=((1, 2),), balanced=((1, 2),))
        box = BoxSet((C,))
        diameters = []
        for res in (0.08, 0.04, 0.02, 0.01):
            g = GridSpec(resolution=res, max_magnitude=10.0)
            r = grid_project(x, box, MetricId("euclid", 2), g)
            ms = [0.0 if p[0].is_zero else math.exp(p[0].exp) for p in r.points]
            diameters.append(max(ms) - min(ms))
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diameters, diameters[1:]))

    def test_generators_produce_advertised_shapes(self):
        rng = random.Random(10)
        for _ in range(50):
            assert is_connected(random_connected_ray_set(rng))
            assert not is_connected(random_disconnected_ray_set(rng))


class TestExamples:
    def test_member_projects_to_itself_within_a_step(self):
        g = GridSpec(resolution=0.02, max_magnitude=10.0)
        C = RaySet(plus=((1, 2),), balanced=((3, 4),))
        x = SVector((SElem.pos(math.log(1.37)),))
        r = grid_project(x, BoxSet((C,)), MetricId("euclid", 2), g)
        assert r.distance <= g.resolution

    def test_balanced_tie_sweep_has_three_points(self):
        g = GridSpec(resolution=0.01, max_magnitude=10.0)
        a, b = SVector((SElem.pos(1),)), SVector((SElem.neg(1),))
        cloud = grid_segment_sm(a, b, g)
        assert set(cloud) == {a, b, SVector((SElem.bal(1),))}

    def test_identical_endpoints_sweep_is_a_point(self):
        g = GridSpec(resolution=0.01, max_magnitude=10.0)
        a = SVector((SElem.pos(1),))
        assert set(grid_segment_sm(a, a, g)) == {a}

    def test_grid_connected_origin_only(self):
        g = GridSpec(resolution=0.01, max_magnitude=10.0)
        assert grid_connected(RaySet(balanced=((0, 0),)), g)


def test_imports_only_data_classes_from_the_package():
    # a reference that shares code with what it checks proves nothing
    tree = ast.parse(Path(__file__).with_name("grid_oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "smaxplus" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "smaxplus":
            imported |= {a.name for a in node.names}
    assert imported <= {"Sign", "SElem", "SVector", "RaySet", "BoxSet", "MetricId"}
