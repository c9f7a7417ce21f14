"""Scale equivariance of the ray-set predicates over the exponent range.

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
"""

import math
import random

import pytest

from smaxplus.algebra import RAYS, ZERO, SElem
from smaxplus.raysets import (
    RaySet, is_chebyshev, is_connected, is_geometrically_convex, is_semimodule_convex,
    is_traditionally_convex, point_on_ray,
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
