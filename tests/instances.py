"""Seeded random instances and a point-cloud distance for the tests.

Every generator draws from an explicit ``random.Random``, so a seeded test
sees the same instances on every run.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from smaxplus.algebra import RAYS, SElem, Sign, ZERO
from smaxplus.metrics import SVector, phi
from smaxplus.raysets import RaySet, is_connected


def phi_cloud(points: Sequence[SVector]) -> np.ndarray:
    """Flatten vectors into embedded coordinates in R^(2n)."""
    rows = []
    for v in points:
        row: List[float] = []
        for c in v:
            z = phi(c)
            row.extend((z.real, z.imag))
        rows.append(row)
    return np.asarray(rows, dtype=float)


def hausdorff_phi(xs: Sequence[SVector], ys: Sequence[SVector]) -> float:
    """Symmetric Hausdorff distance between two point clouds, measured in the
    embedded coordinates."""
    ax, ay = phi_cloud(xs), phi_cloud(ys)
    d_xy = cKDTree(ay).query(ax)[0].max()
    d_yx = cKDTree(ax).query(ay)[0].max()
    return float(max(d_xy, d_yx))


# ---------------------------------------------------------------------------
# Random instances (explicitly seeded; used by the property tests)
# ---------------------------------------------------------------------------

_EXP_RANGE = (-3.0, 3.0)  # radial coordinates in [e**-3, e**3] subset of [0, e**3]
_MIN_GAP = 0.05  # keeps gaps resolvable by the default grid

# The vector and ray-set generators take an optional exponent band ``band``
# (default _EXP_RANGE); a wider one such as (-690.0, 690.0) spans most of
# the float range.  The minimum gap scales with the band's smallest radius,
# so it is _MIN_GAP exactly on the default band and the default draws are
# unchanged.


def random_selem(rng: random.Random, zero_prob: float = 0.05, band=_EXP_RANGE) -> SElem:
    if rng.random() < zero_prob:
        return ZERO
    sign = rng.choice(RAYS)
    return SElem(sign, rng.uniform(*band))


def random_svector(rng: random.Random, n: int, zero_prob: float = 0.05, band=_EXP_RANGE) -> SVector:
    return SVector(tuple(random_selem(rng, zero_prob, band) for _ in range(n)))


def _random_intervals(rng: random.Random, count: int, band=_EXP_RANGE) -> List[Tuple[float, float]]:
    values = sorted(math.exp(rng.uniform(*band)) for _ in range(2 * count))
    min_gap = _MIN_GAP * math.exp(band[0] - _EXP_RANGE[0])
    intervals = []
    cursor = 0.0
    for i in range(count):
        lo, hi = values[2 * i], values[2 * i + 1]
        lo = max(lo, cursor + min_gap)
        hi = max(hi, lo)
        intervals.append((lo, hi))
        cursor = hi
    return intervals


def random_ray_set(rng: random.Random, band=_EXP_RANGE) -> RaySet:
    """Magnitudes log-uniform within the band (by default [e**-3, e**3]), one
    to four intervals per ray, the origin attached with probability one half."""
    per_ray = {ray: _random_intervals(rng, rng.randint(1, 4), band) for ray in RAYS}
    if rng.random() < 0.5:
        ray = rng.choice(RAYS)
        lo, hi = per_ray[ray][0]
        per_ray[ray][0] = (0.0, hi)
    return RaySet(tuple(per_ray[Sign.PLUS]), tuple(per_ray[Sign.MINUS]), tuple(per_ray[Sign.BALANCED]))


def random_connected_ray_set(rng: random.Random, band=_EXP_RANGE) -> RaySet:
    """A single interval on one ray, or a star anchored at the origin."""
    if rng.random() < 0.5:
        ray = rng.choice(RAYS)
        a = math.exp(rng.uniform(*band))
        b = math.exp(rng.uniform(*band))
        lo, hi = min(a, b), max(a, b)
        if rng.random() < 0.25:
            lo = 0.0
        ivs = {r: () for r in RAYS}
        ivs[ray] = ((lo, hi),)
    else:
        ivs = {r: () for r in RAYS}
        arms = rng.randint(1, 3)
        rays = rng.sample(RAYS, arms)
        for r in rays:
            ivs[r] = ((0.0, math.exp(rng.uniform(*band))),)
    return RaySet(ivs[Sign.PLUS], ivs[Sign.MINUS], ivs[Sign.BALANCED])


def random_disconnected_ray_set(rng: random.Random, band=_EXP_RANGE) -> RaySet:
    for _ in range(100):
        C = random_ray_set(rng, band)
        if not is_connected(C):
            return C
    raise AssertionError("failed to draw a disconnected set")


def random_semimodule_convex_ray_set(rng: random.Random) -> RaySet:
    """Shapes closed under the scaled-combination segments: single ray
    intervals, balanced-tied opposite pairs, origin stars with a long enough
    balanced arm, and a signed point with its balanced stretch."""
    kind = rng.randrange(4)
    if kind == 0:
        ray = rng.choice(RAYS)
        a, b = sorted(math.exp(rng.uniform(*_EXP_RANGE)) for _ in range(2))
        ivs = {r: () for r in RAYS}
        ivs[ray] = ((a, b),)
    elif kind == 1:
        m = math.exp(rng.uniform(*_EXP_RANGE))
        ivs = {r: ((m, m),) for r in RAYS}
    elif kind == 2:
        p = math.exp(rng.uniform(*_EXP_RANGE))
        mm = math.exp(rng.uniform(*_EXP_RANGE))
        b = max(min(p, mm), math.exp(rng.uniform(*_EXP_RANGE)))
        ivs = {
            Sign.PLUS: ((0.0, p),),
            Sign.MINUS: ((0.0, mm),),
            Sign.BALANCED: ((0.0, b),),
        }
    else:
        ray = rng.choice((Sign.PLUS, Sign.MINUS))
        r, s = sorted(math.exp(rng.uniform(*_EXP_RANGE)) for _ in range(2))
        ivs = {t: () for t in RAYS}
        ivs[ray] = ((r, r),)
        ivs[Sign.BALANCED] = ((r, s),)
    return RaySet(ivs[Sign.PLUS], ivs[Sign.MINUS], ivs[Sign.BALANCED])
