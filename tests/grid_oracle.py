"""Brute-force reference routines that check the analytic operations.

Everything here is intentionally naive: nearest points by scoring grid
points, segment enumeration by sweeping the scaling parameter, connectivity
by flooding a discretized graph.  Grids are deterministic functions of the
``GridSpec`` alone.  Only the tests call these routines, and numpy, which
the grids use, is a test dependency.

The reference shares no code with what it checks: from ``smaxplus`` it
imports only the data classes, and it takes its own radii (``math.exp``),
its own points on rays (``math.log``) and its own signed max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from smaxplus import BoxSet, MetricId, RaySet, SElem, SVector, Sign

# a grid point is a ray code (an index into _RAYS, which is also the output
# order) and a radius m = e**|a|; the origin, on every ray, is kept once, on
# the balanced ray
_RAYS = (Sign.PLUS, Sign.MINUS, Sign.BALANCED)
_ORIGIN_CODE = 2
_ZERO = SElem(Sign.BALANCED, -math.inf)


class GridResult(NamedTuple):
    """The grid argmin cloud, its distance, and whether it is one point."""

    points: Tuple[SVector, ...]
    distance: float
    is_singleton: bool


@dataclass(frozen=True)
class GridSpec:
    """Discretization parameters: step and truncation bound are in the radial
    coordinate m = e**|a|."""

    resolution: float = 1e-3
    max_magnitude: float = math.exp(3.0)

    def __post_init__(self):
        if not (0 < self.resolution < self.max_magnitude):
            raise ValueError("need 0 < resolution < max_magnitude")
        if not (math.isfinite(self.resolution) and math.isfinite(self.max_magnitude)):
            raise ValueError("resolution and max_magnitude must be finite")


def _radius(a: SElem) -> float:
    return 0.0 if a.is_zero else math.exp(a.exp)


def _point(code: int, m: float) -> SElem:
    return _ZERO if m == 0.0 else SElem(_RAYS[code], math.log(m))


def _signed_max(a: SElem, b: SElem) -> SElem:
    """The larger magnitude wins; on a tie, equal signs keep the sign and
    distinct signs balance."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.exp != b.exp:
        return a if a.exp > b.exp else b
    return a if a.sign is b.sign else SElem(Sign.BALANCED, a.exp)


def _interval_grids(C: RaySet, g: GridSpec) -> Iterator[Tuple[int, np.ndarray]]:
    """Per interval of the set, clipped at the truncation bound: its ray code
    and its grid values, one resolution step apart from the low endpoint,
    with the clipped high endpoint included exactly."""
    for code, intervals in enumerate((C.plus, C.minus, C.balanced)):
        for lo, hi in intervals:
            hi = min(hi, g.max_magnitude)
            if hi < lo:
                continue
            n_steps = int(math.floor((hi - lo) / g.resolution))
            values = lo + np.arange(n_steps + 1) * g.resolution
            if values[-1] != hi:
                values = np.append(values, hi)
            yield code, values


def grid_of_ray_set(C: RaySet, g: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Grid points of the set, clipped at the truncation bound, as ray codes
    and radii.  Interval endpoints are always included exactly."""
    grids = list(_interval_grids(C, g))
    if not grids:
        raise ValueError("grid intersection is empty (truncation too small)")
    codes = np.concatenate([np.full(len(values), code) for code, values in grids])
    ms = np.concatenate([values for _, values in grids])
    origin = ms == 0.0
    if origin.any():
        keep = ~origin
        keep[np.argmax(origin)] = True
        codes[origin] = _ORIGIN_CODE
        codes, ms = codes[keep], ms[keep]
    return codes, ms


def _coord_distances(x: SElem, codes: np.ndarray, ms: np.ndarray, base: int) -> np.ndarray:
    mx = _radius(x)
    same = (codes == _RAYS.index(x.sign)) | (ms == 0.0) | x.is_zero
    radial = np.abs(ms - mx)
    if base == 2:
        cross = ms + mx
    else:
        cross = np.sqrt(ms * ms + mx * mx + ms * mx)
    return np.where(same, radial, cross)


def grid_project(x: SVector, A: BoxSet, mid: MetricId, g: GridSpec) -> GridResult:
    """Exhaustive argmin over the grid of the box, with one grid step of
    metric slack for ties.

    The joint scan is pruned soundly: a feasible joint distance is known from
    the product of per-coordinate grid argmins, and any joint point within
    the tie threshold must have each coordinate distance within that
    threshold minus the other coordinates' minima (sum), the analogous
    quadratic bound (euclid), or the threshold itself (max).
    """
    if A.is_empty:
        raise ValueError("empty set")
    if len(x) != len(A):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(A)}")
    n = len(x)
    grids = [grid_of_ray_set(C, g) for C in A.factors]
    dists = [_coord_distances(xi, codes, ms, mid.base) for xi, (codes, ms) in zip(x, grids)]
    mins = np.array([float(d.min()) for d in dists])

    if mid.combine == "sum":
        feasible = float(mins.sum())
    elif mid.combine == "euclid":
        feasible = float(np.sqrt((mins**2).sum()))
    else:
        feasible = float(mins.max())
    slack = g.resolution * n
    threshold = feasible + slack

    keep: List[np.ndarray] = []
    for i in range(n):
        if mid.combine == "sum":
            bound = threshold - (mins.sum() - mins[i])
            mask = dists[i] <= bound + 1e-15
        elif mid.combine == "euclid":
            bound_sq = threshold * threshold - float((mins**2).sum() - mins[i] ** 2)
            mask = dists[i] ** 2 <= bound_sq + 1e-15
        else:
            mask = dists[i] <= threshold + 1e-15
        keep.append(np.nonzero(mask)[0])

    total = 1
    for idx in keep:
        total *= len(idx)
    if total > 5_000_000:
        raise ValueError(f"pruned grid still too large ({total} points)")

    # the joint distance of every kept combination: coordinate i runs along
    # axis i, and the coordinates combine in index order
    axes = [dists[i][keep[i]].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i)) for i in range(n)]
    if mid.combine == "sum":
        joint = reduce(np.add, axes)
    elif mid.combine == "euclid":
        joint = np.sqrt(reduce(np.add, [d * d for d in axes]))
    else:
        joint = reduce(np.maximum, axes)
    best = float(joint.min())

    hits = np.nonzero((joint <= threshold) & (joint <= best + slack))
    columns = []
    for (codes, ms), idx, hit in zip(grids, keep, hits):
        chosen = idx[hit]
        columns.append(zip(codes[chosen].tolist(), ms[chosen].tolist()))
    vectors = sorted(set(zip(*columns)))
    points = tuple(SVector(tuple(_point(code, m) for code, m in pt)) for pt in vectors)
    return GridResult(points, best, len(points) == 1)


def grid_segment_sm(a: SVector, b: SVector, g: GridSpec) -> List[SVector]:
    """Deduplicated cloud of scaled combinations with max-normalized
    parameters, swept over a grid.

    The sweep is uniform in s = e**lam so consecutive outputs move by at most
    one resolution step in the radial coordinate; the finitely many tie
    parameters (where a scaled magnitude equals its partner's) are included
    exactly, since the balanced outputs occur only there.  ``lam = -inf`` is
    the zero scalar.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    scale = max(
        max((_radius(c) for c in a), default=0.0),
        max((_radius(c) for c in b), default=0.0),
        1.0,
    )
    n_steps = min(int(math.ceil(scale / g.resolution)), 2_000_000)
    out: List[SVector] = []
    seen = set()

    def emit(v: SVector):
        if v not in seen:
            seen.add(v)
            out.append(v)

    def scaled_point(p: SVector, q: SVector, lam: float) -> SVector:
        # direct evaluation of (lam (*) p) (+) q; where lam was inserted as a
        # tie value qi - pi, form the scaled exponent as exactly qi so the
        # float tie is hit (naively (qi - pi) + pi can miss by an ulp)
        coords = []
        for pi, qi in zip(p, q):
            if lam == -math.inf or pi.is_zero:
                scaled = _ZERO
            elif not qi.is_zero and qi.exp - pi.exp == lam:
                scaled = SElem(pi.sign, qi.exp)
            else:
                scaled = SElem(pi.sign, lam + pi.exp)
            coords.append(_signed_max(scaled, qi))
        return SVector(tuple(coords))

    for p, q in ((a, b), (b, a)):
        lams: List[float] = [-math.inf]
        for k in range(n_steps + 1):
            s = k / n_steps
            if s > 0.0:
                lams.append(math.log(s))
        for pi, qi in zip(p, q):
            if not (pi.is_zero or qi.is_zero):
                tie = qi.exp - pi.exp
                if tie <= 0:
                    lams.append(tie)
        for lam in lams:
            emit(scaled_point(p, q, lam))
    return out


def grid_connected(C: RaySet, g: GridSpec) -> bool:
    """Connectivity of the discretized set: consecutive grid points within an
    interval are adjacent, and all rays meet at the origin node (any node
    with m < resolution counts as touching the origin)."""
    if C.is_empty:
        raise ValueError("empty set")
    nodes: List[Tuple[int, float]] = []
    index: Dict[Tuple[int, float], int] = {}
    parent: List[int] = []

    def add(key) -> int:
        if key not in index:
            index[key] = len(nodes)
            nodes.append(key)
            parent.append(len(parent))
        return index[key]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def link(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    origin_node = None
    for code, values in _interval_grids(C, g):
        prev = None
        for m in values.tolist():
            node = add((code, m))
            if prev is not None:
                link(prev, node)
            if m < g.resolution:
                if origin_node is None:
                    origin_node = node
                link(origin_node, node)
            prev = node
    roots = {find(i) for i in range(len(nodes))}
    return len(roots) == 1
