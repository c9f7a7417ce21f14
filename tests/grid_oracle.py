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


def _sweep_columns(p: SVector, q: SVector, lam: np.ndarray):
    """Per swept parameter and coordinate, the value of (lam (*) p) (+) q as
    a ray code and an exponent (the origin is code 2 at -inf), and whether
    the scaled coordinate, not q's, gives it.  The signed max is taken
    directly: the larger magnitude wins, and on a tie equal signs keep the
    sign and distinct signs balance."""
    none = np.zeros(len(lam), dtype=bool)
    live = lam > -math.inf  # lam = -inf is the zero scalar
    codes, exps, scaled = [], [], []
    for pi, qi in zip(p, q):
        q_code = _ORIGIN_CODE if qi.is_zero else _RAYS.index(qi.sign)
        q_exp = -math.inf if qi.is_zero else float(qi.exp)
        if pi.is_zero:
            e, wins, balanced = lam, none, none
        elif qi.is_zero:
            e, wins, balanced = lam + pi.exp, live, none
        else:
            # where lam was inserted as a tie value qi - pi, the scaled
            # exponent is exactly qi's (naively (qi - pi) + pi can miss by
            # an ulp)
            e = np.where(lam == qi.exp - pi.exp, q_exp, lam + pi.exp)
            tie = live & (e == q_exp)
            if pi.sign is qi.sign:
                wins, balanced = (live & (e > q_exp)) | tie, none
            else:
                wins, balanced = live & (e > q_exp), tie
        code = np.where(balanced, _RAYS.index(Sign.BALANCED), q_code)
        codes.append(np.where(wins, _RAYS.index(pi.sign), code))
        exps.append(np.where(wins | balanced, e, q_exp))
        scaled.append(wins | balanced)
    return np.stack(codes, axis=1), np.stack(exps, axis=1), np.stack(scaled, axis=1)


def grid_segment_sm(a: SVector, b: SVector, g: GridSpec) -> List[SVector]:
    """Deduplicated cloud of scaled combinations with max-normalized
    parameters, swept over a grid.

    The sweep is uniform in s = e**lam so consecutive outputs move by at most
    one resolution step in the radial coordinate; the finitely many tie
    parameters (where a scaled magnitude equals its partner's) are included
    exactly, since the balanced outputs occur only there.  ``lam = -inf`` is
    the zero scalar.  The sweep runs as arrays; vectors are built only for
    the distinct rows, in order of first occurrence.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    scale = max(
        max((_radius(c) for c in a), default=0.0),
        max((_radius(c) for c in b), default=0.0),
        1.0,
    )
    n_steps = min(int(math.ceil(scale / g.resolution)), 2_000_000)
    grid = [-math.inf] + [math.log(k / n_steps) for k in range(1, n_steps + 1)]
    rows = []  # (p, q, lam) per swept parameter, both families in turn
    columns = []
    for p, q in ((a, b), (b, a)):
        ties = [qi.exp - pi.exp for pi, qi in zip(p, q) if not (pi.is_zero or qi.is_zero)]
        lams = grid + [t for t in ties if t <= 0]
        rows += [(p, q, lam) for lam in lams]
        columns.append(_sweep_columns(p, q, np.array(lams, dtype=float)))
    codes, exps, scaled = (np.concatenate(c) for c in zip(*columns))
    # rows compare as numbers (so -0.0 == 0.0, as for elements), and the
    # stable sort behind return_index gives each row's first occurrence
    _, first = np.unique(np.concatenate([codes, exps], axis=1), axis=0, return_index=True)
    keep = np.sort(first)
    out = []
    for r, row_codes, row_scaled in zip(keep.tolist(), codes[keep].tolist(), scaled[keep].tolist()):
        p, q, lam = rows[r]
        coords = []
        for pi, qi, code, own in zip(p, q, row_codes, row_scaled):
            if not own:
                coords.append(qi)
            elif not qi.is_zero and qi.exp - pi.exp == lam:
                coords.append(SElem(_RAYS[code], qi.exp))
            else:
                coords.append(SElem(_RAYS[code], lam + pi.exp))
        out.append(SVector(tuple(coords)))
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
