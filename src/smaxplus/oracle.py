"""Brute-force reference routines used to validate the analytic operations.

Everything here is intentionally naive: nearest points by scoring grid
points, segment enumeration by sweeping the scaling parameter, connectivity
by flooding a discretized graph.  Grids are deterministic functions of the
``GridSpec`` alone.  The tests and the CLI's hidden ``oracle`` subcommand
are the only callers; numpy, which the grids use, is a test dependency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .algebra import EPS, SElem, Sign, ZERO, s_oplus
from .metrics import MetricId, SVector, magnitude
from .projection import ProjectionResult
from .raysets import BoxSet, RaySet, point_on_ray

_RAYS = (Sign.PLUS, Sign.MINUS, Sign.BALANCED)


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


DEFAULT_GRID = GridSpec()


def _interval_grids(C: RaySet, g: GridSpec) -> Iterator[Tuple[Sign, List[float]]]:
    """Per interval of the set, clipped at the truncation bound: its ray and
    its grid values, one resolution step apart from the low endpoint, with
    the clipped high endpoint included exactly."""
    for ray in _RAYS:
        for lo, hi in C.intervals(ray):
            hi = min(hi, g.max_magnitude)
            if hi < lo:
                continue
            n_steps = int(math.floor((hi - lo) / g.resolution))
            values = [lo + k * g.resolution for k in range(n_steps + 1)]
            if values[-1] != hi:
                values.append(hi)
            yield ray, values


def grid_of_ray_set(C: RaySet, g: GridSpec) -> List[Tuple[Sign, float]]:
    """Grid points of the set, clipped at the truncation bound.  Interval
    endpoints are always included exactly."""
    points: List[Tuple[Sign, float]] = []
    seen = set()
    for ray, values in _interval_grids(C, g):
        for m in values:
            key = (Sign.BALANCED, 0.0) if m == 0.0 else (ray, m)
            if key not in seen:
                seen.add(key)
                points.append(key)
    if not points:
        raise ValueError("grid intersection is empty (truncation too small)")
    return points


def _coord_distances(x: SElem, grid: Sequence[Tuple[Sign, float]], base: int) -> np.ndarray:
    mx = magnitude(x)
    same = np.array(
        [x.is_zero or m == 0.0 or ray is x.sign for ray, m in grid], dtype=bool
    )
    ms = np.array([m for _, m in grid], dtype=float)
    radial = np.abs(ms - mx)
    if base == 2:
        cross = ms + mx
    else:
        cross = np.sqrt(ms * ms + mx * mx + ms * mx)
    return np.where(same, radial, cross)


def grid_project(x: SVector, A: BoxSet, mid: MetricId, g: GridSpec) -> ProjectionResult:
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
    dists = [_coord_distances(xi, gi, mid.base) for xi, gi in zip(x, grids)]
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

    best = math.inf
    cloud: List[Tuple[Tuple[Tuple[Sign, float], ...], float]] = []
    for combo in itertools.product(*[range(len(idx)) for idx in keep]):
        ds = [float(dists[i][keep[i][combo[i]]]) for i in range(n)]
        if mid.combine == "sum":
            d = sum(ds)
        elif mid.combine == "euclid":
            d = math.sqrt(sum(v * v for v in ds))
        else:
            d = max(ds)
        if d < best:
            best = d
        if d <= threshold:
            point = tuple(grids[i][keep[i][combo[i]]] for i in range(n))
            cloud.append((point, d))

    final = [(pt, d) for pt, d in cloud if d <= best + slack]
    vectors = sorted(
        {tuple(pt) for pt, _ in final},
        key=lambda pt: tuple((0 if r is Sign.PLUS else 1 if r is Sign.MINUS else 2, m) for r, m in pt),
    )
    points = tuple(
        SVector(tuple(point_on_ray(ray, m) for ray, m in pt)) for pt in vectors
    )
    return ProjectionResult(points, best, len(points) == 1)


def grid_segment_sm(a: SVector, b: SVector, g: GridSpec) -> List[SVector]:
    """Deduplicated cloud of scaled combinations with max-normalized
    parameters, swept over a grid.

    The sweep is uniform in s = e**lam so consecutive outputs move by at most
    one resolution step in the radial coordinate; the finitely many tie
    parameters (where a scaled magnitude equals its partner's) are included
    exactly, since the balanced outputs occur only there.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    scale = max(
        max((magnitude(c) for c in a), default=0.0),
        max((magnitude(c) for c in b), default=0.0),
        1.0,
    )
    n_steps = min(int(math.ceil(scale / g.resolution)), 2_000_000)
    out: List[SVector] = []
    seen = set()

    def emit(v: SVector):
        if v not in seen:
            seen.add(v)
            out.append(v)

    def scaled_point(p: SVector, q: SVector, lam) -> SVector:
        # direct evaluation of (lam (*) p) (+) q; where lam was inserted as a
        # tie value qi - pi, form the scaled exponent as exactly qi so the
        # float tie is hit (naively (qi - pi) + pi can miss by an ulp)
        coords = []
        for pi, qi in zip(p, q):
            if lam is EPS or pi.exp is EPS:
                scaled = ZERO
            elif qi.exp is not EPS and qi.exp - pi.exp == lam:
                scaled = SElem(pi.sign, qi.exp)
            else:
                scaled = SElem(pi.sign, lam + pi.exp)
            coords.append(s_oplus(scaled, qi))
        return SVector(tuple(coords))

    for p, q in ((a, b), (b, a)):
        lams: List[object] = [EPS]
        for k in range(n_steps + 1):
            s = k / n_steps
            if s > 0.0:
                lams.append(math.log(s))
        for pi, qi in zip(p, q):
            if pi.exp is not EPS and qi.exp is not EPS:
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
    nodes: List[Tuple[Sign, float]] = []
    index: Dict[Tuple[Sign, float], int] = {}
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
    for ray, values in _interval_grids(C, g):
        prev = None
        for m in values:
            node = add((ray, m))
            if prev is not None:
                link(prev, node)
            if m < g.resolution:
                if origin_node is None:
                    origin_node = node
                link(origin_node, node)
            prev = node
    roots = {find(i) for i in range(len(nodes))}
    return len(roots) == 1
