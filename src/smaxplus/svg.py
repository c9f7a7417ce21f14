"""Deterministic SVG rendering of embedded one- and two-coordinate objects.

Each coordinate gets a panel showing the three tripod rays at 120 degrees;
sets render as strokes along the rays, segment pieces as polylines through
the embedded image, breakpoints as markers and projections as arrows.  The
output is byte-for-byte reproducible for identical inputs.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .algebra import RAYS, Sign
from .metrics import SVector, phi
from .segments import BrokenLine, PointPiece, SegmentSet, as_segment_set, psi_inverse

if TYPE_CHECKING:
    from .raysets import BoxSet, RaySet

_RAY_ANGLE = {Sign.PLUS: 2.0 * math.pi / 3.0, Sign.MINUS: 4.0 * math.pi / 3.0, Sign.BALANCED: 0.0}

_STYLE_RAY = 'stroke="#bbbbbb" stroke-width="0.02"'
_STYLE_SET = 'stroke="#1f77b4" stroke-width="0.06" stroke-linecap="round"'
_STYLE_SEGMENT = 'stroke="#d62728" stroke-width="0.035" fill="none"'
_STYLE_ARROW = 'stroke="#2ca02c" stroke-width="0.025" fill="none"'


# Drawn radii are capped here, so that the panel spacing and the view box,
# each a few times the largest radius, stay finite when a magnitude
# saturates at the float maximum; such a scene is unreadable anyway.
_MAX_RADIUS = sys.float_info.max / 8.0

# an arc is drawn as a polyline through this many chord steps
_ARC_SAMPLES = 64


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class _Panel:
    """Collects drawing commands for one coordinate's plane (local coords;
    the panel is translated into place at render time)."""

    def __init__(self):
        self.commands: List[str] = []
        self.min_x = self.max_x = 0.0
        self.min_y = self.max_y = 0.0

    def _pt(self, z: complex) -> Tuple[float, float]:
        # flip the imaginary axis so the plus ray points up-left on screen
        x, y = z.real, -z.imag
        if abs(x) > _MAX_RADIUS or abs(y) > _MAX_RADIUS:
            x = min(max(x, -_MAX_RADIUS), _MAX_RADIUS)
            y = min(max(y, -_MAX_RADIUS), _MAX_RADIUS)
        self.min_x = min(self.min_x, x)
        self.max_x = max(self.max_x, x)
        self.min_y = min(self.min_y, y)
        self.max_y = max(self.max_y, y)
        return x, y

    def line(self, z1: complex, z2: complex, style: str):
        (x1, y1), (x2, y2) = self._pt(z1), self._pt(z2)
        self.commands.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style} />'
        )

    def polyline(self, zs: Sequence[complex], style: str):
        pts = " ".join("{0},{1}".format(_fmt(x), _fmt(y)) for x, y in (self._pt(z) for z in zs))
        self.commands.append(f'<polyline points="{pts}" {style} />')

    def dot(self, z: complex, radius: float, fill: str):
        x, y = self._pt(z)
        self.commands.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" fill="{fill}" />'
        )


class Scene:
    """A row of per-coordinate panels over embedded tripods."""

    def __init__(self, n: int):
        if n > 2:
            raise ValueError("SVG rendering supports one or two coordinates only")
        self.n = n
        self.ray_extent = 1.0
        self.panels = [_Panel() for _ in range(n)]

    def _ray_point(self, ray: Sign, m: float) -> complex:
        # capped before scaling, since inf * sin(0) would be nan
        m = min(m, _MAX_RADIUS)
        ang = _RAY_ANGLE[ray]
        return complex(m * math.cos(ang), m * math.sin(ang))

    def add_ray_set(self, coord: int, C: RaySet):
        panel = self.panels[coord]
        for ray in RAYS:
            for lo, hi in C.intervals(ray):
                hi = min(hi, self.ray_extent * 4.0)
                self.ray_extent = max(self.ray_extent, hi)
                if hi > lo:
                    panel.line(self._ray_point(ray, lo), self._ray_point(ray, hi), _STYLE_SET)
                else:
                    panel.dot(self._ray_point(ray, lo), 0.05, "#1f77b4")

    def add_box_set(self, A: BoxSet):
        for i, C in enumerate(A.factors):
            self.add_ray_set(i, C)

    def add_point(self, x: SVector, fill: str = "#000000", radius: float = 0.05):
        for i, c in enumerate(x):
            self.panels[i].dot(phi(c), radius, fill)
            self.ray_extent = max(self.ray_extent, abs(phi(c)))

    def add_segment_set(self, seg: SegmentSet):
        for piece in seg.pieces:
            if isinstance(piece, PointPiece):
                self.add_point(piece.point, "#d62728", 0.045)
                continue
            path = [piece.point_at(t / _ARC_SAMPLES) for t in range(_ARC_SAMPLES + 1)]
            for i in range(self.n):
                zs = [phi(v[i]) for v in path]
                self.panels[i].polyline(zs, _STYLE_SEGMENT)
            for v in path:
                self.ray_extent = max(
                    self.ray_extent, max(abs(phi(c)) for c in v)
                )

    def add_broken_line(self, line: BrokenLine):
        self.add_segment_set(as_segment_set(line))
        for p in line.vertices[1:-1]:
            self.add_point(psi_inverse(line.chart, p), "#ff7f0e", 0.05)

    def add_projection(self, x: SVector, targets: Sequence[SVector]):
        self.add_point(x, "#2ca02c", 0.055)
        for y in targets:
            for i in range(self.n):
                self.panels[i].line(phi(x[i]), phi(y[i]), _STYLE_ARROW)
            self.add_point(y, "#2ca02c", 0.04)

    def render(self) -> str:
        extent = min(self.ray_extent, _MAX_RADIUS) * 1.05
        for panel in self.panels:
            for ray in RAYS:
                panel.line(complex(0, 0), self._ray_point(ray, extent), _STYLE_RAY)
        spacing = 2.6 * extent
        min_x = min(p.min_x + i * spacing for i, p in enumerate(self.panels))
        max_x = max(p.max_x + i * spacing for i, p in enumerate(self.panels))
        min_y = min(p.min_y for p in self.panels)
        max_y = max(p.max_y for p in self.panels)
        pad = 0.1 * max(max_x - min_x, max_y - min_y, 1.0)
        vb = (min_x - pad, min_y - pad, (max_x - min_x) + 2 * pad, (max_y - min_y) + 2 * pad)
        body: List[str] = []
        for i, panel in enumerate(self.panels):
            body.append(f'<g transform="translate({_fmt(i * spacing)} 0)">')
            body.extend(panel.commands)
            body.append("</g>")
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="480" height="360" viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">\n'
        )
        return header + "\n".join(body) + "\n</svg>\n"


def render_segment_svg(obj) -> str:
    """Standalone SVG for a broken line or a segment set."""
    if isinstance(obj, BrokenLine):
        n = len(obj.vertices[0])
        scene = Scene(n)
        scene.add_broken_line(obj)
    else:
        n = None
        for piece in obj.pieces:
            n = len(piece.point) if isinstance(piece, PointPiece) else len(piece.start)
            break
        scene = Scene(n or 1)
        scene.add_segment_set(obj)
    return scene.render()


def render_projection_svg(x: SVector, points: Sequence[SVector], box: BoxSet) -> str:
    scene = Scene(len(x))
    scene.add_box_set(box)
    scene.add_projection(x, points)
    return scene.render()
