"""SVG output: vertices as circles, straight or circular-arc edges, and a
blue-to-red color spectrum for centrality."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import ArcEdge
from .graphs import Graph


def _escape(text: str) -> str:
    """XML character data: &, < and > escaped as xml.sax.saxutils.escape does,
    without importing it (it pulls in urllib and http at start-up)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class RenderError(ValueError):
    """Raised when a drawing cannot be serialized."""


@dataclass(frozen=True)
class Color:
    r: int
    g: int
    b: int

    def __post_init__(self) -> None:
        for component in (self.r, self.g, self.b):
            if not 0 <= component <= 255:
                raise ValueError(f"color component {component} out of range")

    @property
    def css(self) -> str:
        return f"#{self.r:02x}{self.g:02x}{self.b:02x}"


def color_for(value: float, lo: float, hi: float) -> Color:
    """Linear blue-to-red spectrum: blue at lo, red at hi, clamped outside."""
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    if lo == hi:
        return Color(255, 0, 0)
    t = (value - lo) / (hi - lo)
    t = min(1.0, max(0.0, t))
    # round half up so the midpoint lands on (128, 0, 128)
    r = int(math.floor(255.0 * t + 0.5))
    b = int(math.floor(255.0 * (1.0 - t) + 0.5))
    return Color(r, 0, b)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _arc_path(arc: ArcEdge) -> str:
    geom = arc.geometry
    assert geom is not None
    ux, uy = arc.p_u
    vx, vy = arc.p_v
    large_flag = int(abs(geom.sweep) > math.pi)
    r = _fmt(geom.radius)
    return (
        f"M {_fmt(ux)} {_fmt(uy)} "
        f"A {r} {r} 0 {large_flag} {int(geom.ccw)} {_fmt(vx)} {_fmt(vy)}"
    )


def _arc_bounds(arcs: list[ArcEdge]) -> np.ndarray:
    """Points whose bounding box is the curved arcs' own: each arc's
    endpoints, plus each axis extreme of its circle that lies on the
    control's side of the chord, which is the side the arc runs on."""
    curved = [a for a in arcs if not a.straight]
    if not curved:
        return np.empty((0, 2))
    u = np.asarray([a.p_u for a in curved], dtype=float)
    v = np.asarray([a.p_v for a in curved], dtype=float)
    center = np.asarray([a.geometry.center for a in curved], dtype=float)
    radius = np.asarray([a.geometry.radius for a in curved], dtype=float)[:, None]
    chord = v - u

    def side(p: np.ndarray) -> np.ndarray:
        return chord[:, 0] * (p[:, 1] - u[:, 1]) - chord[:, 1] * (p[:, 0] - u[:, 0])

    control_side = side(np.asarray([a.control for a in curved], dtype=float))
    points = [u, v]
    for e in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        extreme = center + radius * np.asarray(e)
        points.append(extreme[side(extreme) * control_side > 0])
    return np.vstack(points)


def render_svg(
    g: Graph,
    positions,
    colors: list[Color] | None = None,
    arcs: list[ArcEdge] | None = None,
    *,
    k: float = 80.0,
    show_labels: bool = False,
) -> str:
    """Serialize a drawing to a standalone SVG document.

    Edges are drawn first (lines, or circular-arc paths when arcs are
    given) in #444444 at width 0.01 * k, vertices on top as filled
    circles of radius 0.05 * k. The drawing keeps y-up mathematical
    orientation via a flip transform, and the viewBox is the drawing's
    bounding box, vertices and every drawn arc, padded by 0.1 * k.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.shape != (g.vertex_count, 2):
        raise RenderError(f"positions shape {pos.shape} does not match {g.vertex_count} vertices")
    bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
    if bad.size:
        raise RenderError(f"non-finite coordinate for vertex {g.label_of(int(bad[0]))}")
    radius = 0.05 * k
    stroke = f'stroke="#444444" stroke-width="{_fmt(0.01 * k)}"'
    pad = 0.1 * k

    points = [pos] if g.vertex_count else []
    if arcs:
        points.append(_arc_bounds(arcs))
    if points:
        allpts = np.vstack(points)
        xmin, ymin = allpts.min(axis=0)
        xmax, ymax = allpts.max(axis=0)
    else:
        xmin = ymin = 0.0
        xmax = ymax = 0.0

    vb_x = xmin - pad
    vb_y = -(ymax + pad)
    vb_w = (xmax - xmin) + 2 * pad
    vb_h = (ymax - ymin) + 2 * pad

    arc_by_edge = {a.edge: a for a in arcs} if arcs else {}
    body: list[str] = []
    for u, v in g.edges:
        arc = arc_by_edge.get((u, v))
        if arc is not None and not arc.straight:
            body.append(
                f'<path d="{_arc_path(arc)}" fill="none" {stroke}/>'
            )
        else:
            body.append(
                f'<line x1="{_fmt(pos[u, 0])}" y1="{_fmt(pos[u, 1])}" '
                f'x2="{_fmt(pos[v, 0])}" y2="{_fmt(pos[v, 1])}" {stroke}/>'
            )
    for v in range(g.vertex_count):
        fill = colors[v].css if colors is not None else "#5b7db1"
        body.append(
            f'<circle cx="{_fmt(pos[v, 0])}" cy="{_fmt(pos[v, 1])}" '
            f'r="{_fmt(radius)}" fill="{fill}"/>'
        )
    if show_labels:
        for v in range(g.vertex_count):
            # counter-flip each label so text is not mirrored by the group transform
            body.append(
                f'<text transform="translate({_fmt(pos[v, 0] + 1.2 * radius)} '
                f'{_fmt(pos[v, 1])}) scale(1,-1)" font-size="{_fmt(1.5 * radius)}" '
                f'fill="#222222">{_escape(g.label_of(v))}</text>'
            )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vb_x)} {_fmt(vb_y)} {_fmt(vb_w)} {_fmt(vb_h)}">',
        '<g transform="scale(1,-1)">',
        *body,
        "</g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
