"""SVG output: vertices as circles, edges as lines or as circular arcs given
by their sweeps (`arcs.arc_geometry`), and a blue-to-red color spectrum for
centrality."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import _check_sweeps, arc_geometry
from .graphs import Graph, _check_finite, _numbers


def _escape(text: str) -> str:
    """XML character data: &, < and > escaped as xml.sax.saxutils.escape does,
    without importing it (it pulls in urllib and http at start-up)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_char(c: str) -> bool:
    """Whether XML 1.0 allows c: tab, LF, CR and U+0020 on, less the
    surrogates, U+FFFE and U+FFFF."""
    return c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"


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


def _arc_extremes(u, v, mid, center, radius) -> np.ndarray:
    """The axis extremes of the circles of the arcs from u to v through mid
    that lie on mid's side of the chord, the side the arc runs on: with the
    vertices, the points whose bounding box is the drawing's."""
    chord = v - u

    def side(p: np.ndarray) -> np.ndarray:
        return chord[:, 0] * (p[:, 1] - u[:, 1]) - chord[:, 1] * (p[:, 0] - u[:, 0])

    axes = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
    extremes = [center + radius[:, None] * np.asarray(e) for e in axes]
    return np.vstack([p[side(p) * side(mid) > 0] for p in extremes])


def render_svg(
    g: Graph,
    positions,
    colors: list[Color] | None = None,
    sweeps=None,
    *,
    k: float = 80.0,
    show_labels: bool = False,
) -> str:
    """Serialize a drawing to a standalone SVG document.

    Edges are drawn first, in #444444 at width 0.01 * k: a line, or, when
    sweeps gives the edge an arc of finite radius (`arcs.arc_geometry`), the
    circular-arc path of that sweep between its endpoints' positions.
    Vertices go on top as filled circles of radius 0.05 * k. The drawing
    keeps y-up mathematical orientation via a flip transform, and the
    viewBox is the drawing's bounding box, vertices and every drawn arc,
    padded by 0.1 * k. RenderError unless k is a positive finite number,
    positions pass `engine.check_positions`, colors, when given, holds one
    Color per vertex, and sweeps, when given, holds one number in (-2 pi,
    2 pi) per edge: numbers by `graphs._numbers`, never bools.
    """
    try:
        if _check_finite("k", k) <= 0:
            raise ValueError
    except ValueError:
        raise RenderError(f"k must be a positive finite number, got {k!r}") from None
    try:
        pos = _numbers("positions", positions, width=2)
        sweeps = np.zeros(g.edge_count) if sweeps is None else _check_sweeps(sweeps, g.edge_count)
        if pos.shape != (g.vertex_count, 2):
            raise ValueError(f"positions shape {pos.shape} does not match {g.vertex_count} vertices")
        bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite coordinate for vertex {g.label_of(int(bad[0]))}")
        mid, center, arc_radius = arc_geometry(pos, g, sweeps)
    except ValueError as exc:
        raise RenderError(str(exc)) from None
    if colors is not None and len(colors) != g.vertex_count:
        raise RenderError(f"{len(colors)} colors for {g.vertex_count} vertices")
    if colors is not None and not all(isinstance(c, Color) for c in colors):
        raise RenderError("colors holds an entry that is not a Color")
    radius = 0.05 * k
    stroke = f'stroke="#444444" stroke-width="{_fmt(0.01 * k)}"'
    pad = 0.1 * k

    curved = np.flatnonzero(np.isfinite(arc_radius))
    ends = g.edge_array[curved]
    pu, pv = pos[ends[:, 0]], pos[ends[:, 1]]
    bounds = np.vstack((pos, _arc_extremes(pu, pv, mid[curved], center[curved], arc_radius[curved])))
    if bounds.size:
        xmin, ymin = bounds.min(axis=0)
        xmax, ymax = bounds.max(axis=0)
    else:
        xmin = ymin = xmax = ymax = 0.0

    vb_x = xmin - pad
    vb_y = -(ymax + pad)
    vb_w = (xmax - xmin) + 2 * pad
    vb_h = (ymax - ymin) + 2 * pad

    body = [
        f'<line x1="{_fmt(pos[u, 0])}" y1="{_fmt(pos[u, 1])}" '
        f'x2="{_fmt(pos[v, 0])}" y2="{_fmt(pos[v, 1])}" {stroke}/>'
        for u, v in g.edges
    ]
    for e, (u, v) in zip(curved.tolist(), ends.tolist()):
        s, r = sweeps[e], _fmt(arc_radius[e])
        body[e] = (
            f'<path d="M {_fmt(pos[u, 0])} {_fmt(pos[u, 1])} '
            f'A {r} {r} 0 {int(abs(s) > math.pi)} {int(s > 0)} {_fmt(pos[v, 0])} {_fmt(pos[v, 1])}" '
            f'fill="none" {stroke}/>'
        )
    for v in range(g.vertex_count):
        fill = colors[v].css if colors is not None else "#5b7db1"
        body.append(
            f'<circle cx="{_fmt(pos[v, 0])}" cy="{_fmt(pos[v, 1])}" '
            f'r="{_fmt(radius)}" fill="{fill}"/>'
        )
    if show_labels:
        for v in range(g.vertex_count):
            label = g.label_of(v)
            if not all(map(_xml_char, label)):
                raise RenderError(f"the label of vertex {v} holds a character XML 1.0 forbids")
            # counter-flip each label so text is not mirrored by the group transform
            body.append(
                f'<text transform="translate({_fmt(pos[v, 0] + 1.2 * radius)} '
                f'{_fmt(pos[v, 1])}) scale(1,-1)" font-size="{_fmt(1.5 * radius)}" '
                f'fill="#222222">{_escape(label)}</text>'
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
