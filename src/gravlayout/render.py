"""SVG output: vertices as circles, edges as lines or as circular arcs given
by their sweeps (`arcs.arc_geometry`), and each vertex colored by its value,
such as its centrality, on a blue-to-red spectrum."""

from __future__ import annotations

import math

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


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _fills(values: np.ndarray | None, n: int) -> list[int]:
    """The n circle fills, as 0xRRGGBB ints, by the rule render_svg states."""
    if values is None or not n:
        return [0x5B7DB1] * n
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return [0xFF0000] * n
    if hi - lo == math.inf:
        # a spread beyond the float range: halve every value (exact, but for
        # subnormals) so hi - lo is finite and t keeps its value
        values, lo, hi = values / 2, lo / 2, hi / 2
    t = (values - lo) / (hi - lo)
    return (np.floor(255.0 * t + 0.5) * 0x10000 + np.floor(255.0 * (1.0 - t) + 0.5)).astype(np.int64).tolist()


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
    values=None,
    sweeps=None,
    *,
    k: float = 80.0,
    show_labels: bool = False,
) -> str:
    """Serialize a drawing to a standalone SVG document.

    Edges are drawn first, in #444444 at width 0.01 * k: a line, or, when
    sweeps gives the edge an arc of finite radius (`arcs.arc_geometry`), the
    circular-arc path of that sweep between its endpoints' positions.
    Vertices go on top as circles of radius 0.05 * k, filled #5b7db1 without
    values, else by their value on a linear blue-to-red spectrum: t = (v -
    lo) / (hi - lo) over the values' least lo and greatest hi gives #RR00BB
    with R = floor(255 t + 0.5) and B = floor(255 (1 - t) + 0.5), and every
    fill is #ff0000 when lo == hi. The drawing keeps y-up mathematical
    orientation via a flip transform, and the viewBox is the drawing's
    bounding box, vertices and every drawn arc, padded by 0.1 * k.
    RenderError unless k is a positive finite number, positions pass
    `engine.check_positions`, values, when given, holds one finite number
    per vertex, and sweeps, when given, holds one number in (-2 pi, 2 pi)
    per edge: numbers by `graphs._numbers`, never bools.
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
        if values is not None:
            rule = f"values must hold {g.vertex_count} finite numbers, one per vertex"
            values = _numbers(rule, values)
            if values.shape != (g.vertex_count,) or not np.isfinite(values).all():
                raise ValueError(rule)
    except ValueError as exc:
        raise RenderError(str(exc)) from None
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
        for u, v in g.edge_array.tolist()
    ]
    for e, (u, v) in zip(curved.tolist(), ends.tolist()):
        s, r = sweeps[e], _fmt(arc_radius[e])
        body[e] = (
            f'<path d="M {_fmt(pos[u, 0])} {_fmt(pos[u, 1])} '
            f'A {r} {r} 0 {int(abs(s) > math.pi)} {int(s > 0)} {_fmt(pos[v, 0])} {_fmt(pos[v, 1])}" '
            f'fill="none" {stroke}/>'
        )
    for v, fill in enumerate(_fills(values, g.vertex_count)):
        body.append(
            f'<circle cx="{_fmt(pos[v, 0])}" cy="{_fmt(pos[v, 1])}" '
            f'r="{_fmt(radius)}" fill="#{fill:06x}"/>'
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
