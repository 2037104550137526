"""Circular-arc edges in closed form: tangent angles, as in Lombardi drawings.

A Lombardi drawing (Duncan, Eppstein, Goodrich, Kobourov, Nöllenburg, GD
2010) draws each edge as a circular arc so that the edge tangents at every
vertex are equally spaced. After the main layout, each vertex v of degree d
gets d equally spaced tangents, turned by the rotation theta_v that best
fits its chords taken counter-clockwise: the circular mean of (chord angle
- 2 pi i / d), as in the tangent-based method of Chernobelskiy et al. (GD
2011). Each end of an edge then wishes its tangent to leave the chord by
delta, its tangent minus its chord angle wrapped to (-pi, pi], and the edge
takes the arc of sweep delta_v - delta_u, the compromise between its two
ends. No vertex moves: the arcs are fitted through the main layout's
positions, and each arc's midpoint is its control point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import TWO_PI, LayoutConfig, run_layout
from .graphs import Graph

# A triangle flatter than this fraction of k^2 is treated as collinear.
COLLINEAR_AREA_TOL = 1e-9


@dataclass(frozen=True)
class CircularArc:
    """Circle support of an arc: center, radius, and the signed angle swept
    from the first endpoint to the second, in radians with |sweep| <= 2*pi
    (positive = counter-clockwise in y-up coordinates)."""

    center: tuple[float, float]
    radius: float
    sweep: float

    @property
    def ccw(self) -> bool:
        return self.sweep > 0


@dataclass(frozen=True)
class ArcEdge:
    """One drawn edge: endpoints, the arc's midpoint as its control point,
    and geometry.

    geometry is a CircularArc through both endpoints and the control point,
    or None when the three points are collinear and the edge stays straight.
    """

    edge: tuple[int, int]
    p_u: tuple[float, float]
    p_v: tuple[float, float]
    control: tuple[float, float]
    geometry: CircularArc | None

    @property
    def straight(self) -> bool:
        return self.geometry is None


def fit_arc(p_u, p_v, p_d, scale: float = 80.0) -> CircularArc | None:
    """Circumcircle through the three points, as the arc from p_u to p_v
    passing through p_d; None (straight segment) when the triangle they
    span is flatter than COLLINEAR_AREA_TOL * scale^2.
    """
    a = np.asarray(p_u, dtype=float)
    b = np.asarray(p_v, dtype=float)
    c = np.asarray(p_d, dtype=float)
    if np.array_equal(a, b):
        raise ValueError("fit_arc requires distinct endpoints")
    cross2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if abs(cross2) * 0.5 < COLLINEAR_AREA_TOL * scale * scale:
        return None
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    cx = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    cy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    radius = math.hypot(a[0] - cx, a[1] - cy)
    theta_u = math.atan2(a[1] - cy, a[0] - cx)
    theta_v = math.atan2(b[1] - cy, b[0] - cx)
    theta_d = math.atan2(c[1] - cy, c[0] - cx)
    sweep = (theta_v - theta_u) % TWO_PI
    if (theta_d - theta_u) % TWO_PI >= sweep:  # p_d off the ccw sweep: turn clockwise
        sweep = -((theta_u - theta_v) % TWO_PI)
    return CircularArc(center=(float(cx), float(cy)), radius=float(radius), sweep=float(sweep))


def _sweeps(pos: np.ndarray, ea: np.ndarray) -> np.ndarray:
    """Each edge's compromise sweep, delta_v - delta_u, from its ends' wishes.

    An arc of sweep s leaves u at s / 2 clockwise of the chord and v at
    s / 2 counter-clockwise of its chord, so it meets both wishes when
    delta_u = -s / 2 and delta_v = s / 2, and splits the difference when
    they disagree.

    Half-edge h < m leaves u = ea[h, 0], half-edge m + h leaves v. One sort
    by (vertex, chord angle) ranks each half-edge i among its vertex's d
    chords, counter-clockwise; its slot is 2 pi i / d.
    """
    n, m = pos.shape[0], ea.shape[0]
    tail = np.concatenate((ea[:, 0], ea[:, 1]))
    head = np.concatenate((ea[:, 1], ea[:, 0]))
    d = pos[head] - pos[tail]
    chord = np.arctan2(d[:, 1], d[:, 0])
    order = np.lexsort((chord, tail))
    degree = np.bincount(tail, minlength=n)
    rank = np.empty(2 * m, dtype=np.int64)
    rank[order] = np.arange(2 * m) - (np.cumsum(degree) - degree)[tail[order]]
    slot = TWO_PI * rank / degree[tail]
    rest = chord - slot
    theta = np.arctan2(np.bincount(tail, np.sin(rest), n), np.bincount(tail, np.cos(rest), n))
    wish = math.pi - (math.pi - (theta[tail] - rest)) % TWO_PI  # wrapped to (-pi, pi]
    return wish[m:] - wish[:m]


def layout_lombardi(g: Graph, mass, config: LayoutConfig) -> tuple[np.ndarray, list[ArcEdge]]:
    """Main layout, then closed-form tangent arcs; returns positions and arcs.

    The positions are the plain run_layout result: the arcs move no vertex.
    An edge of sweep s has its midpoint at the chord's midpoint plus
    tan(s / 4) times half the chord turned clockwise, and fit_arc draws its
    circle through that control point, scaled by k.
    """
    pos = run_layout(g, mass, config)
    ea = g.edge_array
    pu, pv = pos[ea[:, 0]], pos[ea[:, 1]]
    half = 0.5 * (pv - pu)
    bulge = np.tan(0.25 * _sweeps(pos, ea))[:, None] * np.column_stack((half[:, 1], -half[:, 0]))
    controls = pu + half + bulge
    return pos, [
        ArcEdge((u, v), tuple(a), tuple(b), tuple(c), fit_arc(a, b, c, scale=config.k))
        for (u, v), a, b, c in zip(g.edges, pu.tolist(), pv.tolist(), controls.tolist())
    ]
