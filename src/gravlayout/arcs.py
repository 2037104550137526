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
ends. No vertex moves: each arc's circle follows in closed form from its
sweep and the main layout's positions, and its midpoint is its control
point.
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
    With h half the chord and h' = (h_y, -h_x) that half turned clockwise,
    an edge of sweep s has its midpoint at p_u + h + tan(s / 4) h', and its
    circle has center p_u + h - cot(s / 2) h' and radius |h| / |sin(s / 2)|.
    The edge stays straight when the triangle (p_u, p_v, midpoint), of area
    |tan(s / 4)| |h|^2, is flatter than COLLINEAR_AREA_TOL * k^2.
    """
    pos = run_layout(g, mass, config)
    ea = g.edge_array
    pu, pv = pos[ea[:, 0]], pos[ea[:, 1]]
    half = 0.5 * (pv - pu)
    mid = pu + half
    turned = np.column_stack((half[:, 1], -half[:, 0]))
    sweep = _sweeps(pos, ea)
    bulge = np.tan(0.25 * sweep)
    controls = mid + bulge[:, None] * turned
    half2 = np.einsum("ij,ij->i", half, half)
    curved = np.flatnonzero(np.abs(bulge) * half2 >= COLLINEAR_AREA_TOL * config.k * config.k)
    s = sweep[curved]
    centers = mid[curved] - (1.0 / np.tan(0.5 * s))[:, None] * turned[curved]
    radii = np.sqrt(half2[curved]) / np.abs(np.sin(0.5 * s))
    geometry: list[CircularArc | None] = [None] * len(g.edges)
    for i, c, r, w in zip(curved.tolist(), centers.tolist(), radii.tolist(), s.tolist()):
        geometry[i] = CircularArc(center=tuple(c), radius=r, sweep=w)
    return pos, [
        ArcEdge(e, tuple(a), tuple(b), tuple(c), geo)
        for e, a, b, c, geo in zip(g.edges, pu.tolist(), pv.tolist(), controls.tolist(), geometry)
    ]
