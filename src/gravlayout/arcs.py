"""Circular-arc edges via a dummy-vertex post-pass.

After the main layout, every edge gets a midpoint dummy vertex; a second
force phase moves only the dummies (original vertices stay frozen, so the
gravity placement is untouched) under the classical forces with natural
length k/2 for the half-edges. Each settled dummy position becomes the
control point of a circular arc through the edge's endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """One drawn edge: endpoints, its dummy control position, and geometry.

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


def augment_with_dummies(g: Graph) -> tuple[Graph, dict[tuple[int, int], int]]:
    """Replace each edge {u, v} by a path u - d - v through a fresh dummy.

    Dummy ids continue after the original ids, following canonical edge
    order. Returns the augmented graph and the edge -> dummy id mapping.
    """
    n = g.vertex_count
    mapping: dict[tuple[int, int], int] = {}
    new_edges: list[tuple[int, int]] = []
    for idx, (u, v) in enumerate(g.edges):
        d = n + idx
        mapping[(u, v)] = d
        new_edges.append((u, d))
        new_edges.append((v, d))
    return Graph.from_edges(n + g.edge_count, new_edges), mapping


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


def layout_lombardi(g: Graph, mass, config: LayoutConfig) -> tuple[np.ndarray, list[ArcEdge]]:
    """Main layout followed by the dummy phase; returns positions and arcs.

    The original vertices' positions are the plain run_layout result. The
    dummy phase moves only the dummies, under the classical forces with k
    halved; gravity is off, so every vertex gets unit mass.
    """
    pos = run_layout(g, mass, config)
    if not g.edge_count:
        return pos, []
    aug = augment_with_dummies(g)[0]
    ea = g.edge_array
    midpoints = 0.5 * (pos[ea[:, 0]] + pos[ea[:, 1]])
    init = np.vstack([pos, midpoints])
    frozen = np.arange(aug.vertex_count) < g.vertex_count
    dummy_config = replace(config, k=0.5 * config.k, gamma_max=0.0)
    aug_pos = run_layout(aug, np.ones(aug.vertex_count), dummy_config, initial=init, frozen=frozen)
    arcs = []
    for idx, (u, v) in enumerate(g.edges):
        control = aug_pos[g.vertex_count + idx]
        geometry = fit_arc(pos[u], pos[v], control, scale=config.k)
        arcs.append(
            ArcEdge(
                edge=(u, v),
                p_u=(float(pos[u, 0]), float(pos[u, 1])),
                p_v=(float(pos[v, 0]), float(pos[v, 1])),
                control=(float(control[0]), float(control[1])),
                geometry=geometry,
            )
        )
    return pos, arcs
