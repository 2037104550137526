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
ends. No vertex moves. The sweep, signed counter-clockwise in y-up
coordinates and 0 for a straight edge, is all an arc stores: `arc_geometry`
derives its midpoint, center and radius from the positions.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import TWO_PI, LayoutConfig, check_positions, run_layout
from .graphs import Graph, _numbers

# A triangle flatter than this fraction of k^2 is treated as collinear.
COLLINEAR_AREA_TOL = 1e-9


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


def layout_lombardi(g: Graph, mass, config: LayoutConfig) -> tuple[np.ndarray, np.ndarray]:
    """Main layout, then closed-form tangent arcs; returns (positions, sweeps).

    The positions are run_layout's: the arcs move no vertex. sweeps has one
    sweep per row of g.edge_array, 0.0 where the triangle of the edge's
    endpoints and arc midpoint, of area |tan(s / 4)| |h|^2 for h half the
    chord, is flatter than COLLINEAR_AREA_TOL * k^2: the edge stays straight.
    """
    pos = run_layout(g, mass, config)
    ea = g.edge_array
    sweeps = _sweeps(pos, ea)
    half = 0.5 * (pos[ea[:, 1]] - pos[ea[:, 0]])
    area = np.abs(np.tan(0.25 * sweeps)) * np.einsum("ij,ij->i", half, half)
    sweeps[area < COLLINEAR_AREA_TOL * config.k * config.k] = 0.0
    return pos, sweeps


def _check_sweeps(sweeps, m: int) -> np.ndarray:
    """sweeps as a float array; ValueError unless it holds m numbers in (-2 pi, 2 pi)."""
    rule = f"sweeps must hold {m} finite numbers in (-2 pi, 2 pi), one per edge"
    sweeps = _numbers(rule, sweeps)
    if sweeps.shape != (m,) or not (np.abs(sweeps) < TWO_PI).all():
        raise ValueError(rule)
    return sweeps


def arc_geometry(positions, g: Graph, sweeps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(midpoints, centers, radii) of the arcs, one row per row of g.edge_array.

    With h half the chord and h' = (h_y, -h_x) that half turned clockwise,
    an edge of sweep s has its midpoint at p_u + h + tan(s / 4) h', and its
    circle has center p_u + h - cot(s / 2) h' and radius |h| / |sin(s / 2)|.
    A straight edge (sweep 0) gets its chord's midpoint and NaN for center
    and radius. ValueError unless positions pass check_positions and sweeps
    holds m numbers (never bools or strings) in (-2 pi, 2 pi), as
    layout_lombardi's do.
    """
    pos = check_positions(positions, g.vertex_count)
    m = g.edge_count
    sweeps = _check_sweeps(sweeps, m)
    pu = pos[g.edge_array[:, 0]]
    half = 0.5 * (pos[g.edge_array[:, 1]] - pu)
    mid = pu + half
    turned = np.column_stack((half[:, 1], -half[:, 0]))
    curved = np.flatnonzero(sweeps)
    s = sweeps[curved]
    centers = np.full((m, 2), math.nan)
    radii = np.full(m, math.nan)
    centers[curved] = mid[curved] - (1.0 / np.tan(0.5 * s))[:, None] * turned[curved]
    radii[curved] = np.sqrt(np.einsum("ij,ij->i", half, half)[curved]) / np.abs(np.sin(0.5 * s))
    return mid + np.tan(0.25 * sweeps)[:, None] * turned, centers, radii
