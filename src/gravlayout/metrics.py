"""Drawing-quality measures: crossings, angular resolution, edge lengths,
bounding area, and the rank correlation between centrality and radius.

Crossings are counted over the upper triangle of edge pairs in chunks of at
most CROSSING_PAIRS pairs, so their working memory is O(CROSSING_PAIRS + m)
whatever the number of pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .centrality import CentralityVector
from .engine import TWO_PI
from .graphs import Graph

# Edge pairs per chunk of count_crossings: its scratch is a few arrays of
# this length.
CROSSING_PAIRS = 1 << 16


@dataclass(frozen=True)
class DrawingMetrics:
    """Summary of one drawing. Fields with no defined value (no edges, or
    fewer than three vertices for the correlation) are None."""

    crossings: int
    min_angle: float
    edge_len_mean: float | None
    edge_len_cv: float | None
    bbox_area: float
    centrality_radius_rho: float | None

    def as_dict(self) -> dict:
        return asdict(self)


def _cross(o, a, b) -> np.ndarray:
    """Z component of (a - o) x (b - o); sign gives orientation."""
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
        a[..., 1] - o[..., 1]
    ) * (b[..., 0] - o[..., 0])


def _collinear_open_overlap(p1, p2, q1, q2) -> bool:
    """Whether two collinear segments overlap in more than a single point."""
    r = p2 - p1
    axis = 0 if abs(r[0]) >= abs(r[1]) else 1
    lo_p, hi_p = sorted((p1[axis], p2[axis]))
    lo_q, hi_q = sorted((q1[axis], q2[axis]))
    return min(hi_p, hi_q) > max(lo_p, lo_q)


def count_crossings(g: Graph, positions) -> int:
    """Number of non-adjacent edge pairs whose open segments intersect.

    Proper intersections are detected with orientation predicates; a pair of
    collinear edges overlapping over positive length also counts. Pairs that
    share an endpoint are skipped, and segments merely touching at an
    endpoint do not count (open-segment semantics).
    """
    return _count_crossings(g.edge_array, np.asarray(positions, dtype=float), CROSSING_PAIRS)


def _count_crossings(ea: np.ndarray, pos: np.ndarray, chunk: int) -> int:
    """count_crossings over the pairs (i, j), i < j, of the rows of ea, taken
    `chunk` pairs at a time in row-major order."""
    m = ea.shape[0]
    if m < 2:
        return 0
    ends = pos[ea]
    # Row i of the upper triangle holds the pairs (i, j), j > i; row_end[i]
    # is the flat index one past its last pair.
    row_len = np.arange(m - 1, 0, -1)
    row_end = np.cumsum(row_len)
    pairs = int(row_end[-1])
    count = 0
    for lo in range(0, pairs, chunk):
        k = np.arange(lo, min(lo + chunk, pairs))
        i = np.searchsorted(row_end, k, side="right")
        j = k - (row_end[i] - row_len[i]) + i + 1
        a1, a2 = ea[i, 0], ea[i, 1]
        b1, b2 = ea[j, 0], ea[j, 1]
        nonadjacent = (a1 != b1) & (a1 != b2) & (a2 != b1) & (a2 != b2)
        i, j = i[nonadjacent], j[nonadjacent]
        if i.size == 0:
            continue
        p1, p2 = ends[i, 0], ends[i, 1]
        q1, q2 = ends[j, 0], ends[j, 1]
        o1 = _cross(p1, p2, q1)
        o2 = _cross(p1, p2, q2)
        o3 = _cross(q1, q2, p1)
        o4 = _cross(q1, q2, p2)
        proper = (((o1 > 0) & (o2 < 0)) | ((o1 < 0) & (o2 > 0))) & (
            ((o3 > 0) & (o4 < 0)) | ((o3 < 0) & (o4 > 0))
        )
        count += int(np.count_nonzero(proper))
        # Degenerate pairs (some orientation exactly zero) only count when the
        # four points are collinear and the overlap has positive length.
        degenerate = np.nonzero((o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0))[0]
        for idx in degenerate:
            if _collinear_open_overlap(p1[idx], p2[idx], q1[idx], q2[idx]):
                count += 1
    return count


def min_angular_resolution(g: Graph, positions) -> float:
    """Smallest angle between consecutive edges around any vertex of degree >= 2.

    Incident edge directions are sorted by angle and consecutive gaps
    (including the wrap-around gap) are compared. Drawings whose maximum
    degree is at most 1 return 2*pi by convention.
    """
    pos = np.asarray(positions, dtype=float)
    best = TWO_PI
    for v, nbrs in enumerate(g.adjacency):
        if len(nbrs) < 2:
            continue
        vecs = pos[list(nbrs)] - pos[v]
        angles = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))
        gaps = np.diff(angles)
        wrap = TWO_PI - (angles[-1] - angles[0])
        best = min(best, float(min(gaps.min(), wrap)))
    return best


def edge_length_stats(g: Graph, positions) -> tuple[float, float]:
    """Mean Euclidean edge length and its coefficient of variation (std/mean)."""
    if g.edge_count == 0:
        raise ValueError("edge_length_stats requires at least one edge")
    pos = np.asarray(positions, dtype=float)
    ea = g.edge_array
    seg = pos[ea[:, 0]] - pos[ea[:, 1]]
    lengths = np.sqrt(np.einsum("ec,ec->e", seg, seg))
    mean = float(lengths.mean())
    if mean == 0.0:
        return 0.0, 0.0
    return mean, float(lengths.std() / mean)


def bounding_area(positions) -> float:
    """Area of the axis-aligned bounding box of the positions."""
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        raise ValueError("bounding_area requires at least one position")
    spans = pos.max(axis=0) - pos.min(axis=0)
    return float(spans[0] * spans[1])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    n = values.size
    sorted_vals = values[order]
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties; 0 if either
    side has zero variance."""
    xr = _average_ranks(np.asarray(x, dtype=float))
    yr = _average_ranks(np.asarray(y, dtype=float))
    xd = xr - xr.mean()
    yd = yr - yr.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        return 0.0
    return float(xd @ yd) / denom


def centrality_radius_correlation(c, positions) -> float:
    """Spearman correlation between centrality and distance from the centroid.

    Negative values mean high-centrality vertices sit near the middle of the
    drawing.
    """
    values = c.values if isinstance(c, CentralityVector) else np.asarray(c, dtype=float)
    pos = np.asarray(positions, dtype=float)
    if pos.shape[0] < 3:
        raise ValueError("centrality_radius_correlation requires at least 3 vertices")
    if values.shape[0] != pos.shape[0]:
        raise ValueError("centrality and positions must have matching length")
    rel = pos - pos.mean(axis=0)
    radii = np.sqrt(np.einsum("vc,vc->v", rel, rel))
    return spearman(values, radii)


def compute_metrics(g: Graph, positions, c: CentralityVector) -> DrawingMetrics:
    """Evaluate all drawing metrics for one layout."""
    pos = np.asarray(positions, dtype=float)
    if g.edge_count:
        mean, cv = edge_length_stats(g, pos)
    else:
        mean, cv = None, None
    rho = centrality_radius_correlation(c, pos) if g.vertex_count >= 3 else None
    return DrawingMetrics(
        crossings=count_crossings(g, pos),
        min_angle=min_angular_resolution(g, pos),
        edge_len_mean=mean,
        edge_len_cv=cv,
        bbox_area=bounding_area(pos) if g.vertex_count else 0.0,
        centrality_radius_rho=rho,
    )
