"""Drawing-quality measures: crossings, angular resolution, edge lengths,
bounding area, and the rank correlation between centrality and radius.

Crossings are counted by a sort-and-sweep along x: after one sort of the
edges by the low end of their x-extent, only the K pairs whose closed
x-extents overlap are tested, O(m log m + K) in time (K is m(m-1)/2 only
when every edge overlaps every other in x). Those pairs are walked in chunks
of at most CROSSING_PAIRS, so the working memory is O(CROSSING_PAIRS + m)
whatever K is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .centrality import CentralityVector
from .engine import TWO_PI, check_positions
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


def count_crossings(g: Graph, positions) -> int:
    """Number of non-adjacent edge pairs whose open segments intersect.

    Proper intersections are detected with orientation predicates; a pair of
    collinear edges overlapping over positive length also counts. Pairs that
    share an endpoint are skipped, and segments merely touching at an
    endpoint do not count (open-segment semantics). Positions must pass
    check_positions.
    """
    pos = check_positions(positions, g.vertex_count)
    return _count_crossings(g.edge_array, pos, CROSSING_PAIRS)


def _count_crossings(ea: np.ndarray, pos: np.ndarray, chunk: int) -> int:
    """count_crossings over the pairs of rows of ea whose x-extents overlap,
    taken `chunk` pairs at a time.

    The edges are sorted by the low end of their x-extent; sorted edge s can
    only meet the edges s + 1 .. hi[s] - 1 that start at or before its high
    end. Every interval test is closed, and two open segments that cross or
    overlap collinearly have overlapping closed bounding boxes, so no pair
    that could count is skipped.
    """
    m = ea.shape[0]
    if m < 2:
        return 0
    ends = pos[ea]
    xs, ys = ends[:, :, 0], ends[:, :, 1]
    xlo, xhi = xs.min(axis=1), xs.max(axis=1)
    order = np.argsort(xlo, kind="stable")
    hi = np.searchsorted(xlo[order], xhi[order], side="right")
    ylo, yhi = ys.min(axis=1), ys.max(axis=1)
    # Row s holds the pairs (s, t), s < t < hi[s], of sorted edges; row_end[s]
    # is the flat index one past its last pair.
    row_len = hi - np.arange(1, m + 1)
    row_end = np.cumsum(row_len)
    pairs = int(row_end[-1])
    count = 0
    for lo in range(0, pairs, chunk):
        k = np.arange(lo, min(lo + chunk, pairs))
        s = np.searchsorted(row_end, k, side="right")
        t = k - (row_end[s] - row_len[s]) + s + 1
        # Back to edge ids, the lower id first, so each pair is tested with
        # the same operand order as in an all-pairs walk.
        es, et = order[s], order[t]
        i, j = np.minimum(es, et), np.maximum(es, et)
        a1, a2 = ea[i, 0], ea[i, 1]
        b1, b2 = ea[j, 0], ea[j, 1]
        keep = (ylo[i] <= yhi[j]) & (ylo[j] <= yhi[i])
        keep &= (a1 != b1) & (a1 != b2) & (a2 != b1) & (a2 != b2)
        i, j = i[keep], j[keep]
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
        # four points are collinear and their overlap along the first edge's
        # dominant axis has positive length.
        d = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
        if d.any():
            r = np.abs(p2[d] - p1[d])
            on_x = r[:, 0] >= r[:, 1]
            p1, p2, q1, q2 = (np.where(on_x, e[d, 0], e[d, 1]) for e in (p1, p2, q1, q2))
            hi_end = np.minimum(np.maximum(p1, p2), np.maximum(q1, q2))
            lo_end = np.maximum(np.minimum(p1, p2), np.minimum(q1, q2))
            count += int(np.count_nonzero(hi_end > lo_end))
    return count


def min_angular_resolution(g: Graph, positions) -> float:
    """Smallest angle between consecutive edges around any vertex of degree >= 2.

    Incident edge directions are sorted by angle and consecutive gaps
    (including the wrap-around gap) are compared. Drawings whose maximum
    degree is at most 1 return 2*pi by convention.
    """
    pos = np.asarray(positions, dtype=float)
    indptr, indices = g.csr
    owner = np.repeat(np.arange(g.vertex_count), g.degrees)
    vecs = pos[indices] - pos[owner]
    angles = np.arctan2(vecs[:, 1], vecs[:, 0])
    # Each vertex's directions in ascending angle, vertices kept in CSR order.
    angles = angles[np.lexsort((angles, owner))]
    gaps = np.diff(angles)[owner[1:] == owner[:-1]]
    hub = g.degrees >= 2
    wraps = TWO_PI - (angles[indptr[1:][hub] - 1] - angles[indptr[:-1][hub]])
    return float(min(gaps.min(initial=TWO_PI), wraps.min(initial=TWO_PI)))


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
    """Ranks 1..n, tied values sharing the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    counts = np.unique(values[order], return_counts=True, equal_nan=False)[1]
    first = np.cumsum(counts) - counts
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (2 * first + counts - 1) + 1.0, counts)
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
    """Evaluate all drawing metrics for one layout; the positions must pass
    check_positions."""
    pos = check_positions(positions, g.vertex_count)
    crossings = count_crossings(g, pos)
    if g.edge_count:
        mean, cv = edge_length_stats(g, pos)
    else:
        mean, cv = None, None
    rho = centrality_radius_correlation(c, pos) if g.vertex_count >= 3 else None
    return DrawingMetrics(
        crossings=crossings,
        min_angle=min_angular_resolution(g, pos),
        edge_len_mean=mean,
        edge_len_cv=cv,
        bbox_area=bounding_area(pos) if g.vertex_count else 0.0,
        centrality_radius_rho=rho,
    )
