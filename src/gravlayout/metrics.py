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
from .graphs import Graph, _numbers

# Edge pairs per chunk of count_crossings: its scratch is a few arrays of
# this length, which at 2^13 stay in L2. On 2000-vertex drawings 2^13 and
# 2^14 ran fastest of 2^12 .. 2^16.
CROSSING_PAIRS = 1 << 13


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
    """Z component of (a - o) x (b - o) for points given as (x, y) pairs of
    1-D arrays; sign gives orientation."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def count_crossings(g: Graph, positions) -> int:
    """Number of non-adjacent edge pairs whose open segments intersect.

    Proper intersections are detected with orientation predicates; a pair of
    collinear edges overlapping over positive length also counts. Pairs that
    share an endpoint are skipped, and segments merely touching at an
    endpoint do not count (open-segment semantics). Positions must pass
    engine.check_positions.

    Candidate pairs are filtered cheapest first: the sweep yields only pairs
    whose closed x-extents overlap, pairs whose closed y-extents are
    disjoint are dropped next, then pairs that share an endpoint, and only
    the rest reach the orientation predicates.
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
    that could count is skipped. Each array is freed as soon as it has been
    used, so a chunk keeps no more than a few arrays of `chunk` entries.
    """
    m = ea.shape[0]
    if m < 2:
        return 0
    # Endpoint coordinates per edge: (xs[0][e], ys[0][e]) is the first end of
    # edge e, (xs[1][e], ys[1][e]) the second.
    xs, ys = pos[ea.T, 0], pos[ea.T, 1]
    xlo, xhi = np.minimum(*xs), np.maximum(*xs)
    order = np.argsort(xlo, kind="stable")
    hi = np.searchsorted(xlo[order], xhi[order], side="right")
    del xlo, xhi
    ylo, yhi = np.minimum(*ys)[order], np.maximum(*ys)[order]
    # Row s holds the pairs (s, t), s < t < hi[s], of sorted edges at flat
    # indices row_start[s] .. row_end[s] - 1, pair k having t = k - row_base[s].
    rows = np.arange(m)
    row_end = np.cumsum(hi - rows - 1)
    del hi
    row_start = np.concatenate(([0], row_end[:-1]))
    row_base = row_start - rows - 1
    pairs = int(row_end[-1])
    u, v = ea.T

    def candidates(lo: int, stop: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The endpoints p1, p2, q1, q2, each an (x, y) pair of arrays, of
        the edge pairs p1p2, q1q2 at flat indices lo .. stop - 1 that overlap
        in y and share no endpoint, p the edge of lower id. Its locals, the
        pair and edge ids among them, die when it returns."""
        span = rows[np.searchsorted(row_end, lo, side="right"):
                    np.searchsorted(row_end, stop - 1, side="right") + 1]
        taken = np.minimum(row_end[span], stop) - np.maximum(row_start[span], lo)
        s = np.repeat(span, taken)
        t = np.arange(lo, stop) - np.repeat(row_base[span], taken)
        keep = (ylo[s] <= yhi[t]) & (ylo[t] <= yhi[s])
        # Back to edge ids, the lower id first, so each pair is tested with
        # the same operand order as in an all-pairs walk.
        es, et = order[s[keep]], order[t[keep]]
        del s, t, keep
        i, j = np.minimum(es, et), np.maximum(es, et)
        del es, et
        # The shared-endpoint mask, with at most three gathered ends alive.
        a1, a2 = u[i], v[i]
        b = u[j]
        keep = (a1 != b) & (a2 != b)
        del b
        b = v[j]
        keep &= (a1 != b) & (a2 != b)
        del a1, a2, b
        i, j = i[keep], j[keep]
        return (xs[0][i], ys[0][i]), (xs[1][i], ys[1][i]), (xs[0][j], ys[0][j]), (xs[1][j], ys[1][j])

    return sum(_crossing_count(*candidates(lo, min(lo + chunk, pairs))) for lo in range(0, pairs, chunk))


def _crossing_count(p1, p2, q1, q2) -> int:
    """How many of the segment pairs p1p2, q1q2, each point an (x, y) pair
    of 1-D arrays, cross or overlap collinearly as open segments."""
    o1 = _cross(p1, p2, q1)
    o2 = _cross(p1, p2, q2)
    o3 = _cross(q1, q2, p1)
    o4 = _cross(q1, q2, p2)
    proper = (((o1 > 0) & (o2 < 0)) | ((o1 < 0) & (o2 > 0))) & (
        ((o3 > 0) & (o4 < 0)) | ((o3 < 0) & (o4 > 0))
    )
    count = int(np.count_nonzero(proper))
    # Degenerate pairs (some orientation exactly zero) only count when the
    # four points are collinear and their overlap along the first edge's
    # dominant axis has positive length.
    d = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
    if d.any():
        p1, p2, q1, q2 = ((ex[d], ey[d]) for ex, ey in (p1, p2, q1, q2))
        on_x = np.abs(p2[0] - p1[0]) >= np.abs(p2[1] - p1[1])
        p1, p2, q1, q2 = (np.where(on_x, *e) for e in (p1, p2, q1, q2))
        hi_end = np.minimum(np.maximum(p1, p2), np.maximum(q1, q2))
        lo_end = np.maximum(np.minimum(p1, p2), np.minimum(q1, q2))
        count += int(np.count_nonzero(hi_end > lo_end))
    return count


def min_angular_resolution(g: Graph, positions) -> float:
    """Smallest angle between consecutive edges around any vertex of degree >= 2.

    Incident edge directions are sorted by angle and consecutive gaps
    (including the wrap-around gap) are compared. Drawings whose maximum
    degree is at most 1 return 2*pi by convention. Positions must pass
    engine.check_positions.
    """
    pos = check_positions(positions, g.vertex_count)
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
    """Mean Euclidean edge length and its coefficient of variation (std/mean).
    Positions must pass engine.check_positions."""
    if g.edge_count == 0:
        raise ValueError("edge_length_stats requires at least one edge")
    pos = check_positions(positions, g.vertex_count)
    ea = g.edge_array
    seg = pos[ea[:, 0]] - pos[ea[:, 1]]
    lengths = np.sqrt(np.einsum("ec,ec->e", seg, seg))
    mean = float(lengths.mean())
    if mean == 0.0:
        return 0.0, 0.0
    with np.errstate(over="ignore"):
        std = float(lengths.std())
    if std == math.inf:  # the sum of m squared deviations, each below 2 s^2, overflowed
        top = float(lengths.max())
        std = float((lengths / top).std()) * top
    return mean, std / mean


def bounding_area(positions) -> float:
    """Area of the axis-aligned bounding box of the positions, which must
    pass engine.check_positions (any number of rows)."""
    pos = check_positions(positions)
    if pos.size == 0:
        raise ValueError("bounding_area requires at least one position")
    width, height = (c.max() - c.min() for c in pos.T)
    return float(width * height)


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
    side has zero variance, as a single value has. ValueError unless x and y
    are equally long flat vectors of finite numbers, at least one each."""
    x, y = _numbers("spearman x", x), _numbers("spearman y", y)
    if x.size != y.size or not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"spearman requires finite values, as many in x ({x.size}) as in y ({y.size})")
    if x.size == 0:
        raise ValueError("spearman requires at least one value in x and y")
    xr = _average_ranks(x)
    yr = _average_ranks(y)
    xd = xr - xr.mean()
    yd = yr - yr.mean()
    # add.reduce, not a BLAS dot: the bits must not depend on the thread count.
    denom = math.sqrt(float(np.add.reduce(xd * xd)) * float(np.add.reduce(yd * yd)))
    if denom == 0.0:
        return 0.0
    return float(np.add.reduce(xd * yd)) / denom


def centrality_radius_correlation(c, positions) -> float:
    """Spearman correlation between centrality and distance from the centroid.

    Negative values mean high-centrality vertices sit near the middle of the
    drawing. Positions must pass engine.check_positions, at least 3 rows and
    one per centrality value, finite numbers by `graphs._numbers`.
    """
    values = c.values if isinstance(c, CentralityVector) else _numbers("centrality values", c)
    pos = check_positions(positions)
    if not 3 <= pos.shape[0] == values.shape[0]:
        raise ValueError("centrality_radius_correlation requires at least 3 vertices, one centrality value each")
    with np.errstate(over="ignore"):
        centroid = pos.mean(axis=0)
    if not np.isfinite(centroid).all():  # the coordinate sums overflowed
        low = pos.min(axis=0)
        centroid = low + (pos - low).mean(axis=0)
    rel = pos - centroid
    radii = np.sqrt(np.einsum("vc,vc->v", rel, rel))
    return spearman(values, radii)


def compute_metrics(g: Graph, positions, c: CentralityVector) -> DrawingMetrics:
    """Evaluate all drawing metrics for one layout; the positions must pass
    engine.check_positions, and c must hold one finite value per vertex, as
    a CentralityVector or numbers by `graphs._numbers`, at any vertex count."""
    pos = check_positions(positions, g.vertex_count)
    values = c.values if isinstance(c, CentralityVector) else _numbers("centrality values", c)
    if values.shape != (g.vertex_count,) or not np.isfinite(values).all():
        raise ValueError(f"centrality must hold {g.vertex_count} finite values, one per vertex")
    crossings = count_crossings(g, pos)
    if g.edge_count:
        mean, cv = edge_length_stats(g, pos)
    else:
        mean, cv = None, None
    rho = centrality_radius_correlation(values, pos) if g.vertex_count >= 3 else None
    return DrawingMetrics(
        crossings=crossings,
        min_angle=min_angular_resolution(g, pos),
        edge_len_mean=mean,
        edge_len_cv=cv,
        bbox_area=bounding_area(pos) if g.vertex_count else 0.0,
        centrality_radius_rho=rho,
    )
