"""Vertex centrality measures and their conversion to gravitational mass.

Closeness and betweenness pick their path from the input. A graph is a
forest exactly when m == n - C, C its component count from
`graphs.connected_components`. On a forest both come from closed forms
over subtree sizes. Each component is rooted at its first vertex by an
Euler tour ranked by pointer jumping (`graphs._euler_tour`): O(log N) rounds of
O(m) numpy work for the largest component size N, whatever the depth, in
O(n) memory. Parents and subtree sizes come from tour positions, and
closeness's distance sums from one prefix sum over the tours. All counts
are exact int64 and are converted to float once, exactly as Brandes' sums
of integers on a tree are, so the bits equal the batched BFS path's while
(N - 1)**2 < 2**53 for every component size N.

Graphs with cycles keep the batched BFS of `graphs._bfs`, run from B
sources at a time, B = max(1, min(n, BFS_ELEMENTS // n)), so their working
memory is O(B * (n + m)) and no (n, n) array is formed. Per-source results
are reduced one source row at a time in ascending source order and never
through BLAS, so the output bits do not depend on B or on the BLAS thread
count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _bfs, _check_finite, _euler_tour, _first_vertices, _numbers, connected_components

CENTRALITY_KINDS = ("degree", "closeness", "betweenness", "uniform")

DEFAULT_MASS_FLOOR = 0.05

# (source, vertex) entries per BFS batch: a batch holds B sources with
# B * n <= BFS_ELEMENTS (for n <= BFS_ELEMENTS).
BFS_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class CentralityVector:
    """Per-vertex nonnegative centrality values of a named kind."""

    kind: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in CENTRALITY_KINDS:
            raise ValueError(f"unknown centrality kind {self.kind!r}")
        vals = _numbers("centrality values", self.values).copy()
        if not np.all(np.isfinite(vals)):
            raise ValueError("centrality values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def check_masses(values) -> np.ndarray:
    """Masses as a flat float array, uncopied when given one; ValueError unless
    every one is a positive finite number (`graphs._numbers`: no bool or string)."""
    vals = _numbers("mass values", values)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise ValueError("masses must be positive and finite")
    return vals


@dataclass(frozen=True)
class MassVector:
    """Per-vertex positive masses with mean 1 (up to 1e-9), as produced by normalize_mass."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = check_masses(self.values).copy()
        if vals.size and abs(float(vals.mean()) - 1.0) > 1e-9:
            raise ValueError("mass mean must be 1 within 1e-9")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def degree_centrality(g: Graph) -> CentralityVector:
    """Centrality equal to the vertex degree."""
    return CentralityVector("degree", g.degrees.astype(float))


def _source_batches(n: int):
    """Consecutive ranges of source ids: a fixed budget of BFS_ELEMENTS entries each."""
    batch = max(1, min(n, BFS_ELEMENTS // max(n, 1)))
    for a in range(0, n, batch):
        yield np.arange(a, min(a + batch, n))


def _rooted_forest(g: Graph):
    """Each component rooted at its first vertex by `_euler_tour`, or None
    when g has a cycle.

    Returns (labels, comp, parent, size, enter, leave): labels from
    `connected_components`, comp[v] the size of v's component, the rest as
    `_euler_tour` gives them.
    """
    labels = connected_components(g)
    roots = _first_vertices(labels)
    if g.edge_count != g.vertex_count - roots.size:
        return None
    parent, size, enter, leave, _ = _euler_tour(g, labels, roots)
    return labels, size[roots][labels], parent, size, enter, leave


def _forest_closeness(labels, comp, parent, size, enter, leave) -> np.ndarray:
    """Closeness on a forest: (N - 1) / D(v), D(v) the sum of v's distances."""
    child = np.flatnonzero(parent >= 0)
    # A root's D is its component's sum of depths: the edge above v lies on
    # the root paths of exactly size[v] vertices.
    root_sum = np.zeros(labels.size, dtype=np.int64)
    np.add.at(root_sum, labels[child], size[child])
    # Moving the centre from a parent to v brings size[v] vertices one hop
    # nearer and the other comp - size[v] one hop farther. Each change is
    # added where the tour enters v and taken back where it leaves, so the
    # running sum at enter[v] holds the changes along v's root path.
    change = comp[child] - 2 * size[child]
    walk = np.zeros(2 * child.size + 1, dtype=np.int64)
    walk[enter[child] + 1] = change
    walk[leave[child] + 1] = -change
    np.cumsum(walk, out=walk)
    dist_sum = root_sum[labels] + walk[enter + 1]
    values = np.zeros(comp.size, dtype=float)
    hit = comp > 1
    values[hit] = (comp[hit] - 1) / dist_sum[hit]
    return values


def _forest_betweenness(labels, comp, parent, size, enter, leave) -> np.ndarray:
    """Betweenness on a forest: ((N - 1)**2 - sum of s_i**2) / 2, where the s_i
    are the sizes of the parts that removing v leaves of its component."""
    child = parent >= 0
    # The parts are v's child subtrees and the comp - size[v] vertices above
    # v (none at a root). The difference counts ordered pairs, hence the 0.5.
    squares = (comp - size) ** 2
    np.add.at(squares, parent[child], size[child] ** 2)
    return ((comp - 1) ** 2 - squares).astype(float) * 0.5


def _bfs_closeness(g: Graph) -> np.ndarray:
    """Closeness by the batched BFS, for any graph."""
    values = np.zeros(g.vertex_count, dtype=float)
    for sources in _source_batches(g.vertex_count):
        dist = _bfs(g, sources)[0]
        reached = np.count_nonzero(dist > 0, axis=1)
        total = np.maximum(dist, 0).sum(axis=1)
        hit = reached > 0
        values[sources[hit]] = reached[hit] / total[hit]
    return values


def _bfs_betweenness(g: Graph) -> np.ndarray:
    """Betweenness by batched Brandes accumulation, for any graph.

    Each source's dependencies are accumulated level by level, deepest
    first, and added into the result one source at a time in ascending id
    order, so results are bit-deterministic.
    """
    n = g.vertex_count
    bc = np.zeros(n, dtype=float)
    for sources in _source_batches(n):
        _, sigma, dag = _bfs(g, sources, paths=True)
        delta = np.zeros_like(sigma)
        # A parent's DAG edges sit together in its CSR order, so each
        # delta[b, u] is summed in an order that does not depend on the batch.
        for parents, children in reversed(dag):
            np.add.at(delta, parents, sigma[parents] / sigma[children] * (1.0 + delta[children]))
        delta = delta.reshape(sources.size, n)
        delta[np.arange(sources.size), sources] = 0.0
        for row in delta:
            bc += row
    # Brandes counts ordered (s, t) pairs; halve for unordered.
    bc *= 0.5
    return bc


def closeness_centrality(g: Graph) -> CentralityVector:
    """Reciprocal of the mean hop distance to the other vertices of the component.

    Vertices with no reachable partner (isolated vertices) get value 0.
    """
    forest = _rooted_forest(g)
    values = _bfs_closeness(g) if forest is None else _forest_closeness(*forest)
    return CentralityVector("closeness", values)


def betweenness_centrality(g: Graph) -> CentralityVector:
    """Exact betweenness over unordered vertex pairs.

    values[v] sums sigma_st(v) / sigma_st over unordered pairs {s, t} with
    s != t != v; pairs in different components contribute nothing.
    """
    forest = _rooted_forest(g)
    values = _bfs_betweenness(g) if forest is None else _forest_betweenness(*forest)
    return CentralityVector("betweenness", values)


def uniform_centrality(g: Graph) -> CentralityVector:
    """All-ones centrality, the no-weighting baseline."""
    return CentralityVector("uniform", np.ones(g.vertex_count, dtype=float))


def compute_centrality(g: Graph, kind: str) -> CentralityVector:
    """Dispatch by kind name: degree, closeness, betweenness, or uniform."""
    if kind == "degree":
        return degree_centrality(g)
    if kind == "closeness":
        return closeness_centrality(g)
    if kind == "betweenness":
        return betweenness_centrality(g)
    if kind == "uniform":
        return uniform_centrality(g)
    raise ValueError(f"unknown centrality kind {kind!r}")


def normalize_mass(c: CentralityVector, mass_floor: float = DEFAULT_MASS_FLOOR) -> MassVector:
    """Convert a centrality vector into a mass vector with mean 1 and a floor.

    Values are divided by their mean, lifted to at least mass_floor, and the
    scale is adjusted until both properties hold together (the floor and the
    rescale interact, so a single pass is not a fixed point). An all-zero
    centrality yields uniform masses.
    """
    mass_floor = _check_finite("mass_floor", mass_floor)
    if not 0.0 < mass_floor <= 1.0:
        raise ValueError(f"mass_floor must be a number in (0, 1], got {mass_floor!r}")
    vals = c.values
    if np.any(vals < 0):
        raise ValueError("centrality values must be nonnegative")
    n = vals.size
    if n == 0:
        return MassVector(vals)
    top = float(vals.max())
    if top > sys.float_info.max / n or 0.0 < top < sys.float_info.min * n:
        vals = vals / top  # the mean would overflow or lose its digits
    mean = float(vals.mean())
    if mean <= 0 or mass_floor == 1.0:
        return MassVector(np.ones(n, dtype=float))
    w = vals / mean
    for _ in range(200):
        w = np.maximum(mass_floor, w)
        m = float(w.mean())
        if abs(m - 1.0) <= 1e-12:
            break
        w = w / m
    return MassVector(np.maximum(mass_floor, w))
