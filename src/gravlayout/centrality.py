"""Vertex centrality measures and their conversion to gravitational mass.

Closeness and betweenness run the batched BFS of `graphs._bfs` from B
sources at a time, B = max(1, min(n, BFS_ELEMENTS // n)), so their working
memory is O(B * (n + m)) and no (n, n) array is formed. Per-source results
are reduced one source row at a time in ascending source order and never
through BLAS, so the output bits do not depend on B or on the BLAS thread
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _bfs

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
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("centrality values must be a flat vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("centrality values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def check_masses(values) -> np.ndarray:
    """Masses as a flat float array; ValueError unless every one is positive and finite."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError("mass values must be a flat vector")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise ValueError("masses must be positive and finite")
    return vals


@dataclass(frozen=True)
class MassVector:
    """Per-vertex positive masses with mean 1 (up to 1e-9), as produced by normalize_mass."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = check_masses(self.values)
        if vals.size and abs(float(vals.mean()) - 1.0) > 1e-9:
            raise ValueError("mass mean must be 1 within 1e-9")
        vals = vals.copy()
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


def closeness_centrality(g: Graph) -> CentralityVector:
    """Reciprocal of the mean hop distance to the other vertices of the component.

    Vertices with no reachable partner (isolated vertices) get value 0.
    """
    values = np.zeros(g.vertex_count, dtype=float)
    for sources in _source_batches(g.vertex_count):
        dist = _bfs(g, sources)[0]
        reached = np.count_nonzero(dist > 0, axis=1)
        total = np.maximum(dist, 0).sum(axis=1)
        hit = reached > 0
        values[sources[hit]] = reached[hit] / total[hit]
    return CentralityVector("closeness", values)


def betweenness_centrality(g: Graph) -> CentralityVector:
    """Exact betweenness over unordered vertex pairs (Brandes accumulation).

    values[v] sums sigma_st(v) / sigma_st over unordered pairs {s, t} with
    s != t != v; pairs in different components contribute nothing. Each
    source's dependencies are accumulated level by level, deepest first,
    and added into the result one source at a time in ascending id order,
    so results are bit-deterministic.
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
    return CentralityVector("betweenness", bc)


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
    if not 0.0 < mass_floor <= 1.0:
        raise ValueError("mass_floor must be in (0, 1]")
    vals = np.asarray(c.values, dtype=float)
    if np.any(vals < 0):
        raise ValueError("centrality values must be nonnegative")
    n = vals.size
    if n == 0:
        return MassVector(vals)
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
