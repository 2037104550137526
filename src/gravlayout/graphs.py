"""Undirected simple graphs: construction, edge-list/JSON parsing, BFS primitives.

Every BFS in the package runs on one level-synchronous primitive, `_bfs`,
over the graph's cached CSR adjacency. It searches from a batch of B
sources at once; its working memory is O(B * (n + m)). Its frontier
expansion, `_neighbour_slots`, is shared with the forest rooting sweep in
`centrality`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, repeat
from numbers import Integral

import numpy as np

UNREACHABLE = -1


class GraphParseError(ValueError):
    """Raised when graph input text is malformed."""


def _endpoint_array(pairs) -> np.ndarray:
    """Edge endpoints as a fresh (m, 2) int64 array; ValueError unless every
    pair holds two integers (Python or numpy, bool excluded)."""
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,):
        return pairs.astype(np.int64)
    if not isinstance(pairs, (list, tuple)):
        pairs = list(pairs)
    if not set(map(len, pairs)) <= {2}:
        raise ValueError("every edge must be a pair of vertex ids")
    flat = list(chain.from_iterable(pairs))
    for kind in set(map(type, flat)):
        if kind is bool or not issubclass(kind, Integral):
            bad = next(x for x in flat if type(x) is kind)
            raise ValueError(f"edge endpoint {bad!r} is not an integer")
    try:
        return np.array(flat, dtype=np.int64).reshape(len(pairs), 2)
    except OverflowError:
        raise ValueError("edge endpoint out of int64 range") from None


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertex ids 0..vertex_count-1.

    Edges are stored canonically: each pair has u < v, the tuple is sorted
    lexicographically, and there are no duplicates or self-loops. Every
    endpoint must be an integer (Python or numpy; bool and float are
    rejected). `edges` may be given as any sequence of pairs or an (m, 2)
    integer array; it is stored as a tuple of Python-int pairs, and
    `edge_array` holds the same edges as a read-only (m, 2) int64 array.
    Use :meth:`from_edges` to build a graph from arbitrary pair iterables.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()
    labels: tuple[str, ...] | None = None
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if isinstance(n, bool) or not isinstance(n, Integral):
            raise ValueError(f"vertex_count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        ea = _endpoint_array(self.edges)
        u, v = ea.T
        bad = (u < 0) | (u >= v) | (v >= n)
        # An edge must come strictly after its predecessor in (u, v) order.
        bad[1:] |= (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] <= v[:-1]))
        if bad.any():
            a, b = ea[bad.argmax()].tolist()
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not 0 <= a < b < n:
                raise ValueError(f"edge ({a}, {b}) is not canonical for {n} vertices")
            raise ValueError("edges must be sorted and unique")
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("labels length must equal vertex_count")
        ea.setflags(write=False)
        object.__setattr__(self, "edges", tuple(zip(*ea.T.tolist())))
        object.__setattr__(self, "edge_array", ea)

    @classmethod
    def from_edges(
        cls,
        vertex_count: int,
        edges,
        labels: tuple[str, ...] | None = None,
    ) -> "Graph":
        """Build a graph, normalizing edge orientation and collapsing duplicates.

        edges is any iterable of integer pairs or an (m, 2) integer array.
        """
        ea = _endpoint_array(edges)
        lo, hi = np.minimum(*ea.T), np.maximum(*ea.T)
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop at vertex {lo[loops[0]]}")
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return cls(vertex_count, np.column_stack((lo[first], hi[first])), labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor ids per vertex, each tuple in ascending order: the CSR rows."""
        indptr, indices = self.csr
        nbrs, ends = indices.tolist(), indptr.tolist()
        return tuple(tuple(nbrs[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR adjacency (indptr, indices): the neighbours of v, in
        ascending order, are indices[indptr[v]:indptr[v + 1]]."""
        ea = self.edge_array
        heads = np.concatenate([ea[:, 0], ea[:, 1]])
        tails = np.concatenate([ea[:, 1], ea[:, 0]])
        indices = tails[np.lexsort((tails, heads))]
        indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=self.vertex_count), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return indptr, indices

    @cached_property
    def degrees(self) -> np.ndarray:
        """Read-only int64 vertex degrees, taken from the CSR row lengths."""
        deg = np.diff(self.csr[0])
        deg.setflags(write=False)
        return deg

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


@dataclass(frozen=True)
class DistanceVector:
    """Hop counts from a BFS source; UNREACHABLE (-1) marks unreachable vertices."""

    source: int
    dist: np.ndarray


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Each non-empty, non-comment line holds one or two whitespace-separated
    vertex tokens: two tokens declare an edge, a single token declares an
    isolated vertex. Lines whose first non-blank character is '#' are
    comments. Tokens are mapped to dense ids in first-appearance order. The
    first bad line (three or more tokens, or a self-loop) raises, naming
    its line number.

    The text is split, interned and checked in bulk: no Python code runs
    per line or per token.
    """
    lines = text.splitlines()
    rows = list(map(str.split, lines))
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    kept = rows
    if "#" in text:
        comment = np.fromiter(
            map(str.startswith, map(str.lstrip, lines), repeat("#")), dtype=bool, count=len(lines)
        )
        counts[comment] = 0
        kept = compress(rows, (~comment).tolist())
    tokens = list(chain.from_iterable(kept))
    ids = dict(zip(dict.fromkeys(tokens), count()))
    flat = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    pair = counts == 2
    edges = flat[np.repeat(pair, counts)].reshape(-1, 2)
    bad = counts > 2
    bad[pair] = edges[:, 0] == edges[:, 1]
    if bad.any():
        line = int(bad.argmax())
        if counts[line] == 2:
            raise GraphParseError(f"line {line + 1}: self-loop at vertex '{rows[line][0]}'")
        raise GraphParseError(f"line {line + 1}: expected 1 or 2 tokens, got {counts[line]}")
    return Graph.from_edges(len(ids), edges, labels=tuple(ids))


def serialize_edge_list(g: Graph) -> str:
    """Render a graph to edge-list text.

    Every vertex is declared first as a single-token line (in id order) so
    that re-parsing assigns identical dense ids; edges follow in canonical
    order. parse(serialize(parse(x))) == parse(x) holds by construction.
    """
    lines = [g.label_of(v) for v in range(g.vertex_count)]
    lines.extend(f"{g.label_of(u)} {g.label_of(v)}" for u, v in g.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON graph format: {"vertices": [names], "edges": [[i, j], ...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise GraphParseError("JSON graph is nested too deeply") from None
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise GraphParseError('JSON graph must be an object with "vertices" and "edges"')
    if not isinstance(obj["vertices"], list) or not isinstance(obj["edges"], list):
        raise GraphParseError('"vertices" and "edges" must be JSON arrays')
    names = [str(x) for x in obj["vertices"]]
    n = len(names)
    edges = []
    for pair in obj["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)):
            raise GraphParseError(f"edge entry {pair!r} must be a pair of vertex indices")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise GraphParseError(f"edge {pair!r} references a missing vertex")
        if i == j:
            raise GraphParseError(f"self-loop at vertex '{names[i]}'")
        edges.append((i, j))
    return Graph.from_edges(n, edges, labels=tuple(names))


def serialize_graph_json(g: Graph) -> str:
    obj = {
        "vertices": [g.label_of(v) for v in range(g.vertex_count)],
        "edges": [[u, v] for u, v in g.edges],
    }
    return json.dumps(obj, indent=2) + "\n"


def _neighbour_slots(indptr: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a nonempty frontier over its CSR ranges: (slots, counts).

    slots holds the CSR positions of every vertex's neighbours, vertex after
    vertex in frontier order, so indices[slots] lists those neighbours;
    counts[i] is the degree of verts[i].
    """
    lo = indptr[verts]
    counts = indptr[verts + 1] - lo
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts), counts


def _bfs(g: Graph, sources, paths: bool = False):
    """Level-synchronous BFS from a batch of B sources at once.

    Returns (dist, sigma, dag). dist is the (B, n) int64 array of hop counts,
    UNREACHABLE where a source does not reach a vertex. With paths=True,
    sigma is the flat (B * n,) float64 array of shortest-path counts and dag
    holds one (parents, children) pair of arrays per level: every edge of the
    shortest-path DAG from that level to the next, as flat indices b * n + v.
    Without paths, sigma and dag are None.

    Each level expands the whole frontier of (source, vertex) pairs over
    their CSR ranges in one go. A vertex reached twice in a level is kept
    once without sorting: every candidate writes its rank into `owner`, and
    only the candidate whose rank survived is kept. The edges into one
    vertex are summed into sigma in frontier order; path counts are
    integers, so the sums are exact whatever that order is.
    """
    indptr, indices = g.csr
    n = g.vertex_count
    sources = np.asarray(sources, dtype=np.int64)
    size = sources.size * n
    dist = np.full(size, UNREACHABLE, dtype=np.int64)
    owner = np.empty(size, dtype=np.int64)
    front = np.arange(sources.size, dtype=np.int64) * n + sources
    dist[front] = 0
    sigma = dag = None
    if paths:
        sigma = np.zeros(size)
        sigma[front] = 1.0
        dag = []
    level = 0
    while front.size:
        level += 1
        verts = front % n
        slots, counts = _neighbour_slots(indptr, verts)
        children = indices[slots] + np.repeat(front - verts, counts)
        fresh = dist[children] == UNREACHABLE
        if paths:
            parents = np.repeat(front, counts)[fresh]
        children = children[fresh]
        rank = np.arange(children.size)
        owner[children] = rank
        front = children[owner[children] == rank]
        dist[front] = level
        if paths:
            np.add.at(sigma, children, sigma[parents])
            dag.append((parents, children))
    return dist.reshape(sources.size, n), sigma, dag


def bfs_distances(g: Graph, s: int) -> DistanceVector:
    """Exact unweighted shortest-path hop counts from s; unreachable marked -1."""
    if not (0 <= s < g.vertex_count):
        raise ValueError(f"source {s} out of range for {g.vertex_count} vertices")
    dist = _bfs(g, [s])[0][0]
    dist.setflags(write=False)
    return DistanceVector(source=s, dist=dist)


def connected_components(g: Graph) -> np.ndarray:
    """Per-vertex component labels 0..C-1, assigned in ascending order of first vertex.

    Every vertex starts as its own root. Each round hooks the larger root of
    every edge whose ends have different roots under the smaller one, then
    jumps pointers until each vertex points at its root. A root is thus the
    smallest vertex below it, and once no edge joins two roots each root is
    the first vertex of its component.
    """
    root = np.arange(g.vertex_count, dtype=np.int64)
    u, v = g.edge_array.T
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        ru, rv = ru[split], rv[split]
        np.minimum.at(root, ru, rv)
        np.minimum.at(root, rv, ru)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    labels = np.unique(root, return_inverse=True)[1].astype(np.int64, copy=False)
    labels.setflags(write=False)
    return labels
