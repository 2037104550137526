"""Undirected simple graphs: construction, edge-list/JSON parsing, BFS
primitives, and the one rule for numbers from a caller: a Python or numpy
integer or real, never a bool, string, None or complex value. `_check_integer`,
`_check_real` and `_check_finite` read one such number, `_numbers` an array
of them.

Two level-synchronous BFS run over the cached CSR adjacency: `_bfs` from a
batch of B sources at once, in O(B * (n + m)) memory, and `_bfs_parents`
from all its roots together, for a spanning forest. `connected_components`
runs no BFS: it hooks roots and jumps pointers. `_euler_tour` roots each
component of a forest by a tour ranked by pointer jumping, whatever its
depth.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from numbers import Integral, Real

import numpy as np

UNREACHABLE = -1


class GraphParseError(ValueError):
    """Raised when graph input text is malformed."""


def _check_integer(name: str, value) -> int:
    """value as an int; ValueError unless it is a Python or numpy integer
    (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> float:
    """value as a Python float; ValueError unless it is a Python or numpy real
    number (a bool is not one). NaN and +-inf pass, and an integer beyond the
    float range reads as +-inf."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_finite(name: str, value) -> float:
    """value as a Python float; ValueError unless it is a finite real number
    (a bool is not one)."""
    try:
        number = _check_real(name, value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def _numbers(what: str, values, kind=Real, width: int | None = None) -> np.ndarray:
    """values as an int64 (kind Integral) or float64 (kind Real) array of
    shape (n,), or (n, width); ValueError, opening with what, unless every
    entry is a number of that kind that fits the dtype. Such an ndarray is
    only cast, so a float64 one comes back uncopied; anything else is listed,
    its rows checked for length, and its entries by type, then converted once."""
    dtype, kinds = (np.int64, "iu") if kind is Integral else (np.float64, "iuf")
    tail = () if width is None else (width,)
    if isinstance(values, np.ndarray) and values.ndim and values.shape[1:] == tail and values.dtype.kind in kinds:
        # astype would wrap a uint64 entry past the int64 range to a negative number
        if kind is Integral and values.dtype == np.uint64 and (values >> np.uint64(63)).any():
            raise ValueError(f"{what}: a number is beyond the int64 range")
        return values.astype(dtype, copy=False)
    try:
        rows = list(values)
        if width is not None and not set(map(len, rows)) <= {width}:
            raise TypeError
        flat = rows if width is None else list(chain.from_iterable(rows))
    except TypeError:
        raise ValueError(f"{what}: shape is not {'(n,)' if width is None else f'(n, {width})'}") from None
    for cls in set(map(type, flat)):
        if cls is bool or not issubclass(cls, kind):
            bad = next(x for x in flat if type(x) is cls)
            raise ValueError(f"{what}: {bad!r} is not {'an integer' if kind is Integral else 'a real number'}")
    try:
        return np.array(flat, dtype=dtype).reshape(len(rows), *tail)
    except OverflowError:
        raise ValueError(f"{what}: a number is beyond the {np.dtype(dtype)} range") from None


# Pairs with both ids in [0, KEY_BASE_MAX) sort as the one int64 key
# major * base + minor, base = the largest id + 1 <= KEY_BASE_MAX.
KEY_BASE_MAX = math.isqrt(np.iinfo(np.int64).max)


def _sorted_pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 pairs (major[i], minor[i]) in lexicographic order, as two
    arrays: one sort of an int64 key, or np.lexsort where that key could
    overflow or an id is negative."""
    if major.size and min(major.min(), minor.min()) >= 0:
        base = int(max(major.max(), minor.max())) + 1
        if base <= KEY_BASE_MAX:
            return np.divmod(np.sort(major * base + minor), base)
    order = np.lexsort((minor, major))
    return major[order], minor[order]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph on vertex ids 0..vertex_count-1.

    Edges are stored canonically: each pair has u < v, the pairs are sorted
    lexicographically, and there are no duplicates or self-loops. Every
    endpoint must be an integer (Python or numpy; bool and float are
    rejected). The edges may be given as any sequence of pairs or an (m, 2)
    integer array; `edge_array`, a read-only (m, 2) int64 array, is their one
    store. `labels`, when given, is stored as a tuple of distinct str, one per
    vertex. Use :meth:`from_edges` to build a graph from arbitrary pair
    iterables. Two graphs are equal when their vertex counts, edges and
    labels are.
    """

    vertex_count: int
    edge_array: np.ndarray = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = self.vertex_count
        _check_integer("vertex_count", n)
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        ea = _numbers("edge pairs", self.edge_array, Integral, 2).copy()
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
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise ValueError("labels length must equal vertex_count")
            if not all(map(isinstance, labels, repeat(str))):
                bad_label = next(x for x in labels if not isinstance(x, str))
                raise ValueError(f"labels must be strings, got {bad_label!r}")
            if len(set(labels)) < n:
                repeated = next(label for label, c in Counter(labels).items() if c > 1)
                raise ValueError(f"labels must be distinct, but {repeated!r} is repeated")
            object.__setattr__(self, "labels", labels)
        ea.setflags(write=False)
        object.__setattr__(self, "edge_array", ea)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.labels == other.labels
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edge_array.tobytes(), self.labels))

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
        ea = _numbers("edge pairs", edges, Integral, 2)
        lo, hi = np.minimum(*ea.T), np.maximum(*ea.T)
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"self-loop at vertex {lo[loops[0]]}")
        lo, hi = _sorted_pairs(lo, hi)
        first = np.ones(lo.size, dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return cls(vertex_count, np.column_stack((lo[first], hi[first])), labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as a tuple of Python-int pairs, built from `edge_array`
        on each access, in O(m) time and memory."""
        return tuple(zip(*self.edge_array.T.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

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
        indices = _sorted_pairs(heads, tails)[1]
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


def _edge_list_ids(text: str) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The tokens of edge-list text as (counts, ids, labels): the number of
    tokens on each line, 0 on a comment line; the dense id of every other
    token, in text order; and the token of each id.

    Each line's tokens are counted and dropped, then the tokens come from
    one text.split(): every line break is whitespace to str.split, so the
    two agree. The token list, O(text), is the one list of strings kept (a
    text holding '#' filters it into a new one), and it is gone when this
    returns. A line is a comment when its first token starts with '#'.
    """
    counts = np.fromiter(map(len, map(str.split, text.splitlines())), dtype=np.int64)
    tokens = text.split()
    if "#" in text:
        hashed = np.fromiter(map(str.startswith, tokens, repeat("#")), dtype=bool, count=len(tokens))
        comment = counts > 0
        comment[comment] = hashed[(np.cumsum(counts) - counts)[comment]]
        tokens = list(compress(tokens, np.repeat(~comment, counts).tolist()))
        counts[comment] = 0
    ids = dict(zip(dict.fromkeys(tokens), count()))
    return counts, np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens)), tuple(ids)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Each non-empty, non-comment line holds one or two whitespace-separated
    vertex tokens: two tokens declare an edge, a single token declares an
    isolated vertex. Lines whose first non-blank character is '#' are
    comments. Tokens are mapped to dense ids in first-appearance order. The
    first bad line (three or more tokens, or a self-loop) raises, naming
    its line number.

    The text is split, interned and checked in bulk: no Python code runs
    per line or per token, and no list of lines is kept (`_edge_list_ids`).
    """
    counts, flat, labels = _edge_list_ids(text)
    pair = counts == 2
    edges = flat[np.repeat(pair, counts)].reshape(-1, 2)
    bad = counts > 2
    bad[pair] = edges[:, 0] == edges[:, 1]
    if bad.any():
        line = int(bad.argmax())
        if counts[line] == 2:
            vertex = labels[edges[np.count_nonzero(pair[:line]), 0]]
            raise GraphParseError(f"line {line + 1}: self-loop at vertex '{vertex}'")
        raise GraphParseError(f"line {line + 1}: expected 1 or 2 tokens, got {counts[line]}")
    return Graph.from_edges(len(labels), edges, labels=labels)


def serialize_edge_list(g: Graph) -> str:
    """Render a graph to edge-list text.

    Every vertex is declared first as a single-token line (in id order) so
    that re-parsing assigns identical dense ids; edges follow in canonical
    order. ValueError, naming the vertex, when a label could not be read
    back as that one token: an empty label, or one holding whitespace or
    starting with '#' (`Graph` keeps labels distinct). Otherwise
    parse(serialize(parse(x))) == parse(x) holds by construction.
    """
    labels = [g.label_of(v) for v in range(g.vertex_count)]
    if g.labels is not None:
        for v, label in enumerate(labels):
            if label.split() != [label] or label.startswith("#"):
                raise ValueError(f"vertex {v}: label {label!r} is not an edge-list token")
    lines = labels + [f"{labels[u]} {labels[v]}" for u, v in g.edge_array.tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON graph format: {"vertices": [names], "edges": [[i, j], ...]}.
    Names are distinct JSON strings."""
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
    names = obj["vertices"]
    if not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        raise GraphParseError("vertex names must be distinct JSON strings")
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
        "edges": g.edge_array.tolist(),
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


def _bfs_parents(g: Graph, roots) -> np.ndarray:
    """The parent of every vertex in one BFS from all the roots at once, -1
    at the roots and at vertices they do not reach. The roots must be
    strictly increasing, as `_first_vertices` gives them. Each vertex hangs
    from its smallest neighbour on the level before its own, so with one
    root per component the parents span a forest of g, in O(n + m) memory."""
    indptr, indices = g.csr
    parent = np.full(g.vertex_count, -1, dtype=np.int64)
    seen = np.zeros(g.vertex_count, dtype=bool)
    front = np.asarray(roots, dtype=np.int64)
    seen[front] = True
    while front.size:
        slots, counts = _neighbour_slots(indptr, front)
        heads = np.repeat(front, counts)
        tails = indices[slots]
        fresh = ~seen[tails]
        # Heads ascend, so a vertex's first appearance names its smallest parent.
        front, first = np.unique(tails[fresh], return_index=True)
        parent[front] = heads[fresh][first]
        seen[front] = True
    return parent


def _euler_tour(g: Graph, labels: np.ndarray, roots: np.ndarray):
    """Root each component of the forest g at roots[c], c its label, by an Euler tour.

    The tour of a component walks each edge down and back up, taking a
    vertex's neighbours in CSR order; the tours are laid end to end in label
    order. Returns (parent, size, enter, leave, depth), all int64 of length
    n: parent is -1 at the roots, size[v] counts the vertices of v's
    subtree, enter[v] and leave[v] are the tour positions of the arcs into
    and out of v, and depth[v] counts the edges from v up to its root. A
    root's enter and leave are one before its tour's first arc and one
    after its last, so size == (leave - enter + 1) // 2 everywhere.

    The arcs are the CSR positions. The successor of u -> v is the arc after
    v -> u in v's row, wrapping to the row's start; each tour is cut before
    its root's first arc and ranked by pointer jumping (Wyllie), so the
    cost is O(m log N) for the largest component size N, whatever the
    depth, in a few length-m arrays.
    """
    indptr, indices = g.csr
    arcs = indices.size
    counts = np.bincount(labels, minlength=roots.size)
    # The k-th arc in (head, tail) order is the twin of CSR arc k; the CSR
    # position, in the key's low bits, orders the arcs of one head by tail.
    # The key stays below 4 * n * m, which fits int64 wherever the length-n
    # arrays fit in memory.
    bits = arcs.bit_length()
    twin = np.sort(indices << bits | np.arange(arcs)) & ((1 << bits) - 1)
    # The next arc in the same CSR row, wrapping to the row's start.
    after = np.arange(1, arcs + 1)
    rows = np.flatnonzero(np.diff(indptr))
    after[indptr[rows + 1] - 1] = indptr[rows]
    nxt = after[twin]
    dist = np.ones(arcs, dtype=np.int64)
    # A tour ends at the arc whose successor is its root's first arc.
    roots = roots[indptr[roots + 1] > indptr[roots]]
    ends = twin[indptr[roots + 1] - 1]
    nxt[ends] = ends
    dist[ends] = 0
    # After r rounds dist counts the arcs to the end of the tour for every
    # arc at most 2**r from it; a tour of 2N - 2 arcs needs 2**r >= 2N - 3.
    for _ in range(max(2 * int(counts.max(initial=1)) - 4, 0).bit_length()):
        dist += dist[nxt]
        nxt = nxt[nxt]
    last = np.cumsum(2 * counts - 2) - 1
    base = last[labels]
    enter = base - 2 * counts[labels] + 2
    leave = base + 1
    # An arc points down exactly when the tour takes it before its twin.
    down = np.flatnonzero(dist > dist[twin])
    up = twin[down]
    child = indices[down]
    parent = np.full(labels.size, -1, dtype=np.int64)
    parent[child] = indices[up]
    enter[child] = base[child] - dist[down]
    leave[child] = base[child] - dist[up]
    # Depth is the running sum of +1 where the tour goes down an edge and -1
    # where it comes back up; tour position p is at walk[p + 1].
    walk = np.zeros(2 * child.size + 1, dtype=np.int64)
    walk[enter[child] + 1] = 1
    walk[leave[child] + 1] = -1
    return parent, (leave - enter + 1) // 2, enter, leave, np.cumsum(walk)[enter + 1]


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


def _first_vertices(labels: np.ndarray) -> np.ndarray:
    """The first vertex of each component, by label, from the labels of
    `connected_components`: they are numbered in order of first vertex, so
    each component's first vertex is where the running maximum rises."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
