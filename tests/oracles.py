"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms from the library code: path
enumeration instead of Brandes accumulation, parametric line solving
instead of orientation predicates, the closed-form rank formula instead of
Pearson-on-ranks, and a per-vertex loop over the public force primitives
instead of the engine's blocked repulsion kernel. For graphs too large for
path enumeration, per-source queue BFS loops over the tuple adjacency stand
in for the library's batched CSR BFS, and per-vertex and per-run loops
stand in for its vectorised angular resolution and average ranks. A
per-line loop stands in for the bulk edge-list parser, and plain checks on
the decoded object for the JSON graph parser. `random_value` and
`fuzz_json_text` make the seeded inputs of the boundary fuzz tests.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

from gravlayout import (
    Graph,
    GraphParseError,
    LayoutConfig,
    LayoutState,
    MassVector,
    attractive_force,
    centroid,
    gravity_force,
    repulsive_force,
)
from gravlayout.engine import TWO_PI


def adjacency_reference(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Neighbor ids per vertex, each tuple in ascending order, from a loop
    over the edge tuples rather than the CSR."""
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


def parse_edge_list_reference(text: str) -> Graph:
    """Edge-list parsing one line at a time: strip, skip blanks and '#'
    comments, split, intern tokens as they appear, and raise on the first
    line with three or more tokens or a self-loop."""
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def intern(token: str) -> int:
        if token not in ids:
            ids[token] = len(ids)
        return ids[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            intern(tokens[0])
        elif len(tokens) == 2:
            a, b = tokens
            if a == b:
                raise GraphParseError(f"line {lineno}: self-loop at vertex '{a}'")
            edges.append((intern(a), intern(b)))
        else:
            raise GraphParseError(f"line {lineno}: expected 1 or 2 tokens, got {len(tokens)}")
    return Graph.from_edges(len(ids), edges, labels=tuple(ids))


def parse_graph_json_reference(text: str) -> Graph:
    """JSON graph parsing by plain checks on the decoded object: it must be
    {"vertices": [...], "edges": [[i, j], ...]} with both lists, and each
    edge two ints (not bools) naming distinct listed vertices."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not (isinstance(obj, dict) and isinstance(obj.get("vertices"), list) and isinstance(obj.get("edges"), list)):
        raise GraphParseError("not a graph object")
    n = len(obj["vertices"])
    edges = set()
    for pair in obj["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"bad edge {pair!r}")
        i, j = pair
        if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n) or i == j:
            raise GraphParseError(f"bad edge {pair!r}")
        edges.add((min(i, j), max(i, j)))
    return Graph(n, tuple(sorted(edges)), labels=tuple(str(x) for x in obj["vertices"]))


# What a JSON document or a caller may put where a number is expected: valid
# numbers, magnitudes at the edges of the float range, and wrong types.
FUZZ_ATOMS = (
    0, 1, 2, 3, -1, 7, 0.5, 2.5, -3.75, 1e-320, 1e300, 10**400, -(10**30),
    math.nan, math.inf, -math.inf, True, False, None, "", "1", "x",
)


def random_value(rng: np.random.Generator, depth: int = 2):
    """A random JSON-like value: mostly an atom of FUZZ_ATOMS, sometimes a
    list or a string-keyed object of random values, nested up to depth."""
    r = rng.random()
    if depth > 0 and r < 0.15:
        return [random_value(rng, depth - 1) for _ in range(int(rng.integers(0, 4)))]
    if depth > 0 and r < 0.2:
        return {str(random_value(rng, 0)): random_value(rng, depth - 1) for _ in range(int(rng.integers(0, 3)))}
    return FUZZ_ATOMS[int(rng.integers(len(FUZZ_ATOMS)))]


def fuzz_json_text(rng: np.random.Generator, obj) -> str:
    """obj as JSON text (NaN and Infinity included), sometimes truncated,
    sometimes wrapped in a nesting deeper than the decoder allows."""
    text = json.dumps(obj)
    r = rng.random()
    if r < 0.05:
        return text[: int(rng.integers(0, len(text)))]
    if r < 0.07:
        return "[" * 5000 + text + "]" * 5000
    return text


def brute_betweenness(g: Graph) -> np.ndarray:
    """Betweenness over unordered pairs by enumerating every shortest path."""
    n = g.vertex_count
    adj = adjacency_reference(g)
    score = np.zeros(n, dtype=float)

    def all_shortest_paths(s: int, t: int, dist, preds) -> list[list[int]]:
        if dist[t] == -1:
            return []
        paths = []

        def walk(v: int, tail: list[int]) -> None:
            if v == s:
                paths.append([s] + tail[::-1])
                return
            for p in preds[v]:
                walk(p, tail + [v])

        walk(t, [])
        return paths

    for s in range(n):
        dist = [-1] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    preds[w].append(u)
        for t in range(s + 1, n):
            paths = all_shortest_paths(s, t, dist, preds)
            if not paths:
                continue
            for path in paths:
                for v in path[1:-1]:
                    score[v] += 1.0 / len(paths)
    return score


def closeness_reference(g: Graph) -> np.ndarray:
    """Closeness by one queue BFS per source: reached / sum of hop counts."""
    n = g.vertex_count
    values = np.zeros(n, dtype=float)
    adj = adjacency_reference(g)
    dist = np.empty(n, dtype=np.int64)
    for s in range(n):
        dist.fill(-1)
        dist[s] = 0
        queue = deque([s])
        total = 0
        reached = 0
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    total += dist[w]
                    reached += 1
                    queue.append(w)
        if reached:
            values[s] = reached / total
    return values


def brandes_reference(g: Graph) -> np.ndarray:
    """Betweenness over unordered pairs by Brandes accumulation, one queue
    BFS per source in ascending order, scalar arithmetic throughout."""
    n = g.vertex_count
    bc = np.zeros(n, dtype=float)
    adj = adjacency_reference(g)
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = [0.0] * n
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += (sigma[u] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    bc *= 0.5
    return bc


def components_reference(g: Graph) -> np.ndarray:
    """Component labels by one queue BFS per unlabelled vertex, in ascending
    vertex order, over the tuple adjacency."""
    labels = np.full(g.vertex_count, -1, dtype=np.int64)
    adj = adjacency_reference(g)
    count = 0
    for s in range(g.vertex_count):
        if labels[s] != -1:
            continue
        labels[s] = count
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if labels[w] == -1:
                    labels[w] = count
                    queue.append(w)
        count += 1
    return labels


def parametric_crossings(g: Graph, positions) -> int:
    """Open-segment crossing count by solving each pair's 2x2 linear system."""
    pos = np.asarray(positions, dtype=float)
    edges = g.edges
    count = 0
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            a, b = edges[i]
            c, d = edges[j]
            if len({a, b, c, d}) < 4:
                continue
            p1, p2, q1, q2 = pos[a], pos[b], pos[c], pos[d]
            r = p2 - p1
            s = q2 - q1
            denom = r[0] * s[1] - r[1] * s[0]
            qp = q1 - p1
            if denom != 0.0:
                t = (qp[0] * s[1] - qp[1] * s[0]) / denom
                u = (qp[0] * r[1] - qp[1] * r[0]) / denom
                if 0.0 < t < 1.0 and 0.0 < u < 1.0:
                    count += 1
            else:
                if qp[0] * r[1] - qp[1] * r[0] != 0.0:
                    continue  # parallel, not collinear
                rr = float(r @ r)
                if rr == 0.0:
                    continue
                # Parameters of q1 and q2 along p, scaled by |r|^2 so that no
                # division rounds a touching pair into an overlap.
                t0 = float(qp @ r)
                t1 = float((q2 - p1) @ r)
                lo, hi = min(t0, t1), max(t0, t1)
                if min(rr, hi) > max(0.0, lo):
                    count += 1
    return count


def spearman_formula(x, y) -> float:
    """Spearman rho via 1 - 6 sum(d^2) / (n (n^2 - 1)); valid without ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    rx = np.empty(n)
    ry = np.empty(n)
    rx[np.argsort(x)] = np.arange(1, n + 1)
    ry[np.argsort(y)] = np.arange(1, n + 1)
    d = rx - ry
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def random_graph(rng: np.random.Generator, n_lo: int = 2, n_hi: int = 10) -> Graph:
    """Random simple graph with n in [n_lo, n_hi] and random edge density."""
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph.from_edges(n, [])
    p = float(rng.uniform(0.1, 0.9))
    chosen = [pair for pair in pairs if rng.random() < p]
    return Graph.from_edges(n, chosen)


def net_impulse(v: int, state: LayoutState, g: Graph, mass, config: LayoutConfig) -> np.ndarray:
    """Per-vertex impulse: repulsion from every other vertex, attraction from
    each neighbor, one gravity term at state.gamma, summed in ascending
    vertex-id order. Assumes positions already separated (no coincidences).
    """
    pos = state.positions
    mass_vals = mass.values if isinstance(mass, MassVector) else np.asarray(mass, dtype=float)
    total = np.zeros(2)
    for u in range(g.vertex_count):
        if u != v:
            total += repulsive_force(pos[u], pos[v], config.k)
    for u in adjacency_reference(g)[v]:
        total += attractive_force(pos[u], pos[v], config.k)
    total += gravity_force(pos[v], centroid(pos), float(mass_vals[v]), state.gamma)
    return total


def separate_coincident(pos, k: float, frozen, nudge, trigger: float = 1e-6, rounds: int = 8):
    """The engine's jitter rule, pair by pair. Each round lists the pairs u < v
    closer than trigger * k in ascending (u, v) order from the round's
    snapshot, then moves the first unfrozen vertex of each pair by nudge(vertex),
    each vertex at most once. Stops after a round with no pair or no move.
    """
    pos = np.array(pos, dtype=float)
    n = len(pos)
    for _ in range(rounds):
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (pos[u, 0] - pos[v, 0]) ** 2 + (pos[u, 1] - pos[v, 1]) ** 2 < (trigger * k) ** 2
        ]
        moved: list[int] = []
        for u, v in pairs:
            target = v if not frozen[v] else (u if not frozen[u] else None)
            if target is not None and target not in moved:
                pos[target] += nudge(target)
                moved.append(target)
        if not moved:
            break
    return pos


def angular_resolution_reference(g: Graph, positions) -> float:
    """Smallest angle between consecutive edge directions, one vertex at a
    time over the tuple adjacency; 2*pi when no vertex has degree >= 2."""
    pos = np.asarray(positions, dtype=float)
    best = TWO_PI
    for v, nbrs in enumerate(adjacency_reference(g)):
        if len(nbrs) < 2:
            continue
        vecs = pos[list(nbrs)] - pos[v]
        angles = np.sort(np.arctan2(vecs[:, 1], vecs[:, 0]))
        gaps = np.diff(angles)
        wrap = TWO_PI - (angles[-1] - angles[0])
        best = min(best, float(min(gaps.min(), wrap)))
    return best


def average_ranks_reference(values) -> np.ndarray:
    """Average ranks by walking each run of tied values in sorted order."""
    values = np.asarray(values, dtype=float)
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
