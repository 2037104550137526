"""Independent reference implementations used to cross-check the package.

These deliberately use different algorithms from the library code: path
enumeration instead of Brandes accumulation, parametric line solving
instead of orientation predicates, the closed-form rank formula instead of
Pearson-on-ranks, and a per-vertex loop over scalar force primitives
instead of the engine's blocked repulsion kernel. The primitives
(`repulsive_force`, `attractive_force`, `gravity_force` and `centroid`)
live here, not in the package, which has only the kernel. For graphs too
large for path enumeration, per-source queue BFS loops over the tuple
adjacency stand in for the library's batched CSR BFS, a level-by-level
sweep stands in for the Euler tour that roots forests, and per-vertex
and per-run loops stand in for its vectorised angular resolution and
average ranks. Python-int splitmix64 stands in for the engine's noise
over uint64 arrays, in the radial start's jitter too. `fit_arc`, the
circumcircle through an arc's endpoints and its midpoint, stands in for
the closed-form arcs built from each edge's sweep. A per-line loop stands
in for the bulk edge-list parser, and plain checks on the decoded object
for the JSON graph parser. `random_value` and `fuzz_json_text` make the
seeded inputs of the boundary fuzz tests.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from gravlayout import (
    Graph,
    GraphParseError,
    LayoutConfig,
    LayoutState,
    MassVector,
    connected_components,
)
from gravlayout.arcs import COLLINEAR_AREA_TOL, arc_geometry
from gravlayout.engine import START_JITTER, TWO_PI
from gravlayout.graphs import _neighbour_slots


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
    {"vertices": [...], "edges": [[i, j], ...]} with both lists, the names
    distinct strings, and each edge two ints (not bools) naming distinct
    listed vertices."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from None
    if not (isinstance(obj, dict) and isinstance(obj.get("vertices"), list) and isinstance(obj.get("edges"), list)):
        raise GraphParseError("not a graph object")
    names = obj["vertices"]
    for i, name in enumerate(names):
        if type(name) is not str or name in names[:i]:
            raise GraphParseError(f"bad vertex name {name!r}")
    n = len(names)
    edges = set()
    for pair in obj["edges"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"bad edge {pair!r}")
        i, j = pair
        if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n) or i == j:
            raise GraphParseError(f"bad edge {pair!r}")
        edges.add((min(i, j), max(i, j)))
    return Graph(n, tuple(sorted(edges)), labels=tuple(names))


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
    """Closeness by one queue BFS per source: reached / sum of hop counts.
    The queue is the visit order list, read while it grows."""
    n = g.vertex_count
    values = [0.0] * n
    adj = adjacency_reference(g)
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        order = [s]
        total = 0
        for u in order:
            d = dist[u] + 1
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = d
                    total += d
                    order.append(w)
        if total:
            values[s] = (len(order) - 1) / total
    return np.array(values)


def brandes_reference(g: Graph) -> np.ndarray:
    """Betweenness over unordered pairs by Brandes accumulation, one queue
    BFS per source in ascending order, scalar arithmetic throughout."""
    n = g.vertex_count
    bc = [0.0] * n
    adj = adjacency_reference(g)
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]  # the queue, read while it grows
        for u in order:
            d = dist[u] + 1
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = d
                    order.append(w)
                if dist[w] == d:
                    sigma[w] += sigma[u]
        # Each predecessor u of w gets one term from w, so scanning w's
        # neighbours for them sums every delta[u] in the same order.
        delta = [0.0] * n
        for w in reversed(order):
            up, share = dist[w] - 1, (1.0 + delta[w])
            for u in adj[w]:
                if dist[u] == up:
                    delta[u] += (sigma[u] / sigma[w]) * share
            if w != s:
                bc[w] += delta[w]
    return 0.5 * np.array(bc)


def rooted_forest_reference(g: Graph, roots=None):
    """(parent, size, closeness, betweenness) of the forest g, each component
    rooted at roots[c] for label c (default: its first vertex), by a
    level-synchronous sweep: one frontier expansion per BFS level, subtree
    sizes summed level by level deepest first, and distance sums carried
    down level by level. All counts are exact int64 until the last step."""
    n = g.vertex_count
    labels = connected_components(g)
    if roots is None:
        roots = np.flatnonzero(np.diff(np.maximum.accumulate(labels), prepend=-1))
    roots = np.asarray(roots, dtype=np.int64)
    indptr, indices = g.csr
    parent = np.full(n, -1, dtype=np.int64)
    levels = []
    front = roots
    while front.size:
        levels.append(front)
        slots, counts = _neighbour_slots(indptr, front)
        parents = np.repeat(front, counts)
        children = indices[slots]
        # In a forest every neighbour but the parent is an unvisited child.
        down = children != parent[parents]
        front = children[down]
        parent[front] = parents[down]
    size = np.ones(n, dtype=np.int64)
    for front in reversed(levels[1:]):
        np.add.at(size, parent[front], size[front])
    top = roots[labels]
    comp = size[top]
    child = parent >= 0
    # Closeness: a root's distance sum is its component's sum of depths, and
    # a step from a parent to v changes it by comp - 2 * size[v].
    dist_sum = np.zeros(n, dtype=np.int64)
    np.add.at(dist_sum, top[child], size[child])
    for front in levels[1:]:
        dist_sum[front] = dist_sum[parent[front]] + comp[front] - 2 * size[front]
    closeness = np.zeros(n, dtype=float)
    hit = comp > 1
    closeness[hit] = (comp[hit] - 1) / dist_sum[hit]
    # Betweenness: ((N - 1)**2 - sum of the squared part sizes) / 2.
    squares = (comp - size) ** 2
    np.add.at(squares, parent[child], size[child] ** 2)
    betweenness = ((comp - 1) ** 2 - squares).astype(float) * 0.5
    return parent, size, closeness, betweenness


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


def random_start(g: Graph, seed: int, k: float) -> np.ndarray:
    """Uniform random positions in the square of side k * sqrt(|V|) centered
    at the origin: the start of every run before the radial start, kept for
    the criteria that reproduce the paper's claims from a tangled start."""
    n = g.vertex_count
    rng = np.random.default_rng(seed)
    half = 0.5 * k * math.sqrt(n)
    return rng.uniform(-half, half, size=(n, 2))


def radial_start_reference(g: Graph, seed: int, k: float) -> np.ndarray:
    """The radial start of `initialize_positions` by BFS and DFS loops over
    the tuple adjacency, in place of Euler tours.

    Per component: level-by-level BFS parents from its first vertex (each
    vertex under its smallest neighbour on the level above), a longest path
    a - b from two BFS sweeps over that tree (the deepest vertex, smallest
    on a tie), and its middle, the vertex on the path at depth L // 2 below
    a, as the root. A DFS from the root takes a vertex's children in
    ascending order, starting after its parent and wrapping around, as the
    tour does. Shelves, centering and jitter as documented."""
    n = g.vertex_count
    if not n:
        return np.zeros((0, 2))
    adj = adjacency_reference(g)
    labels = components_reference(g)
    count = int(labels.max()) + 1
    members = [[] for _ in range(count)]
    for v in range(n):
        members[int(labels[v])].append(v)
    tree: list[list[int]] = [[] for _ in range(n)]
    for comp in members:
        level, seen = [comp[0]], {comp[0]}
        while level:
            nxt = {}
            for u in level:
                for w in adj[u]:
                    if w not in seen:
                        nxt[w] = min(nxt.get(w, u), u)
            for w, u in nxt.items():
                tree[u].append(w)
                tree[w].append(u)
            seen.update(nxt)
            level = sorted(nxt)
    tree = [sorted(nbrs) for nbrs in tree]

    def sweep(source):
        parent, dist, queue = {source: -1}, {source: 0}, deque([source])
        while queue:
            u = queue.popleft()
            for w in tree[u]:
                if w not in dist:
                    parent[w], dist[w] = u, dist[u] + 1
                    queue.append(w)
        far = min(dist, key=lambda v: (-dist[v], v))
        return far, parent, dist

    pos = np.zeros((n, 2))
    sides = []
    for comp in members:
        a = sweep(comp[0])[0]
        b, parent, dist = sweep(a)
        root = b
        while dist[root] > dist[b] // 2:
            root = parent[root]
        # Iterative DFS: preorder index, depth and subtree size.
        order, depth, up = [], {root: 0}, {root: -1}
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            nbrs = tree[v]
            start = nbrs.index(up[v]) + 1 if up[v] >= 0 else 0
            kids = [w for w in nbrs[start:] + nbrs[:start] if w != up[v]]
            for w in kids:
                up[w], depth[w] = v, depth[v] + 1
            stack.extend(reversed(kids))
        size = {v: 1 for v in order}
        for v in reversed(order[1:]):
            size[up[v]] += size[v]
        for index, v in enumerate(order):
            angle = TWO_PI * (index + 0.5 * size[v]) / len(order)
            pos[v] = (depth[v] * k * math.cos(angle), depth[v] * k * math.sin(angle))
        sides.append(2.0 * k * max(depth.values()) + k)
    width = math.sqrt(sum(side * side for side in sides))
    x = y = shelf = 0.0
    for c in sorted(range(count), key=lambda c: -sides[c]):
        if x and x + sides[c] > width:
            x, y, shelf = 0.0, y + shelf, 0.0
        for v in members[c]:
            pos[v] += (x + 0.5 * sides[c], y + 0.5 * sides[c])
        x += sides[c]
        shelf = max(shelf, sides[c])
    pos -= 0.5 * (pos.min(axis=0) + pos.max(axis=0))
    for v in range(n):  # Box-Muller over the start's two uniforms per vertex
        r = START_JITTER * k * math.sqrt(-2.0 * math.log1p(-uniform_reference(seed, 0, 2 * v)))
        angle = TWO_PI * uniform_reference(seed, 0, 2 * v + 1)
        pos[v] += (r * math.cos(angle), r * math.sin(angle))
    return pos


MASK64 = (1 << 64) - 1


def splitmix64_reference(x: int) -> int:
    """The splitmix64 finalizer on one Python int, wrapped by masking."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def uniform_reference(seed: int, t: int, key: int) -> float:
    """The engine's seeded uniform for (seed, t, key), in Python ints."""
    mix = splitmix64_reference
    h = mix(mix(mix(seed & MASK64) ^ (t & MASK64)) ^ key)
    return (h >> 11) / 2.0**53


def repulsive_force(pu, pv, k: float) -> np.ndarray:
    """Force on v pushing it away from u; magnitude k^2 / |pu - pv|."""
    pu = np.asarray(pu, dtype=float)
    pv = np.asarray(pv, dtype=float)
    diff = pv - pu
    d2 = float(diff @ diff)
    if d2 == 0.0:
        raise ValueError("repulsive_force requires distinct points (jitter upstream)")
    return (k * k / d2) * diff


def attractive_force(pu, pv, k: float) -> np.ndarray:
    """Force on v pulling it toward u; magnitude |pu - pv|^2 / k."""
    pu = np.asarray(pu, dtype=float)
    pv = np.asarray(pv, dtype=float)
    diff = pu - pv
    return (math.sqrt(float(diff @ diff)) / k) * diff


def centroid(positions) -> np.ndarray:
    """Arithmetic mean of the positions."""
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        raise ValueError("centroid of no points is undefined")
    return pos.mean(axis=0)


def gravity_force(pv, xi, mass: float, gamma: float) -> np.ndarray:
    """Force gamma * mass * (xi - pv) pulling v toward the centroid."""
    pv = np.asarray(pv, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return gamma * mass * (xi - pv)


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


def separate_coincident(pos, k: float, nudge, trigger: float = 1e-6, rounds: int = 8):
    """The engine's jitter rule, pair by pair. Each round lists the pairs u < v
    closer than trigger * k in ascending (u, v) order from the round's
    snapshot, then moves the second vertex v of each pair by nudge(v), each
    vertex at most once. Stops after a round with no pair.
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
        if not pairs:
            break
        moved: list[int] = []
        for _, v in pairs:
            if v not in moved:
                pos[v] += nudge(v)
                moved.append(v)
    return pos


class FittedArc(NamedTuple):
    """A circle's center and radius, and the signed angle swept from the
    first endpoint to the second, positive counter-clockwise."""

    center: tuple[float, float]
    radius: float
    sweep: float


def fit_arc(p_u, p_v, p_d, scale: float = 80.0) -> FittedArc | None:
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
    return FittedArc(center=(float(cx), float(cy)), radius=float(radius), sweep=float(sweep))


def tangent_gap(g: Graph, positions, sweeps=None) -> float:
    """Mean, over vertices of degree >= 2, of 2*pi/deg minus the smallest
    angle between adjacent edge tangents; 0.0 when no vertex has degree >= 2.

    Each tangent is the direction from the vertex to a point of the drawn
    edge a short step away: along the chord for a straight edge (no sweeps,
    or sweep 0), and for a curved one the point of its circle
    (`arc_geometry`) 1e-6 of the sweep from that end.
    """
    pos = np.asarray(positions, dtype=float)
    sweeps = np.zeros(g.edge_count) if sweeps is None else np.asarray(sweeps, dtype=float)
    centers, radii = arc_geometry(pos, g, sweeps)[1:]
    directions: list[list[float]] = [[] for _ in range(g.vertex_count)]
    for (u, v), sweep, (cx, cy), radius in zip(g.edges, sweeps.tolist(), centers.tolist(), radii.tolist()):
        for end, other, turn in ((u, v, 1e-6), (v, u, -1e-6)):
            if sweep == 0.0:
                near = pos[other]
            else:
                start = math.atan2(pos[end, 1] - cy, pos[end, 0] - cx) + turn * sweep
                near = np.array([cx, cy]) + radius * np.array([math.cos(start), math.sin(start)])
            directions[end].append(math.atan2(near[1] - pos[end, 1], near[0] - pos[end, 0]))
    gaps = []
    for angles in directions:
        if len(angles) < 2:
            continue
        angles.sort()
        between = [b - a for a, b in zip(angles, angles[1:])] + [TWO_PI - (angles[-1] - angles[0])]
        gaps.append(TWO_PI / len(angles) - min(between))
    return sum(gaps) / len(gaps) if gaps else 0.0


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
