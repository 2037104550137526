"""Benchmark inputs: graphs and drawings made from the seed, and the CLI jobs
that each workload runs on them.

`write_inputs` runs in the set-up process. It writes every input file and a
`manifest.json` that lists the jobs, so the measuring process needs nothing
but the work directory. Every argv uses paths relative to the work
directory, so the `config` echo in each metrics report (and its hash) does
not depend on where the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from pathlib import Path

import numpy as np

import gravlayout as gl

# The CLI's default natural edge length; the metrics-only drawings use the
# same scale as real layouts.
K = 80.0

# Sizes at full scale and at the self-test's tiny scale. The layout sizes are
# the paper's tree sizes and acceptance criterion 6's forest shape.
TREE_SIZES = {"full": (70, 126, 174), "tiny": (12, 16, 20)}
TREE_KINDS = ("closeness", "degree", "betweenness")
FOREST_SIZES = {"full": [22] * 2 + [21] * 18, "tiny": [6] * 4}
DRAWN_TREE_N = {"full": 2000, "tiny": 60}
DRAWN_FOREST_SIZES = {"full": [50] * 40, "tiny": [15] * 4}
# Relative jitter on the metrics-only drawings: about a thousand crossings
# over the two drawings, well under one per edge as in real output.
DRAWING_JITTER = 0.3
# The tiny scale also caps the engine, so the self-test takes seconds.
TINY_MAX_ITERATIONS = 60


def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _layout_job(job_id, graph_file, n, m, kind, seed, scale, lombardi=False):
    outputs = {
        "svg": f"{job_id}.svg",
        "metrics": f"{job_id}.metrics.json",
        "positions": f"{job_id}.pos.json",
    }
    argv = ["layout", "--in", graph_file, "--centrality", kind, "--seed", str(seed)]
    if scale == "tiny":
        argv += ["--max-iterations", str(TINY_MAX_ITERATIONS)]
    if lombardi:
        argv.append("--lombardi")
    argv += ["--svg", outputs["svg"], "--metrics", outputs["metrics"]]
    argv += ["--positions", outputs["positions"]]
    return {"id": job_id, "argv": argv, "graph": graph_file, "n": n, "m": m,
            "outputs": outputs, "quality": not lombardi, "same_positions_as": None}


def _metrics_job(job_id, graph_file, pos_file, n, m, kind):
    outputs = {"metrics": f"{job_id}.metrics.json"}
    argv = ["metrics", "--in", graph_file, "--positions", pos_file,
            "--centrality", kind, "--out", outputs["metrics"]]
    return {"id": job_id, "argv": argv, "graph": graph_file, "positions_in": pos_file,
            "n": n, "m": m, "outputs": outputs, "quality": True, "same_positions_as": None}


def _write_graph(out_dir: Path, name: str, g: gl.Graph) -> gl.Graph:
    """Write g as an edge list; return the graph as the CLI will parse it."""
    text = gl.serialize_edge_list(g)
    (out_dir / name).write_text(text, encoding="utf-8")
    return gl.parse_edge_list(text)


def _bfs_tree(adj, root):
    """Parent array and BFS order of the component holding root."""
    parent = {root: -1}
    order = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
                queue.append(w)
    return parent, order


def _radial_component(adj, start, pos):
    """Radial wedge drawing of one tree component, centred at the origin.

    The root is the middle of a longest path. Each vertex sits at radius
    depth * K in the middle of its wedge; children split their parent's
    wedge in proportion to their leaf counts. Returns the drawing's radius.
    """
    _, order = _bfs_tree(adj, start)
    parent, order = _bfs_tree(adj, order[-1])
    path = [order[-1]]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    root = path[len(path) // 2]
    parent, order = _bfs_tree(adj, root)
    children = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    leaves = {}
    for v in reversed(order):
        leaves[v] = sum(leaves[c] for c in children[v]) or 1
    depth = {root: 0}
    wedge = {root: (0.0, 2.0 * math.pi)}
    pos[root] = (0.0, 0.0)
    for v in order:
        lo, hi = wedge[v]
        for c in children[v]:
            width = (hi - lo) * leaves[c] / leaves[v]
            wedge[c] = (lo, lo + width)
            lo += width
            depth[c] = depth[v] + 1
            mid = 0.5 * (wedge[c][0] + wedge[c][1])
            pos[c] = (depth[c] * K * math.cos(mid), depth[c] * K * math.sin(mid))
    return max(depth.values()) * K


def radial_drawing(g: gl.Graph, seed: int) -> np.ndarray:
    """Few-crossing positions for a forest: a radial wedge drawing of each
    component, components on a square grid, then seeded Gaussian jitter."""
    adj = g.adjacency
    labels = gl.connected_components(g)
    pos = np.zeros((g.vertex_count, 2))
    starts = [int(np.flatnonzero(labels == c)[0]) for c in range(int(labels.max()) + 1)]
    radii = [_radial_component(adj, s, pos) for s in starts]
    cell = 2.0 * max(radii) + K
    side = math.ceil(math.sqrt(len(starts)))
    for c, _ in enumerate(starts):
        pos[labels == c] += (cell * (c % side), cell * (c // side))
    rng = np.random.default_rng(seed)
    return pos + rng.normal(scale=DRAWING_JITTER * K, size=pos.shape)


def _trees(out_dir: Path, seed: int, scale: str) -> list[dict]:
    jobs = []
    for n, kind in zip(TREE_SIZES[scale], TREE_KINDS):
        name = f"tree{n:03d}.edges"
        g = _write_graph(out_dir, name, gl.generate_random_tree(n, sub_seed(seed, name)))
        jobs.append(_layout_job(f"tree{n:03d}-{kind}", name, n, g.edge_count, kind, seed, scale))
    plain = jobs[1]
    arcs = _layout_job(plain["id"] + "-lombardi", plain["graph"], plain["n"], plain["m"],
                       TREE_KINDS[1], seed, scale, lombardi=True)
    arcs["same_positions_as"] = plain["id"]
    return jobs + [arcs]


def _forest_large(out_dir: Path, seed: int, scale: str) -> list[dict]:
    sizes = FOREST_SIZES[scale]
    name = f"forest{sum(sizes)}.edges"
    g = _write_graph(out_dir, name, gl.generate_forest(sizes, sub_seed(seed, name)))
    return [_layout_job(f"forest{sum(sizes)}-degree", name, g.vertex_count, g.edge_count,
                        "degree", seed, scale)]


def _metrics_only(out_dir: Path, seed: int, scale: str) -> list[dict]:
    n_tree = DRAWN_TREE_N[scale]
    sizes = DRAWN_FOREST_SIZES[scale]
    inputs = [
        (f"tree{n_tree}", gl.generate_random_tree(n_tree, sub_seed(seed, "tree")), "betweenness"),
        (f"forest{sum(sizes)}", gl.generate_forest(sizes, sub_seed(seed, "forest")), "closeness"),
    ]
    jobs = []
    for stem, graph, kind in inputs:
        g = _write_graph(out_dir, f"{stem}.edges", graph)
        pos = radial_drawing(g, sub_seed(seed, stem + ".pos"))
        payload = {"positions": [[float(x), float(y)] for x, y in pos]}
        (out_dir / f"{stem}.pos.json").write_text(json.dumps(payload) + "\n", encoding="utf-8")
        jobs.append(_metrics_job(f"{stem}-{kind}", f"{stem}.edges", f"{stem}.pos.json",
                                 g.vertex_count, g.edge_count, kind))
    return jobs


BUILDERS = {"trees": _trees, "forest-large": _forest_large, "metrics-only": _metrics_only}


def write_inputs(workload: str, seed: int, out_dir: Path, scale: str = "full") -> dict:
    """Write the workload's inputs and manifest into out_dir; return the manifest."""
    jobs = BUILDERS[workload](out_dir, seed, scale)
    manifest = {"workload": workload, "seed": seed, "scale": scale, "jobs": jobs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                           encoding="utf-8")
    return manifest
