"""Random tree and forest generators for layout experiments."""

from __future__ import annotations

import heapq
import random

from .graphs import Graph, _check_integer


def _random_tree_edges(n: int, rng: random.Random, offset: int = 0) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n vertices via sequence decoding.

    Draws n-2 uniform vertex ids and decodes them with the smallest-leaf
    rule, which is a bijection onto labeled trees.
    """
    if n == 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((offset + leaf, offset + x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((offset + u, offset + v))
    return edges


def generate_random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labeled tree on n >= 1 vertices, deterministic per seed:
    the one-component forest."""
    if _check_integer("n", n) < 1:
        raise ValueError("tree needs at least one vertex")
    return generate_forest([n], seed)


def generate_forest(sizes, seed: int = 0) -> Graph:
    """Disjoint union of random trees with the given component sizes. Sizes
    and seed are integers, Python or numpy (not bool)."""
    try:
        sizes = list(sizes)
    except TypeError:
        raise ValueError(f"sizes must be an iterable of component sizes, got {sizes!r}") from None
    sizes = [_check_integer("component size", s) for s in sizes]
    if not sizes:
        raise ValueError("forest needs at least one component size")
    if any(s < 1 for s in sizes):
        raise ValueError("component sizes must be >= 1")
    seed = _check_integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    offset = 0
    for size in sizes:
        edges.extend(_random_tree_edges(size, rng, offset))
        offset += size
    return Graph.from_edges(offset, edges)
