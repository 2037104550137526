import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gravlayout import (
    CentralityVector,
    Graph,
    MassVector,
    compute_centrality,
    generate_forest,
    generate_random_tree,
    normalize_mass,
)
from conftest import blas_thread_hashes
from gravlayout import centrality
from gravlayout.graphs import _bfs, _euler_tour
from oracles import (
    brandes_reference,
    brute_betweenness,
    closeness_reference,
    not_numbers,
    random_graph,
    random_value,
    rooted_forest_reference,
)


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def star4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_degree_path():
    assert compute_centrality(path3(), "degree").values.tolist() == [1.0, 2.0, 1.0]


def test_degree_star_and_isolated():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    vals = compute_centrality(g, "degree").values
    assert vals.tolist() == [3.0, 1.0, 1.0, 1.0, 0.0]


def test_closeness_path():
    vals = compute_centrality(path3(), "closeness").values
    assert vals[1] == pytest.approx(1.0)
    assert vals[0] == pytest.approx(2.0 / 3.0)
    assert vals[2] == pytest.approx(2.0 / 3.0)


def test_closeness_complete():
    g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert np.allclose(compute_centrality(g, "closeness").values, 1.0)


def test_closeness_two_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert np.allclose(compute_centrality(g, "closeness").values, 1.0)


def test_closeness_isolated_vertex_zero():
    g = Graph.from_edges(3, [(0, 1)])
    assert compute_centrality(g, "closeness").values[2] == 0.0


def test_closeness_matches_bfs_definition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, 1, 12)
        vals = compute_centrality(g, "closeness").values
        for v in range(g.vertex_count):
            dist = _bfs(g, [v])[0][0]
            finite = [int(d) for u, d in enumerate(dist) if u != v and d >= 0]
            expect = len(finite) / sum(finite) if finite else 0.0
            assert vals[v] == pytest.approx(expect, abs=1e-12)


def test_betweenness_star():
    vals = compute_centrality(star4(), "betweenness").values
    assert vals[0] == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(vals[1:], 0.0)


def test_betweenness_complete_zero():
    g = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    assert np.allclose(compute_centrality(g, "betweenness").values, 0.0)


def test_betweenness_path4():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert compute_centrality(g, "betweenness").values.tolist() == pytest.approx([0.0, 2.0, 2.0, 0.0])


def test_betweenness_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(40):
        g = random_graph(rng, 2, 10)
        got = compute_centrality(g, "betweenness").values
        want = brute_betweenness(g)
        assert np.max(np.abs(got - want)) <= 1e-9


def with_chords(g, count, seed):
    """g plus count random edges between distinct, nonadjacent vertices."""
    rng = np.random.default_rng(seed)
    edges = set(g.edges)
    while len(edges) < g.edge_count + count:
        u, v = sorted(rng.choice(g.vertex_count, 2, replace=False).tolist())
        edges.add((u, v))
    return Graph.from_edges(g.vertex_count, edges)


def shuffled(g, rng):
    """g with its vertex ids permuted at random."""
    perm = rng.permutation(g.vertex_count)
    return Graph.from_edges(g.vertex_count, [(int(perm[u]), int(perm[v])) for u, v in g.edges])


@pytest.mark.parametrize(
    "g",
    [
        generate_random_tree(2000, seed=41),
        generate_forest([50] * 40, seed=42),
        with_chords(generate_random_tree(2000, seed=41), 4, seed=43),
    ],
    ids=["tree2000", "forest40x50", "tree2000+chords"],
)
def test_batched_bfs_bit_identical_to_reference(g):
    # Trees and forests have integer path counts and sums, so every
    # summation order gives the same bits; with cycles only the hop counts
    # of closeness stay integers. The public functions take the forest path
    # on forests, so the batched BFS path is also called directly.
    want_b = brandes_reference(g)
    want_c = closeness_reference(g)
    forest = centrality._rooted_forest(g) is not None
    assert forest == (g.edge_count < g.vertex_count)
    for got_b, got_c in (
        (compute_centrality(g, "betweenness").values, compute_centrality(g, "closeness").values),
        (centrality._bfs_betweenness(g), centrality._bfs_closeness(g)),
    ):
        if forest:
            assert np.array_equal(got_b, want_b)
        else:
            assert np.max(np.abs(got_b - want_b)) <= 1e-9 * want_b.max()
        assert np.array_equal(got_c, want_c)


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def random_forests(count, seed):
    """Seeded forests with shuffled ids; every one has single-vertex and
    single-edge components beside random trees of up to 60 vertices."""
    rng = np.random.default_rng(seed)
    forests = []
    for i in range(count):
        sizes = [1, 2, 1, 2] + rng.integers(1, 60, size=int(rng.integers(1, 8))).tolist()
        rng.shuffle(sizes)
        forests.append(shuffled(generate_forest(sizes, seed=seed + i), rng))
    return forests


@pytest.mark.parametrize(
    "g",
    [Graph(0), Graph(1), Graph(4), star(1), star(150)] + random_forests(8, seed=59),
    ids=["empty", "single", "four-isolated", "edge", "star150"] + [f"random{i}" for i in range(8)],
)
def test_forest_path_bit_identical_to_reference(g):
    assert centrality._rooted_forest(g) is not None
    assert np.array_equal(compute_centrality(g, "betweenness").values, brandes_reference(g))
    assert np.array_equal(compute_centrality(g, "closeness").values, closeness_reference(g))


def fuzz_forest(rng):
    """A seeded forest of up to five parts (paths, stars, caterpillars,
    isolated vertices and random trees) with its vertex ids shuffled."""
    edges, n = [], 0
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(5))
        size = int(rng.integers(1, 40))
        if kind == 0:  # path
            part = [(i, i + 1) for i in range(size - 1)]
        elif kind == 1:  # star, centre 0
            part = [(0, i) for i in range(1, size)]
        elif kind == 2:  # caterpillar: a spine with one to three legs per vertex
            spine = max(1, size // 3)
            feet = np.repeat(np.arange(spine), rng.integers(1, 4, size=spine)).tolist()
            part = [(i, i + 1) for i in range(spine - 1)]
            part += [(foot, spine + j) for j, foot in enumerate(feet)]
            size = spine + len(feet)
        elif kind == 3:  # isolated vertex
            size, part = 1, []
        else:
            part = list(generate_random_tree(size, seed=int(rng.integers(1 << 30))).edges)
        edges += [(u + n, v + n) for u, v in part]
        n += size
    return shuffled(Graph.from_edges(n, edges), rng)


def test_euler_tour_fuzz_against_level_sweep():
    rng = np.random.default_rng(71)
    graphs = [Graph(0), Graph(1), Graph(2), Graph(2, ((0, 1),))]
    graphs += [fuzz_forest(rng) for _ in range(60)]
    for g in graphs:
        rooted = centrality._rooted_forest(g)
        assert rooted is not None
        labels, comp, parent, size, enter, leave = rooted
        want_parent, want_size, want_c, want_b = rooted_forest_reference(g)
        assert np.array_equal(parent, want_parent)
        assert np.array_equal(size, want_size)
        assert np.array_equal(compute_centrality(g, "closeness").values, want_c)
        assert np.array_equal(compute_centrality(g, "betweenness").values, want_b)
        # Any vertex of a component can be its root.
        count = int(labels.max(initial=-1)) + 1
        roots = np.array([rng.choice(np.flatnonzero(labels == c)) for c in range(count)], dtype=np.int64)
        parent, size, enter, leave, depth = _euler_tour(g, labels, roots)
        want_parent, want_size = rooted_forest_reference(g, roots)[:2]
        assert np.array_equal(parent, want_parent)
        assert np.array_equal(size, want_size)
        # The tours use each position 0..2m-1 once, and every subtree's
        # interval lies inside its parent's.
        child = parent >= 0
        used = np.sort(np.concatenate([enter[child], leave[child]]))
        assert np.array_equal(used, np.arange(2 * g.edge_count))
        assert np.all(enter[parent[child]] < enter[child])
        assert np.all(leave[child] < leave[parent[child]])
        # Roots sit at depth 0 and every child one below its parent.
        assert np.all(depth[~child] == 0)
        assert np.array_equal(depth[child], depth[parent[child]] + 1)


def test_forest_path_long_shuffled_path():
    # At 100,000 levels the oracles are too slow; a path has exact closed
    # forms. The vertex at position i lies on i * (n - 1 - i) unordered
    # pairs' paths and has distance sum i(i+1)/2 + (n-1-i)(n-i)/2.
    n = 100_000
    order = np.random.default_rng(61).permutation(n)
    g = Graph.from_edges(n, np.column_stack((order[:-1], order[1:])))
    assert centrality._rooted_forest(g) is not None
    i = np.arange(n, dtype=np.int64)
    want_b = np.empty(n)
    want_b[order] = i * (n - 1 - i)
    want_c = np.empty(n)
    want_c[order] = (n - 1) / (i * (i + 1) // 2 + (n - 1 - i) * (n - i) // 2)
    assert np.array_equal(compute_centrality(g, "betweenness").values, want_b)
    assert np.array_equal(compute_centrality(g, "closeness").values, want_c)


def test_forest_path_large_star():
    # The centre lies on every pair of leaves' path and is one hop from
    # each; a leaf is one hop from the centre and two from the other leaves.
    leaves = 100_000
    ids = np.random.default_rng(62).permutation(leaves + 1)
    g = Graph.from_edges(leaves + 1, np.column_stack((np.full(leaves, ids[0]), ids[1:])))
    assert centrality._rooted_forest(g) is not None
    want_b = np.zeros(leaves + 1)
    want_b[ids[0]] = leaves * (leaves - 1) // 2
    want_c = np.full(leaves + 1, leaves / (2 * leaves - 1))
    want_c[ids[0]] = 1.0
    assert np.array_equal(compute_centrality(g, "betweenness").values, want_b)
    assert np.array_equal(compute_centrality(g, "closeness").values, want_c)


def test_forest_plus_one_edge_takes_brandes_path():
    g = generate_forest([40, 40, 1, 2], seed=63)
    u, v = next((u, v) for u in range(40) for v in range(u + 1, 40) if (u, v) not in g.edges)
    g = shuffled(Graph.from_edges(g.vertex_count, g.edges + ((u, v),)), np.random.default_rng(63))
    assert centrality._rooted_forest(g) is None
    want_b = brandes_reference(g)
    assert np.max(np.abs(compute_centrality(g, "betweenness").values - want_b)) <= 1e-12 * want_b.max()
    assert np.array_equal(compute_centrality(g, "closeness").values, closeness_reference(g))


def test_forest_path_memory_is_linear():
    n = 100_000
    g = generate_random_tree(n, seed=67)
    g.csr  # cached on the graph, not scratch
    tracemalloc.start()
    try:
        compute_centrality(g, "betweenness")
        compute_centrality(g, "closeness")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The forest path keeps about ten length-n int64 arrays live at once.
    assert peak < 32 * 8 * n


def multipath_graph(n=300, seed=47):
    """Sparse random graph with many cycles, so most pairs have several
    shortest paths and the sums are not integers."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, (3 * n, 2))
    return Graph.from_edges(n, [(int(u), int(v)) for u, v in pairs if u != v])


def test_batched_bfs_bits_do_not_depend_on_batch_size(monkeypatch):
    g = multipath_graph()
    n = g.vertex_count
    base_b = compute_centrality(g, "betweenness").values
    base_c = compute_centrality(g, "closeness").values
    assert np.max(np.abs(base_b - brandes_reference(g))) <= 1e-9 * base_b.max()
    assert np.array_equal(base_c, closeness_reference(g))
    for batch in (1, 3, n):
        monkeypatch.setattr(centrality, "BFS_ELEMENTS", batch * n)
        assert np.array_equal(compute_centrality(g, "betweenness").values, base_b)
        assert np.array_equal(compute_centrality(g, "closeness").values, base_c)


def test_batched_bfs_bits_do_not_depend_on_blas_threads():
    script = """
import hashlib, numpy as np, gravlayout as gl
rng = np.random.default_rng(53)
pairs = rng.integers(0, 1200, (3600, 2))
g = gl.Graph.from_edges(1200, [(int(u), int(v)) for u, v in pairs if u != v])
h = hashlib.sha256(gl.compute_centrality(g, "betweenness").values.tobytes())
h.update(gl.compute_centrality(g, "closeness").values.tobytes())
print(h.hexdigest())
"""
    hashes = blas_thread_hashes(script)
    assert len(hashes[0]) == 64
    assert hashes[0] == hashes[1]


def test_bfs_centrality_edge_cases():
    empty = Graph(0)
    assert compute_centrality(empty, "betweenness").values.size == 0
    assert compute_centrality(empty, "closeness").values.size == 0
    lonely = Graph(4)
    assert compute_centrality(lonely, "betweenness").values.tolist() == [0.0] * 4
    assert compute_centrality(lonely, "closeness").values.tolist() == [0.0] * 4
    # Isolated vertices beside a path 0-1-2.
    g = Graph.from_edges(5, [(0, 1), (1, 2)])
    assert compute_centrality(g, "betweenness").values.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert compute_centrality(g, "closeness").values.tolist() == [2 / 3, 1.0, 2 / 3, 0.0, 0.0]
    # A 4-cycle plus a tail: 0 and 2 both have two shortest paths through 1 or 3.
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4)])
    want = brute_betweenness(g)
    assert want.tolist() == pytest.approx([0.5, 1.0, 3.5, 1.0, 0.0])
    assert np.array_equal(compute_centrality(g, "betweenness").values, brandes_reference(g))
    assert np.max(np.abs(compute_centrality(g, "betweenness").values - want)) <= 1e-12
    assert np.array_equal(compute_centrality(g, "closeness").values, closeness_reference(g))


def test_uniform():
    assert compute_centrality(star4(), "uniform").values.tolist() == [1.0] * 4
    assert compute_centrality(Graph(0), "uniform").values.size == 0
    assert compute_centrality(Graph.from_edges(2, [(0, 1)]), "uniform").values.tolist() == [1.0, 1.0]


def test_compute_centrality_dispatch():
    g = path3()
    for kind in ("degree", "closeness", "betweenness", "uniform"):
        assert compute_centrality(g, kind).kind == kind
    with pytest.raises(ValueError):
        compute_centrality(g, "pagerank")


def test_permutation_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = random_graph(rng, 3, 9)
        perm = rng.permutation(g.vertex_count)
        relabeled = Graph.from_edges(
            g.vertex_count, [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        )
        for kind in ("degree", "closeness", "betweenness"):
            orig = compute_centrality(g, kind).values
            moved = compute_centrality(relabeled, kind).values
            assert np.allclose(moved[perm], orig, atol=1e-12)


def test_normalize_mass_mean_scaling():
    m = normalize_mass(CentralityVector("degree", [1.0, 2.0, 1.0]), 0.05)
    assert np.allclose(m.values, [0.75, 1.5, 0.75])


def test_normalize_mass_all_zero():
    m = normalize_mass(CentralityVector("degree", [0.0, 0.0, 0.0]))
    assert m.values.tolist() == [1.0, 1.0, 1.0]


def test_normalize_mass_floor_case():
    m = normalize_mass(CentralityVector("degree", [0.0, 4.0]), 0.05)
    assert abs(m.values.mean() - 1.0) <= 1e-9
    assert np.all(m.values >= 0.05)
    assert np.argmax(m.values) == 1
    assert m.values[0] == pytest.approx(0.05)
    assert m.values[1] == pytest.approx(1.95)


def test_normalize_mass_invariants_randomized():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        vals = rng.uniform(0, 10, n) * (rng.random(n) < 0.7)
        c = CentralityVector("betweenness", vals)
        m = normalize_mass(c, 0.05)
        assert abs(m.values.mean() - 1.0) <= 1e-9
        assert np.all(m.values >= 0.05 - 1e-15)
        if vals.max() > 0:
            assert np.argmax(m.values) == np.argmax(vals)


def test_normalize_mass_errors():
    with pytest.raises(ValueError):
        normalize_mass(CentralityVector("degree", [1.0, -1.0]))
    with pytest.raises(ValueError):
        normalize_mass(CentralityVector("degree", [1.0]), 0.0)
    with pytest.raises(ValueError):
        normalize_mass(CentralityVector("degree", [1.0]), 1.5)


def test_normalize_mass_floor_one_gives_uniform():
    m = normalize_mass(CentralityVector("degree", [5.0, 1.0, 0.0]), 1.0)
    assert m.values.tolist() == [1.0, 1.0, 1.0]


MASS_FLOORS = (0.05, 0.5, 1.0, 1, np.float64(0.2), Fraction(1, 10), 0.0, -1.0, 1.5, math.nan, 10**400, True, None, "0.1")


def _fuzz_numbers(rng):
    """A raw vector: mostly finite floats (zeros, negatives and magnitudes
    from 1e-320 to 1e308 among them), sometimes ints, sometimes odd values,
    sometimes near the top of the float range or all subnormal."""
    r = rng.random()
    if r < 0.05:
        return [float(x) for x in rng.uniform(0.1, 1.7, int(rng.integers(1, 6))) * 1e308]
    if r < 0.1:
        return [float(x) * 5e-324 for x in rng.integers(0, 4, int(rng.integers(1, 6)))]
    out = []
    for _ in range(int(rng.integers(0, 6))):
        r = rng.random()
        if r < 0.7:
            x = float(10.0 ** rng.uniform(-320, 308)) if rng.random() < 0.3 else float(rng.uniform(0, 3))
            out.append(-x if rng.random() < 0.05 else x)
        elif r < 0.9:
            out.append(int(rng.integers(0, 5)))
        else:
            out.append(random_value(rng, 1))
    return out if rng.random() < 0.95 else random_value(rng)


@pytest.mark.parametrize("bad", not_numbers([1.0, 1.0, 1.0]))
def test_vectors_refuse_values_that_are_not_numbers(bad):
    # CentralityVector("degree", [True, 2.0]) and MassVector([True, 1.0])
    # were accepted with True read as 1.0, while [True, False] was refused.
    for call in (
        lambda: CentralityVector("degree", bad),
        lambda: MassVector(bad),
        lambda: centrality.check_masses(bad),
    ):
        with pytest.raises(ValueError, match="values: .* is not a real number"):
            call()


def test_frozen_types_copy_the_callers_array():
    # graphs._numbers hands an int64 or float64 ndarray back uncopied, so
    # the frozen types copy it before they freeze it.
    edges, values = np.array([[0, 1], [1, 2]]), np.ones(3)
    held = (Graph(3, edges).edge_array, CentralityVector("degree", values).values, MassVector(values).values)
    for array in held:
        assert not array.flags.writeable
        assert not (np.shares_memory(array, edges) or np.shares_memory(array, values))
    assert edges.flags.writeable and values.flags.writeable


def test_mass_inputs_fuzz():
    # check_masses, CentralityVector and normalize_mass either return finite
    # vectors that keep their contracts or raise ValueError, without a
    # floating-point warning on the way.
    rng = np.random.default_rng(101)
    masses = normalized = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(800):
            raw = _fuzz_numbers(rng)
            # Floats and int64-sized ints: what must be read as numbers.
            plain = isinstance(raw, list) and all(type(x) is float or type(x) is int and abs(x) < 2**63 for x in raw)
            try:
                vals = centrality.check_masses(raw)
            except ValueError:
                assert not (plain and all(0 < x < math.inf for x in raw)), raw
            else:
                masses += 1
                assert vals.dtype == np.float64 and vals.tolist() == [float(x) for x in raw]
                assert np.all(np.isfinite(vals) & (vals > 0))
            try:
                cent = CentralityVector("degree", raw)
            except ValueError:
                assert not (plain and all(math.isfinite(x) for x in raw)), raw
                continue
            floor = MASS_FLOORS[int(rng.integers(len(MASS_FLOORS)))]
            valid_floor = type(floor) is not bool and isinstance(floor, (int, float, Fraction)) and 0 < floor <= 1
            try:
                mass = normalize_mass(cent, floor).values
            except ValueError:
                assert not (valid_floor and np.all(cent.values >= 0)), (raw, floor)
                continue
            normalized += 1
            assert valid_floor and mass.shape == cent.values.shape and np.all(np.isfinite(mass))
            if mass.size:
                assert abs(mass.mean() - 1.0) <= 1e-9 and mass.min() >= float(floor) * (1 - 1e-12)
                # Mass keeps the centrality order.
                order = np.argsort(cent.values, kind="stable")
                assert np.all(np.diff(mass[order]) >= -1e-12)
    assert masses > 300 and normalized > 200
