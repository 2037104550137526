import numpy as np
import pytest

from gravlayout import (
    UNREACHABLE,
    Graph,
    GraphParseError,
    bfs_distances,
    connected_components,
    generate_forest,
    generate_random_tree,
    parse_edge_list,
    parse_graph_json,
    serialize_edge_list,
    serialize_graph_json,
)
from oracles import adjacency_reference, components_reference, random_graph


def test_parse_basic_path():
    g = parse_edge_list("a b\nb c")
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.labels == ("a", "b", "c")


def test_parse_collapses_duplicates():
    g = parse_edge_list("a b\na b")
    assert g.vertex_count == 2
    assert g.edges == ((0, 1),)
    assert parse_edge_list("a b\nb a").edges == ((0, 1),)


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError, match="self-loop at vertex 'a'"):
        parse_edge_list("a a")


def test_parse_reports_line_number():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_edge_list("a b\nb c\nx y z")


def test_parse_comments_and_blanks():
    g = parse_edge_list("# header\n\na b\n  # another\nb c\n")
    assert g.vertex_count == 3
    assert g.edge_count == 2


def test_parse_single_token_is_isolated_vertex():
    g = parse_edge_list("a b\nc")
    assert g.vertex_count == 3
    assert g.edge_count == 1
    assert g.degrees[2] == 0


def test_parse_first_appearance_order():
    g = parse_edge_list("z y\nx z")
    assert g.labels == ("z", "y", "x")
    assert g.edges == ((0, 1), (0, 2))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 5),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (0, 1)))  # unsorted
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError, match="integer"):
        Graph(True, ())
    with pytest.raises(ValueError, match="integer"):
        Graph(2.5, ())


def test_adjacency_matches_edge_loop():
    rng = np.random.default_rng(19)
    graphs = [random_graph(rng, 1, 14) for _ in range(40)]
    graphs += [Graph(0), Graph(5), Graph.from_edges(7, [(1, 4), (4, 2), (6, 1)])]
    for g in graphs:
        got = g.adjacency
        assert got == adjacency_reference(g)
        assert all(type(u) is int for nbrs in got for u in nbrs)


def test_bfs_path():
    g = parse_edge_list("a b\nb c")
    dv = bfs_distances(g, 0)
    assert dv.source == 0
    assert dv.dist.tolist() == [0, 1, 2]


def test_bfs_unreachable_marked():
    g = parse_edge_list("a b\nc d")
    dv = bfs_distances(g, 0)
    assert dv.dist.tolist() == [0, 1, UNREACHABLE, UNREACHABLE]


def test_bfs_star_center():
    g = parse_edge_list("c a\nc b\nc d")
    assert bfs_distances(g, 0).dist.tolist() == [0, 1, 1, 1]


def test_bfs_invalid_source():
    g = parse_edge_list("a b")
    with pytest.raises(ValueError):
        bfs_distances(g, 5)


def test_bfs_edge_triangle_property():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, 2, 12)
        for s in range(g.vertex_count):
            dist = bfs_distances(g, s).dist
            for u, v in g.edges:
                if dist[u] != UNREACHABLE and dist[v] != UNREACHABLE:
                    assert abs(int(dist[u]) - int(dist[v])) <= 1


def test_components_single_edge():
    g = parse_edge_list("a b")
    assert connected_components(g).tolist() == [0, 0]


def test_components_isolated():
    g = parse_edge_list("a\nb\nc")
    assert connected_components(g).tolist() == [0, 1, 2]


def test_components_twenty_tree_forest():
    g = generate_forest([22] * 2 + [21] * 18, seed=4)
    assert g.vertex_count == 422
    labels = connected_components(g)
    assert len(set(labels.tolist())) == 20


def test_component_count_matches_bfs_restarts():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, 1, 12)
        labels = connected_components(g)
        covered = np.zeros(g.vertex_count, dtype=bool)
        restarts = 0
        for s in range(g.vertex_count):
            if covered[s]:
                continue
            restarts += 1
            dist = bfs_distances(g, s).dist
            covered |= dist != UNREACHABLE
        assert len(set(labels.tolist())) == restarts


def test_components_match_per_component_bfs():
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, 1, 30) for _ in range(30)]
    for seed in range(5):
        # random forests with single-vertex trees, vertex ids shuffled so
        # components interleave
        forest = generate_forest([int(s) for s in rng.integers(1, 12, size=40)], seed=seed)
        perm = rng.permutation(forest.vertex_count)
        graphs.append(Graph.from_edges(forest.vertex_count, perm[forest.edge_array]))
    # a forest with isolated vertices in between, and one with nothing but them
    graphs.append(Graph.from_edges(30, [(2, 9), (9, 4), (11, 29), (20, 21), (21, 5)]))
    graphs.append(Graph(20000))
    # a long path with shuffled ids, and one 100,000-vertex tree
    perm = rng.permutation(5000)
    graphs.append(Graph.from_edges(5000, np.column_stack([perm[:-1], perm[1:]])))
    graphs.append(generate_random_tree(100_000, seed=13))
    for g in graphs:
        labels = connected_components(g)
        want = components_reference(g)
        assert labels.dtype == want.dtype
        assert np.array_equal(labels, want)


def test_parse_serialize_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 1, 10)
        text = serialize_edge_list(g)
        assert parse_edge_list(serialize_edge_list(parse_edge_list(text))) == parse_edge_list(text)


def test_json_roundtrip():
    g = parse_edge_list("a b\nb c\nd")
    g2 = parse_graph_json(serialize_graph_json(g))
    assert g2 == g


def test_json_errors():
    with pytest.raises(GraphParseError):
        parse_graph_json("not json")
    with pytest.raises(GraphParseError):
        parse_graph_json('{"vertices": ["a"]}')
    with pytest.raises(GraphParseError):
        parse_graph_json('{"vertices": ["a", "b"], "edges": [[0, 5]]}')
    with pytest.raises(GraphParseError):
        parse_graph_json('{"vertices": ["a", "b"], "edges": [[1, 1]]}')
    for edges in ("5", '"ab"', "null", "[5]", '["01"]', "[null]", "[[0, null]]", "[[0, 1.0]]", "[[0, true]]"):
        with pytest.raises(GraphParseError, match="edge"):
            parse_graph_json(f'{{"vertices": ["a", "b"], "edges": {edges}}}')
    with pytest.raises(GraphParseError):
        parse_graph_json('{"vertices": 2, "edges": []}')
