import tracemalloc

import numpy as np
import pytest

from gravlayout import (
    Graph,
    GraphParseError,
    connected_components,
    generate_forest,
    generate_random_tree,
    parse_edge_list,
    parse_graph_json,
    serialize_edge_list,
    serialize_graph_json,
)
from gravlayout.graphs import KEY_BASE_MAX, UNREACHABLE, _bfs, _sorted_pairs
from oracles import (
    adjacency_reference,
    components_reference,
    fuzz_json_text,
    parse_edge_list_reference,
    parse_graph_json_reference,
    random_graph,
    random_value,
)


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
    for bad in (((0, 1.5),), ((False, True),), ((0, True),), ((np.float64(0), 1),), (("0", "1"),)):
        with pytest.raises(ValueError, match="not an integer"):
            Graph(3, bad)
        with pytest.raises(ValueError, match="not an integer"):
            Graph.from_edges(3, bad)
    with pytest.raises(ValueError, match="not an integer"):
        Graph.from_edges(3, [(0, 1.7)])
    for bad in (np.array([[0.0, 1.0]]), np.array([[False, True]])):
        with pytest.raises(ValueError, match="not an integer"):
            Graph.from_edges(3, bad)
    with pytest.raises(ValueError, match="pair"):
        Graph(3, ((0, 1, 2),))
    # numpy integer endpoints are valid and stored as Python ints
    for g in (
        Graph(3, ((np.int64(0), np.int32(1)),)),
        Graph(3, np.array([[0, 1]], dtype=np.uint8)),
        Graph.from_edges(3, np.array([[1, 0]], dtype=np.int32)),
        Graph.from_edges(3, [(np.int16(1), 0)]),
    ):
        assert g.edges == ((0, 1),)
        assert all(type(x) is int for x in g.edges[0])
        assert g.edge_array.dtype == np.int64 and g.edge_array.tolist() == [[0, 1]]


def test_graph_equality_and_hash_follow_edges_and_labels():
    pairs = ((0, 1), (1, 2), (1, 3))
    labels = ("a", "b", "c", "d")
    same = [
        Graph(4, pairs, labels),
        Graph(4, np.array(pairs), labels),
        Graph(4, np.array(pairs, dtype=np.int32), list(labels)),
        Graph.from_edges(4, [(3, 1), (1, 0), (2, 1), (0, 1)], labels),
    ]
    for g in same:
        assert g == same[0] and hash(g) == hash(same[0])
        assert g.edges == pairs and g.labels == labels and type(g.labels) is tuple
    assert len(set(same)) == 1
    for other in (
        Graph(4, ((0, 1), (1, 2), (2, 3)), labels),
        Graph(4, pairs, ("a", "b", "c", "e")),
        Graph(4, pairs),
        Graph(5, pairs),
        Graph(4, pairs[:2], labels),
    ):
        assert other != same[0]
    assert same[0] != pairs and Graph(0) == Graph(0, np.empty((0, 2), dtype=np.int64))


def test_graph_edges_are_built_on_each_access():
    g = generate_random_tree(50, 3)
    assert g.edges == g.edges and g.edges is not g.edges
    assert g.edges == tuple(map(tuple, g.edge_array.tolist()))
    assert all(type(x) is int for e in g.edges for x in e)
    assert g.edge_count == len(g.edges) == 49


def test_graph_stores_its_edges_once():
    # With a tuple of Python-int pairs beside edge_array, a 100,000-edge
    # graph retained 13.6 MiB; the (m, 2) int64 array alone is 1.5 MiB.
    ea = generate_random_tree(100_000, 13).edge_array
    tracemalloc.start()
    try:
        g = Graph(100_000, ea)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 99_999 and np.array_equal(g.edge_array, ea)
    assert kept < 4 * 2**20


def test_graph_labels_are_a_tuple_of_strings():
    g = Graph(2, ((0, 1),), ["a", "b"])
    assert g.labels == ("a", "b") and hash(g) == hash(Graph(2, ((0, 1),), ("a", "b")))
    for bad in ((1, 2), ("a", None), ("a", b"b")):
        with pytest.raises(ValueError, match="labels must be strings"):
            Graph(2, ((0, 1),), bad)
        with pytest.raises(ValueError, match="labels must be strings"):
            Graph.from_edges(2, [(1, 0)], bad)
    with pytest.raises(ValueError, match="labels length"):
        Graph(2, ((0, 1),), ["a"])


def test_from_edges_accepts_any_pair_source():
    want = ((0, 2), (1, 3))
    sources = [
        [(3, 1), (0, 2), (1, 3)],
        {(3, 1), (1, 3), (2, 0)},
        ((u, v) for u, v in [(2, 0), (3, 1)]),
        np.array([[3, 1], [0, 2], [2, 0]]),
        np.array([[0, 2], [1, 3]], dtype=np.uint32),
        [[0, 2], [3, 1]],
        zip([0, 1], [2, 3]),
    ]
    for edges in sources:
        g = Graph.from_edges(4, edges)
        assert g.edges == want
        assert all(type(x) is int for e in g.edges for x in e)
        assert g.edge_array is g.edge_array
        assert not g.edge_array.flags.writeable
        assert g.edge_array.tolist() == [list(e) for e in want]
    assert Graph.from_edges(4, []).edges == ()
    assert Graph.from_edges(4, np.empty((0, 2), dtype=np.int64)).edge_array.shape == (0, 2)
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph.from_edges(4, np.array([[0, 1], [2, 2], [3, 3]]))
    with pytest.raises(ValueError, match="not canonical"):
        Graph.from_edges(4, [(0, 4)])
    with pytest.raises(ValueError, match="not canonical"):
        Graph.from_edges(4, [(-1, 2)])


def test_sorted_pairs_fuzz_against_lexsort():
    # Id ranges on both sides of the largest key base, negative ids, and
    # narrow ranges that repeat pairs.
    rng = np.random.default_rng(29)
    tops = [2, 7, 2000, 2**32 + 5, KEY_BASE_MAX - 1, KEY_BASE_MAX, 2**62]
    for _ in range(300):
        m = int(rng.integers(0, 50))
        top = tops[int(rng.integers(len(tops)))]
        low = -3 if rng.random() < 0.1 else max(0, top - int(rng.integers(1, 40)))
        major, minor = rng.integers(low, top, size=(2, m), endpoint=True)
        order = np.lexsort((minor, major))
        got_major, got_minor = _sorted_pairs(major, minor)
        assert got_major.dtype == got_minor.dtype == np.int64
        assert np.array_equal(got_major, major[order])
        assert np.array_equal(got_minor, minor[order])


def test_graph_refuses_repeated_labels():
    # serialize_graph_json wrote a file parse_graph_json refused, and
    # render_svg drew two vertices with one label.
    for make in (Graph, Graph.from_edges):
        with pytest.raises(ValueError, match="labels must be distinct, but 'a' is repeated"):
            make(2, ((0, 1),), ("a", "a"))
        with pytest.raises(ValueError, match="'b' is repeated"):
            make(4, ((0, 1),), ["b", "c", "d", "b"])
    g = Graph(2, ((0, 1),), ("a", "A"))
    assert parse_graph_json(serialize_graph_json(g)) == g


def test_graph_refuses_uint64_endpoints_beyond_int64():
    # An ndarray was cast with astype, which wrapped 2**63 + 1 to -2**63 + 1.
    for big in (2**63, 2**63 + 1, 2**64 - 1):
        for make in (Graph, Graph.from_edges):
            for edges in (np.array([[0, big]], dtype=np.uint64), [(0, big)]):
                with pytest.raises(ValueError, match="^edge pairs: a number is beyond the int64 range$"):
                    make(3, edges)
    top = np.array([[0, 2**63 - 1]], dtype=np.uint64)
    assert Graph(2**63, top).edges == ((0, 2**63 - 1),)


def test_from_edges_beyond_the_key_range():
    rng = np.random.default_rng(31)
    n = 2**33 + 7
    for top in (50, 2**32 + 9, n - 1):
        pairs = rng.integers(0, top, size=(40, 2), endpoint=True)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        want = sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist()})
        g = Graph.from_edges(n, np.vstack([pairs, pairs[:5, ::-1]]))
        assert g.vertex_count == n
        assert g.edges == tuple(want)


def _parse_outcome(parse, text):
    """(vertex_count, edges, labels) of a parse, or the error message."""
    try:
        g = parse(text)
    except GraphParseError as exc:
        return str(exc)
    assert all(type(x) is int for e in g.edges for x in e)
    return g.vertex_count, g.edges, g.labels


@pytest.mark.parametrize(
    "text",
    [
        "a a\nx y z",
        "x y z\na a",
        "a b\nb c\nc c\nx y z",
        "a b\r\nb c\r\n\r\nd\r\n",
        "a b\rb c\rd",
        "a\tb\n\tb\t c \n",
        "a b\x0bb c\x0cc d\u2028d e\x85e f\x1cf g",
        "a#b c\nc a#b\n",
        "  # indented comment\n\t# tab comment x y z\na b\n # a a\n",
        "#\n#a\na b\n",
        "a b\nb a\na b\nc b\nb c\n",
        "",
        "\n\n  \n",
        "x\ny\nx y\nz",
    ],
)
def test_parse_matches_line_loop_reference(text):
    assert _parse_outcome(parse_edge_list, text) == _parse_outcome(parse_edge_list_reference, text)


def test_parse_first_error_by_line_wins():
    with pytest.raises(GraphParseError, match="^line 1: self-loop at vertex 'a'$"):
        parse_edge_list("a a\nx y z")
    with pytest.raises(GraphParseError, match="^line 1: expected 1 or 2 tokens, got 3$"):
        parse_edge_list("x y z\na a")
    g = parse_edge_list("a#b c\n  # x y z\n")
    assert g.labels == ("a#b", "c") and g.edges == ((0, 1),)
    assert parse_edge_list("a b\r\nb c\r\n# c\r\nd\r\n").vertex_count == 4


def test_parse_fuzz_against_line_loop_reference():
    # About half the texts hold no '#', so the parse takes its tokens from
    # text.split() alone; those must still meet every line break and gap.
    rng = np.random.default_rng(97)
    plain_names = [f"v{i}" for i in range(40)] + ["é", "10"]
    hash_names = plain_names + ["a#b", "#"]
    breaks = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
    gaps = [" ", " ", "\t", "  ", " \t", "\xa0"]
    errors = 0
    plain_seen = set()
    kinds = {False: 0, True: 0}
    for _ in range(400):
        plain = rng.random() < 0.5
        names = plain_names if plain else hash_names
        lines = []
        for _ in range(int(rng.integers(0, 30))):
            k = int(rng.choice([0, 1, 2, 2, 2, 3], p=[0.1, 0.2, 0.2, 0.2, 0.27, 0.03]))
            tokens = [str(rng.choice(names)) for _ in range(k)]
            if k == 2 and rng.random() < 0.03:
                tokens[1] = tokens[0]
            line = str(rng.choice(gaps)).join(tokens)
            if not plain and rng.random() < 0.1:
                line = "#" + line
            lines.append(str(rng.choice(["", "", " ", "\t"])) + line)
        text = "".join(line + str(rng.choice(breaks)) for line in lines)
        if lines and rng.random() < 0.5:
            text = text[:-1]
        kinds["#" in text] += 1
        if plain:
            plain_seen.update(c for c in breaks + gaps if c in text)
        want = _parse_outcome(parse_edge_list_reference, text)
        errors += isinstance(want, str)
        assert _parse_outcome(parse_edge_list, text) == want, repr(text)
    assert 40 < errors < 360
    assert min(kinds.values()) > 100, kinds
    assert plain_seen == set(breaks + gaps)


def test_parse_edge_list_peak_memory_is_one_token_list():
    # The parse kept the lines, each line's token list and a flat token list
    # at once: 1.68 MiB on this 2000-vertex tree's 30 KB of text. Counting
    # each line's tokens and dropping them, then one text.split(), keeps
    # about 0.55 MiB, the graph it returns included.
    g = generate_random_tree(2000, 41)
    text = serialize_edge_list(g)
    tracemalloc.start()
    try:
        got = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.vertex_count, got.edges) == (g.vertex_count, g.edges)
    assert peak < 2**20


def test_parse_graph_json_fuzz_against_reference():
    # Every document either parses to the reference's graph or raises
    # GraphParseError in both; any other exception fails the test.
    rng = np.random.default_rng(98)
    errors = 0
    for _ in range(600):
        n = int(rng.integers(0, 6))
        vertices = [f"v{i}" if rng.random() < 0.95 else random_value(rng, 1) for i in range(n)]
        edges = []
        for _ in range(int(rng.integers(0, 7))):
            pair = [int(rng.integers(0, max(n, 1))) for _ in range(2)]
            if rng.random() < 0.1:
                pair[int(rng.integers(2))] = random_value(rng, 1)
            edges.append(pair if rng.random() < 0.97 else random_value(rng))
        obj = {"vertices": vertices, "edges": edges}
        r = rng.random()
        if r < 0.05:
            obj = random_value(rng)
        elif r < 0.1:
            obj[str(rng.choice(["vertices", "edges"]))] = random_value(rng)
        elif r < 0.13:
            del obj[str(rng.choice(["vertices", "edges"]))]
        text = fuzz_json_text(rng, obj)
        want = _parse_outcome(parse_graph_json_reference, text)
        got = _parse_outcome(parse_graph_json, text)
        errors += isinstance(want, str)
        assert isinstance(got, str) == isinstance(want, str), repr(text[:200])
        if not isinstance(want, str):
            assert got == want, repr(text[:200])
    assert 100 < errors < 500


def test_adjacency_matches_edge_loop():
    rng = np.random.default_rng(19)
    graphs = [random_graph(rng, 1, 14) for _ in range(40)]
    graphs += [Graph(0), Graph(5), Graph.from_edges(7, [(1, 4), (4, 2), (6, 1)])]
    for g in graphs:
        got = g.adjacency
        assert got == adjacency_reference(g)
        assert all(type(u) is int for nbrs in got for u in nbrs)


def hops_from(g, s):
    """Hop counts from the one source s, UNREACHABLE where it does not reach."""
    return _bfs(g, [s])[0][0]


def test_bfs_path():
    g = parse_edge_list("a b\nb c")
    assert hops_from(g, 0).tolist() == [0, 1, 2]
    assert hops_from(g, np.int64(1)).tolist() == [1, 0, 1]


def test_bfs_unreachable_marked():
    g = parse_edge_list("a b\nc d")
    assert hops_from(g, 0).tolist() == [0, 1, UNREACHABLE, UNREACHABLE]


def test_bfs_star_center():
    g = parse_edge_list("c a\nc b\nc d")
    assert hops_from(g, 0).tolist() == [0, 1, 1, 1]


def test_bfs_edge_triangle_property():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, 2, 12)
        for s in range(g.vertex_count):
            dist = hops_from(g, s)
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
            dist = hops_from(g, s)
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


@pytest.mark.parametrize(
    "make, vertex",
    [
        # The declaration line "#b" read back as a comment: edges ((0, 3), (1, 2)).
        (lambda: parse_edge_list("a #b\nc d\n"), 1),
        # Read back as 1 vertex and 0 edges.
        (lambda: parse_graph_json('{"vertices": ["#x", "y"], "edges": [[0, 1]]}'), 0),
        # "line 6: expected 1 or 2 tokens, got 3".
        (lambda: Graph(2, ((0, 1),), ("a b", "")), 0),
        (lambda: Graph(2, ((0, 1),), ("a", "")), 1),
        (lambda: Graph(3, (), ("a", "b\u2028c", "d")), 1),
    ],
    ids=["hash-declaration", "json-hash-name", "space-and-empty", "empty", "line-separator"],
)
def test_serialize_edge_list_refuses_labels_it_cannot_round_trip(make, vertex):
    g = make()
    with pytest.raises(ValueError, match=f"^vertex {vertex}: label "):
        serialize_edge_list(g)


def test_serialize_edge_list_round_trips_labels():
    g = Graph(4, ((0, 1), (0, 3), (2, 3)), ("a#", "é", "10", "0"))
    assert parse_edge_list(serialize_edge_list(g)) == g
    assert serialize_edge_list(g) == "a#\né\n10\n0\na# é\na# 0\n10 0\n"


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


@pytest.mark.parametrize("name", ["null", '{"a": 1}', "[1]", "true", "1.5", "7", '"x"'])
def test_json_vertex_names_are_distinct_strings(name):
    # Each parsed to a Python repr as a label ('None', "{'a': 1}", ...), and
    # "x" twice gave two vertices with the same label.
    text = f'{{"vertices": ["x", {name}], "edges": [[0, 1]]}}'
    for parse in (parse_graph_json, parse_graph_json_reference):
        with pytest.raises(GraphParseError, match="name"):
            parse(text)
    assert parse_graph_json('{"vertices": ["", "x", "é"], "edges": []}').labels == ("", "x", "é")
