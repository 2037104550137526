import numpy as np
import pytest

from gravlayout import connected_components, generate_forest, generate_random_tree


def test_tree_single_vertex():
    g = generate_random_tree(1, seed=0)
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_tree_two_vertices():
    g = generate_random_tree(2, seed=0)
    assert g.edges == ((0, 1),)


def test_tree_is_connected_acyclic():
    for seed in range(6):
        g = generate_random_tree(70, seed=seed)
        assert g.vertex_count == 70
        assert g.edge_count == 69
        assert len(set(connected_components(g).tolist())) == 1


def test_tree_deterministic():
    assert generate_random_tree(40, seed=9).edges == generate_random_tree(40, seed=9).edges
    assert generate_random_tree(40, seed=9).edges != generate_random_tree(40, seed=10).edges


def test_tree_rejects_zero():
    with pytest.raises(ValueError):
        generate_random_tree(0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        generate_random_tree(5, seed=-1)


def test_tree_small_cases_cover_all_labeled_trees():
    # n=4 has 16 labeled trees; a uniform sampler should hit all of them
    seen = set()
    for seed in range(600):
        seen.add(generate_random_tree(4, seed=seed).edges)
    assert len(seen) == 16


def test_tree_is_the_one_component_forest():
    for n in (1, 2, 3, 7, 70, 500):
        for seed in range(5):
            assert generate_random_tree(n, seed) == generate_forest([n], seed)
    # Pinned bits: a two-vertex component draws nothing from the generator.
    assert generate_forest([2, 4, 2, 3], seed=1).edges == (
        (0, 1), (2, 3), (2, 5), (3, 4), (6, 7), (8, 9), (9, 10)
    )


def test_forest_two_components():
    g = generate_forest([3, 3], seed=2)
    assert g.vertex_count == 6
    assert g.edge_count == 4
    assert len(set(connected_components(g).tolist())) == 2


def test_forest_fig_scale():
    g = generate_forest([9] * 5, seed=3)
    assert g.vertex_count == 45
    assert g.edge_count == 40
    assert len(set(connected_components(g).tolist())) == 5


def test_forest_single_isolated():
    g = generate_forest([1], seed=0)
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_forest_errors():
    with pytest.raises(ValueError):
        generate_forest([], seed=0)
    with pytest.raises(ValueError):
        generate_forest([3, 0], seed=0)
    with pytest.raises(ValueError, match="seed"):
        generate_forest([3], seed=-1)


def test_forest_deterministic():
    a = generate_forest([5, 7, 9], seed=4)
    b = generate_forest([5, 7, 9], seed=4)
    assert a == b


@pytest.mark.parametrize(
    ("func", "args", "kwargs"),
    [
        (generate_forest, ([2.5],), {}),
        (generate_forest, ([3, "4"],), {}),
        (generate_forest, ([True, 3],), {}),
        (generate_forest, ([3, np.float64(4.0)],), {}),
        (generate_forest, ([3],), {"seed": "x"}),
        (generate_forest, ([3],), {"seed": True}),
        (generate_forest, ([3],), {"seed": 1.5}),
        (generate_random_tree, ("5",), {}),
        (generate_random_tree, (5.0,), {}),
        (generate_random_tree, (True,), {}),
        (generate_random_tree, (5,), {"seed": None}),
    ],
    ids=lambda x: getattr(x, "__name__", None) or repr(x),
)
def test_generators_take_only_integers(func, args, kwargs):
    # Sizes, n and seed are integers as LayoutConfig takes them: Python or
    # numpy, never bool. Before, some of these raised TypeError and the
    # others (a bool size or seed, seed 1.5) made a graph.
    with pytest.raises(ValueError, match="must be an integer"):
        func(*args, **kwargs)


def test_generators_take_numpy_integers():
    want = generate_forest([3, 4], seed=2)
    assert generate_forest(np.array([3, 4]), seed=np.uint8(2)) == want
    assert generate_forest([np.int32(3), 4], seed=np.int64(2)) == want
    assert generate_random_tree(np.int16(7), seed=np.int64(5)) == generate_random_tree(7, seed=5)


@pytest.mark.parametrize("sizes", [5, None, 2.5])
def test_forest_sizes_must_be_iterable(sizes):
    # Before, these raised TypeError ("'int' object is not iterable").
    with pytest.raises(ValueError, match="iterable of component sizes"):
        generate_forest(sizes)
