import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gravlayout import (
    CentralityVector,
    Graph,
    LayoutConfig,
    LayoutState,
    RenderError,
    arc_geometry,
    bounding_area,
    centrality_radius_correlation,
    compute_metrics,
    compute_centrality,
    count_crossings,
    edge_length_stats,
    generate_random_tree,
    initialize_positions,
    min_angular_resolution,
    normalize_mass,
    render_svg,
    run_layout,
    spearman,
    step,
)
from conftest import blas_thread_hashes
from gravlayout import metrics
from gravlayout.engine import TWO_PI, check_positions
from oracles import (
    angular_resolution_reference,
    average_ranks_reference,
    not_numbers,
    parametric_crossings,
    random_graph,
    spearman_formula,
)


def test_crossings_x_configuration():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    pos = [(0, 0), (1, 1), (0, 1), (1, 0)]
    assert count_crossings(g, pos) == 1


def test_crossings_monotone_path_zero():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    pos = [(0, 0), (1, 3), (2, -1), (3, 2), (4, 0)]
    assert count_crossings(g, pos) == 0


def test_crossings_k4_planar_embedding():
    g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    pos = [(0, 0), (4, 0), (2, 3), (2, 1)]  # triangle plus interior vertex
    assert count_crossings(g, pos) == 0
    assert parametric_crossings(g, pos) == 0


def test_crossings_shared_endpoint_not_counted():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    pos = [(0, 0), (1, 0), (0.5, 1)]
    assert count_crossings(g, pos) == 0


def test_crossings_endpoint_touch_not_counted():
    # endpoint of one edge lies in the interior of another (T shape)
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    pos = [(0, 0), (2, 0), (1, 0), (1, 5)]
    assert count_crossings(g, pos) == 0


def test_crossings_collinear_overlap_counted():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    pos = [(0, 0), (2, 0), (1, 0), (3, 0)]
    assert count_crossings(g, pos) == 1
    # touching end to end: zero-length overlap, no crossing
    pos2 = [(0, 0), (1, 0), (1, 0), (2, 0)]
    assert count_crossings(g, pos2) == 0


def test_crossings_match_parametric_oracle():
    rng = np.random.default_rng(27)
    for _ in range(60):
        g = random_graph(rng, 4, 15)
        pos = rng.uniform(-100, 100, (g.vertex_count, 2))
        assert count_crossings(g, pos) == parametric_crossings(g, pos)


# 1 << 16 was the default chunk before CROSSING_PAIRS became 1 << 13.
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16, metrics.CROSSING_PAIRS])
def test_chunked_crossings_match_parametric_oracle(chunk):
    rng = np.random.default_rng(777)  # criterion 10's fixtures
    for _ in range(100):
        g = random_graph(rng, 4, 15)
        pos = rng.uniform(-100, 100, (g.vertex_count, 2))
        assert metrics._count_crossings(g.edge_array, pos, chunk) == parametric_crossings(g, pos)
    # Small integer grids: many collinear, touching and overlapping pairs.
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = random_graph(rng, 6, 20)
        pos = rng.integers(0, 4, (g.vertex_count, 2)).astype(float)
        assert metrics._count_crossings(g.edge_array, pos, chunk) == parametric_crossings(g, pos)


def test_chunked_crossings_collinear_pairs_at_chunk_boundary():
    # Five disjoint edges: pairs (e1, e4) and (e2, e3) are the 7th and 8th
    # of the 10 pairs in row-major order, so a chunk of 7 ends between them.
    g = Graph.from_edges(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    pos = np.array(
        [(10, -10), (11, -10), (0, 0), (2, 0), (0, 5), (2, 7), (1, 6), (3, 8), (1, 0), (3, 0)],
        dtype=float,
    )
    assert parametric_crossings(g, pos) == 2
    for chunk in (1, 6, 7, 8, 10, metrics.CROSSING_PAIRS):
        assert metrics._count_crossings(g.edge_array, pos, chunk) == 2
    assert count_crossings(g, pos) == 2


def test_sweep_crossings_fuzz_against_parametric_oracle():
    # m up to about 300. Integer grids give many equal x-extent starts,
    # vertical edges, touching pairs and collinear overlaps; a few distinct
    # x values with real y give long runs of equal starts and vertical edges.
    rng = np.random.default_rng(2024)
    for case in range(40):
        g = random_graph(rng, 4, 26)
        n = g.vertex_count
        if case % 2:
            pos = rng.integers(0, int(rng.choice([3, 5, 9, 31])), (n, 2)).astype(float)
        else:
            pos = np.column_stack([rng.integers(0, 6, n).astype(float), rng.uniform(-50, 50, n)])
        want = parametric_crossings(g, pos)
        # A chunk of one pair costs a full chunk pass per pair: small m only.
        chunks = (1, 7, metrics.CROSSING_PAIRS) if g.edge_count <= 80 else (7, metrics.CROSSING_PAIRS)
        for chunk in chunks:
            assert metrics._count_crossings(g.edge_array, pos, chunk) == want


def test_sweep_crossings_all_candidates_on_one_vertical_line():
    # Every vertex on x = 0: every edge pair overlaps in x, and every pair
    # that is tested is collinear.
    rng = np.random.default_rng(61)
    for _ in range(10):
        g = random_graph(rng, 4, 14)
        pos = np.column_stack([np.zeros(g.vertex_count), rng.integers(0, 8, g.vertex_count)])
        want = parametric_crossings(g, pos)
        for chunk in (1, 7, metrics.CROSSING_PAIRS):
            assert metrics._count_crossings(g.edge_array, pos, chunk) == want
    # m disjoint edges [e, e + L] on the line: pairs closer than L overlap,
    # (L - 1) m - L (L - 1) / 2 of them, out of m (m - 1) / 2 candidates.
    m, L = 2000, 7
    ea = np.arange(2 * m).reshape(m, 2)
    pos = np.zeros((2 * m, 2))
    pos[0::2, 1] = np.arange(m)
    pos[1::2, 1] = np.arange(m) + L
    tracemalloc.start()
    try:
        got = metrics._count_crossings(ea, pos, metrics.CROSSING_PAIRS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (L - 1) * m - L * (L - 1) // 2
    # About two million pairs: one array over all of them would be 16 MB.
    assert peak < 24 * 8 * metrics.CROSSING_PAIRS


def test_compute_metrics_peak_memory_on_a_2000_vertex_tree():
    # With chunks of 2^16 candidate pairs the crossing sweep's scratch made
    # compute_metrics peak at 2.3 MiB on this drawing; at 2^13 it is about
    # 0.6 MiB.
    g = generate_random_tree(2000, 43)
    pos = initialize_positions(g, 43, 80.0)
    c = compute_centrality(g, "degree")
    want = compute_metrics(g, pos, c)
    tracemalloc.start()
    try:
        got = compute_metrics(g, pos, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and got.crossings == metrics._count_crossings(g.edge_array, pos, 7)
    assert peak < 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_crossings_reject_non_finite_positions(bad):
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    pos = np.array([(0, 0), (2, 2), (0, 2), (2, bad)])
    with pytest.raises(ValueError, match="finite"):
        count_crossings(g, pos)
    with pytest.raises(ValueError, match="finite"):
        compute_metrics(g, pos, compute_centrality(g, "degree"))


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 2)),
        np.zeros((4, 2)),
        np.zeros((3, 3)),
        np.arange(3.0),
        np.array([[0.0, 0.0], [1.0, math.nan], [2.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [math.inf, 0.0]]),
        np.array([[0.0, -math.inf], [1.0, 0.0], [2.0, 0.0]]),
    ],
    ids=["too-few-rows", "too-many-rows", "three-columns", "flat", "nan", "inf", "-inf"],
)
def test_every_metric_checks_positions(bad):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    calls = [
        lambda: count_crossings(g, bad),
        lambda: min_angular_resolution(g, bad),
        lambda: edge_length_stats(g, bad),
        lambda: centrality_radius_correlation([1.0, 2.0, 3.0], bad),
        lambda: compute_metrics(g, bad, compute_centrality(g, "degree")),
    ]
    if bad.ndim != 2 or bad.shape[1] != 2 or not np.isfinite(bad).all():
        calls.append(lambda: bounding_area(bad))
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_crossings_rigid_motion_invariance():
    rng = np.random.default_rng(29)
    g = random_graph(rng, 6, 12)
    pos = rng.uniform(-50, 50, (g.vertex_count, 2))
    base = count_crossings(g, pos)
    theta = 1.1
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    assert count_crossings(g, pos @ rot.T) == base
    assert count_crossings(g, pos + np.array([400.0, -3.0])) == base
    assert count_crossings(g, pos * 17.5) == base


def test_angular_resolution_star():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    pos = [(0, 0), (1, 0), (math.cos(TWO_PI / 3), math.sin(TWO_PI / 3)),
           (math.cos(2 * TWO_PI / 3), math.sin(2 * TWO_PI / 3))]
    assert min_angular_resolution(g, pos) == pytest.approx(TWO_PI / 3)


def test_angular_resolution_collinear_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = [(-1, 0), (0, 0), (1, 0)]
    assert min_angular_resolution(g, pos) == pytest.approx(math.pi)


def test_angular_resolution_degree_one_convention():
    g = Graph.from_edges(2, [(0, 1)])
    assert min_angular_resolution(g, [(0, 0), (1, 0)]) == TWO_PI


def test_angular_resolution_pigeonhole_bound():
    rng = np.random.default_rng(33)
    for _ in range(20):
        g = random_graph(rng, 3, 12)
        if g.degrees.max() < 2:
            continue
        pos = rng.uniform(-10, 10, (g.vertex_count, 2))
        assert min_angular_resolution(g, pos) <= TWO_PI / g.degrees.max() + 1e-12


def test_angular_resolution_matches_per_vertex_loop():
    rng = np.random.default_rng(53)
    cases = []
    for _ in range(30):
        # sparse and dense random graphs: degree-0 and degree-1 vertices
        g = random_graph(rng, 1, 14)
        cases.append((g, rng.uniform(-10, 10, (g.vertex_count, 2))))
        # integer grids: coincident directions and coincident vertices
        cases.append((g, rng.integers(0, 3, (g.vertex_count, 2)).astype(float)))
    star = Graph.from_edges(9, [(0, v) for v in range(1, 9)])
    cases.append((star, rng.uniform(-1, 1, (9, 2))))
    cases.append((Graph(4), rng.uniform(-1, 1, (4, 2))))
    for g, pos in cases:
        assert min_angular_resolution(g, pos) == angular_resolution_reference(g, pos)
    # two neighbours on one ray from vertex 0: gap 0
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    pos = [(0, 0), (1, 1), (2, 2), (-1, 0), (5, 5)]
    assert min_angular_resolution(g, pos) == angular_resolution_reference(g, pos) == 0.0


def test_edge_length_stats():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    mean, cv = edge_length_stats(g, [(0, 0), (80, 0), (80, 80)])
    assert mean == pytest.approx(80.0)
    assert cv == pytest.approx(0.0)
    mean, cv = edge_length_stats(g, [(0, 0), (1, 0), (4, 0)])
    assert mean == pytest.approx(2.0)
    assert cv == pytest.approx(0.5)


def test_edge_length_stats_requires_edges():
    with pytest.raises(ValueError):
        edge_length_stats(Graph(3), [(0, 0), (1, 1), (2, 2)])


def test_edge_length_scale_behavior():
    rng = np.random.default_rng(37)
    g = random_graph(rng, 4, 10)
    if g.edge_count == 0:
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = rng.uniform(-10, 10, (g.vertex_count, 2))
    mean, cv = edge_length_stats(g, pos)
    mean2, cv2 = edge_length_stats(g, pos * 9.0)
    assert mean2 == pytest.approx(9.0 * mean)
    assert cv2 == pytest.approx(cv)


def test_k2_layout_edge_length_near_k():
    g = Graph.from_edges(2, [(0, 1)])
    mass = normalize_mass(compute_centrality(g, "uniform"))
    pos = run_layout(g, mass, LayoutConfig(gamma_max=0.0, seed=11))
    mean, cv = edge_length_stats(g, pos)
    assert mean == pytest.approx(80.0, rel=0.05)
    assert cv == 0.0


def test_bounding_area():
    assert bounding_area([(0, 0), (2, 3)]) == pytest.approx(6.0)
    assert bounding_area([(5, 5)]) == 0.0
    assert bounding_area([(0, 0), (1, 0), (0, 1), (1, 1)]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bounding_area(np.empty((0, 2)))


def test_spearman_perfect_anticorrelation():
    assert spearman([3, 2, 1], [1, 2, 3]) == pytest.approx(-1.0)


def test_spearman_bits_do_not_depend_on_blas_threads():
    # Past n of about 470,000 the sums of rank products leave 2^53 and are
    # rounded. A BLAS dot splits them across threads: with xd @ yd this
    # input read 0.4984818271245235 on 1 OpenBLAS thread, 0.49848182712452355 on 4.
    script = """
import hashlib
import numpy as np
import gravlayout as gl
rng = np.random.default_rng(5)
x = rng.uniform(size=700_000)
y = x + rng.normal(0.0, 0.5, size=x.size)
print(hashlib.sha256(np.float64(gl.spearman(x, y)).tobytes()).hexdigest())
"""
    hashes = blas_thread_hashes(script)
    assert len(hashes[0]) == 64
    assert hashes[0] == hashes[1]


def test_spearman_constant_zero():
    assert spearman([1, 1, 1], [1, 2, 3]) == 0.0


def test_spearman_refuses_empty_input_without_warnings():
    # spearman([], []) read 0.0 after two RuntimeWarnings from the mean of
    # empty ranks, so with warnings as errors it raised RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one value"):
            spearman([], [])
        with pytest.raises(ValueError, match="at least one value"):
            spearman(np.zeros(0), np.zeros(0))
        assert spearman([4.0], [-2.0]) == 0.0


def test_spearman_matches_formula_on_all_permutations():
    base = np.arange(1, 6, dtype=float)
    for perm in itertools.permutations(range(5)):
        x = base[list(perm)]
        assert spearman(x, base) == pytest.approx(spearman_formula(x, base), abs=1e-12)


def test_spearman_handles_ties():
    # x = [1, 1, 2]: ranks [1.5, 1.5, 3]; y = [1, 2, 3]: ranks [1, 2, 3]
    rho = spearman([1, 1, 2], [1, 2, 3])
    assert rho == pytest.approx(math.sqrt(3) / 2)


def test_average_ranks_match_run_loop():
    rng = np.random.default_rng(59)
    cases = [np.array([]), np.array([0.0, -0.0, 1.0, -0.0]), rng.uniform(-1, 1, 30)]
    for _ in range(40):
        size = int(rng.integers(1, 40))
        cases.append(rng.integers(0, int(rng.integers(1, 10)), size).astype(float))
    for values in cases:
        assert np.array_equal(metrics._average_ranks(values), average_ranks_reference(values))


def test_correlation_requires_three_vertices():
    with pytest.raises(ValueError):
        centrality_radius_correlation([1.0, 2.0], [(0, 0), (1, 1)])


def test_correlation_sign_convention():
    # high centrality near center -> negative
    c = [3.0, 2.0, 1.0, 0.5]
    pos = [(1.5, 0), (1, 0), (2.4, 0), (4, 0)]  # radii grow as centrality falls
    rho = centrality_radius_correlation(c, pos)
    assert rho < 0


def test_correlation_invariances():
    rng = np.random.default_rng(43)
    c = rng.uniform(0, 5, 9)
    pos = rng.uniform(-20, 20, (9, 2))
    base = centrality_radius_correlation(c, pos)
    theta = 0.4
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    assert centrality_radius_correlation(c, pos @ rot.T) == pytest.approx(base, abs=1e-9)
    assert centrality_radius_correlation(c, pos + 55.0) == pytest.approx(base, abs=1e-9)
    assert centrality_radius_correlation(np.exp(c), pos) == pytest.approx(base, abs=1e-12)


def test_compute_metrics_fields():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    dm = compute_metrics(g, [(0, 0), (1, 0), (2, 0)], compute_centrality(g, "degree"))
    d = dm.as_dict()
    assert set(d) == {
        "crossings",
        "min_angle",
        "edge_len_mean",
        "edge_len_cv",
        "bbox_area",
        "centrality_radius_rho",
    }
    assert d["crossings"] == 0
    assert d["min_angle"] == pytest.approx(math.pi)


@pytest.mark.parametrize(
    "c", ["junk", None, CentralityVector("degree", np.ones(5)), [1.0, math.nan]], ids=["junk", "None", "5-values", "nan"]
)
def test_compute_metrics_checks_centrality_at_every_vertex_count(c):
    # Below 3 vertices there is no rho, and each of these gave a report.
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="centrality"):
        compute_metrics(g, [(0, 0), (80, 0)], c)
    assert compute_metrics(g, [(0, 0), (80, 0)], [1.0, 2.0]).centrality_radius_rho is None


def test_compute_metrics_degenerate_graph():
    g = Graph(2)
    dm = compute_metrics(g, [(0, 0), (1, 1)], compute_centrality(g, "degree"))
    assert dm.edge_len_mean is None
    assert dm.edge_len_cv is None
    assert dm.centrality_radius_rho is None
    assert dm.crossings == 0


def _every_metric(g, pos, values):
    return [
        lambda: count_crossings(g, pos),
        lambda: min_angular_resolution(g, pos),
        lambda: edge_length_stats(g, pos),
        lambda: bounding_area(pos),
        lambda: centrality_radius_correlation(values, pos),
        lambda: compute_metrics(g, pos, compute_centrality(g, "degree")),
    ]


@pytest.mark.parametrize(
    "pos",
    [
        [(-1e308, 0.0), (0.0, 0.0), (1e308, 0.0)],
        [(0.0, -1e308), (0.0, 0.0), (0.0, 1e308)],
        [(0.0, 0.0), (1e154, 0.0), (2e154, 1.0)],
    ],
    ids=["x-overflows", "y-overflows", "square-overflows"],
)
def test_every_layer_refuses_a_drawing_too_wide_for_its_squared_lengths(pos):
    # A side s with 2 s^2 beyond the float range is refused by the one
    # positions check, so by every layer that takes a drawing, without a
    # floating-point warning. The metrics gave edge_len_mean inf, edge_len_cv
    # NaN and bbox_area inf for the first path; check_positions and
    # arc_geometry passed it, and render_svg wrote A inf inf.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    mass = normalize_mass(compute_centrality(g, "uniform"))
    cfg = LayoutConfig(max_iterations=1)
    calls = [
        lambda: check_positions(pos, 3),
        lambda: check_positions(pos),
        lambda: run_layout(g, mass, cfg, initial=np.array(pos)),
        lambda: step(LayoutState(positions=np.array(pos)), g, mass, cfg),
        *_every_metric(g, pos, [1.0, 2.0, 3.0]),
        lambda: arc_geometry(pos, g, [1.0, -1.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="too wide"):
                call()
        with pytest.raises(RenderError, match="too wide"):
            render_svg(g, pos, sweeps=[1.0, -1.0])


def test_widest_measurable_drawing_gives_finite_metrics():
    # engine._start keeps 8 reach^2 finite, and every side of a drawing
    # within reach is at most 2 reach, so such a drawing is measured.
    reach = math.sqrt(np.finfo(float).max / 8) * (1 - 1e-12)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = np.array([(-reach, -reach), (reach, -reach), (reach, reach)])
    report = compute_metrics(g, pos, compute_centrality(g, "degree")).as_dict()
    assert all(math.isfinite(v) for v in report.values())


def test_edge_length_cv_survives_overflowing_squared_deviations():
    # 200 edges of about 1e154: each squared deviation is finite, their sum
    # is not. The cv is scale-free, so it equals the cv of the drawing
    # scaled down.
    n = 200
    pos = np.zeros((n, 2))
    pos[1::2, 0] = 9e153
    pos[::2, 1] = np.linspace(0.0, 9e153, n)[::2]
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    mean, cv = edge_length_stats(g, pos)
    small_mean, small_cv = edge_length_stats(g, pos * 1e-150)
    assert mean == pytest.approx(small_mean * 1e150)
    assert cv == pytest.approx(small_cv)


def test_correlation_of_far_coincident_vertices():
    # The centroid's coordinate sums overflow; every radius is 0.
    pos = np.full((100, 2), 1.7e308)
    assert centrality_radius_correlation(np.arange(100.0), pos) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spearman_and_correlation_refuse_non_finite_values(bad):
    # spearman([nan, 1, 2], [1, 2, 3]) read -0.5, and the correlation with a
    # NaN centrality 0.5.
    with pytest.raises(ValueError, match="finite"):
        spearman([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        spearman([1.0, 2.0, 3.0], [1.0, bad, 2.0])
    with pytest.raises(ValueError, match="finite"):
        centrality_radius_correlation([bad, 1.0, 2.0], [(0, 0), (1, 0), (3, 0)])


@pytest.mark.parametrize(
    "bad", [*not_numbers([1.0, 2.0, 3.0]), 5, np.float64(5.0), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1.0, 2.0]]
)
def test_spearman_and_correlation_refuse_what_is_not_a_vector_of_numbers(bad):
    # spearman(['1', '2', '3'], [True, False, True]) read 0.0, spearman(5, 6)
    # raised IndexError, and the correlation read '1', '2', '3' as numbers.
    good = [1.0, 2.0, 3.0]
    for call in (
        lambda: spearman(bad, good),
        lambda: spearman(good, bad),
        lambda: centrality_radius_correlation(bad, [(0, 0), (1, 0), (3, 0)]),
    ):
        with pytest.raises(ValueError):
            call()
