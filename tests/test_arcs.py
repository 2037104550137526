import math
import warnings

import numpy as np
import pytest

from gravlayout import (
    Graph,
    LayoutConfig,
    arc_geometry,
    generate_random_tree,
    layout_lombardi,
    normalize_mass,
    run_layout,
    uniform_centrality,
)
from conftest import LOMBARDI_TREES, lombardi_tree
from oracles import fit_arc, not_numbers, tangent_gap


def uniform_mass(g):
    return normalize_mass(uniform_centrality(g))


def test_fit_arc_symmetric_circumcircle():
    arc = fit_arc((0, 0), (2, 0), (1, 1))
    assert arc is not None
    assert arc.center == pytest.approx((1.0, 0.0))
    assert arc.radius == pytest.approx(1.0)


def test_fit_arc_vertical():
    arc = fit_arc((0, 0), (0, 2), (1, 1))
    assert arc is not None
    assert arc.center == pytest.approx((0.0, 1.0))
    assert arc.radius == pytest.approx(1.0)


def test_fit_arc_collinear_is_straight():
    assert fit_arc((0, 0), (2, 0), (1, 0)) is None


def test_fit_arc_coincident_endpoints_raise():
    with pytest.raises(ValueError):
        fit_arc((1, 1), (1, 1), (2, 2))


def test_fit_arc_passes_through_all_three_points():
    rng = np.random.default_rng(3)
    for _ in range(40):
        pts = rng.uniform(-200, 200, (3, 2))
        arc = fit_arc(pts[0], pts[1], pts[2], scale=80.0)
        if arc is None:
            continue
        for p in pts:
            assert math.hypot(p[0] - arc.center[0], p[1] - arc.center[1]) == pytest.approx(
                arc.radius, abs=1e-6 * 80.0
            )


def _chorded_tree(n=100, chords=10, seed=0):
    tree = generate_random_tree(n, seed=seed)
    edges = set(tree.edges)
    rng = np.random.default_rng(seed)
    while len(edges) < tree.edge_count + chords:
        u, v = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def test_lombardi_arcs_match_circumcircle_oracle():
    # Each closed-form arc equals the circle fitted through its endpoints
    # and midpoint: the same straight edges, center and radius within 1e-8
    # of the radius, the same sweep within 1e-12 rad. The single edge
    # between two leaves is the straight case.
    drawings = [lombardi_tree(n, seed) for n, seed in LOMBARDI_TREES]
    g = _chorded_tree()
    drawings.append((g, *layout_lombardi(g, uniform_mass(g), LayoutConfig(seed=1))))
    for g in (Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), Graph.from_edges(2, [(0, 1)])):
        drawings.append((g, *layout_lombardi(g, uniform_mass(g), LayoutConfig(gamma_max=0.0, seed=3))))
    straight = curved = 0
    for g, pos, sweeps in drawings:
        midpoints, centers, radii = arc_geometry(pos, g, sweeps)
        for (u, v), sweep, mid, center, radius in zip(g.edges, sweeps, midpoints, centers, radii):
            ref = fit_arc(pos[u], pos[v], mid, scale=LayoutConfig().k)
            assert (sweep == 0.0) == (ref is None), (u, v)
            if ref is None:
                straight += 1
                assert np.isnan(center).all() and np.isnan(radius), (u, v)
                continue
            curved += 1
            assert math.dist(center, ref.center) <= 1e-8 * ref.radius, (u, v)
            assert abs(radius - ref.radius) <= 1e-8 * ref.radius, (u, v)
            assert abs(sweep - ref.sweep) <= 1e-12, (u, v)
    assert straight == 1 and curved > 1000


def test_lombardi_no_edges():
    g = Graph(3)
    pos, sweeps = layout_lombardi(g, uniform_mass(g), LayoutConfig(seed=1, max_iterations=50))
    assert pos.shape == (3, 2)
    assert sweeps.shape == (0,)
    assert all(a.shape[0] == 0 for a in arc_geometry(pos, g, sweeps))


def test_lombardi_k2_straight():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(gamma_max=0.0, seed=2)
    pos, sweeps = layout_lombardi(g, uniform_mass(g), cfg)
    assert sweeps.tolist() == [0.0]


def test_lombardi_triangle_bows_outward():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cfg = LayoutConfig(gamma_max=0.0, seed=3)
    pos, sweeps = layout_lombardi(g, uniform_mass(g), cfg)
    midpoints = arc_geometry(pos, g, sweeps)[0]
    center = pos.mean(axis=0)

    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    for (u, v), mid in zip(g.edges, midpoints):
        pu, pv = pos[u], pos[v]
        chord = pv - pu
        # side of the chord away from the triangle center
        side_center = cross2(chord, center - pu)
        side_mid = cross2(chord, mid - pu)
        assert side_mid * side_center < 0, "midpoint must lie outside the chord"


def test_lombardi_preserves_original_positions_bitwise():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=5, max_iterations=400)
    plain = run_layout(g, mass, cfg)
    pos, sweeps = layout_lombardi(g, mass, cfg)
    assert np.array_equal(pos, plain)


def test_lombardi_arcs_pass_through_endpoints():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    cfg = LayoutConfig(seed=6, max_iterations=600)
    pos, sweeps = layout_lombardi(g, uniform_mass(g), cfg)
    tol = 1e-6 * cfg.k
    midpoints, centers, radii = arc_geometry(pos, g, sweeps)
    assert np.count_nonzero(sweeps) > 0
    for (u, v), sweep, mid, center, radius in zip(g.edges, sweeps, midpoints, centers, radii):
        if sweep == 0.0:
            continue
        for p in (pos[u], pos[v], mid):
            assert abs(math.dist(p, center) - radius) <= tol


def test_lombardi_deterministic():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=7, max_iterations=300)
    pos1, sweeps1 = layout_lombardi(g, mass, cfg)
    pos2, sweeps2 = layout_lombardi(g, mass, cfg)
    assert np.array_equal(pos1, pos2)
    assert np.array_equal(sweeps1, sweeps2)


def test_arc_geometry_straight_rows():
    # A straight edge gets its chord's midpoint and NaN for center and
    # radius, and computing them raises no floating-point warning.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        midpoints, centers, radii = arc_geometry(pos, g, [0.0, math.pi])
    assert midpoints[0].tolist() == [1.0, 0.0]
    assert np.isnan(centers[0]).all() and np.isnan(radii[0])
    # A half circle counter-clockwise from (2, 0) to (2, 2) bulges right.
    assert midpoints[1] == pytest.approx([3.0, 1.0])
    assert centers[1] == pytest.approx([2.0, 1.0])
    assert radii[1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "sweeps",
    [
        [0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]], [0.1, math.nan], [math.inf, 0.0], [0.1, -2 * math.pi], [7.0, 0.0],
        *not_numbers([0.1, 0.2]),
    ],
)
def test_arc_geometry_rejects_bad_sweeps(sweeps):
    # Bools and numeric strings were read as sweeps, True as one radian.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="sweeps must hold 2 finite numbers"):
        arc_geometry(np.zeros((3, 2)) + np.arange(3)[:, None], g, sweeps)


@pytest.mark.parametrize("n, seed", LOMBARDI_TREES)
def test_tangent_arcs_beat_straight_edges(n, seed):
    # The tangent gap is measured on the drawn arcs, sampled next to each
    # end, and must fall below the gap of the same drawing's straight edges;
    # no arc is the long way round a circle.
    g, pos, sweeps = lombardi_tree(n, seed)
    assert tangent_gap(g, pos, sweeps) < tangent_gap(g, pos)
    assert np.all(np.abs(sweeps) <= math.pi)
