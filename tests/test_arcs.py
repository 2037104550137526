import math

import numpy as np
import pytest

from gravlayout import (
    Graph,
    LayoutConfig,
    generate_random_tree,
    layout_lombardi,
    normalize_mass,
    run_layout,
    uniform_centrality,
)
from conftest import LOMBARDI_TREES, lombardi_tree
from oracles import fit_arc, tangent_gap


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
    # and control point: the same straight edges, center and radius within
    # 1e-8 of the radius, the same sweep within 1e-12 rad. The single edge
    # between two leaves is the straight case.
    drawings = [lombardi_tree(n, seed)[2] for n, seed in LOMBARDI_TREES]
    g = _chorded_tree()
    drawings.append(layout_lombardi(g, uniform_mass(g), LayoutConfig(seed=1))[1])
    for g in (Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), Graph.from_edges(2, [(0, 1)])):
        drawings.append(layout_lombardi(g, uniform_mass(g), LayoutConfig(gamma_max=0.0, seed=3))[1])
    straight = curved = 0
    for arcs in drawings:
        for arc in arcs:
            ref = fit_arc(arc.p_u, arc.p_v, arc.control, scale=LayoutConfig().k)
            assert arc.straight == (ref is None), arc.edge
            if ref is None:
                straight += 1
                continue
            curved += 1
            geom = arc.geometry
            assert math.dist(geom.center, ref.center) <= 1e-8 * ref.radius, arc.edge
            assert abs(geom.radius - ref.radius) <= 1e-8 * ref.radius, arc.edge
            assert abs(geom.sweep - ref.sweep) <= 1e-12, arc.edge
    assert straight == 1 and curved > 1000


def test_lombardi_no_edges():
    g = Graph(3)
    pos, arcs = layout_lombardi(g, uniform_mass(g), LayoutConfig(seed=1, max_iterations=50))
    assert pos.shape == (3, 2)
    assert arcs == []


def test_lombardi_k2_straight():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(gamma_max=0.0, seed=2)
    pos, arcs = layout_lombardi(g, uniform_mass(g), cfg)
    assert len(arcs) == 1
    assert arcs[0].straight


def test_lombardi_triangle_bows_outward():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cfg = LayoutConfig(gamma_max=0.0, seed=3)
    pos, arcs = layout_lombardi(g, uniform_mass(g), cfg)
    center = pos.mean(axis=0)

    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    for arc in arcs:
        u, v = arc.edge
        pu, pv = pos[u], pos[v]
        chord = pv - pu
        # side of the chord away from the triangle center
        side_center = cross2(chord, center - pu)
        side_control = cross2(chord, np.asarray(arc.control) - pu)
        assert side_control * side_center < 0, "control point must lie outside the chord"


def test_lombardi_preserves_original_positions_bitwise():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=5, max_iterations=400)
    plain = run_layout(g, mass, cfg)
    pos, arcs = layout_lombardi(g, mass, cfg)
    assert np.array_equal(pos, plain)


def test_lombardi_arcs_pass_through_endpoints():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    cfg = LayoutConfig(seed=6, max_iterations=600)
    pos, arcs = layout_lombardi(g, uniform_mass(g), cfg)
    tol = 1e-6 * cfg.k
    for arc in arcs:
        if arc.straight:
            continue
        geom = arc.geometry
        for p in (arc.p_u, arc.p_v, arc.control):
            dist = math.hypot(p[0] - geom.center[0], p[1] - geom.center[1])
            assert abs(dist - geom.radius) <= tol


def test_lombardi_deterministic():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=7, max_iterations=300)
    pos1, arcs1 = layout_lombardi(g, mass, cfg)
    pos2, arcs2 = layout_lombardi(g, mass, cfg)
    assert np.array_equal(pos1, pos2)
    assert arcs1 == arcs2


@pytest.mark.parametrize("n, seed", LOMBARDI_TREES)
def test_tangent_arcs_beat_straight_edges(n, seed):
    # The tangent gap is measured on the drawn arcs, sampled next to each
    # end, and must fall below the gap of the same drawing's straight edges;
    # no arc is the long way round a circle.
    g, pos, arcs = lombardi_tree(n, seed)
    assert tangent_gap(g, pos, arcs) < tangent_gap(g, pos)
    assert all(abs(a.geometry.sweep) <= math.pi for a in arcs if not a.straight)
