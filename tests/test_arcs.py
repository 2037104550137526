import math

import numpy as np
import pytest

from gravlayout import (
    Graph,
    LayoutConfig,
    Schedule,
    augment_with_dummies,
    degree_centrality,
    fit_arc,
    generate_random_tree,
    layout_lombardi,
    normalize_mass,
    run_layout,
    uniform_centrality,
)
from gravlayout import engine


def uniform_mass(g):
    return normalize_mass(uniform_centrality(g))


def test_augment_k2():
    g = Graph.from_edges(2, [(0, 1)])
    aug, mapping = augment_with_dummies(g)
    assert aug.vertex_count == 3
    assert aug.edge_count == 2
    assert mapping == {(0, 1): 2}


def test_augment_triangle():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    aug, mapping = augment_with_dummies(g)
    assert aug.vertex_count == 6
    assert aug.edge_count == 6
    assert set(mapping.values()) == {3, 4, 5}
    # every original edge is replaced by a two-edge path through its dummy
    for (u, v), d in mapping.items():
        assert (min(u, d), max(u, d)) in aug.edges
        assert (min(v, d), max(v, d)) in aug.edges


def test_augment_empty():
    g = Graph(4)
    aug, mapping = augment_with_dummies(g)
    assert aug.vertex_count == 4
    assert aug.edge_count == 0
    assert mapping == {}


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


def test_lombardi_no_edges():
    g = Graph(3)
    pos, arcs = layout_lombardi(g, uniform_mass(g), LayoutConfig(seed=1, max_iterations=50))
    assert pos.shape == (3, 2)
    assert arcs == []


def test_lombardi_k2_straight():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(schedule=Schedule.NONE, seed=2)
    pos, arcs = layout_lombardi(g, uniform_mass(g), cfg)
    assert len(arcs) == 1
    assert arcs[0].straight


def test_lombardi_triangle_bows_outward():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cfg = LayoutConfig(schedule=Schedule.NONE, seed=3)
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


def test_dummy_phase_settles_within_block_len(monkeypatch):
    # Cooling whenever the energy is not below the previous iteration's lets
    # the heat lock into a cycle: on half of these trees the dummy phase then
    # ran all 3000 iterations. Compared with the level's lowest energy, every
    # dummy phase here settles within block_len iterations. It must also
    # leave the frozen original vertices where the main layout put them:
    # layout_lombardi returns the main layout's positions, so only the dummy
    # phase's own final positions can show a frozen vertex moving.
    last = []
    next_state = engine._next_state

    def recording(state, *args):
        last[:] = [next_state(state, *args)]
        return last[0]

    monkeypatch.setattr(engine, "_next_state", recording)
    for seed in range(10):
        g = generate_random_tree(126, seed=seed)
        cfg = LayoutConfig(seed=seed)
        pos, arcs = layout_lombardi(g, normalize_mass(degree_centrality(g)), cfg)
        dummy_phase = last[0]  # the last engine run is the dummy phase
        assert dummy_phase.positions.shape[0] == g.vertex_count + g.edge_count
        assert dummy_phase.positions[: g.vertex_count].tobytes() == pos.tobytes()
        assert dummy_phase.last_max_impulse < cfg.equilibrium_eps
        assert dummy_phase.t <= cfg.block_len
