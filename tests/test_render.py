import functools
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from gravlayout import (
    Color,
    Graph,
    LayoutConfig,
    RenderError,
    Schedule,
    color_for,
    degree_centrality,
    generate_random_tree,
    layout_lombardi,
    normalize_mass,
    render_svg,
    uniform_centrality,
)
from conftest import SRC
from gravlayout import render

SVG_NS = "{http://www.w3.org/2000/svg}"


def count_tags(svg, tag):
    root = ET.fromstring(svg)
    return len(list(root.iter(SVG_NS + tag)))


def test_color_endpoints_and_midpoint():
    assert color_for(0.0, 0.0, 1.0) == Color(0, 0, 255)
    assert color_for(1.0, 0.0, 1.0) == Color(255, 0, 0)
    assert color_for(0.5, 0.0, 1.0) == Color(128, 0, 128)


def test_color_clamps_and_degenerate_range():
    assert color_for(-5.0, 0.0, 1.0) == Color(0, 0, 255)
    assert color_for(9.0, 0.0, 1.0) == Color(255, 0, 0)
    assert color_for(3.0, 2.0, 2.0) == Color(255, 0, 0)
    with pytest.raises(ValueError):
        color_for(0.0, 1.0, 0.0)


def test_color_monotone():
    values = np.linspace(-0.2, 1.2, 57)
    colors = [color_for(v, 0.0, 1.0) for v in values]
    for a, b in zip(colors, colors[1:]):
        assert b.r >= a.r
        assert b.b <= a.b


def test_color_validation():
    with pytest.raises(ValueError):
        Color(-1, 0, 0)
    with pytest.raises(ValueError):
        Color(0, 300, 0)


def test_render_k2_counts():
    g = Graph.from_edges(2, [(0, 1)])
    svg = render_svg(g, [(0, 0), (80, 0)])
    assert svg.startswith("<?xml")
    assert count_tags(svg, "line") == 1
    assert count_tags(svg, "circle") == 2
    assert count_tags(svg, "path") == 0


def test_render_counts_match_graph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    pos = np.random.default_rng(1).uniform(-100, 100, (5, 2))
    svg = render_svg(g, pos)
    assert count_tags(svg, "circle") == 5
    assert count_tags(svg, "line") == 5


def test_render_empty_graph_valid():
    svg = render_svg(Graph(0), np.empty((0, 2)))
    root = ET.fromstring(svg)
    assert root.tag == SVG_NS + "svg"
    assert count_tags(svg, "circle") == 0


def test_render_straight_arcedge_matches_line_rendering():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(schedule=Schedule.NONE, seed=2)
    pos, arcs = layout_lombardi(g, normalize_mass(uniform_centrality(g)), cfg)
    assert arcs[0].straight
    with_arcs = render_svg(g, pos, arcs=arcs)
    plain = render_svg(g, pos)
    assert count_tags(with_arcs, "line") == 1
    assert ET.fromstring(with_arcs).find(f".//{SVG_NS}line").attrib == ET.fromstring(
        plain
    ).find(f".//{SVG_NS}line").attrib


def test_render_curved_arcs_use_paths():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cfg = LayoutConfig(schedule=Schedule.NONE, seed=3)
    pos, arcs = layout_lombardi(g, normalize_mass(uniform_centrality(g)), cfg)
    svg = render_svg(g, pos, arcs=arcs)
    curved = sum(not a.straight for a in arcs)
    assert count_tags(svg, "path") == curved
    assert count_tags(svg, "line") == 3 - curved
    for path in ET.fromstring(svg).iter(SVG_NS + "path"):
        assert " A " in path.attrib["d"]


def test_render_colors_applied():
    g = Graph.from_edges(2, [(0, 1)])
    svg = render_svg(g, [(0, 0), (80, 0)], colors=[Color(255, 0, 0), Color(0, 0, 255)])
    fills = [c.attrib["fill"] for c in ET.fromstring(svg).iter(SVG_NS + "circle")]
    assert fills == ["#ff0000", "#0000ff"]


def test_render_rejects_non_finite():
    g = Graph.from_edges(2, [(0, 1)], labels=("a", "b"))
    with pytest.raises(RenderError, match="vertex b"):
        render_svg(g, [(0, 0), (float("nan"), 0)])


@pytest.mark.parametrize("shape", [(2, 3), (6,), (3, 3), (2, 2)])
def test_render_rejects_wrong_shape(shape):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(RenderError, match="shape"):
        render_svg(g, np.arange(float(np.prod(shape))).reshape(shape))


def test_render_labels_escaped():
    g = Graph.from_edges(2, [(0, 1)], labels=("a<b", "x&y"))
    svg = render_svg(g, [(0, 0), (80, 0)], show_labels=True)
    texts = [t.text for t in ET.fromstring(svg).iter(SVG_NS + "text")]
    assert texts == ["a<b", "x&y"]


def test_label_escape_matches_saxutils():
    rng = np.random.default_rng(49)
    alphabet = list("ab&<>;\"' \u00e9x")
    for _ in range(300):
        label = "".join(rng.choice(alphabet, int(rng.integers(0, 12))))
        assert render._escape(label) == escape(label)
    g = Graph.from_edges(3, [(0, 1), (1, 2)], labels=("&lt;", "a>b<c", "\"q\" & 'r'"))
    svg = render_svg(g, [(0, 0), (80, 0), (0, 80)], show_labels=True)
    for label in g.labels:
        assert f">{escape(label)}</text>" in svg


def test_import_skips_network_modules():
    # xml.sax.saxutils loads urllib.request and http.client: tens of ms of
    # start-up in every CLI process.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    script = "import sys, gravlayout, gravlayout.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_render_deterministic_bytes():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = [(0.12345, 1.9), (50.0, -3.25), (90.0, 40.0)]
    assert render_svg(g, pos) == render_svg(g, pos)


@functools.lru_cache(maxsize=None)
def lombardi_tree(n, seed):
    """Default Lombardi drawing of a random tree with degree mass, and its SVG."""
    g = generate_random_tree(n, seed=seed)
    cfg = LayoutConfig(seed=seed)
    pos, arcs = layout_lombardi(g, normalize_mass(degree_centrality(g)), cfg)
    return arcs, render_svg(g, pos, arcs=arcs, k=cfg.k)


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def arc_samples(arc, count=721):
    """count points along the arc from p_u to p_v through the control; the
    direction comes from which side of the chord the control lies on."""
    u, v, d = (np.asarray(p, dtype=float) for p in (arc.p_u, arc.p_v, arc.control))
    c = np.asarray(arc.geometry.center)
    theta_u = math.atan2(u[1] - c[1], u[0] - c[0])
    theta_v = math.atan2(v[1] - c[1], v[0] - c[0])
    if cross(d - u, v - u) > 0:
        sweep = (theta_v - theta_u) % (2 * math.pi)
    else:
        sweep = -((theta_u - theta_v) % (2 * math.pi))
    angles = theta_u + sweep * np.linspace(0.0, 1.0, count)
    return c + arc.geometry.radius * np.column_stack([np.cos(angles), np.sin(angles)])


LOMBARDI_TREES = [(n, seed) for n in (70, 126, 174) for seed in range(4)]


@pytest.mark.parametrize("n, seed", LOMBARDI_TREES)
def test_viewbox_contains_every_arc(n, seed):
    # An arc can run far beyond every vertex and its own control: at n = 126,
    # seed 3 one reaches about 79,000 units past them.
    arcs, svg = lombardi_tree(n, seed)
    x, y, w, h = (float(t) for t in ET.fromstring(svg).attrib["viewBox"].split())
    # the group flips y, so drawing y spans [-(y + h), -y]
    lo, hi = np.array([x, -(y + h)]), np.array([x + w, -y])
    tol = 1e-3
    for arc in arcs:
        if arc.straight:
            continue
        pts = arc_samples(arc)
        assert np.allclose(pts[[0, -1]], [arc.p_u, arc.p_v])
        assert (pts >= lo - tol).all() and (pts <= hi + tol).all(), arc.edge


def test_arc_flags_match_chord_oracle():
    # Trig-free oracle: the arc through the control d is the large one when
    # the angle u-d-v is acute, and turns counter-clockwise when d lies right
    # of the chord u -> v. A right angle at d is a semicircle, where rounding
    # may pick either large flag, so such arcs are skipped; none is here.
    checked = skipped = 0
    for n, seed in LOMBARDI_TREES:
        arcs, svg = lombardi_tree(n, seed)
        curved = [a for a in arcs if not a.straight]
        paths = [p.attrib["d"].split() for p in ET.fromstring(svg).iter(SVG_NS + "path")]
        assert len(paths) == len(curved)
        for arc, tokens in zip(curved, paths):
            large, sweep = int(tokens[7]), int(tokens[8])
            u, v, d = (np.asarray(p, dtype=float) for p in (arc.p_u, arc.p_v, arc.control))
            dot = float(np.dot(u - d, v - d))
            if abs(dot) <= 1e-9 * np.linalg.norm(u - d) * np.linalg.norm(v - d):
                skipped += 1
                continue
            assert large == int(dot > 0), arc.edge
            assert sweep == int(cross(d - u, v - u) > 0), arc.edge
            checked += 1
    assert checked > 1000 and skipped < 10
