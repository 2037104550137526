import functools
import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from gravlayout import (
    Color,
    Graph,
    LayoutConfig,
    RenderError,
    arc_geometry,
    color_for,
    layout_lombardi,
    normalize_mass,
    render_svg,
    uniform_centrality,
)
from conftest import LOMBARDI_TREES, fresh_python, lombardi_tree
from gravlayout import render
from oracles import not_numbers

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


def test_render_straight_sweep_matches_line_rendering():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(gamma_max=0.0, seed=2)
    pos, sweeps = layout_lombardi(g, normalize_mass(uniform_centrality(g)), cfg)
    assert sweeps.tolist() == [0.0]
    with_arcs = render_svg(g, pos, sweeps=sweeps)
    plain = render_svg(g, pos)
    assert count_tags(with_arcs, "line") == 1
    assert ET.fromstring(with_arcs).find(f".//{SVG_NS}line").attrib == ET.fromstring(
        plain
    ).find(f".//{SVG_NS}line").attrib


def test_render_curved_arcs_use_paths():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cfg = LayoutConfig(gamma_max=0.0, seed=3)
    pos, sweeps = layout_lombardi(g, normalize_mass(uniform_centrality(g)), cfg)
    svg = render_svg(g, pos, sweeps=sweeps)
    curved = np.count_nonzero(sweeps)
    assert curved > 0
    assert count_tags(svg, "path") == curved
    assert count_tags(svg, "line") == 3 - curved
    for path in ET.fromstring(svg).iter(SVG_NS + "path"):
        assert " A " in path.attrib["d"]


@pytest.mark.parametrize(
    "sweeps",
    [[0.5], [0.5, 0.5, 0.5], [0.5, math.nan], [math.inf, 0.5], [[0.5, 0.5]], [7.0, 0.5], *not_numbers([0.5, 0.5])],
)
def test_render_rejects_sweeps_not_one_finite_number_per_edge(sweeps):
    # One sweep per edge, finite and short of a full turn: arcs of another
    # graph's length were drawn before, and a bool sweep as one radian.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(RenderError, match="sweeps must hold 2 finite numbers"):
        render_svg(g, [(0, 0), (80, 0), (80, 80)], sweeps=sweeps)


def test_render_arc_starts_at_its_vertex():
    # Each arc is drawn from positions: shifting the drawing shifts every
    # path's start onto its first vertex's new position.
    g, pos, sweeps = lombardi_tree(*LOMBARDI_TREES[0])
    moved = pos + 500.0
    svg = render_svg(g, moved, sweeps=sweeps, k=LayoutConfig().k)
    paths = [p.attrib["d"].split() for p in ET.fromstring(svg).iter(SVG_NS + "path")]
    curved = np.flatnonzero(sweeps)
    assert len(paths) == curved.size > 0
    for e, tokens in zip(curved.tolist(), paths):
        u, v = g.edges[e]
        assert tokens[1:3] == [render._fmt(x) for x in moved[u]]
        assert tokens[-2:] == [render._fmt(x) for x in moved[v]]


def test_render_colors_applied():
    g = Graph.from_edges(2, [(0, 1)])
    svg = render_svg(g, [(0, 0), (80, 0)], colors=[Color(255, 0, 0), Color(0, 0, 255)])
    fills = [c.attrib["fill"] for c in ET.fromstring(svg).iter(SVG_NS + "circle")]
    assert fills == ["#ff0000", "#0000ff"]


def test_render_rejects_non_finite():
    g = Graph.from_edges(2, [(0, 1)], labels=("a", "b"))
    with pytest.raises(RenderError, match="vertex b"):
        render_svg(g, [(0, 0), (float("nan"), 0)])


def test_render_rejects_colors_not_one_per_vertex():
    # A short list raised IndexError partway through the body.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = [(0, 0), (80, 0), (160, 0)]
    for colors in ([], [Color(255, 0, 0)] * 2, [Color(255, 0, 0)] * 4):
        with pytest.raises(RenderError, match="colors for 3 vertices"):
            render_svg(g, pos, colors)
    assert count_tags(render_svg(g, pos, [Color(255, 0, 0)] * 3), "circle") == 3


def test_render_rejects_colors_that_are_not_colors():
    # A string or None entry raised AttributeError on its missing .css.
    g = Graph.from_edges(2, [(0, 1)])
    pos = [(0, 0), (80, 0)]
    for colors in (["red", "blue"], [Color(255, 0, 0), None], [(255, 0, 0), Color(0, 0, 255)]):
        with pytest.raises(RenderError, match="not a Color"):
            render_svg(g, pos, colors)


@pytest.mark.parametrize(
    "k", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf, True, "80", None, pytest.param(10**400, id="10**400")]
)
def test_render_rejects_k_not_positive_finite(k):
    # k -1 wrote a negative circle radius and k nan a viewBox of nan; k True
    # drew with k = 1, k "80" raised TypeError, and k 10**400, below inf as
    # an int, raised OverflowError at 0.05 * k.
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(RenderError, match="k must be a positive finite number"):
        render_svg(g, [(0, 0), (80, 0)], k=k)


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


@pytest.mark.parametrize(
    "bad",
    ["\x00", "a\x01b", "\x0b", "\x0c", "\x1f", "\ud800", "x\udfff", "\ufffe", "\uffff"],
    ids=lambda s: s.encode("unicode_escape").decode(),
)
def test_render_rejects_labels_xml_cannot_hold(bad):
    # XML 1.0 has no way to write these characters, escaped or not, so the
    # document would not parse; the error names the vertex by its index.
    g = Graph.from_edges(2, [(0, 1)], labels=("ok", bad))
    with pytest.raises(RenderError, match="vertex 1"):
        render_svg(g, [(0, 0), (80, 0)], show_labels=True)
    assert count_tags(render_svg(g, [(0, 0), (80, 0)]), "circle") == 2


def test_render_labels_keep_every_legal_character():
    labels = ("a\tb", "\x7f\x85\ud7ff", "\ue000\ufffd\U00010000\U0010ffff", " ")
    g = Graph(4, labels=labels)
    svg = render_svg(g, np.zeros((4, 2)) + np.arange(4)[:, None], show_labels=True)
    assert tuple(t.text for t in ET.fromstring(svg).iter(SVG_NS + "text")) == labels


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
    script = "import sys, gravlayout, gravlayout.cli; print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"
    assert fresh_python(script).strip() == "[]"


def test_render_deterministic_bytes():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = [(0.12345, 1.9), (50.0, -3.25), (90.0, 40.0)]
    assert render_svg(g, pos) == render_svg(g, pos)


@functools.lru_cache(maxsize=None)
def lombardi_svg(n, seed):
    """conftest's default Lombardi drawing, its arcs' midpoints, centers
    and radii, and its SVG."""
    g, pos, sweeps = lombardi_tree(n, seed)
    geometry = arc_geometry(pos, g, sweeps)
    return g, pos, sweeps, geometry, render_svg(g, pos, sweeps=sweeps, k=LayoutConfig().k)


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def arc_samples(u, v, d, center, radius, count=721):
    """count points along the arc from u to v through d on the circle of the
    given center and radius; the direction comes from which side of the
    chord d lies on."""
    theta_u = math.atan2(u[1] - center[1], u[0] - center[0])
    theta_v = math.atan2(v[1] - center[1], v[0] - center[0])
    if cross(d - u, v - u) > 0:
        sweep = (theta_v - theta_u) % (2 * math.pi)
    else:
        sweep = -((theta_u - theta_v) % (2 * math.pi))
    angles = theta_u + sweep * np.linspace(0.0, 1.0, count)
    return center + radius * np.column_stack([np.cos(angles), np.sin(angles)])


def curved_arcs(n, seed):
    """(edge, u, v, midpoint, center, radius) of each curved arc of
    lombardi_svg(n, seed), in edge order."""
    g, pos, sweeps, (midpoints, centers, radii), _ = lombardi_svg(n, seed)
    for e in np.flatnonzero(sweeps).tolist():
        u, v = g.edges[e]
        yield (u, v), pos[u], pos[v], midpoints[e], centers[e], radii[e]


@pytest.mark.parametrize("n, seed", LOMBARDI_TREES)
def test_viewbox_contains_every_arc(n, seed):
    # An arc's axis extremes can lie past both endpoints and its midpoint,
    # so the viewBox must hold every sampled point, not just those.
    svg = lombardi_svg(n, seed)[-1]
    x, y, w, h = (float(t) for t in ET.fromstring(svg).attrib["viewBox"].split())
    # the group flips y, so drawing y spans [-(y + h), -y]
    lo, hi = np.array([x, -(y + h)]), np.array([x + w, -y])
    tol = 1e-3
    for edge, u, v, d, center, radius in curved_arcs(n, seed):
        pts = arc_samples(u, v, d, center, radius)
        assert np.allclose(pts[[0, -1]], [u, v])
        assert (pts >= lo - tol).all() and (pts <= hi + tol).all(), edge


def test_arc_flags_match_chord_oracle():
    # Trig-free oracle: the arc through the midpoint d is the large one when
    # the angle u-d-v is acute, and turns counter-clockwise when d lies right
    # of the chord u -> v. A right angle at d is a semicircle, where rounding
    # may pick either large flag, so such arcs are skipped; none is here.
    checked = skipped = 0
    for n, seed in LOMBARDI_TREES:
        svg = lombardi_svg(n, seed)[-1]
        curved = list(curved_arcs(n, seed))
        paths = [p.attrib["d"].split() for p in ET.fromstring(svg).iter(SVG_NS + "path")]
        assert len(paths) == len(curved)
        for (edge, u, v, d, _, _), tokens in zip(curved, paths):
            large, sweep = int(tokens[7]), int(tokens[8])
            dot = float(np.dot(u - d, v - d))
            if abs(dot) <= 1e-9 * np.linalg.norm(u - d) * np.linalg.norm(v - d):
                skipped += 1
                continue
            assert large == int(dot > 0), edge
            assert sweep == int(cross(d - u, v - u) > 0), edge
            checked += 1
    assert checked > 1000 and skipped < 10
