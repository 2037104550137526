import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gravlayout import (
    Color,
    Graph,
    LayoutConfig,
    RenderError,
    Schedule,
    color_for,
    layout_lombardi,
    normalize_mass,
    render_svg,
    uniform_centrality,
)

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


def test_render_deterministic_bytes():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = [(0.12345, 1.9), (50.0, -3.25), (90.0, 40.0)]
    assert render_svg(g, pos) == render_svg(g, pos)
