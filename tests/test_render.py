import functools
import math
import re
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from gravlayout import (
    Graph,
    LayoutConfig,
    RenderError,
    arc_geometry,
    compute_centrality,
    layout_lombardi,
    normalize_mass,
    render_svg,
)
from conftest import LOMBARDI_TREES, fresh_python, lombardi_tree
from gravlayout import render
from oracles import fills_reference, not_numbers

SVG_NS = "{http://www.w3.org/2000/svg}"


def count_tags(svg, tag):
    root = ET.fromstring(svg)
    return len(list(root.iter(SVG_NS + tag)))


def fills(values):
    """The circle fills render_svg gives one vertex per value, on a line."""
    n = len(values)
    svg = render_svg(Graph(n), [(80.0 * i, 0.0) for i in range(n)], values)
    return [c.attrib["fill"] for c in ET.fromstring(svg).iter(SVG_NS + "circle")]


def test_color_endpoints_and_midpoint():
    assert fills([0.0, 1.0, 0.5]) == ["#0000ff", "#ff0000", "#800080"]
    assert fills(np.array([2, -6, -2])) == ["#ff0000", "#0000ff", "#800080"]


def test_color_clamps_and_degenerate_range():
    # lo and hi are the values' own extremes, so t never leaves [0, 1], even
    # when hi - lo overflows the float range.
    assert fills([3.0, 3.0]) == fills([-0.0, 0.0]) == ["#ff0000"] * 2
    assert fills([-1e308, 0.0, 1e308, 5e-324]) == ["#0000ff", "#800080", "#ff0000", "#800080"]
    assert fills([-1.7e308, 1.7e308, 0.0]) == ["#0000ff", "#ff0000", "#800080"]


def test_color_monotone():
    values = np.linspace(-0.2, 1.2, 57)
    rb = [(int(f[1:3], 16), int(f[5:7], 16)) for f in fills(values)]
    for (r0, b0), (r1, b1) in zip(rb, rb[1:]):
        assert r1 >= r0
        assert b1 <= b0


def test_color_validation():
    # Every fill is #RR00BB with R + B 255, or 256 where both round up from
    # a half (the midpoint #800080), whatever the spread.
    rng = np.random.default_rng(4)
    for scale in (1e-300, 1.0, 1e300):
        for f in fills(np.append(rng.normal(size=40), [-1.0, 0.0, 1.0]) * scale):
            assert re.fullmatch("#[0-9a-f]{2}00[0-9a-f]{2}", f)
            assert int(f[1:3], 16) + int(f[5:7], 16) in (255, 256)


def test_render_fills_match_scalar_reference():
    rng = np.random.default_rng(35)
    cases = [[], [7.5], [0.25] * 5, [-3.0, -1.0, -2.0], [0.0, 1e-300, 1e300]]
    for _ in range(100):
        n = int(rng.integers(1, 30))
        cases += [
            rng.integers(0, 4, n).tolist(),
            rng.normal(size=n) * 10.0 ** rng.integers(-5, 6),
            np.full(n, rng.normal()),
            -rng.exponential(size=n),
            rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
        ]
    for values in cases:
        assert fills(values) == fills_reference(list(values)), values


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
    pos, sweeps = layout_lombardi(g, normalize_mass(compute_centrality(g, "uniform")), cfg)
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
    pos, sweeps = layout_lombardi(g, normalize_mass(compute_centrality(g, "uniform")), cfg)
    svg = render_svg(g, pos, sweeps=sweeps)
    curved = np.count_nonzero(sweeps)
    assert curved > 0
    assert count_tags(svg, "path") == curved
    assert count_tags(svg, "line") == 3 - curved
    for path in ET.fromstring(svg).iter(SVG_NS + "path"):
        assert " A " in path.attrib["d"]


@pytest.mark.parametrize("sweep, curved", [(1e-320, False), (4.7e-307, False), (1e-200, False), (1e-17, True)])
def test_render_draws_an_arc_whose_circle_overflows_as_its_chord(sweep, curved):
    # On a chord of 80, a sweep of 1e-320 wrote A inf inf, 4.7e-307 a viewBox
    # 300 digits tall, both with RuntimeWarnings, and 1e-200 a circle of
    # radius 8e201: the cot or the squared radius overflows, and the arc is
    # drawn as its chord. 1e-17, of radius 8e18, is still an arc.
    g = Graph.from_edges(2, [(0, 1)])
    pos = [(0, 0), (80, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_svg(g, pos, sweeps=[sweep])
        _, centers, radii = arc_geometry(pos, g, [sweep])
    assert (count_tags(svg, "path"), count_tags(svg, "line")) == ((1, 0) if curved else (0, 1))
    assert not re.search(r"\b(inf|nan|infinity)\b", svg, re.IGNORECASE)
    assert np.isfinite(radii[0]) == curved and np.isfinite(centers[0]).all() == curved


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
    for values, want in (([1.0, 0.0], ["#ff0000", "#0000ff"]), (None, ["#5b7db1"] * 2)):
        svg = render_svg(g, [(0, 0), (80, 0)], values=values)
        assert [c.attrib["fill"] for c in ET.fromstring(svg).iter(SVG_NS + "circle")] == want


def test_render_rejects_non_finite():
    g = Graph.from_edges(2, [(0, 1)], labels=("a", "b"))
    with pytest.raises(RenderError, match="vertex b"):
        render_svg(g, [(0, 0), (float("nan"), 0)])


def test_render_rejects_values_not_one_per_vertex():
    # A short color list raised IndexError partway through the body.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    pos = [(0, 0), (80, 0), (160, 0)]
    for values in ([], [1.0] * 2, [1.0] * 4, np.ones((3, 1)), np.ones((1, 3)), 1.0, np.float64(1.0)):
        with pytest.raises(RenderError, match="values must hold 3 finite numbers"):
            render_svg(g, pos, values)
    assert count_tags(render_svg(g, pos, [1.0] * 3), "circle") == 3


def test_render_rejects_values_that_are_not_finite_numbers():
    # A string or None entry in a color list raised AttributeError on its missing .css.
    g = Graph.from_edges(2, [(0, 1)])
    pos = [(0, 0), (80, 0)]
    bad = [["red", "blue"], "rb", [0.0, None], [True, 1.0], [0.0, math.nan], [0.0, math.inf], [-math.inf, 1]]
    for values in bad + not_numbers([0.0, 1.0]) + [np.array([0.0, np.nan])]:
        with pytest.raises(RenderError, match="values must hold 2 finite numbers"):
            render_svg(g, pos, values)


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
