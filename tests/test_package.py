"""The package's public names, and the README's library example run as written."""

import re
import xml.etree.ElementTree as ET
from pathlib import Path

import gravlayout
from gravlayout import generate_random_tree, serialize_edge_list

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "arc_geometry", "layout_lombardi",
    "CENTRALITY_KINDS", "DEFAULT_MASS_FLOOR", "CentralityVector", "MassVector", "compute_centrality",
    "normalize_mass",
    "LayoutConfig", "LayoutState", "initialize_positions", "run_layout", "step", "terminal_gamma",
    "generate_forest", "generate_random_tree",
    "Graph", "GraphParseError", "connected_components", "parse_edge_list", "parse_graph_json",
    "serialize_edge_list", "serialize_graph_json",
    "DrawingMetrics", "bounding_area", "centrality_radius_correlation", "compute_metrics", "count_crossings",
    "edge_length_stats", "min_angular_resolution", "spearman",
    "Color", "RenderError", "color_for", "render_svg",
}

# compute_centrality(g, kind) replaces the four per-kind functions; the
# engine's level and stop rules are private; nothing used the BFS distances.
REMOVED = (
    "degree_centrality", "closeness_centrality", "betweenness_centrality", "uniform_centrality",
    "schedule_gamma", "settled",
    "bfs_distances", "DistanceVector", "UNREACHABLE",
)


def test_public_names():
    assert len(gravlayout.__all__) == len(PUBLIC) == 35
    assert set(gravlayout.__all__) == PUBLIC
    assert all(hasattr(gravlayout, name) for name in gravlayout.__all__)
    assert [name for name in REMOVED if hasattr(gravlayout, name)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    g = generate_random_tree(30, seed=2)
    (tmp_path / "tree.edges").write_text(serialize_edge_list(g))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(snippet, scope)
    assert scope["positions"].shape == scope["constant"].shape == (30, 2)
    assert scope["metrics"].crossings >= 0
    assert ET.fromstring(scope["svg"]).tag == "{http://www.w3.org/2000/svg}svg"
