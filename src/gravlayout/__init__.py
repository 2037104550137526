"""Force-directed graph layout with centrality-weighted gravity.

The simulation combines pairwise repulsion, spring attraction along edges,
and a gravitational pull toward the drawing centroid whose per-vertex
strength comes from network centrality. A run starts from an untangled
radial drawing, and gravity is scaled up over the run to compact it. Includes
drawing-quality metrics, random tree/forest generators, a circular-arc
edge post-pass, and an SVG renderer.
"""

from .arcs import arc_geometry, layout_lombardi
from .centrality import (
    CENTRALITY_KINDS,
    DEFAULT_MASS_FLOOR,
    CentralityVector,
    MassVector,
    compute_centrality,
    normalize_mass,
)
from .engine import (
    LayoutConfig,
    LayoutState,
    initialize_positions,
    run_layout,
    step,
    terminal_gamma,
)
from .generators import generate_forest, generate_random_tree
from .graphs import (
    Graph,
    GraphParseError,
    connected_components,
    parse_edge_list,
    parse_graph_json,
    serialize_edge_list,
    serialize_graph_json,
)
from .metrics import (
    DrawingMetrics,
    bounding_area,
    centrality_radius_correlation,
    compute_metrics,
    count_crossings,
    edge_length_stats,
    min_angular_resolution,
    spearman,
)
from .render import Color, RenderError, color_for, render_svg

__version__ = "0.1.0"

__all__ = [
    "arc_geometry",
    "layout_lombardi",
    "CENTRALITY_KINDS",
    "DEFAULT_MASS_FLOOR",
    "CentralityVector",
    "MassVector",
    "compute_centrality",
    "normalize_mass",
    "LayoutConfig",
    "LayoutState",
    "initialize_positions",
    "run_layout",
    "step",
    "terminal_gamma",
    "generate_forest",
    "generate_random_tree",
    "Graph",
    "GraphParseError",
    "connected_components",
    "parse_edge_list",
    "parse_graph_json",
    "serialize_edge_list",
    "serialize_graph_json",
    "DrawingMetrics",
    "bounding_area",
    "centrality_radius_correlation",
    "compute_metrics",
    "count_crossings",
    "edge_length_stats",
    "min_angular_resolution",
    "spearman",
    "Color",
    "RenderError",
    "color_for",
    "render_svg",
]
