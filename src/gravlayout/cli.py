"""Command-line front end: layout runs, graph generators, and metrics reports."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .arcs import layout_lombardi
from .centrality import CENTRALITY_KINDS, DEFAULT_MASS_FLOOR, compute_centrality, normalize_mass
from .engine import LayoutConfig, Schedule, check_positions, run_layout
from .generators import generate_forest, generate_random_tree
from .graphs import Graph, GraphParseError, parse_edge_list, parse_graph_json, serialize_edge_list
from .metrics import compute_metrics
from .render import color_for, render_svg

# The layout flags, in the order the report's config echo lists them: the
# argparse dest (also the echo key), the LayoutConfig field it sets (None for
# --mass-floor, which goes to normalize_mass) and its help. Defaults and
# types come from LayoutConfig(), so they are written down only there.
LAYOUT_FLAGS = {
    "k": ("k", "natural edge length"),
    "imax": ("i_max", "impulse magnitude cap"),
    "sigma": ("sigma", "displacement scale"),
    "gamma_max": ("gamma_max", "gravity cap of the stepped schedules"),
    "schedule": ("schedule", "how gravity grows over the run"),
    "gamma": ("gamma_const", "gravity level for --schedule constant"),
    "block": ("block_len", "iterations per gravity step"),
    "gamma_step": ("gamma_step", "gravity increment per step"),
    "eps": ("equilibrium_eps", "equilibrium impulse tolerance"),
    "max_iterations": ("max_iterations", "iteration budget"),
    "seed": ("seed", "seed of the initial positions and the jitter"),
    "mass_floor": (None, "smallest vertex mass; masses have mean 1"),
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "auto":
        fmt = "json" if path.endswith(".json") or text.lstrip().startswith("{") else "edges"
    if fmt == "json":
        return parse_graph_json(text)
    return parse_edge_list(text)


def _parse_positions(text: str) -> np.ndarray:
    """The (n, 2) float array of a positions file {"positions": [[x, y], ...]}.
    Coordinates must be finite JSON numbers: strings, booleans, NaN and
    numbers beyond the float range are rejected."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("positions file is nested too deeply") from None
    rows = payload.get("positions") if isinstance(payload, dict) else None
    # Each row a list of two JSON numbers (a bool is not one); map keeps the loops in C.
    if not (
        isinstance(rows, list)
        and set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {2}
        and set(map(type, chain.from_iterable(rows))) <= {int, float}
    ):
        raise ValueError('positions file must be an object {"positions": [[x, y], ...]} of numbers')
    try:
        positions = np.array(rows, dtype=float).reshape(len(rows), 2)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("positions must be finite") from None
    return check_positions(positions)


def _build_config(args: argparse.Namespace) -> LayoutConfig:
    """The LayoutConfig the layout flags set; an unset --gamma keeps its default."""
    values = {field: getattr(args, dest) for dest, (field, _) in LAYOUT_FLAGS.items() if field}
    values["schedule"] = Schedule(values["schedule"])
    return LayoutConfig(**{field: v for field, v in values.items() if v is not None})


def _resolved_config(args: argparse.Namespace) -> dict:
    return {
        "input": args.graph_in,
        "format": args.format,
        "centrality": args.centrality,
        **{dest: getattr(args, dest) for dest in LAYOUT_FLAGS},
        "lombardi": args.lombardi,
    }


def cmd_layout(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph_in, args.format)
    cent = compute_centrality(g, args.centrality)
    mass = normalize_mass(cent, args.mass_floor)
    config = _build_config(args)
    if args.lombardi:
        positions, arcs = layout_lombardi(g, mass, config)
    else:
        positions = run_layout(g, mass, config)
        arcs = None
    if args.svg:
        if g.vertex_count:
            lo = float(cent.values.min())
            hi = float(cent.values.max())
            colors = [color_for(float(v), lo, hi) for v in cent.values]
        else:
            colors = None
        svg = render_svg(g, positions, colors, arcs, k=args.k, show_labels=args.labels)
        _write_text(args.svg, svg)
    if args.metrics:
        report = compute_metrics(g, positions, cent).as_dict()
        report["config"] = _resolved_config(args)
        _write_text(args.metrics, json.dumps(report, indent=2) + "\n")
    if args.positions:
        payload = {"positions": [[float(x), float(y)] for x, y in np.asarray(positions)]}
        _write_text(args.positions, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_gen_tree(args: argparse.Namespace) -> int:
    g = generate_random_tree(args.n, args.seed)
    _write_text(args.out, serialize_edge_list(g))
    return 0


def cmd_gen_forest(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --sizes value {args.sizes!r}: {exc}") from exc
    g = generate_forest(sizes, args.seed)
    _write_text(args.out, serialize_edge_list(g))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph_in, args.format)
    positions = _parse_positions(_read_text(args.positions))
    cent = compute_centrality(g, args.centrality)
    report = compute_metrics(g, positions, cent).as_dict()
    report["config"] = {
        "input": args.graph_in,
        "format": args.format,
        "positions": args.positions,
        "centrality": args.centrality,
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="graph_in", required=True, help="input graph ('-' for stdin)")
    p.add_argument("--format", choices=("auto", "edges", "json"), default="auto")
    p.add_argument("--centrality", choices=CENTRALITY_KINDS, default="degree")


def _add_layout_flags(p: argparse.ArgumentParser) -> None:
    defaults = LayoutConfig()
    for dest, (field, text) in LAYOUT_FLAGS.items():
        default = getattr(defaults, field) if field else DEFAULT_MASS_FLOOR
        if isinstance(default, Schedule):
            spec = {"choices": [s.value for s in Schedule], "default": default.value}
        else:
            # --gamma stays None unless given: only --schedule constant uses it.
            spec = {"type": type(default), "default": None if dest == "gamma" else default}
        p.add_argument("--" + dest.replace("_", "-"), help=text, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravlayout",
        description="Force-directed graph layout with centrality-weighted gravity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_layout = sub.add_parser("layout", help="lay out a graph; write SVG and metrics")
    _add_input_flags(p_layout)
    _add_layout_flags(p_layout)
    p_layout.add_argument("--svg", help="write an SVG drawing here")
    p_layout.add_argument("--metrics", help="write a JSON metrics report here")
    p_layout.add_argument("--positions", help="write final positions as JSON here")
    p_layout.add_argument("--lombardi", action="store_true", help="circular-arc edge post-pass")
    p_layout.add_argument("--labels", action="store_true", help="draw vertex labels")
    p_layout.set_defaults(func=cmd_layout)

    p_tree = sub.add_parser("gen-tree", help="generate a uniform random tree")
    p_tree.add_argument("--n", type=int, required=True)
    p_tree.add_argument("--seed", type=int, default=0)
    p_tree.add_argument("--out", default="-")
    p_tree.set_defaults(func=cmd_gen_tree)

    p_forest = sub.add_parser("gen-forest", help="generate a random forest")
    p_forest.add_argument("--sizes", required=True, help="comma-separated component sizes")
    p_forest.add_argument("--seed", type=int, default=0)
    p_forest.add_argument("--out", default="-")
    p_forest.set_defaults(func=cmd_gen_forest)

    p_metrics = sub.add_parser("metrics", help="metrics report for an existing layout")
    _add_input_flags(p_metrics)
    p_metrics.add_argument("--positions", required=True, help="positions JSON from layout")
    p_metrics.add_argument("--out", default="-")
    p_metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "layout" and args.schedule == Schedule.CONSTANT.value and args.gamma is None:
        print("error: --schedule constant requires --gamma", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (GraphParseError, OSError, ValueError, OverflowError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
