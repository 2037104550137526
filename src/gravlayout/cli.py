"""Command-line front end: layout runs, graph generators, and metrics reports."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .arcs import layout_lombardi
from .centrality import CENTRALITY_KINDS, DEFAULT_MASS_FLOOR, compute_centrality, normalize_mass
from .engine import LEVEL_EPS, LayoutConfig, check_positions, run_layout
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
    "sigma": ("sigma", "displacement scale: a move is at most sigma * imax"),
    "gamma_max": ("gamma_max", "gravity level the run climbs to; 0 turns gravity off"),
    "block": ("block_len", "most iterations per gravity level"),
    "gamma_step": ("gamma_step", "gravity increment per level; at least --gamma-max holds gravity constant"),
    "eps": (
        "equilibrium_eps",
        f"longest move that counts as settled at --gamma-max; lower levels end at {LEVEL_EPS:g}x",
    ),
    "max_iterations": ("max_iterations", "iteration budget"),
    "seed": ("seed", "seed of the initial positions and the jitter"),
    "mass_floor": (None, "smallest vertex mass; masses have mean 1"),
}


def _read_text(path: str) -> str:
    """A file's UTF-8 text, or stdin's bytes as UTF-8 for '-', less one
    leading byte-order mark. Stdin is decoded here, not in the interpreter's
    I/O encoding, so a piped file reads as the same file given by path."""
    text = sys.stdin.buffer.read().decode("utf-8") if path == "-" else Path(path).read_text(encoding="utf-8")
    return text.removeprefix("\ufeff")


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
    """The (n, 2) float array of a positions file {"positions": [[x, y], ...]},
    read by check_positions: coordinates must be finite JSON numbers, so
    strings, booleans, NaN and numbers beyond the float range are rejected."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("positions file is nested too deeply") from None
    if not isinstance(payload, dict) or "positions" not in payload:
        raise ValueError('positions file must be an object {"positions": [[x, y], ...]} of numbers')
    return check_positions(payload["positions"])


def _build_config(args: argparse.Namespace) -> LayoutConfig:
    """The LayoutConfig the layout flags set."""
    return LayoutConfig(**{field: getattr(args, dest) for dest, (field, _) in LAYOUT_FLAGS.items() if field})


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
        positions, sweeps = layout_lombardi(g, mass, config)
    else:
        positions = run_layout(g, mass, config)
        sweeps = None
    if args.svg:
        if g.vertex_count:
            lo = float(cent.values.min())
            hi = float(cent.values.max())
            colors = [color_for(float(v), lo, hi) for v in cent.values]
        else:
            colors = None
        svg = render_svg(g, positions, colors, sweeps, k=args.k, show_labels=args.labels)
        _write_text(args.svg, svg)
    if args.metrics:
        report = compute_metrics(g, positions, cent).as_dict()
        report["config"] = _resolved_config(args)
        _write_text(args.metrics, json.dumps(report, indent=2) + "\n")
    if args.positions:
        payload = {"positions": np.asarray(positions).tolist()}
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
        p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default, help=text)


def _add_layout_command_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    _add_layout_flags(p)
    p.add_argument("--svg", help="write an SVG drawing here")
    p.add_argument("--metrics", help="write a JSON metrics report here")
    p.add_argument("--positions", help="write final positions as JSON here")
    p.add_argument("--lombardi", action="store_true", help="circular-arc edge post-pass")
    p.add_argument("--labels", action="store_true", help="draw vertex labels")


def _add_gen_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")


def _add_gen_forest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", required=True, help="comma-separated component sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")


def _add_metrics_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--positions", required=True, help="positions JSON from layout")
    p.add_argument("--out", default="-")


# The subcommands in the order `--help` lists them: name, help, flags, handler.
COMMANDS = {
    "layout": ("lay out a graph; write SVG and metrics", _add_layout_command_flags, cmd_layout),
    "gen-tree": ("generate a uniform random tree", _add_gen_tree_flags, cmd_gen_tree),
    "gen-forest": ("generate a random forest", _add_gen_forest_flags, cmd_gen_forest),
    "metrics": ("metrics report for an existing layout", _add_metrics_flags, cmd_metrics),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with every subcommand registered. When command names a
    subcommand, only its flags (and its -h) are added, otherwise every
    subcommand's are: an argv that starts with command parses the same
    either way, and the top-level help and errors list every subcommand."""
    parser = argparse.ArgumentParser(
        prog="gravlayout",
        description="Force-directed graph layout with centrality-weighted gravity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, func) in COMMANDS.items():
        full = command not in COMMANDS or command == name
        p = sub.add_parser(name, help=text, add_help=full)
        if full:
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphParseError, OSError, ValueError, OverflowError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
