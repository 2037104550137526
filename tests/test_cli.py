import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

from gravlayout import LayoutConfig
from gravlayout.cli import COMMANDS, _build_config, _parse_positions, build_parser, main
from conftest import SRC, fresh_python
from oracles import fuzz_json_text, random_value

# Every layout flag with a value, in the order of the report's config echo.
LAYOUT_VALUE_FLAGS = (
    "--k", "--imax", "--sigma", "--gamma-max", "--block", "--gamma-step",
    "--eps", "--max-iterations", "--seed", "--mass-floor",
)


def _layout_args(*argv):
    return build_parser().parse_args(["layout", "--in", "g.edges", *argv])


def test_gen_tree_writes_edge_list(tmp_path):
    out = tmp_path / "t.edges"
    assert main(["gen-tree", "--n", "30", "--seed", "1", "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if line.strip()]
    assert len([l for l in lines if len(l.split()) == 2]) == 29  # edges
    assert len([l for l in lines if len(l.split()) == 1]) == 30  # vertex declarations


def test_gen_forest(tmp_path):
    out = tmp_path / "f.edges"
    assert main(["gen-forest", "--sizes", "3,3", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len([l for l in lines if len(l.split()) == 2]) == 4


def test_layout_writes_svg_and_metrics(tmp_path):
    graph = tmp_path / "t.edges"
    main(["gen-tree", "--n", "12", "--seed", "2", "--out", str(graph)])
    svg = tmp_path / "out.svg"
    metrics = tmp_path / "m.json"
    rc = main(
        [
            "layout",
            "--in", str(graph),
            "--centrality", "betweenness",
            "--svg", str(svg),
            "--metrics", str(metrics),
            "--max-iterations", "300",
        ]
    )
    assert rc == 0
    assert svg.read_text().startswith("<?xml")
    report = json.loads(metrics.read_text())
    for field in (
        "crossings",
        "min_angle",
        "edge_len_mean",
        "edge_len_cv",
        "bbox_area",
        "centrality_radius_rho",
    ):
        assert field in report
    assert report["config"]["centrality"] == "betweenness"
    assert report["config"]["k"] == 80.0
    assert report["config"]["seed"] == 0


def test_layout_k2_gamma_max_zero_natural_length(tmp_path):
    graph = tmp_path / "k2.edges"
    graph.write_text("a b\n")
    metrics = tmp_path / "m.json"
    rc = main(
        [
            "layout",
            "--in", str(graph),
            "--centrality", "degree",
            "--gamma-max", "0",
            "--metrics", str(metrics),
        ]
    )
    assert rc == 0
    report = json.loads(metrics.read_text())
    assert report["edge_len_mean"] == pytest.approx(80.0, rel=0.05)


def test_layout_deterministic_outputs(tmp_path):
    graph = tmp_path / "t.edges"
    main(["gen-tree", "--n", "15", "--seed", "3", "--out", str(graph)])
    outputs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        metrics = tmp_path / f"{tag}.json"
        positions = tmp_path / f"{tag}_pos.json"
        rc = main(
            [
                "layout",
                "--in", str(graph),
                "--seed", "7",
                "--max-iterations", "250",
                "--svg", str(svg),
                "--metrics", str(metrics),
                "--positions", str(positions),
            ]
        )
        assert rc == 0
        outputs.append((svg.read_bytes(), metrics.read_bytes(), positions.read_bytes()))
    assert outputs[0] == outputs[1]


def test_metrics_subcommand_roundtrip(tmp_path):
    graph = tmp_path / "t.edges"
    main(["gen-tree", "--n", "10", "--seed", "5", "--out", str(graph)])
    positions = tmp_path / "pos.json"
    layout_metrics = tmp_path / "m1.json"
    main(
        [
            "layout",
            "--in", str(graph),
            "--seed", "1",
            "--max-iterations", "200",
            "--positions", str(positions),
            "--metrics", str(layout_metrics),
        ]
    )
    recomputed = tmp_path / "m2.json"
    rc = main(
        [
            "metrics",
            "--in", str(graph),
            "--positions", str(positions),
            "--out", str(recomputed),
        ]
    )
    assert rc == 0
    a = json.loads(layout_metrics.read_text())
    b = json.loads(recomputed.read_text())
    for field in ("crossings", "bbox_area", "edge_len_mean"):
        assert a[field] == pytest.approx(b[field])


def test_layout_lombardi_flag(tmp_path):
    graph = tmp_path / "c.edges"
    graph.write_text("a b\nb c\nc a\n")
    svg = tmp_path / "arc.svg"
    rc = main(
        [
            "layout",
            "--in", str(graph),
            "--gamma-max", "0",
            "--lombardi",
            "--max-iterations", "800",
            "--svg", str(svg),
        ]
    )
    assert rc == 0
    assert "<path" in svg.read_text()


def test_layout_json_input(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text('{"vertices": ["a", "b", "c"], "edges": [[0, 1], [1, 2]]}')
    metrics = tmp_path / "m.json"
    rc = main(
        ["layout", "--in", str(graph), "--metrics", str(metrics), "--max-iterations", "100"]
    )
    assert rc == 0
    assert json.loads(metrics.read_text())["crossings"] == 0


@pytest.mark.parametrize(
    ("name", "text"),
    [
        ("g.edges", "a b\nb c\nc a\n"),
        ("g.json", json.dumps({"vertices": ["a", "b", "c"], "edges": [[0, 1], [1, 2], [0, 2]]})),
    ],
    ids=["edges", "json"],
)
def test_input_with_byte_order_mark_loads_as_without(tmp_path, monkeypatch, name, text):
    # Windows editors save UTF-8 with a leading U+FEFF. It is not part of the
    # first vertex name (the triangle stays 3 vertices, not a 4-vertex path)
    # and does not stop JSON from parsing: in a graph file, a positions file
    # or on stdin, whose format auto-detection must also see past it.
    graph, positions = tmp_path / name, tmp_path / "given.json"
    drawn, piped, report = tmp_path / "p.json", tmp_path / "stdin.json", tmp_path / "m.json"
    outputs = []
    for bom in ("", "\ufeff"):
        graph.write_text(bom + text, encoding="utf-8")
        assert main(["layout", "--in", str(graph), "--max-iterations", "50", "--positions", str(drawn)]) == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO((bom + text).encode("utf-8"))))
        assert main(["layout", "--in", "-", "--max-iterations", "50", "--positions", str(piped)]) == 0
        positions.write_text(bom + drawn.read_text(), encoding="utf-8")
        assert main(["metrics", "--in", str(graph), "--positions", str(positions), "--out", str(report)]) == 0
        outputs.append((drawn.read_text(), piped.read_text(), report.read_text()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == outputs[0][1]
    assert len(json.loads(outputs[0][0])["positions"]) == 3


def test_stdin_is_utf8_whatever_the_io_encoding(tmp_path):
    # Under a latin-1 I/O encoding a BOM read as text is three characters,
    # and the triangle became a 4-vertex path; stdin is decoded as UTF-8
    # from its bytes, as files are.
    drawn = tmp_path / "p.json"
    env = dict(os.environ, PYTHONIOENCODING="latin-1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["layout", "--in", "-", "--max-iterations", "20", "--positions", str(drawn)]
    subprocess.run(
        [sys.executable, "-m", "gravlayout", *argv],
        input="\ufeffa b\nb c\nc a\n".encode("utf-8"), env=env, check=True,
    )
    assert len(json.loads(drawn.read_text())["positions"]) == 3


def test_layout_and_metrics_do_not_load_numpy_random(tmp_path):
    # The start and the nudges hash with splitmix64, so a CLI process never
    # loads numpy.random (PCG64, the ziggurat tables, their extension modules).
    graph, pos, svg = (str(tmp_path / name) for name in ("t.edges", "p.json", "t.svg"))
    runs = [
        ["gen-tree", "--n", "40", "--seed", "3", "--out", graph],
        ["layout", "--in", graph, "--positions", pos],
        ["layout", "--in", graph, "--lombardi", "--svg", svg],
        ["metrics", "--in", graph, "--positions", pos, "--centrality", "betweenness"],
    ]
    script = (
        "import sys, numpy\n"
        "from gravlayout import cli\n"
        "before = 'numpy.random' in sys.modules\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(before, 'numpy.random' in sys.modules, codes)\n"
    )
    before, after, codes = fresh_python(script).splitlines()[-1].split(maxsplit=2)  # metrics prints first
    if before == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert codes.strip() == "[0, 0, 0, 0]"
    assert after == "False"


def test_labels_xml_cannot_hold_fail_cleanly(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": ["ok", "a\u0001b"], "edges": [[0, 1]]}))
    svg = tmp_path / "g.svg"
    argv = ["layout", "--in", str(graph), "--max-iterations", "20", "--svg", str(svg)]
    assert main(argv + ["--labels"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "vertex 1" in err and "Traceback" not in err
    assert not svg.exists()
    assert main(argv) == 0  # without --labels the names are never written
    assert len(list(ET.fromstring(svg.read_text()).iter("{http://www.w3.org/2000/svg}circle"))) == 2


def test_unreadable_file_fails(tmp_path, capsys):
    rc = main(["layout", "--in", str(tmp_path / "missing.edges"), "--svg", "x.svg"])
    assert rc == 1
    assert "error" in capsys.readouterr().err.lower()


def test_parse_failure_fails(tmp_path, capsys):
    graph = tmp_path / "bad.edges"
    graph.write_text("a a\n")
    rc = main(["layout", "--in", str(graph), "--svg", str(tmp_path / "x.svg")])
    assert rc == 1
    assert "self-loop" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero(capsys):
    rc = main(["layout", "--does-not-exist"])
    assert rc != 0


# One valid argv per subcommand; main builds only that subcommand's flags.
VALID_ARGV = {
    "layout": ["--in", "g.edges", "--gamma-step", "2", "--gamma-max", "2", "--lombardi"],
    "gen-tree": ["--n", "5", "--seed", "3"],
    "gen-forest": ["--sizes", "2,3"],
    "metrics": ["--in", "g.edges", "--positions", "p.json", "--centrality", "closeness"],
}


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["bogus"], ["--in", "g.edges"]]
    + [[name, *tail] for name in COMMANDS for tail in ([], ["--help"], ["--bogus"], VALID_ARGV[name])]
    + [[name, *VALID_ARGV[name], "extra"] for name in COMMANDS],
)
def test_command_parser_reads_like_the_full_parser(argv, capsys):
    def parse(parser):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    lean = parse(build_parser(argv[0] if argv else None))
    assert lean == parse(build_parser())
    if argv[1:] == VALID_ARGV.get(argv[0] if argv else None):
        assert lean[0]["func"] is COMMANDS[argv[0]][2]


def test_gamma_flag_is_gone(tmp_path, capsys):
    # --gamma-step at least --gamma-max holds --gamma-max; there is no
    # separate --gamma. argparse reads --gamma as an ambiguous prefix of
    # --gamma-max and --gamma-step, and exits 2 before anything runs.
    graph = tmp_path / "k2.edges"
    graph.write_text("a b\n")
    positions = tmp_path / "p.json"
    argv = ["layout", "--in", str(graph), "--gamma-step", "2", "--gamma", "2", "--positions", str(positions)]
    assert main(argv) == 2
    assert "--gamma" in capsys.readouterr().err
    assert not positions.exists()


def test_constant_schedule_with_gamma(tmp_path):
    graph = tmp_path / "k2.edges"
    graph.write_text("a b\n")
    metrics = tmp_path / "m.json"
    rc = main(
        [
            "layout",
            "--in", str(graph),
            "--gamma-step", "2.5",
            "--gamma-max", "2.5",
            "--metrics", str(metrics),
            "--max-iterations", "500",
        ]
    )
    assert rc == 0
    config = json.loads(metrics.read_text())["config"]
    assert config["gamma_step"] == config["gamma_max"] == 2.5
    assert "schedule" not in config and "gamma" not in config


@pytest.mark.parametrize(
    "flag, value",
    [("--k", "nan"), ("--k", "inf"), ("--sigma", "inf"), ("--gamma-max", "nan"), ("--k", "1e308")],
)
def test_layout_rejects_non_finite_config(tmp_path, capsys, flag, value):
    graph = tmp_path / "t.edges"
    main(["gen-tree", "--n", "12", "--seed", "2", "--out", str(graph)])
    assert main(["layout", "--in", str(graph), f"{flag}={value}", "--max-iterations", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_metrics_rejects_non_finite_positions(tmp_path, capsys, value):
    graph = tmp_path / "p.edges"
    graph.write_text("a b\nb c\n")
    positions = tmp_path / "pos.json"
    positions.write_text(f'{{"positions": [[0, 0], [{value}, 1], [2, 2]]}}')
    out = tmp_path / "m.json"
    rc = main(["metrics", "--in", str(graph), "--positions", str(positions), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists()


def test_metrics_rejects_drawing_too_wide_to_measure(tmp_path, capsys):
    # A path at -1e308, 0, 1e308 wrote edge_len_mean Infinity, edge_len_cv
    # NaN and bbox_area Infinity, which is not JSON, and exited 0.
    graph = tmp_path / "p.edges"
    graph.write_text("a b\nb c\n")
    positions = tmp_path / "pos.json"
    positions.write_text('{"positions": [[-1e308, 0], [0, 0], [1e308, 0]]}')
    out = tmp_path / "m.json"
    rc = main(["metrics", "--in", str(graph), "--positions", str(positions), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too wide" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        "[[0, 0], [1, 1], [2, 2]]",
        "{}",
        '{"positions": 5}',
        '{"positions": "abc"}',
        '{"positions": [[0, 0], [1], [2, 2]]}',
        '{"positions": [[0, 0], {"x": 1}, [2, 2]]}',
        '{"positions": [[0, 0], [null, 1], [2, 2]]}',
        '{"positions": [[[0, 0]], [[1, 1]], [[2, 2]]]}',
        '{"positions": [["0", "0"], ["1", "1"], ["2", "2"]]}',
        '{"positions": [[0, 0], [1, true], [2, 2]]}',
        '{"positions": [[0, 0], [1, 1]]}',
        '{"positions": [[0, 0], [1%s, 1], [2, 2]]}' % ("0" * 399),
    ],
    ids=[
        "list", "no-key", "number", "string", "short-row", "object-row", "null-coord", "nested-row",
        "string-coord", "bool-coord", "too-few-rows", "400-digit-int",
    ],
)
def test_metrics_rejects_malformed_positions(tmp_path, capsys, payload):
    graph = tmp_path / "p.edges"
    graph.write_text("a b\nb c\n")
    positions = tmp_path / "pos.json"
    positions.write_text(payload)
    rc = main(["metrics", "--in", str(graph), "--positions", str(positions)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "positions" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edges",
    ["5", '"ab"', "null", "[5]", '["01"]', "[null]", "[[0, null]]"],
    ids=["int", "string", "null", "int-entry", "string-entry", "null-entry", "null-index"],
)
def test_malformed_json_graph_fails_cleanly(tmp_path, capsys, edges):
    graph = tmp_path / "g.json"
    graph.write_text(f'{{"vertices": ["a", "b"], "edges": {edges}}}')
    rc = main(["layout", "--in", str(graph), "--max-iterations", "5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["gen-tree", "--n", "5"], ["gen-forest", "--sizes", "2,3"]], ids=["tree", "forest"]
)
def test_generators_reject_negative_seed(tmp_path, capsys, argv):
    out = tmp_path / "g.edges"
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not out.exists()


def test_default_layout_argv_builds_default_config():
    assert _build_config(_layout_args()) == LayoutConfig()


def test_default_config_echo(tmp_path):
    graph = tmp_path / "k2.edges"
    graph.write_text("a b\n")
    metrics = tmp_path / "m.json"
    assert main(["layout", "--in", str(graph), "--metrics", str(metrics)]) == 0
    echo = json.loads(metrics.read_text())["config"]
    want = [
        ("input", str(graph)),
        ("format", "auto"),
        ("centrality", "degree"),
        ("k", 80.0),
        ("imax", 10.0),
        ("sigma", 0.8),
        ("gamma_max", 2.5),
        ("block", 200),
        ("gamma_step", 0.5),
        ("eps", 1.0),
        ("max_iterations", 3000),
        ("seed", 0),
        ("mass_floor", 0.05),
        ("lombardi", False),
    ]
    assert list(echo.items()) == want
    assert [type(v) for v in echo.values()] == [type(v) for _, v in want]  # 200, not 200.0


def test_every_config_field_set_by_exactly_one_flag():
    default = LayoutConfig()
    setters = {}
    for flag in LAYOUT_VALUE_FLAGS:
        config = _build_config(_layout_args(flag, "7"))
        changed = [f.name for f in fields(config) if getattr(config, f.name) != getattr(default, f.name)]
        assert len(changed) <= 1, (flag, changed)
        for name in changed:
            setters.setdefault(name, []).append(flag)
    assert sorted(setters) == sorted(f.name for f in fields(LayoutConfig))
    assert all(len(flags) == 1 for flags in setters.values())


def test_schedule_flag_is_gone(tmp_path, capsys):
    # One gravity rule: constant gravity is --gamma-step at least
    # --gamma-max, so --schedule is an unknown flag and exits 2 before
    # anything runs, whatever its value.
    graph = tmp_path / "k2.edges"
    graph.write_text("a b\n")
    positions = tmp_path / "p.json"
    for value in ("constant", "equilibrium", "stepped"):
        assert main(["layout", "--in", str(graph), "--schedule", value, "--positions", str(positions)]) == 2
        assert "unrecognized arguments: --schedule" in capsys.readouterr().err
        assert not positions.exists()


def test_constant_schedule_flags_build_config():
    args = _layout_args("--gamma-step", "1.5", "--gamma-max", "1.5", "--block", "50", "--eps", "0.5")
    assert _build_config(args) == LayoutConfig(gamma_max=1.5, gamma_step=1.5, block_len=50, equilibrium_eps=0.5)


def _positions_reference(text):
    """The coordinate rows of a positions file as float pairs, or None where
    the file must be rejected: not JSON, not {"positions": [[x, y], ...]},
    a coordinate that is not a finite int or float (bools are not), or a
    side s of the bounding box with 2 s^2 beyond the float range."""
    try:
        rows = json.loads(text)["positions"]
    except (ValueError, RecursionError, TypeError, KeyError):
        return None
    if not isinstance(rows, list) or not all(isinstance(row, list) and len(row) == 2 for row in rows):
        return None
    coords = [x for row in rows for x in row]
    if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in coords):
        return None
    pairs = [[float(x), float(y)] for x, y in rows]
    sides = [max(axis) - min(axis) for axis in zip(*pairs)]  # Python floats overflow to inf
    if any(2.0 * side * side == math.inf for side in sides):
        return None
    return pairs


def test_parse_positions_fuzz_against_reference():
    # Each file is either read as the reference reads it, with every
    # coordinate finite, or rejected with a ValueError.
    rng = np.random.default_rng(99)
    accepted = 0
    for _ in range(600):
        rows = [[float(c) for c in rng.uniform(-1e3, 1e3, 2)] for _ in range(int(rng.integers(0, 6)))]
        for row in rows:
            if rng.random() < 0.08:
                row[int(rng.integers(2))] = random_value(rng, 1)
            if rng.random() < 0.03:
                row.append(1.0)  # three coordinates
            elif rng.random() < 0.03:
                row.pop()  # one coordinate
        if rows and rng.random() < 0.05:
            rows[int(rng.integers(len(rows)))] = random_value(rng)
        payload = {"positions": rows} if rng.random() < 0.93 else random_value(rng)
        text = fuzz_json_text(rng, payload)
        want = _positions_reference(text)
        try:
            got = _parse_positions(text)
        except ValueError:
            assert want is None, repr(text[:200])
            continue
        accepted += 1
        assert got.dtype == np.float64 and got.shape == (len(want), 2)
        assert np.all(np.isfinite(got)) and got.tolist() == want, repr(text[:200])
    assert 200 < accepted < 550
