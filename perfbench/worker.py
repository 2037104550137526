"""The benchmark's child processes; `run.py` starts them with BLAS pinned.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D [--tiny]
    python3 perfbench/worker.py measure --dir D --seconds S --trace 0|1 --out R [--spans P]

`setup` writes the workload's inputs into D and prints a digest of them.
`measure` runs the job list from D closed-loop, one `gravlayout.cli.main`
call at a time, checks every job's outputs and writes a JSON result to R.
With --trace 1 it runs one untraced pass, one traced pass, the step-by-step
replay of every engine call and a tracemalloc pass, and reports per-layer
numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gravlayout import cli  # noqa: E402  (needs the checkout's src on the path)

import tracing  # noqa: E402
import workloads  # noqa: E402

REPORT_FIELDS = ("crossings", "min_angle", "edge_len_mean", "edge_len_cv", "bbox_area",
                 "centrality_radius_rho")
MIB = 1024.0 * 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cmd_setup(args) -> int:
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(args.workload, args.seed, out_dir, "tiny" if args.tiny else "full")
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    print(digest.hexdigest())
    return 0


def read_edges(path: str) -> list[tuple[int, int]]:
    """Edge list as vertex ids in first-appearance order, parsed here rather
    than by the program so the metric check below is independent of it."""
    ids: dict[str, int] = {}
    edges = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = [ids.setdefault(t, len(ids)) for t in line.split()]
        if len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
    return edges


def check_report(report, pos, edges) -> list[str]:
    """The metrics report has all six fields, and its edge-length and
    bounding-box figures agree with the positions they describe."""
    problems = [f"metrics field {f} missing or null" for f in REPORT_FIELDS
                if report.get(f) is None]
    if problems or pos is None:
        return problems
    ea = np.asarray(edges)
    lengths = np.hypot(*(pos[ea[:, 0]] - pos[ea[:, 1]]).T)
    expected = {
        "edge_len_mean": lengths.mean(),
        "edge_len_cv": lengths.std() / lengths.mean(),
        "bbox_area": float(np.prod(pos.max(axis=0) - pos.min(axis=0))),
    }
    for field, value in expected.items():
        if not math.isclose(report[field], value, rel_tol=1e-9):
            problems.append(f"{field}={report[field]!r}, recomputed {value!r}")
    return problems


def check_job(job: dict, edges) -> tuple[dict, list[str]]:
    """Hash and check one job's output files; return (record, problems)."""
    problems = []
    data = {}
    for kind, name in job["outputs"].items():
        path = Path(name)
        if path.is_file():
            data[kind] = path.read_bytes()
        else:
            problems.append(f"{name} not written")
    record = {"outputs_sha256": {kind: sha256(b) for kind, b in data.items()}}
    pos = None
    pos_bytes = data.get("positions")
    if pos_bytes is None and "positions_in" in job:
        pos_bytes = Path(job["positions_in"]).read_bytes()
    if pos_bytes is not None:
        pos = np.asarray(json.loads(pos_bytes)["positions"], dtype=float)
        if pos.shape != (job["n"], 2) or not np.isfinite(pos).all():
            problems.append(f"positions of shape {pos.shape} or not finite")
            pos = None
    if "svg" in data:
        try:
            root = ET.fromstring(data["svg"])
        except ET.ParseError as exc:
            problems.append(f"SVG does not parse: {exc}")
        else:
            circles = sum(1 for el in root.iter() if el.tag.endswith("}circle"))
            if circles != job["n"]:
                problems.append(f"SVG has {circles} vertex circles for {job['n']} vertices")
    if "metrics" in data:
        report = json.loads(data["metrics"])
        record["report"] = {f: report.get(f) for f in REPORT_FIELDS}
        record["config"] = report.get("config")
        record["config_sha256"] = sha256(json.dumps(report.get("config"), sort_keys=True).encode())
        problems += check_report(report, pos, edges)
    return record, problems


class Runner:
    """Runs passes over the job list and keeps every check's outcome."""

    def __init__(self, jobs: list[dict]) -> None:
        self.cli_main = cli.main
        self.jobs = jobs
        self.edges = {job["graph"]: read_edges(job["graph"]) for job in jobs}
        self.first: dict[str, dict] = {}
        self.problems: dict[tuple[int, str], list[str]] = {}
        self.attempted = 0
        self.passes = 0

    def fail(self, pass_no: int, job_id: str, problem: str) -> None:
        self.problems.setdefault((pass_no, job_id), []).append(problem)

    def run_pass(self, call=None) -> float:
        """One pass over the jobs; returns the summed wall time of the CLI calls.

        call(job) runs one job and returns its exit code; by default it is
        `gravlayout.cli.main` on the job's argv.
        """
        call = call or (lambda job: self.cli_main(list(job["argv"])))
        pass_no = self.passes
        self.passes += 1
        wall = 0.0
        records = {}
        for job in self.jobs:
            for name in job["outputs"].values():
                Path(name).unlink(missing_ok=True)
            self.attempted += 1
            start = time.perf_counter()
            try:
                code = call(job)
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                code = repr(exc)
            wall += time.perf_counter() - start
            if code != 0:
                self.fail(pass_no, job["id"], f"exit {code}")
                continue
            record, problems = check_job(job, self.edges[job["graph"]])
            records[job["id"]] = record
            twin = job["same_positions_as"]
            if twin:
                twin_hash = records.get(twin, {}).get("outputs_sha256", {}).get("positions")
                if twin_hash != record["outputs_sha256"].get("positions"):
                    problems.append(f"positions differ from {twin}'s plain layout")
            first = self.first.setdefault(job["id"], record)
            if first["outputs_sha256"] != record["outputs_sha256"]:
                problems.append("outputs differ from the first pass")
            for problem in problems:
                self.fail(pass_no, job["id"], problem)
        return wall

    def quality(self) -> dict:
        """Drawing quality summed or averaged over the quality jobs."""
        fields = ("crossings", "centrality_radius_rho", "edge_len_cv")
        reports = [self.first[j["id"]]["report"] for j in self.jobs
                   if j["quality"] and "report" in self.first.get(j["id"], {})]
        # A report with a missing field is already a failed check; skip it here.
        reports = [r for r in reports if all(r[f] is not None for f in fields)]
        if not reports:
            return {}
        return {
            "quality.crossings": float(sum(r["crossings"] for r in reports)),
            "quality.rho": statistics.fmean(r["centrality_radius_rho"] for r in reports),
            "quality.edge_len_cv": statistics.fmean(r["edge_len_cv"] for r in reports),
        }


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
    }


def trace_pass(runner: Runner, spans_path: str | None) -> dict:
    """Traced pass, replay and memory pass; returns the per-layer metrics."""
    untraced = runner.run_pass()
    tracer = tracing.Tracer()

    def traced_call(job):
        tracer.job = job["id"]
        return tracer.call("cli.main", runner.cli_main, list(job["argv"]))[1]

    tracer.install()
    try:
        traced = runner.run_pass(traced_call)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    pass_no = runner.passes - 1

    iterations, equilibrium, pair_evals, engine_mem = [], [], 0, 0
    for rec in tracer.engine_calls:
        span = spans[rec["span"]]
        pos, iters, eq = tracing.replay_run_layout(*rec["args"], **rec["kwargs"])
        if pos.tobytes() != rec["result"].tobytes():
            runner.fail(pass_no, span["job"], f"step replay differs from {span['name']}")
        if span["name"] != tracing.ENGINE_SPAN:
            continue
        n = rec["args"][0].vertex_count
        iterations.append(iters)
        equilibrium.append(eq)
        pair_evals += iters * n * (n - 1)
        _, peak = tracing.traced_peak(tracing.engine.run_layout, *rec["args"], **rec["kwargs"])
        engine_mem = max(engine_mem, peak)
    metrics_mem = 0
    for rec in tracer.metrics_calls:
        _, peak = tracing.traced_peak(tracing.metrics.compute_metrics, *rec["args"],
                                      **rec["kwargs"])
        metrics_mem = max(metrics_mem, peak)

    own = tracing.self_times(spans)

    def total(name: str, key: str = "") -> float:
        return float(sum(s.get(key, 0) if key else s["end"] - s["start"]
                         for s in spans if s["name"] == name))

    def self_total(name: str) -> float:
        return float(sum(t for s, t in zip(spans, own) if s["name"] == name))

    run_s = total(tracing.ENGINE_SPAN)
    layers = {
        "graphs.parse_s": total("graphs.parse_edge_list") + total("graphs.parse_graph_json"),
        "centrality.compute_s": total("centrality.compute_centrality")
        + total("centrality.normalize_mass"),
        "engine.run_s": run_s,
        "engine.iterations": statistics.fmean(iterations) if iterations else 0.0,
        "engine.step_us": 1e6 * run_s / sum(iterations) if sum(iterations) else 0.0,
        "engine.pair_evals": float(pair_evals),
        "engine.equilibrium_stops": statistics.fmean(equilibrium) if equilibrium else 0.0,
        "engine.peak_mem_mb": engine_mem / MIB,
        "arcs.dummy_phase_s": total(tracing.DUMMY_SPAN),
        "arcs.self_s": self_total(tracing.ARCS_SPAN),
        "metrics.compute_s": total("metrics.compute_metrics"),
        "metrics.crossings_s": total("metrics.count_crossings"),
        "metrics.crossing_pairs": total("metrics.count_crossings", "pairs"),
        "metrics.peak_mem_mb": metrics_mem / MIB,
        "render.svg_s": total("render.render_svg"),
        "render.svg_bytes": total("render.render_svg", "bytes"),
        "cli.self_s": self_total("cli.main"),
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    if spans_path:
        tracing.write_spans(spans, spans_path)
    return {"layers": layers, "wall_samples": [untraced]}


def cmd_measure(args) -> int:
    os.chdir(args.dir)
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    runner = Runner(manifest["jobs"])
    result = {}
    if args.trace:
        result.update(trace_pass(runner, args.spans))
    else:
        samples = []
        start = time.perf_counter()
        # At least two passes, so outputs can be compared across repeats. A
        # further pass starts only if it should end within half a pass of
        # --seconds, so a run's length does not depend on where the last
        # pass happens to fall.
        while True:
            samples.append(runner.run_pass())
            elapsed = time.perf_counter() - start
            per_pass = elapsed / len(samples)
            if len(samples) >= 2 and elapsed + per_pass > args.seconds + per_pass / 2:
                break
        result["wall_samples"] = samples
    result.update(
        attempted=runner.attempted,
        failed=len(runner.problems),
        failures=[{"pass": p, "job": j, "problems": v} for (p, j), v in runner.problems.items()],
        quality=runner.quality(),
        jobs={job_id: {k: v for k, v in rec.items() if k != "report"}
              for job_id, rec in runner.first.items()},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_info(),
    )
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--dir", required=True)
    p_setup.add_argument("--tiny", action="store_true")
    p_setup.set_defaults(func=cmd_setup)
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--dir", required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_measure.add_argument("--out", required=True)
    p_measure.add_argument("--spans")
    p_measure.set_defaults(func=cmd_measure)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
