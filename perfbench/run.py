"""gravlayout benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

`--workload all` runs the three workloads in turn and ends with one JSON
object keyed by workload.

Run it from anywhere inside a checkout of the repository; it reads the
program from `src/` and writes only under `.bench_out/`. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The lines before it, and `.bench_out/<workload>-s<seed>-
t<trace>.json`, hold the rest: failures, per-job output hashes, quality
figures, pass times and machine info. A traced run also writes its spans to
`.bench_out/<workload>-s<seed>.spans.jsonl`.

Every process the benchmark starts runs with BLAS and OpenMP pinned to
THREADS threads. See README.md in this directory for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trees", "forest-large", "metrics-only")
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up runs this many times, each in a fresh process; setup_s is the median.
SETUP_REPEATS = 5
# Every run must end within this many seconds, children included.
RUN_BUDGET_S = 170.0


def child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run worker.py with BLAS pinned; raise if it fails or overruns."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: THREADS for v in THREAD_VARS})
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def set_up(args, workload: str, work: Path, deadline: float) -> list[float]:
    """Write the inputs SETUP_REPEATS times (once when traced); return the
    wall time of each set-up process, interpreter start-up included."""
    times, digests = [], set()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        cmd = ["setup", "--workload", workload, "--seed", str(args.seed), "--dir", str(work)]
        start = time.perf_counter()
        proc = child(cmd + (["--tiny"] if args.tiny else []), deadline)
        times.append(time.perf_counter() - start)
        digests.add(proc.stdout.strip())
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different inputs for the same seed")
    return times


def run_workload(args, spec: dict, workload: str) -> dict | None:
    """One run of one workload: set-up, measurement, summary lines.

    Returns the result object, or None when the run could not complete.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-s{args.seed}"
    work = out / f"work-{stem}-t{args.trace}-{os.getpid()}"
    result_path = out / f"{stem}-t{args.trace}.json"
    spans_path = out / f"{stem}.spans.jsonl"
    try:
        setup_times = set_up(args, workload, work, deadline)
        cmd = ["measure", "--dir", str(work), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(work / "result.json")]
        if args.trace:
            cmd += ["--spans", str(spans_path)]
        child(cmd, deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["wall_samples"]
    if args.trace:
        values = {**result["layers"], **result["quality"]}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(samples),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
    result.update(workload=workload, seed=args.seed, trace=args.trace,
                  setup_samples=setup_times, metrics=metrics)
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload} seed {args.seed}: {attempted} jobs, {failed} failed, "
          f"fail_rate {failed / attempted:.4f}")
    print(f"wall_s samples ({len(samples)} passes): {' '.join(f'{s:.4f}' for s in samples)}")
    for failure in result["failures"]:
        print(f"FAILED pass {failure['pass']} {failure['job']}: {'; '.join(failure['problems'])}")
    for name, value in result["quality"].items():
        print(f"{name} = {value:.6g}")
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"details: {result_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="gravlayout benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny graphs and a capped engine, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "gravlayout" / "__init__.py").is_file():
        print(f"error: no gravlayout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Metric names and units come from BENCHMARK.json, the benchmark's contract.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload != "all":
        result = run_workload(args, spec, args.workload)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(args, spec, workload)
        if results[workload] is None:
            return 1
        print(f"result {workload}: {json.dumps(results[workload])}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
