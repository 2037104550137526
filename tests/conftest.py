"""Shared pytest wiring: collects acceptance-criterion result lines and
prints them in the terminal summary, where pytest capture cannot swallow
them; runs scripts in fresh interpreters, also under different BLAS
thread counts; lays out the Lombardi drawings that several test modules
check, once per session."""

import functools
import os
import subprocess
import sys

from gravlayout import LayoutConfig, compute_centrality, generate_random_tree, layout_lombardi, normalize_mass

acceptance_lines: list[str] = []

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(script: str, **env: str) -> str:
    """Run script in a fresh interpreter with this checkout's src on the path
    and env added to the environment; return its standard output."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout


def blas_thread_hashes(script: str, counts=("1", "4")) -> list[str]:
    """Run script, which prints one sha256, in a fresh interpreter per BLAS
    thread count with this checkout's src on the path; return the hashes."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return [fresh_python(script, **dict.fromkeys(blas, threads)).strip() for threads in counts]


LOMBARDI_TREES = [(n, seed) for n in (70, 126, 174) for seed in range(4)]


@functools.lru_cache(maxsize=None)
def lombardi_tree(n, seed):
    """(g, positions, sweeps) of the default Lombardi drawing of a random tree
    with degree mass."""
    g = generate_random_tree(n, seed=seed)
    pos, sweeps = layout_lombardi(g, normalize_mass(compute_centrality(g, "degree")), LayoutConfig(seed=seed))
    return g, pos, sweeps


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
