"""End-to-end acceptance suite.

Each test evaluates one shipping criterion at its stated tolerance and
emits one PASS/FAIL line; the lines are echoed in the pytest terminal
summary via conftest. The statistical criteria reproduce the library's
qualitative claims at fixed seed sets, so every run is deterministic.
"""

import hashlib
import itertools
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import gravlayout as gl
from conftest import acceptance_lines
from oracles import (
    attractive_force,
    brute_betweenness,
    parametric_crossings,
    random_graph,
    random_start,
    repulsive_force,
    spearman_formula,
)

K = 80.0


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    acceptance_lines.append(line)
    print(line, flush=True)


def mass_for(g: gl.Graph, kind: str) -> gl.MassVector:
    return gl.normalize_mass(gl.compute_centrality(g, kind))


def classical_config(seed: int) -> gl.LayoutConfig:
    return gl.LayoutConfig(gamma_max=0.0, seed=seed)


# Criteria 3 to 7 reproduce the paper's claims, which start tangled: from a
# uniform random start, with gravity climbing by 0.2. The default radial
# start untangles much of what the paper credits to scaling, so the same
# checks at the same seeds and bounds run on the defaults separately.
PAPER = (random_start, 0.2)
DEFAULT = (gl.initialize_positions, gl.LayoutConfig().gamma_step)


def layout(g: gl.Graph, mass, config: gl.LayoutConfig, start) -> np.ndarray:
    return gl.run_layout(g, mass, config, initial=start(g, config.seed, K))


def sign_test_two_sided(wins: int, losses: int) -> float:
    """Exact two-sided binomial sign test, ties already excluded."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def test_criterion_01_k2_equilibrium():
    g = gl.Graph.from_edges(2, [(0, 1)])
    start = time.perf_counter()
    pos = gl.run_layout(g, mass_for(g, "uniform"), classical_config(seed=0))
    elapsed = time.perf_counter() - start
    length = float(np.linalg.norm(pos[0] - pos[1]))
    ok = abs(length - K) <= 0.05 * K and elapsed < 1.0
    report(1, "k2-equilibrium-length", ok, f"length={length:.3f}, {elapsed:.3f}s")
    assert ok


def test_criterion_02_betweenness_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        g = random_graph(rng, 2, 10)
        got = gl.compute_centrality(g, "betweenness").values
        want = brute_betweenness(g)
        if got.size:
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(2, "betweenness-vs-bruteforce", ok, f"max|diff|={worst:.2e}, {elapsed:.1f}s")
    assert ok


def check_03_scaling_reduces_crossings(start, gamma_step):
    sizes = [35, 35, 35, 35, 34]  # five components, 174 vertices
    stepped, constant = [], []
    for seed in range(20):
        g = gl.generate_forest(sizes, seed=seed)
        mass = mass_for(g, "degree")
        pos_s = layout(g, mass, gl.LayoutConfig(seed=seed, gamma_step=gamma_step), start)
        cfg_c = gl.LayoutConfig(gamma_max=2.5, gamma_step=2.5, seed=seed)
        pos_c = layout(g, mass, cfg_c, start)
        stepped.append(gl.count_crossings(g, pos_s))
        constant.append(gl.count_crossings(g, pos_c))
    med_s = statistics.median(stepped)
    med_c = statistics.median(constant)
    wins = sum(s < c for s, c in zip(stepped, constant))
    losses = sum(s > c for s, c in zip(stepped, constant))
    p = sign_test_two_sided(wins, losses)
    ok = med_s < med_c and p < 0.05
    detail = f"median equilibrium={med_s}, constant={med_c}, wins={wins}/20, losses={losses}, sign-test p={p:.2e}"
    return ok, detail


def check_04_tree_compactness(start, gamma_step):
    ratios = []
    for seed in range(10):
        g = gl.generate_random_tree(126, seed=seed)
        mass = mass_for(g, "degree")
        area_g = gl.bounding_area(layout(g, mass, gl.LayoutConfig(seed=seed, gamma_step=gamma_step), start))
        area_0 = gl.bounding_area(layout(g, mass, classical_config(seed), start))
        ratios.append(area_g / area_0)
    med = statistics.median(ratios)
    return med < 0.5, f"median area ratio={med:.3f} over 10 seeds"


def check_05_centralization(start, gamma_step):
    kinds = ("degree", "closeness", "betweenness")
    rho_grav = {kind: [] for kind in kinds}
    rho_zero = {kind: [] for kind in kinds}
    for seed in range(10):
        g = gl.generate_random_tree(70, seed=seed)
        cents = {kind: gl.compute_centrality(g, kind) for kind in kinds}
        pos_zero = layout(g, mass_for(g, "uniform"), classical_config(seed), start)
        for kind in kinds:
            cfg = gl.LayoutConfig(seed=seed, gamma_step=gamma_step)
            pos = layout(g, gl.normalize_mass(cents[kind]), cfg, start)
            rho_grav[kind].append(gl.centrality_radius_correlation(cents[kind], pos))
            rho_zero[kind].append(gl.centrality_radius_correlation(cents[kind], pos_zero))
    ok = True
    details = []
    for kind in kinds:
        med_g = statistics.median(rho_grav[kind])
        med_0 = statistics.median(rho_zero[kind])
        ok = ok and med_g < -0.3 and med_0 > med_g
        details.append(f"{kind}: grav={med_g:.2f} vs zero={med_0:.2f}")
    return ok, "; ".join(details)


def check_06_forest_cohesion(start, gamma_step):
    sizes = [22] * 2 + [21] * 18  # 422 vertices, 20 trees
    ratios = []
    for seed in range(5):
        g = gl.generate_forest(sizes, seed=seed)
        mass = mass_for(g, "betweenness")
        area_g = gl.bounding_area(layout(g, mass, gl.LayoutConfig(seed=seed, gamma_step=gamma_step), start))
        area_0 = gl.bounding_area(layout(g, mass, classical_config(seed), start))
        ratios.append(area_g / area_0)
    med = statistics.median(ratios)
    return med < 0.5, f"median area ratio={med:.3f} over 5 seeds"


def check_07_trees_nearly_crossing_free(start, gamma_step):
    # closeness-based mass: the smoothest of the three centralities, so the
    # compaction phase disturbs the untangled tree least
    crossings = []
    for seed in range(20):
        g = gl.generate_random_tree(70, seed=seed)
        cfg = gl.LayoutConfig(seed=seed, gamma_step=gamma_step)
        pos = layout(g, mass_for(g, "closeness"), cfg, start)
        crossings.append(gl.count_crossings(g, pos))
    med = statistics.median(crossings)
    return med <= 2, f"median crossings={med} over 20 seeds"


def test_criterion_03_scaling_reduces_crossings():
    ok, detail = check_03_scaling_reduces_crossings(*PAPER)
    report(3, "scaling-reduces-crossings", ok, detail)
    assert ok


def test_criterion_04_tree_compactness():
    ok, detail = check_04_tree_compactness(*PAPER)
    report(4, "tree-compactness", ok, detail)
    assert ok


def test_criterion_05_centralization():
    ok, detail = check_05_centralization(*PAPER)
    report(5, "centralization", ok, detail)
    assert ok


def test_criterion_06_forest_cohesion():
    ok, detail = check_06_forest_cohesion(*PAPER)
    report(6, "forest-cohesion", ok, detail)
    assert ok


def test_criterion_07_trees_nearly_crossing_free():
    ok, detail = check_07_trees_nearly_crossing_free(*PAPER)
    report(7, "trees-nearly-crossing-free", ok, detail)
    assert ok


def test_criteria_03_04_05_07_hold_from_the_default_start():
    results = [
        (3, check_03_scaling_reduces_crossings(*DEFAULT)),
        (4, check_04_tree_compactness(*DEFAULT)),
        (5, check_05_centralization(*DEFAULT)),
        (7, check_07_trees_nearly_crossing_free(*DEFAULT)),
    ]
    for num, (ok, detail) in results:
        report(num, "default start and config", ok, detail)
    assert all(ok for _, (ok, _) in results)


def test_criterion_08_engine_invariants():
    checks = []

    # force antisymmetry on random pairs
    rng = np.random.default_rng(88)
    anti = True
    for _ in range(200):
        pu, pv = rng.uniform(-500, 500, (2, 2))
        anti = anti and bool(
            np.allclose(repulsive_force(pu, pv, K), -repulsive_force(pv, pu, K))
            and np.allclose(attractive_force(pu, pv, K), -attractive_force(pv, pu, K))
        )
    checks.append(("antisymmetry", anti))

    # translation and rotation equivariance of run_layout
    g = gl.generate_random_tree(14, seed=8)
    mass = mass_for(g, "degree")
    cfg = gl.LayoutConfig(seed=8, max_iterations=40, equilibrium_eps=1e-12)
    init = gl.initialize_positions(g, 8, K)
    base = gl.run_layout(g, mass, cfg, initial=init)
    shift = np.array([37.5, -110.25])
    shifted = gl.run_layout(g, mass, cfg, initial=init + shift)
    checks.append(("translation", bool(np.allclose(shifted, base + shift, atol=1e-6))))
    theta = 1.23
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    rotated = gl.run_layout(g, mass, cfg, initial=init @ rot.T)
    checks.append(("rotation", bool(np.allclose(rotated, base @ rot.T, atol=1e-6))))

    # per-step displacement cap
    capped = True
    state = gl.LayoutState(positions=init)
    cfg_c = gl.LayoutConfig(gamma_max=2.5, gamma_step=2.5, seed=8)
    for _ in range(50):
        nxt = gl.step(state, g, mass, cfg_c)
        moved = np.linalg.norm(nxt.positions - state.positions, axis=1)
        capped = capped and bool(np.all(moved <= cfg_c.sigma * cfg_c.i_max + 1e-12))
        state = nxt
    checks.append(("displacement-cap", capped))

    # gamma monotone and capped, climbing in steps and in one full step
    mono = True
    for gamma_step in (0.2, 0.8):
        cfg_s = gl.LayoutConfig(
            gamma_step=gamma_step, block_len=10, gamma_max=0.8, max_iterations=80, seed=8
        )
        state = gl.LayoutState(positions=init)
        prev = state.gamma
        while state.t < cfg_s.max_iterations:
            state = gl.step(state, g, mass, cfg_s)
            mono = mono and prev <= state.gamma <= cfg_s.gamma_max
            prev = state.gamma
    checks.append(("gamma-monotone-capped", mono))

    # bit determinism: repeated runs and varying thread counts
    cfg_d = gl.LayoutConfig(seed=12, max_iterations=400)
    g2 = gl.generate_random_tree(50, seed=12)
    mass2 = mass_for(g2, "degree")
    pos_a = gl.run_layout(g2, mass2, cfg_d)
    pos_b = gl.run_layout(g2, mass2, cfg_d)
    in_process = hashlib.sha256(pos_a.tobytes()).hexdigest()
    checks.append(("repeat-identical", bool(np.array_equal(pos_a, pos_b))))
    script = (
        "import hashlib, numpy as np, gravlayout as gl;"
        "g = gl.generate_random_tree(50, seed=12);"
        "mass = gl.normalize_mass(gl.compute_centrality(g, 'degree'));"
        "pos = gl.run_layout(g, mass, gl.LayoutConfig(seed=12, max_iterations=400));"
        "print(hashlib.sha256(pos.tobytes()).hexdigest())"
    )
    hashes = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        hashes.append(out.stdout.strip())
    checks.append(("thread-count-identical", all(h == in_process for h in hashes)))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks)
    report(8, "engine-invariants", ok, detail)
    assert ok


def test_criterion_09_lombardi_phase():
    tol = 1e-6 * K

    # the main layout's positions, bit for bit, on several graphs
    positions_ok = True
    endpoint_ok = True
    for seed in (1, 2):
        g = gl.generate_random_tree(12, seed=seed)
        mass = mass_for(g, "degree")
        cfg = gl.LayoutConfig(seed=seed, max_iterations=600)
        plain = gl.run_layout(g, mass, cfg)
        pos, sweeps = gl.layout_lombardi(g, mass, cfg)
        positions_ok = positions_ok and bool(np.array_equal(pos, plain))
        _, centers, radii = gl.arc_geometry(pos, g, sweeps)
        for (u, v), sweep, center, radius in zip(g.edges, sweeps, centers, radii):
            if sweep == 0.0:
                continue
            for p in (pos[u], pos[v]):
                endpoint_ok = endpoint_ok and abs(math.dist(p, center) - radius) <= tol

    # triangle midpoints strictly outside their chords
    g = gl.Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    cfg = gl.LayoutConfig(gamma_max=0.0, seed=3)
    pos, sweeps = gl.layout_lombardi(g, mass_for(g, "uniform"), cfg)
    midpoints = gl.arc_geometry(pos, g, sweeps)[0]
    center = pos.mean(axis=0)
    outward_ok = sweeps.shape == (3,)
    for (u, v), mid in zip(g.edges, midpoints):
        chord = pos[v] - pos[u]
        side_center = chord[0] * (center[1] - pos[u][1]) - chord[1] * (center[0] - pos[u][0])
        side_mid = chord[0] * (mid[1] - pos[u][1]) - chord[1] * (mid[0] - pos[u][0])
        outward_ok = outward_ok and bool(side_mid * side_center < 0)

    ok = positions_ok and endpoint_ok and outward_ok
    report(
        9,
        "lombardi-phase",
        ok,
        f"positions-as-run_layout={positions_ok}, endpoints-within-{tol:g}={endpoint_ok}, "
        f"triangle-outward={outward_ok}",
    )
    assert ok


def test_criterion_10_metrics_oracles():
    rng = np.random.default_rng(777)
    crossings_ok = True
    for _ in range(100):
        g = random_graph(rng, 4, 15)
        pos = rng.uniform(-100, 100, (g.vertex_count, 2))
        if gl.count_crossings(g, pos) != parametric_crossings(g, pos):
            crossings_ok = False
            break

    spearman_ok = True
    base = np.arange(1, 6, dtype=float)
    for perm in itertools.permutations(range(5)):
        x = base[list(perm)]
        if abs(gl.spearman(x, base) - spearman_formula(x, base)) > 1e-12:
            spearman_ok = False
            break

    ok = crossings_ok and spearman_ok
    report(
        10,
        "metrics-oracles",
        ok,
        f"crossings-oracle-agreement={crossings_ok}, spearman-formula-agreement={spearman_ok}",
    )
    assert ok
