import itertools
import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from gravlayout import (
    Graph,
    LayoutConfig,
    LayoutState,
    MassVector,
    arc_geometry,
    bounding_area,
    centrality_radius_correlation,
    closeness_centrality,
    compute_metrics,
    count_crossings,
    degree_centrality,
    edge_length_stats,
    generate_forest,
    generate_random_tree,
    initialize_positions,
    min_angular_resolution,
    normalize_mass,
    render_svg,
    run_layout,
    schedule_gamma,
    settled,
    step,
    terminal_gamma,
    uniform_centrality,
)
from conftest import blas_thread_hashes
from gravlayout import engine
from oracles import (
    FUZZ_ATOMS,
    attractive_force,
    centroid,
    gravity_force,
    net_impulse,
    not_numbers,
    radial_start_reference,
    random_graph,
    repulsive_force,
    separate_coincident,
    uniform_reference,
)


def uniform_mass(g):
    return normalize_mass(uniform_centrality(g))


def test_repulsive_examples():
    assert np.allclose(repulsive_force((0, 0), (80, 0), 80.0), (80.0, 0.0))
    assert np.allclose(repulsive_force((0, 0), (160, 0), 80.0), (40.0, 0.0))


def test_repulsive_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pu, pv = rng.uniform(-100, 100, (2, 2))
        f = repulsive_force(pu, pv, 80.0)
        assert np.allclose(f, -repulsive_force(pv, pu, 80.0))
        assert np.linalg.norm(f) == pytest.approx(80.0**2 / np.linalg.norm(pv - pu))


def test_repulsive_coincident_raises():
    with pytest.raises(ValueError):
        repulsive_force((1, 1), (1, 1), 80.0)


def test_attractive_examples():
    assert np.allclose(attractive_force((0, 0), (80, 0), 80.0), (-80.0, 0.0))
    assert np.allclose(attractive_force((0, 0), (0, 0), 80.0), (0.0, 0.0))
    f = attractive_force((0, 0), (40, 0), 80.0)
    assert np.linalg.norm(f) == pytest.approx(20.0)


def test_attractive_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(30):
        pu, pv = rng.uniform(-100, 100, (2, 2))
        assert np.allclose(attractive_force(pu, pv, 80.0), -attractive_force(pv, pu, 80.0))


def test_forces_cancel_at_natural_length():
    pu, pv = np.array([0.0, 0.0]), np.array([80.0, 0.0])
    total = repulsive_force(pu, pv, 80.0) + attractive_force(pu, pv, 80.0)
    assert np.all(total == 0.0)


def test_centroid():
    assert np.allclose(centroid([(0, 0), (2, 0)]), (1.0, 0.0))
    assert np.allclose(centroid([(3, 4)]), (3.0, 4.0))
    assert np.allclose(centroid([(1, 1), (-1, 1), (1, -1), (-1, -1)]), (0.0, 0.0))
    with pytest.raises(ValueError):
        centroid(np.empty((0, 2)))


def test_gravity_force():
    assert np.allclose(gravity_force((10, 0), (0, 0), 1.0, 0.2), (-2.0, 0.0))
    assert np.allclose(gravity_force((5, 7), (1, 2), 3.0, 0.0), (0.0, 0.0))
    assert np.allclose(gravity_force((4, 4), (4, 4), 2.0, 1.5), (0.0, 0.0))


def test_schedule_constant_and_none():
    # Constant gravity is a gamma_step of at least gamma_max: the start state
    # steps to gamma_max, and a level at gamma_max stays there, settled or
    # capped. No gravity is gamma_max 0, whatever the step.
    state = LayoutState(positions=np.zeros((1, 2)))
    for gamma_step in (2.5, 4.0):
        cfg = LayoutConfig(gamma_max=2.5, gamma_step=gamma_step)
        assert schedule_gamma(0, state, cfg) == 2.5
        assert schedule_gamma(99999, state, cfg) == 2.5
        for t, last_max_impulse in ((10, 5.0), (10, 0.5), (99999, 5.0)):
            held = LayoutState(positions=np.zeros((1, 2)), gamma=2.5, last_max_impulse=last_max_impulse)
            assert schedule_gamma(t, held, cfg) == 2.5
    for gamma_step in (0.2, 0.5, 2.5):
        assert schedule_gamma(500, state, LayoutConfig(gamma_max=0.0, gamma_step=gamma_step)) == 0.0


def test_schedule_stepped_by_equilibrium():
    cfg = LayoutConfig(equilibrium_eps=1.0)
    busy = LayoutState(positions=np.zeros((1, 2)), gamma=0.4, last_max_impulse=5.0)
    assert schedule_gamma(10, busy, cfg) == pytest.approx(0.4)
    calm = LayoutState(positions=np.zeros((1, 2)), gamma=0.4, last_max_impulse=0.5)
    assert schedule_gamma(10, calm, cfg) == pytest.approx(0.9)
    # An intermediate level ends below LEVEL_EPS * eps, not eps: a move of
    # 2 steps up, but at gamma_max it holds gamma and is not settled.
    assert engine.LEVEL_EPS == 3.0
    resting = replace(calm, last_max_impulse=2.0)
    assert schedule_gamma(10, resting, cfg) == pytest.approx(0.9)
    top = replace(resting, gamma=cfg.gamma_max)
    assert schedule_gamma(10, top, cfg) == cfg.gamma_max
    assert not settled(top, cfg)
    assert settled(replace(top, last_max_impulse=0.5), cfg)
    # A start state steps straight to the first level, capped at gamma_max.
    start = LayoutState(positions=np.zeros((1, 2)))
    assert schedule_gamma(1, start, cfg) == 0.5
    assert schedule_gamma(1, start, replace(cfg, gamma_max=0.3)) == 0.3
    assert schedule_gamma(1, start, replace(cfg, gamma_max=0.0)) == 0.0
    capped = LayoutState(positions=np.zeros((1, 2)), gamma=2.5, last_max_impulse=0.0)
    assert schedule_gamma(10, capped, cfg) == pytest.approx(2.5)


@pytest.mark.parametrize(("gamma_max", "gamma_step"), [(2.5, 2.5), (0.0, 0.5)])
def test_single_level_runs_do_not_depend_on_level_eps(monkeypatch, gamma_max, gamma_step):
    # Constant gravity and gravity off never change level, so the threshold
    # that ends an intermediate level cannot touch them: LEVEL_EPS 1, the
    # rule that made every level settle to eps, gives the same bits.
    g = generate_random_tree(70, seed=4)
    mass = normalize_mass(closeness_centrality(g))
    cfg = LayoutConfig(gamma_max=gamma_max, gamma_step=gamma_step, seed=4)
    single, stepped = (run_layout(g, mass, c) for c in (cfg, LayoutConfig(seed=4)))
    monkeypatch.setattr(engine, "LEVEL_EPS", 1.0)
    assert np.array_equal(run_layout(g, mass, cfg), single)
    assert not np.array_equal(run_layout(g, mass, LayoutConfig(seed=4)), stepped)  # the patch takes


def test_terminal_gamma():
    assert terminal_gamma(LayoutConfig()) == 2.5
    for gamma_max in (0.0, 1.2, 2.0**1000):
        assert terminal_gamma(LayoutConfig(gamma_max=gamma_max)) == gamma_max


@pytest.mark.parametrize("kind", ["degree", "closeness"])
def test_gravity_off_is_one_run_under_every_schedule(kind):
    # At gamma_max 0 gamma never leaves 0, whatever gamma_step, so every
    # step makes the same run bit for bit and stops at the same iteration,
    # after many block_len 5 caps have passed.
    g = generate_forest([12, 9, 1], seed=4)
    mass = normalize_mass(closeness_centrality(g) if kind == "closeness" else degree_centrality(g))
    runs = set()
    for gamma_step in (0.2, 0.5, 2.5):
        cfg = LayoutConfig(gamma_max=0.0, gamma_step=gamma_step, block_len=5, seed=5)
        state = LayoutState(positions=initialize_positions(g, cfg.seed, cfg.k))
        while state.t < cfg.max_iterations and not settled(state, cfg):
            state = step(state, g, mass, cfg)
            assert state.gamma == 0.0
        assert state.t > 8 * cfg.block_len
        auto = run_layout(g, mass, cfg)
        assert np.array_equal(auto, state.positions)
        runs.add((state.t, auto.tobytes()))
    assert len(runs) == 1


@pytest.mark.parametrize("gamma_max", [2.5, 0.8, 0.0])
def test_one_full_step_holds_gamma_max_from_the_first_iteration(gamma_max):
    # Constant gravity is one step of gamma_max: gamma is gamma_max from
    # t = 1, and no later level starts, so nothing resets the heat or the
    # level's energy record. A larger step makes the same run bit for bit.
    g = generate_random_tree(70, seed=2)
    mass = normalize_mass(closeness_centrality(g))
    cfg = LayoutConfig(gamma_max=gamma_max, gamma_step=gamma_max or 1.0, seed=2, max_iterations=300)
    state = LayoutState(positions=initialize_positions(g, cfg.seed, cfg.k))
    lowest = math.inf
    while state.t < cfg.max_iterations and not settled(state, cfg):
        state = step(state, g, mass, cfg)
        assert state.gamma == gamma_max and state.level_start == 0
        assert state.lowest_energy <= lowest
        lowest = state.lowest_energy
    assert state.t > 1
    auto = run_layout(g, mass, cfg)
    assert np.array_equal(auto, state.positions)
    assert np.array_equal(auto, run_layout(g, mass, replace(cfg, gamma_step=4 * cfg.gamma_step)))


def test_config_validation():
    with pytest.raises(ValueError):
        LayoutConfig(k=0)
    with pytest.raises(ValueError):
        LayoutConfig(sigma=-1)
    with pytest.raises(ValueError):
        LayoutConfig(block_len=0)
    with pytest.raises(ValueError):
        LayoutConfig(equilibrium_eps=0.0)
    LayoutConfig(gamma_max=0.0)  # allowed: turns gravity off
    bad = [
        {"k": math.nan},
        {"k": math.inf},
        {"i_max": math.nan},
        {"sigma": math.inf},
        {"gamma_max": math.nan},
        {"gamma_max": math.inf},
        {"gamma_max": -math.inf},
        {"gamma_step": math.nan},
        {"equilibrium_eps": math.inf},
        {"k": "80"},
        {"k": True},
        {"max_iterations": 2.5},
        {"max_iterations": 0},
        {"block_len": True},
        {"block_len": 20.0},
        {"seed": 1.5},
        {"seed": -1},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            LayoutConfig(**kwargs)
    LayoutConfig(k=np.float64(40.0), block_len=np.int64(50), seed=np.int32(3), i_max=5)


POSITIVE = (0.5, 80.0, 3, np.float64(2.5), np.float32(0.25), Fraction(1, 3), np.int64(7))
NONNEGATIVE = (0.0, 0, 2.5, np.float32(1.5), Fraction(3, 2))
CONFIG_VALUES = {
    "k": POSITIVE, "i_max": POSITIVE, "sigma": POSITIVE, "gamma_step": POSITIVE,
    "equilibrium_eps": POSITIVE, "gamma_max": NONNEGATIVE,
    "block_len": (1, 200, np.int64(5), np.uint8(3)), "max_iterations": (1, 3000, np.int32(9)),
    "seed": (0, 7, 2**70, np.int32(3)),
}
ODD_CONFIG_VALUES = FUZZ_ATOMS + (1 + 2j, np.bool_(True), np.float64(math.nan), Fraction(-1, 2), "stepped", (1,))


def test_layout_config_fuzz():
    # A config either holds its inputs as Python floats and ints that meet
    # every documented constraint, or raises ValueError. One built only from
    # valid values must be accepted.
    rng = np.random.default_rng(100)
    rejected = raised = 0
    for _ in range(800):
        values, all_valid = {}, True
        for name in (f.name for f in fields(LayoutConfig)):
            if rng.random() < 0.5:
                continue
            if rng.random() < 0.85:
                options = CONFIG_VALUES[name]
            else:
                options, all_valid = ODD_CONFIG_VALUES, False
            values[name] = options[int(rng.integers(len(options)))]
        try:
            cfg = LayoutConfig(**values)
        except ValueError:
            assert not all_valid, values
            rejected += 1
            continue
        for name, given in values.items():
            held = getattr(cfg, name)
            if name in ("block_len", "max_iterations", "seed"):
                assert type(held) is int and held == given, (name, given)
            else:
                assert type(held) is float and math.isfinite(held) and held == float(given), (name, given)
        assert min(cfg.k, cfg.i_max, cfg.sigma, cfg.gamma_step, cfg.equilibrium_eps) > 0
        assert min(cfg.gamma_max, cfg.seed) >= 0
        assert min(cfg.block_len, cfg.max_iterations) >= 1
        raised += layout_raises(cfg)
    assert 100 < rejected < 700
    assert 0 < raised < 800 - rejected


PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def layout_raises(cfg):
    """Whether one step under cfg, or a run_layout of it capped at 20
    iterations, raised ValueError on a 4-vertex path. Each must otherwise
    come back finite, with no warning on the way."""
    mass = normalize_mass(degree_centrality(PATH4))
    start = LayoutState(positions=initialize_positions(PATH4, cfg.seed, cfg.k))
    runs = (
        lambda: step(start, PATH4, mass, cfg).positions,
        lambda: run_layout(PATH4, mass, replace(cfg, max_iterations=min(cfg.max_iterations, 20))),
    )
    raised = False
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert np.all(np.isfinite(run())), cfg
            except ValueError:
                raised = True
    return raised


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k": 1e160}, {"k": 1e-300}, {"sigma": 1e200}, {"sigma": 1e300, "i_max": 1e300}, {"k": 1e300},
        {"k": 1e20, "gamma_max": 1e300, "gamma_step": 1e300},
        {"k": 1e153, "gamma_max": 1e300, "gamma_step": 1e300},
        {"k": 1e100, "gamma_max": 1e300, "gamma_step": 1e300, "block_len": 1},
        {"k": 1e150, "gamma_max": 0.0, "max_iterations": 20, "gap": 2e-6},
        {"k": 1e153, "gamma_max": 0.0, "max_iterations": 20, "gap": 0.1},
    ],
    ids=lambda kw: ",".join(f"{name}={value:g}" for name, value in kw.items()),
)
def test_config_a_run_cannot_carry_raises_value_error(kwargs):
    # The first five made run_layout return NaN positions, or raise
    # OverflowError, before k was bounded and a run's reach checked. The
    # next three overflowed gravity with a RuntimeWarning on the way before
    # the impulses were bounded within that reach. The last two start with
    # the path's vertices gap * k apart: their repulsion overflowed the
    # impulses' squared magnitudes, so the clamp scaled every move to zero
    # and the run returned its start unchanged, without a warning, before
    # repulsion was bounded too.
    mass = uniform_mass(PATH4)
    kwargs = dict(kwargs)
    gap = kwargs.pop("gap", None)
    start = np.zeros((4, 2)) if gap is None else np.column_stack([np.arange(4.0) * gap * kwargs["k"], np.zeros(4)])
    runs = (
        lambda cfg: run_layout(PATH4, mass, cfg, initial=None if gap is None else start),
        lambda cfg: step(LayoutState(positions=start), PATH4, mass, cfg),
    )
    for run in runs:
        with warnings.catch_warnings(), pytest.raises(ValueError):
            warnings.simplefilter("error")
            run(LayoutConfig(**{"max_iterations": 50, **kwargs}))


def test_reach_checked_from_the_start_positions():
    mass = uniform_mass(PATH4)
    far = LayoutState(positions=np.full((4, 2), 1e154))
    for run in (
        lambda: step(far, PATH4, mass, LayoutConfig()),
        lambda: run_layout(PATH4, mass, LayoutConfig(), initial=far.positions),
    ):
        with pytest.raises(ValueError, match="overflowing squared distances"):
            run()
    with pytest.raises(ValueError, match="overflowing squared distances"):
        step(LayoutState(positions=np.zeros((4, 2))), PATH4, mass, LayoutConfig(max_iterations=10**400))


@pytest.mark.parametrize(
    "k, scan",
    [(1.0, "gamma_max"), (1e20, "gamma_max"), (1e100, "gamma_max"), (1e-100, "scale"), (80.0, "scale")],
)
def test_largest_config_inside_the_force_bound_keeps_impulses_finite(k, scan):
    # The largest power of two the bound admits, as gamma_max (gravity) or as
    # the start's coordinate scale (spring pull), steps 20 times with finite
    # impulses and no warning; twice that power raises. The scale rows turn
    # gravity off (gamma_max 0), so they probe the spring pull alone. The
    # graph is a 100-leaf star with every leaf on one side, so the pulls on
    # the centre add up. A gamma_step of 2^1000, above every admitted
    # gamma_max, holds gravity at gamma_max from the first step.
    g = Graph.from_edges(101, [(0, v) for v in range(1, 101)])
    mass = normalize_mass(degree_centrality(g))
    base = LayoutConfig(k=k, gamma_max=2.0**1000, block_len=2, gamma_step=2.0**1000, max_iterations=20)
    unit = np.column_stack([np.ones(101), np.linspace(-1.0, 1.0, 101)])
    unit[0] = (-1.0, 0.0)

    def setup(power):
        x = 2.0**power
        if scan == "gamma_max":
            return replace(base, gamma_max=x), unit * k
        return replace(base, gamma_max=0.0), unit * x

    def admitted(power):
        cfg, start = setup(power)
        try:
            engine._start(start, g, mass, cfg)
        except ValueError:
            return False
        return True

    power = next(p for p in range(1023, -1075, -1) if admitted(p))
    cfg, start = setup(power + 1)
    with pytest.raises(ValueError, match="could overflow the impulses"):
        run_layout(g, mass, cfg, initial=start)
    cfg, start = setup(power)
    state = LayoutState(positions=start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while state.t < cfg.max_iterations:
            state = step(state, g, mass, cfg)
            assert math.isfinite(state.last_max_impulse) and np.isfinite(state.positions).all()


def test_run_layout_raises_rather_than_return_non_finite_positions(monkeypatch):
    # A config that passes validation and the up-front bounds keeps every
    # force term finite, so only a faulty iteration reaches this guard.
    advance = engine._advance

    def faulty(pos, *args):
        out = advance(pos, *args)
        pos[1, 0] = math.nan
        return out

    monkeypatch.setattr(engine, "_advance", faulty)
    with pytest.raises(ValueError, match="non-finite"):
        run_layout(PATH4, uniform_mass(PATH4), LayoutConfig(max_iterations=5))


def test_clamp_with_huge_i_max_stays_quiet():
    # A zero impulse under i_max = 1e300: the clamp's i_max / mag must not overflow.
    g = Graph.from_edges(2, [(0, 1)])
    state = LayoutState(positions=np.array([[0.0, 0.0], [80.0, 0.0]]))
    cfg = LayoutConfig(gamma_max=0.0, i_max=1e300, sigma=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nxt = step(state, g, uniform_mass(g), cfg)
    assert np.array_equal(nxt.positions, state.positions)


def test_initialize_deterministic_and_in_range():
    # 400 isolated vertices fill 20 shelves of 20 cells of side k, centered,
    # so they stay in the square the random start drew them from.
    g = Graph(400)
    a = initialize_positions(g, seed=9, k=80.0)
    b = initialize_positions(g, seed=9, k=80.0)
    assert np.array_equal(a, b)
    assert a.shape == (400, 2)
    assert np.all(np.abs(a) <= 0.5 * 80.0 * math.sqrt(400))
    assert initialize_positions(Graph(0), 1, 80.0).shape == (0, 2)


@pytest.mark.parametrize(
    "seed, k, message",
    [
        (-1, 80.0, "seed must be >= 0"),
        (1.5, 80.0, "seed must be an integer"),
        (True, 80.0, "seed must be an integer"),
        (None, 80.0, "seed must be an integer"),
        (1, math.nan, "k must be a finite number"),
        (1, math.inf, "k must be a finite number"),
        (1, "80", "k must be a finite number"),
        (1, True, "k must be a finite number"),
        (1, 0.0, "k must be positive"),
        (1, -80.0, "k must be positive"),
        (1, 1e307, "beyond the float range"),
    ],
)
def test_start_refuses_bad_seed_and_k(seed, k, message):
    # The seed is checked as LayoutConfig checks it. A k that is not
    # positive and finite would draw a NaN start, or every vertex on one point.
    with pytest.raises(ValueError, match=message):
        initialize_positions(generate_forest([30] * 20, seed=1), seed, k)


def test_start_accepts_every_config_seed_and_integral_k():
    g = generate_random_tree(30, seed=1)
    for seed in (0, 2**63, 2**64 - 1, 2**64 + 3, 10**30):
        cfg = LayoutConfig(seed=seed)
        assert np.isfinite(initialize_positions(g, cfg.seed, cfg.k)).all()
    # Seeds are taken mod 2^64; a numpy seed or an integral k draws as a Python one.
    want = initialize_positions(g, 3, 80.0)
    for seed, k in ((2**64 + 3, 80.0), (np.int64(3), 80.0), (np.uint64(3), 80.0), (3, 80), (3, np.float32(80.0))):
        assert np.array_equal(initialize_positions(g, seed, k), want)


def test_noise_matches_python_int_splitmix64_without_warnings():
    seeds = (0, 1, 5, 2**63, 2**64 - 1, 2**64 + 7, 10**30)
    ts = (0, 1, 17, 2**64 - 1)
    keys = [0, 1, 2, 843, 2**32 + 5, 2**63, 2**64 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's scalar uint64 arithmetic warns on overflow
        for seed, t in itertools.product(seeds, ts):
            got = engine._uniforms(seed, t, keys)
            assert got.tolist() == [uniform_reference(seed, t, key) for key in keys]
            assert ((0.0 <= got) & (got < 1.0)).all()
        assert engine._uniforms(1, 2, []).shape == (0,)
        assert np.array_equal(engine._uniforms(np.int64(5), np.int64(17), keys), engine._uniforms(5, 17, keys))


def test_start_jitter_is_gaussian_with_sd_start_jitter_k():
    # 400 isolated vertices fill 20 shelves of 20 cells of side k, vertex v
    # in column v % 20 of shelf v // 20: less the cell centers, a start is
    # 400 draws of the jitter.
    k, v = 80.0, np.arange(400)
    centers = k * (np.column_stack((v % 20, v // 20)) + 0.5 - 10)
    draws = np.concatenate([initialize_positions(Graph(400), seed, k) - centers for seed in range(10)])
    sd = engine.START_JITTER * k
    assert np.all(np.abs(draws.mean(axis=0)) < 0.1 * sd)
    assert np.all(np.abs(draws.std(axis=0) / sd - 1.0) < 0.05)
    assert abs(np.corrcoef(draws.T)[0, 1]) < 0.1
    # Box-Muller: |jitter| / sd is Rayleigh, P(r > 2) = exp(-2).
    assert abs(np.mean(np.hypot(*draws.T) > 2 * sd) - math.exp(-2.0)) < 0.02


def tree_with_chords(n, chords, seed):
    """A random tree on n vertices plus `chords` random non-tree edges."""
    tree = generate_random_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    edges = set(tree.edges)
    while len(edges) < tree.edge_count + chords:
        u, v = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((u, v))
    return Graph.from_edges(n, edges)


START_GRAPHS = {
    "tree": lambda: generate_random_tree(70, seed=1),
    "forest": lambda: generate_forest([22] * 2 + [21] * 18, seed=1),
    "isolated": lambda: generate_forest([30] + [1] * 30, seed=1),
    "chords": lambda: tree_with_chords(100, 10, seed=1),
    "dense": lambda: random_graph(np.random.default_rng(1), 30, 30),
    "path": lambda: Graph.from_edges(41, [(v, v + 1) for v in range(40)]),
}


@pytest.mark.parametrize("name", START_GRAPHS)
def test_start_is_seeded_finite_and_separated(name):
    g = START_GRAPHS[name]()
    k = 80.0
    starts = [initialize_positions(g, seed, k) for seed in (4, 4, 5)]
    assert np.array_equal(starts[0], starts[1])
    assert not np.array_equal(starts[0], starts[2])
    for pos in starts:
        assert pos.shape == (g.vertex_count, 2) and np.isfinite(pos).all()
        d2 = np.add.reduce((pos[:, None, :] - pos[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= (engine.JITTER_TRIGGER * k) ** 2


@pytest.mark.parametrize("name", START_GRAPHS)
def test_start_matches_level_sweep_reference(name):
    g = START_GRAPHS[name]()
    for seed, k in ((0, 80.0), (7, 1.5)):
        got = initialize_positions(g, seed, k)
        np.testing.assert_allclose(got, radial_start_reference(g, seed, k), rtol=0, atol=1e-9 * k)


def test_start_is_crossing_free_on_the_criteria_trees_and_forests():
    # Criterion 7's trees and criterion 3's forests start with no crossing.
    for seed in range(20):
        for g in (generate_random_tree(70, seed=seed), generate_forest([35] * 4 + [34], seed=seed)):
            assert count_crossings(g, initialize_positions(g, seed, 80.0)) == 0


def test_start_packs_a_tree_beside_isolated_vertices():
    # Shelves put 300 isolated vertices next to a 300-vertex tree in a
    # drawing a few thousand units wide, and the default run settles in 698
    # iterations; from the uniform random start it took 1863.
    g = generate_forest([300] + [1] * 300, seed=0)
    mass = normalize_mass(degree_centrality(g))
    cfg = LayoutConfig(seed=0)
    init = initialize_positions(g, cfg.seed, cfg.k)
    assert np.ptp(init, axis=0).max() < 80 * cfg.k
    state, _ = step_to_stop(g, mass, cfg, init)
    assert settled(state, cfg) and state.t < 1000


def test_net_impulse_k2_at_natural_length():
    g = Graph.from_edges(2, [(0, 1)])
    state = LayoutState(positions=np.array([[0.0, 0.0], [80.0, 0.0]]), gamma=0.0)
    cfg = LayoutConfig(gamma_max=0.0)
    for v in (0, 1):
        assert np.all(net_impulse(v, state, g, uniform_mass(g), cfg) == 0.0)


def test_net_impulse_single_vertex():
    g = Graph(1)
    state = LayoutState(positions=np.array([[5.0, 5.0]]), gamma=2.0)
    imp = net_impulse(0, state, g, uniform_mass(g), LayoutConfig())
    assert np.allclose(imp, 0.0)


def test_net_impulse_isolated_vertex_is_gravity_plus_repulsion():
    g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
    pos = np.array([[0.0, 0.0], [50.0, 0.0], [10.0, 40.0]])
    state = LayoutState(positions=pos, gamma=1.5)
    mass = normalize_mass(uniform_centrality(g))
    cfg = LayoutConfig()
    got = net_impulse(2, state, g, mass, cfg)
    want = (
        repulsive_force(pos[0], pos[2], cfg.k)
        + repulsive_force(pos[1], pos[2], cfg.k)
        + gravity_force(pos[2], centroid(pos), 1.0, 1.5)
    )
    assert np.allclose(got, want, atol=1e-12)


def test_step_clamp_rule():
    # two unconnected vertices at distance d feel repulsion k^2/d each; a
    # start state is at full heat, so each moves sigma * min(impulse, i_max)
    cfg = LayoutConfig(gamma_max=0.0, sigma=0.1)
    for d, expected in ((256.0, 1.0), (1600.0, 0.4)):  # impulses 25 and 4
        g = Graph(2)
        state = LayoutState(positions=np.array([[0.0, 0.0], [d, 0.0]]))
        nxt = step(state, g, uniform_mass(g), cfg)
        moved = np.linalg.norm(nxt.positions - state.positions, axis=1)
        assert moved == pytest.approx([expected, expected])


def test_step_zero_impulse_fixed_point():
    g = Graph.from_edges(2, [(0, 1)])
    state = LayoutState(positions=np.array([[0.0, 0.0], [80.0, 0.0]]))
    nxt = step(state, g, uniform_mass(g), LayoutConfig(gamma_max=0.0))
    assert np.array_equal(nxt.positions, state.positions)
    assert nxt.t == state.t + 1
    assert nxt.last_max_impulse == 0.0


def test_step_displacement_never_exceeds_cap():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng, 2, 14)
        cfg = LayoutConfig(gamma_max=2.5, gamma_step=2.5)
        state = LayoutState(
            positions=rng.uniform(-50, 50, (g.vertex_count, 2)), gamma=2.5
        )
        mass = uniform_mass(g)
        for _ in range(5):
            nxt = step(state, g, mass, cfg)
            moved = np.linalg.norm(nxt.positions - state.positions, axis=1)
            assert np.all(moved <= cfg.sigma * cfg.i_max + 1e-12)
            state = nxt


def assert_step_matches_scalar_reference(state, g, mass, cfg):
    # The scalar impulses in the step's rest frame: less their mean.
    nxt = step(state, g, mass, cfg)
    imps = np.array([net_impulse(v, state, g, mass, cfg) for v in range(g.vertex_count)])
    imps -= imps.mean(axis=0)
    for v, imp in enumerate(imps):
        mag = float(np.linalg.norm(imp))
        want = cfg.sigma * imp * min(1.0, cfg.i_max / mag) if mag else np.zeros(2)
        got = nxt.positions[v] - state.positions[v]
        assert np.linalg.norm(got - want) <= 1e-9


def test_step_matches_scalar_reference():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 8, 14)
    cfg = LayoutConfig(gamma_max=1.3, gamma_step=1.3)
    state = LayoutState(positions=rng.uniform(-300, 300, (g.vertex_count, 2)), gamma=1.3)
    assert_step_matches_scalar_reference(state, g, uniform_mass(g), cfg)


def test_step_matches_scalar_reference_with_degree_mass():
    # Unequal masses: gravity's net push gamma n (xi - xi_M) is far from
    # zero here. The step takes it out with the impulses' mean.
    rng = np.random.default_rng(41)
    g = random_graph(rng, 8, 14)
    mass = normalize_mass(degree_centrality(g))
    cfg = LayoutConfig(gamma_max=1.3, gamma_step=1.3)
    state = LayoutState(positions=rng.uniform(-300, 300, (g.vertex_count, 2)), gamma=1.3)
    net = sum(net_impulse(v, state, g, mass, cfg) for v in range(g.vertex_count))
    assert np.linalg.norm(net) > 100.0
    assert_step_matches_scalar_reference(state, g, mass, cfg)


def test_step_matches_scalar_reference_across_blocks():
    rng = np.random.default_rng(43)
    n = 300
    assert engine._block_rows(n) < n // 3  # the kernel walks several blocks
    g = Graph.from_edges(n, [(int(rng.integers(v)), v) for v in range(1, n)])
    cfg = LayoutConfig(gamma_max=0.7, gamma_step=0.7)
    state = LayoutState(positions=rng.uniform(-900, 900, (n, 2)), gamma=0.7)
    assert_step_matches_scalar_reference(state, g, uniform_mass(g), cfg)


def test_jitter_across_block_boundary_follows_pair_rule():
    rng = np.random.default_rng(44)
    n = 300
    rows = engine._block_rows(n)
    pos = rng.uniform(-900, 900, (n, 2))
    u, v, w = rows - 1, rows, 2 * rows + 5  # u and v straddle the first block boundary
    pos[v] = pos[u]
    pos[w] = pos[u] + 1e-7
    p, q = 10, rows + 20  # a second straddling pair
    pos[q] = pos[p]
    k, seed, t = 80.0, 5, 17

    def nudge(x):
        angle = engine.TWO_PI * engine._uniforms(seed, t, [x])
        return engine.JITTER_MAGNITUDE * k * np.concatenate((np.cos(angle), np.sin(angle)))

    want = separate_coincident(pos, k, nudge)
    # (p, q) moves q; (u, v) moves v; (u, w) moves w; (v, w) is skipped
    # because w already moved. u and p never move.
    assert np.flatnonzero(np.any(want != pos, axis=1)).tolist() == [v, q, w]
    for block in (rows, 1, 7, n):
        got = pos.copy()
        engine._separated_repulsion(got, k, seed, t, engine._KernelScratch(n, block))
        assert np.array_equal(got, want)
    g = Graph(n)
    cfg = LayoutConfig(gamma_max=0.0, seed=seed)
    nxt = step(LayoutState(positions=pos, t=t - 1), g, uniform_mass(g), cfg)
    assert np.all(np.isfinite(nxt.positions))
    assert np.linalg.norm(nxt.positions[v] - nxt.positions[u]) > 0.5 * engine.JITTER_MAGNITUDE * k


def test_nudges_take_a_numpy_integer_iteration():
    # step accepts numpy integers for t; the nudge hash takes them as ints.
    g, pos = Graph(3), np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0]])
    mass, cfg = uniform_mass(g), LayoutConfig()
    got = step(LayoutState(positions=pos, t=np.int64(5), level_start=np.int64(0)), g, mass, cfg)
    want = step(LayoutState(positions=pos, t=5), g, mass, cfg)
    assert np.array_equal(got.positions, want.positions)
    assert np.linalg.norm(got.positions[1] - got.positions[0]) > 0


def test_repulsion_bits_do_not_depend_on_block_rows():
    rng = np.random.default_rng(45)
    n = 500
    pos = rng.uniform(-1200, 1200, (n, 2))
    pos[311] = pos[12]  # one coincident pair, floored the same way in every block
    base, close = engine._repulsion(pos, 80.0, engine._KernelScratch(n, engine._block_rows(n)))
    assert close == [(12, 311)]
    for rows in (1, 3, 64, n):
        rep, pairs = engine._repulsion(pos, 80.0, engine._KernelScratch(n, rows))
        assert np.array_equal(rep, base)
        assert pairs == close


def test_two_vector_squared_norms_are_exactly_dx2_plus_dy2():
    # A step forms squared norms two ways: the kernel's einsum over a
    # (2, B, n) block view, and add.reduce of the squares over the (2, n)
    # edge differences and impulses. Both must round exactly like
    # dx * dx + dy * dy. A numpy whose einsum fused multiply-add would fail
    # here, not only in drifting output hashes.
    rng = np.random.default_rng(49)
    for shape in ((2, 1), (2, 70), (2, 422), (2, 1, 5), (2, 7, 64), (2, 38, 422)):
        for _ in range(20):
            signs = rng.choice((-1.0, 1.0), shape)
            d = signs * 10.0 ** rng.uniform(-150, 150, shape)
            want = d[0] * d[0] + d[1] * d[1]
            assert np.array_equal(np.add.reduce(d * d, axis=0), want)
            if d.ndim == 3:
                # The kernel's view: the first rows of a taller scratch block.
                block = np.empty((2, shape[1] + 3, shape[2]))
                view = block[:, : shape[1]]
                view[...] = d
                out = np.empty(shape[1:])
                np.einsum("kij,kij->ij", view, view, out=out)
                assert np.array_equal(out, want)


def test_step_bits_do_not_depend_on_blas_threads():
    script = """
import hashlib, gravlayout as gl
g = gl.generate_random_tree(1000, seed=21)
mass = gl.normalize_mass(gl.degree_centrality(g))
cfg = gl.LayoutConfig(gamma_max=1.0, gamma_step=1.0, seed=21)
state = gl.LayoutState(positions=gl.initialize_positions(g, 21, cfg.k))
for _ in range(4):
    state = gl.step(state, g, mass, cfg)
print(hashlib.sha256(state.positions.tobytes()).hexdigest())
"""
    hashes = blas_thread_hashes(script)
    assert len(hashes[0]) == 64
    assert hashes[0] == hashes[1]


def test_gamma_monotone_and_capped():
    g = random_graph(np.random.default_rng(5), 8, 12)
    mass = uniform_mass(g)
    for gamma_step in (0.2, 0.5, 0.6):
        cfg = LayoutConfig(gamma_step=gamma_step, block_len=5, max_iterations=60, gamma_max=0.6)
        state = LayoutState(positions=initialize_positions(g, 1, cfg.k))
        prev = state.gamma
        while state.t < cfg.max_iterations:
            state = step(state, g, mass, cfg)
            assert state.gamma >= prev
            assert state.gamma <= cfg.gamma_max
            prev = state.gamma


def test_run_layout_k2_natural_length():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(gamma_max=0.0, seed=17)
    pos = run_layout(g, uniform_mass(g), cfg)
    length = np.linalg.norm(pos[0] - pos[1])
    assert 0.95 * 80 <= length <= 1.05 * 80


def test_run_layout_single_vertex_stays_put():
    g = Graph(1)
    cfg = LayoutConfig(seed=2, max_iterations=50)
    init = initialize_positions(g, cfg.seed, cfg.k)
    pos = run_layout(g, uniform_mass(g), cfg)
    assert np.allclose(pos, init)


def test_run_layout_empty_graph():
    g = Graph(0)
    pos = run_layout(g, uniform_mass(g), LayoutConfig())
    assert pos.shape == (0, 2)


def test_run_layout_deterministic():
    g = random_graph(np.random.default_rng(8), 10, 16)
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=4, max_iterations=150)
    assert np.array_equal(run_layout(g, mass, cfg), run_layout(g, mass, cfg))


def test_run_layout_matches_manual_step_loop():
    g = random_graph(np.random.default_rng(9), 8, 12)
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=6, max_iterations=80)
    auto = run_layout(g, mass, cfg)
    state = LayoutState(positions=initialize_positions(g, cfg.seed, cfg.k))
    while state.t < cfg.max_iterations:
        state = step(state, g, mass, cfg)
    assert np.array_equal(auto, state.positions)


@pytest.mark.parametrize(
    ("gamma_max", "gamma_step", "stop"),
    [
        pytest.param(0.0, 0.2, 1, id="none-1"),  # no gravity
        pytest.param(1.0, 1.0, 1, id="constant-1"),
        pytest.param(1.0, 0.2, 5, id="equilibrium-5"),
    ],
)
def test_run_layout_stops_where_step_loop_first_settles(gamma_max, gamma_step, stop):
    # At eps 1e6 every impulse counts as settled, so each run stops at the
    # first iteration its gamma reaches gamma_max: at once for gamma_max 0
    # and for one full step; at t = 5 for steps of 0.2, gamma 0.2 at t = 1
    # and 4 raises.
    g = random_graph(np.random.default_rng(9), 8, 12)
    mass = uniform_mass(g)
    cfg = LayoutConfig(
        gamma_max=gamma_max, block_len=10, gamma_step=gamma_step,
        equilibrium_eps=1e6, seed=6, max_iterations=80,
    )
    auto = run_layout(g, mass, cfg)
    state = LayoutState(positions=initialize_positions(g, cfg.seed, cfg.k))
    while state.t < cfg.max_iterations and not settled(state, cfg):
        state = step(state, g, mass, cfg)
    assert state.t == stop
    assert state.gamma == terminal_gamma(cfg)
    assert np.array_equal(auto, state.positions)


def random_tree(rng, n):
    return Graph.from_edges(n, [(int(rng.integers(v)), v) for v in range(1, n)])


def test_run_layout_matches_manual_step_loop_across_blocks():
    rng = np.random.default_rng(46)
    n = 300
    assert engine._block_rows(n) < n // 3  # the kernel walks several blocks
    g = random_tree(rng, n)
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=8, max_iterations=25, block_len=10)
    init = initialize_positions(g, cfg.seed, cfg.k)
    init[200] = init[5]  # a coincident pair, jittered in the first step
    auto = run_layout(g, mass, cfg, initial=init)
    state = LayoutState(positions=init)
    while state.t < cfg.max_iterations:
        state = step(state, g, mass, cfg)
    assert np.array_equal(auto, state.positions)
    assert auto.flags.c_contiguous and state.positions.flags.c_contiguous


def test_reused_workspace_matches_fresh_scratch():
    rng = np.random.default_rng(47)
    n = 300
    g = random_tree(rng, n)
    mass = uniform_mass(g)
    cfg = LayoutConfig(gamma_max=0.9, gamma_step=0.9, seed=3)
    first = np.asfortranarray(rng.uniform(-900, 900, (n, 2)))
    first[250] = first[17]  # coincident: the step jitters 250 away
    ws = engine._Workspace(g, mass)
    assert engine._repulsion(first, cfg.k, ws.scratch)[1] == [(17, 250)]
    engine._advance(first, 1, 0.9, ws, cfg)
    # Alternating gammas: gravity must follow the gamma of each call.
    for coincident, gamma in itertools.product((False, True), (0.9, 1.1)):
        pos = np.asfortranarray(rng.uniform(-900, 900, (n, 2)))
        if coincident:
            pos[250] = pos[17]
        want = pos.copy(order="F")
        want_max = engine._advance(want, 2, gamma, engine._Workspace(g, mass), cfg)
        assert engine._advance(pos, 2, gamma, ws, cfg) == want_max
        assert np.array_equal(pos, want)


def test_run_allocates_no_scratch_per_step(monkeypatch):
    # Counts the iterations in which traced memory rose 64 KiB or more above
    # its level at the iteration's start. A kernel that allocated its block
    # scratch (over 128 KiB here) on every step would add one per iteration.
    rng = np.random.default_rng(48)
    n = 300
    g = random_tree(rng, n)
    mass = uniform_mass(g)
    schedule = engine.schedule_gamma
    rises = []
    level = 0

    def measured_schedule(t, state, config):
        nonlocal level
        current, peak = tracemalloc.get_traced_memory()
        rises.append(peak - level)
        tracemalloc.reset_peak()
        level = current
        return schedule(t, state, config)

    monkeypatch.setattr(engine, "schedule_gamma", measured_schedule)
    counts = []
    for iterations in (50, 200):
        rises.clear()
        tracemalloc.start()
        try:
            level = tracemalloc.get_traced_memory()[0]
            run_layout(g, mass, LayoutConfig(seed=2, max_iterations=iterations))
        finally:
            tracemalloc.stop()
        assert len(rises) == iterations
        counts.append(sum(rise >= 64 * 1024 for rise in rises))
    assert counts[0] >= 1  # the workspace, allocated before the first step
    assert counts[1] <= counts[0]


def step_to_stop(g, mass, cfg, init):
    """Drive step from a start state under run_layout's stop rule; return the
    last state and the (first t, gamma) of every gravity level."""
    state = LayoutState(positions=init)
    levels = [(1, schedule_gamma(1, state, cfg))]
    while state.t < cfg.max_iterations and not settled(state, cfg):
        state = step(state, g, mass, cfg)
        if state.gamma != levels[-1][1]:
            levels.append((state.t, state.gamma))
    return state, levels


def test_equilibrium_schedule_climbs_to_gamma_max_and_settles():
    # The default config on a tree where a fixed step never let a move fall
    # below eps: the cooled moves settle level after level, gamma climbs by
    # gamma_step from gamma_step to gamma_max, with no gravity-free level,
    # and the run stops settled at t = 219.
    g = generate_random_tree(70, seed=3)
    mass = normalize_mass(closeness_centrality(g))
    cfg = LayoutConfig(seed=3)
    state, levels = step_to_stop(g, mass, cfg, initialize_positions(g, cfg.seed, cfg.k))
    assert [gamma for _, gamma in levels] == [0.5, 1.0, 1.5, 2.0, 2.5]
    assert state.gamma == cfg.gamma_max
    assert settled(state, cfg) and state.t < 0.15 * cfg.max_iterations


@pytest.mark.parametrize("seed", [3, 15, 19])
def test_rest_frame_settles_default_trees_within_1200_iterations(seed):
    # Closeness masses are unequal, so gravity's net push translates the
    # drawing. Spent on that push, the clamped moves kept many levels from
    # settling before their block_len cap, and these runs took 1836, 1929
    # and 2025 iterations. In the rest frame, from the uniform random start
    # with a gravity-free level and steps of 0.2, they took 1017, 916 and
    # 975; from the radial start with steps of 0.5 they take 219, 224, 221.
    g = generate_random_tree(70, seed=seed)
    mass = normalize_mass(closeness_centrality(g))
    cfg = LayoutConfig(seed=seed)
    state, _ = step_to_stop(g, mass, cfg, initialize_positions(g, cfg.seed, cfg.k))
    assert settled(state, cfg) and state.t <= 400


@pytest.mark.parametrize(
    ("name", "kind"), [("tree", "degree"), ("forest", "degree"), ("chords", "closeness")]
)
def test_step_loop_replays_default_run_to_its_equilibrium_stop(name, kind):
    # Heat, streak, the level's lowest energy and its start travel in the
    # state, so step from a start state replays run_layout bit for bit.
    g = {
        "tree": lambda: generate_random_tree(70, seed=5),
        "forest": lambda: generate_forest([9] * 5, seed=5),
        "chords": lambda: tree_with_chords(100, 10, seed=5),
    }[name]()
    mass = normalize_mass(degree_centrality(g) if kind == "degree" else closeness_centrality(g))
    cfg = LayoutConfig(seed=5)
    init = initialize_positions(g, cfg.seed, cfg.k)
    state, _ = step_to_stop(g, mass, cfg, init)
    assert settled(state, cfg) and state.t < cfg.max_iterations
    assert run_layout(g, mass, cfg).tobytes() == state.positions.tobytes()


@pytest.mark.parametrize("name", ["tree", "forest"])
def test_intermediate_levels_end_at_level_eps_and_the_last_settles_at_eps(name):
    # Under the default config every level below gamma_max ends once its
    # longest move is below LEVEL_EPS * eps, or after block_len iterations;
    # the run then stops settled at gamma_max, its last move below eps.
    g = generate_random_tree(70, seed=3) if name == "tree" else generate_forest([9] * 5, seed=2)
    mass = normalize_mass(closeness_centrality(g) if name == "tree" else degree_centrality(g))
    cfg = LayoutConfig(seed=3 if name == "tree" else 2)
    state = LayoutState(positions=initialize_positions(g, cfg.seed, cfg.k))
    gammas, ends = [], []  # each level's gamma; each intermediate level's last move and length
    while state.t < cfg.max_iterations and not settled(state, cfg):
        nxt = step(state, g, mass, cfg)
        if nxt.gamma != state.gamma:
            gammas.append(nxt.gamma)
            if state.t:
                ends.append((state.last_max_impulse, state.t - state.level_start))
        state = nxt
    assert gammas == [0.5, 1.0, 1.5, 2.0, 2.5]
    assert settled(state, cfg) and state.last_max_impulse < cfg.equilibrium_eps
    for move, length in ends:
        assert move < engine.LEVEL_EPS * cfg.equilibrium_eps or length == cfg.block_len
    # The rule is not the old one: some level ended on a move of eps or more.
    assert any(move >= cfg.equilibrium_eps for move, _ in ends)


def test_equilibrium_levels_end_by_block_len_on_a_forest():
    # A forest's components do not repel forever: from the radial start
    # every level of this forest settles before its cap of block_len
    # iterations (62, 38, 29, 25 and 41), and the run stops settled at
    # gamma_max long before max_iterations.
    g = generate_forest([9] * 5, seed=2)
    mass = normalize_mass(degree_centrality(g))
    cfg = LayoutConfig(seed=2)
    state, levels = step_to_stop(g, mass, cfg, initialize_positions(g, cfg.seed, cfg.k))
    assert state.gamma == cfg.gamma_max and settled(state, cfg)
    assert state.t < 0.15 * cfg.max_iterations
    lengths = np.diff([t for t, _ in levels] + [state.t])
    assert lengths.max() < cfg.block_len


@pytest.mark.parametrize(
    ("gamma_max", "gamma_step"),
    [
        pytest.param(2.5, 2.5, id="constant"),
        pytest.param(2.5, 0.5, id="equilibrium"),
        pytest.param(0.0, 0.5, id="none"),  # no gravity
    ],
)
def test_cooled_move_never_exceeds_cap(gamma_max, gamma_step):
    # The longest move of every iteration is heat * sigma * min(max |F|,
    # i_max) with heat in (0, 1], with constant and climbing gravity and
    # with gravity off; the controller does cool on these runs.
    rng = np.random.default_rng(32)
    heats = []
    for _ in range(4):
        g = random_graph(rng, 2, 14)
        cfg = LayoutConfig(gamma_max=gamma_max, gamma_step=gamma_step, block_len=10, max_iterations=60)
        mass = uniform_mass(g)
        state = LayoutState(positions=rng.uniform(-300, 300, (g.vertex_count, 2)))
        while state.t < cfg.max_iterations:
            nxt = step(state, g, mass, cfg)
            moved = np.linalg.norm(nxt.positions - state.positions, axis=1)
            assert moved.max() <= cfg.sigma * cfg.i_max + 1e-12
            assert nxt.last_max_impulse == pytest.approx(moved.max(), abs=1e-9)
            assert 0.0 < nxt.heat <= 1.0
            heats.append(nxt.heat)
            state = nxt
    assert min(heats) < 1.0


def test_translation_equivariance():
    g = random_graph(np.random.default_rng(12), 8, 12)
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=0, max_iterations=40, equilibrium_eps=1e-12)
    init = initialize_positions(g, 3, cfg.k)
    shift = np.array([123.0, -77.0])
    base = run_layout(g, mass, cfg, initial=init)
    moved = run_layout(g, mass, cfg, initial=init + shift)
    assert np.allclose(moved, base + shift, atol=1e-6)


def test_rotation_equivariance():
    g = random_graph(np.random.default_rng(14), 8, 12)
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=0, max_iterations=40, equilibrium_eps=1e-12)
    init = initialize_positions(g, 5, cfg.k)
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    base = run_layout(g, mass, cfg, initial=init)
    rotated = run_layout(g, mass, cfg, initial=init @ rot.T)
    assert np.allclose(rotated, base @ rot.T, atol=1e-6)


def test_jitter_separates_coincident_vertices():
    g = Graph(3)
    pos = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]])
    state = LayoutState(positions=pos)
    nxt = step(state, g, uniform_mass(g), LayoutConfig(gamma_max=0.0))
    assert np.all(np.isfinite(nxt.positions))
    assert np.linalg.norm(nxt.positions[0] - nxt.positions[1]) > 0


def test_step_refuses_a_frozen_mask():
    # Every vertex moves: step keeps a frozen argument for positional None
    # only, and a mask of any kind is refused.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    state = LayoutState(positions=initialize_positions(g, 0, 80.0))
    mass, cfg = uniform_mass(g), LayoutConfig(max_iterations=5)
    assert np.array_equal(step(state, g, mass, cfg, None).positions, step(state, g, mass, cfg).positions)
    for mask in (np.array([True, False, False]), np.zeros(3, dtype=bool), [False] * 3):
        with pytest.raises(ValueError, match="frozen"):
            step(state, g, mass, cfg, mask)


@pytest.mark.parametrize(
    ("gamma", "heat"),
    [(0.5, math.nan), (math.nan, 1.0), (0.5, 5.0), (3.0, 1.0), (0.5, 0.0), (-0.5, 1.0), (math.inf, 1.0)],
    ids=lambda value: format(value, "g"),
)
def test_step_refuses_a_controller_state_out_of_range(gamma, heat):
    # A NaN heat or gamma made step return NaN positions, and heat 5 moved a
    # vertex 40 against the sigma * i_max = 8 cap; gamma above gamma_max
    # would escape the start's overflow bound. The edges of the ranges pass.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    mass, cfg = uniform_mass(g), LayoutConfig(max_iterations=5)
    start = initialize_positions(g, 0, cfg.k)
    with pytest.raises(ValueError, match="state (heat|gamma)"):
        step(LayoutState(positions=start, gamma=gamma, heat=heat), g, mass, cfg)
    for gamma, heat in ((0.0, 1.0), (cfg.gamma_max, 1e-300)):
        nxt = step(LayoutState(positions=start, gamma=gamma, heat=heat), g, mass, cfg)
        assert np.all(np.isfinite(nxt.positions))


@pytest.mark.parametrize(
    "fields",
    [
        {"lowest_energy": -1.0},
        {"lowest_energy": math.nan},
        {"last_max_impulse": -0.5},
        {"last_max_impulse": math.nan},
        {"t": -5},
        {"t": 1.5},
        {"t": True},
        {"t": 10, "level_start": 50},
        {"level_start": -1},
        {"streak": -100},
        {"streak": 2.0},
    ],
    ids=lambda fields: ",".join(f"{name}={value}" for name, value in fields.items()),
)
def test_step_refuses_a_controller_no_run_reaches(fields):
    # lowest_energy -1 made no iteration a new low, so the heat fell by
    # COOLING every step where inf keeps it at 1; t -5 stepped to -4 and
    # t 1.5 to 2.5. The edges of the ranges, numpy integers and inf pass.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    mass, cfg = uniform_mass(g), LayoutConfig(max_iterations=5)
    start = initialize_positions(g, 0, cfg.k)
    with pytest.raises(ValueError, match="state (t|level_start|streak|lowest_energy|last_max_impulse)"):
        step(LayoutState(positions=start, **fields), g, mass, cfg)
    edge = LayoutState(start, np.int64(10), 0.0, 0.0, 1.0, 0, 0.0, np.int64(10))
    assert step(edge, g, mass, cfg).t == 11
    assert step(LayoutState(start, 3, lowest_energy=math.inf), g, mass, cfg).heat == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_rejected(bad):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    init = np.array([[0.0, 0.0], [bad, 1.0], [2.0, 2.0]])
    cfg = LayoutConfig(max_iterations=5)
    with pytest.raises(ValueError, match="finite"):
        run_layout(g, uniform_mass(g), cfg, initial=init)
    with pytest.raises(ValueError, match="finite"):
        step(LayoutState(positions=init), g, uniform_mass(g), cfg)


@pytest.mark.parametrize("shape", [(3, 3), (2, 2), (4, 2), (2, 3), (6,)])
def test_every_layer_rejects_wrong_positions_shape(shape):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    bad = np.arange(float(np.prod(shape))).reshape(shape)
    cfg = LayoutConfig(max_iterations=5)
    for call in (
        lambda: engine.check_positions(bad, 3),
        lambda: run_layout(g, uniform_mass(g), cfg, initial=bad),
        lambda: step(LayoutState(positions=bad), g, uniform_mass(g), cfg),
        lambda: count_crossings(g, bad),
        lambda: compute_metrics(g, bad, degree_centrality(g)),
    ):
        with pytest.raises(ValueError, match="shape"):
            call()


@pytest.mark.parametrize("bad", not_numbers([[0.0, 0.0], [80.0, 0.0], [80.0, 80.0]]))
def test_every_layer_refuses_positions_that_are_not_numbers(bad):
    # Bools and numeric strings were drawn as coordinates, a complex array
    # lost its imaginary parts with only a ComplexWarning, and a complex
    # list raised TypeError.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cfg = LayoutConfig(max_iterations=5)
    for call in (
        lambda: engine.check_positions(bad, 3),
        lambda: run_layout(g, uniform_mass(g), cfg, initial=bad),
        lambda: step(LayoutState(positions=bad), g, uniform_mass(g), cfg),
        lambda: count_crossings(g, bad),
        lambda: min_angular_resolution(g, bad),
        lambda: edge_length_stats(g, bad),
        lambda: bounding_area(bad),
        lambda: centrality_radius_correlation([1.0, 2.0, 3.0], bad),
        lambda: compute_metrics(g, bad, degree_centrality(g)),
        lambda: arc_geometry(bad, g, [0.0, 0.0]),
        lambda: render_svg(g, bad),
    ):
        with pytest.raises(ValueError, match="positions: .* is not a real number"):
            call()


def test_check_positions_returns_float_arrays_uncopied():
    pos = np.zeros((3, 2))
    assert engine.check_positions(pos, 3) is pos
    listed = engine.check_positions([[0, 1], [2, 3], [4, 5]], 3)
    assert listed.dtype == np.float64 and listed.flags.c_contiguous
    assert listed.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


@pytest.mark.parametrize(
    "raw", [[-1.0, 2.0, 2.0], [0.0, 1.5, 1.5], [math.nan, 1.0, 2.0], [math.inf, 1.0, 1.0]]
)
def test_raw_mass_array_checked_like_mass_vector(raw):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cfg = LayoutConfig(max_iterations=5)
    state = LayoutState(positions=initialize_positions(g, 0, cfg.k))
    with pytest.raises(ValueError, match="positive and finite"):
        run_layout(g, np.array(raw), cfg)
    with pytest.raises(ValueError, match="positive and finite"):
        step(state, g, np.array(raw), cfg)
    with pytest.raises(ValueError, match="positive and finite"):
        MassVector(np.array(raw))
    # A positive raw array need not have mean 1: only MassVector asks for that.
    assert run_layout(g, np.array([0.5, 2.0, 2.0]), cfg).shape == (3, 2)
