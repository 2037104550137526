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
    Schedule,
    attractive_force,
    centroid,
    closeness_centrality,
    compute_metrics,
    count_crossings,
    degree_centrality,
    generate_random_tree,
    gravity_force,
    initialize_positions,
    normalize_mass,
    repulsive_force,
    run_layout,
    schedule_gamma,
    settled,
    step,
    terminal_gamma,
    uniform_centrality,
)
from conftest import blas_thread_hashes
from gravlayout import engine
from oracles import FUZZ_ATOMS, net_impulse, random_graph, separate_coincident


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


def test_schedule_stepped_by_iteration():
    cfg = LayoutConfig()
    state = LayoutState(positions=np.zeros((1, 2)))
    assert schedule_gamma(199, state, cfg) == 0.0
    assert schedule_gamma(200, state, cfg) == pytest.approx(0.2)
    assert schedule_gamma(1000, state, cfg) == pytest.approx(1.0)
    assert schedule_gamma(3000, state, cfg) == pytest.approx(2.5)


def test_schedule_constant_and_none():
    state = LayoutState(positions=np.zeros((1, 2)))
    cfg = LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=2.5)
    assert schedule_gamma(0, state, cfg) == 2.5
    assert schedule_gamma(99999, state, cfg) == 2.5
    cfg = LayoutConfig(schedule=Schedule.NONE)
    assert schedule_gamma(500, state, cfg) == 0.0


def test_schedule_stepped_by_equilibrium():
    cfg = LayoutConfig(schedule=Schedule.STEPPED_EQUILIBRIUM, equilibrium_eps=1.0)
    busy = LayoutState(positions=np.zeros((1, 2)), gamma=0.4, last_max_impulse=5.0)
    assert schedule_gamma(10, busy, cfg) == pytest.approx(0.4)
    settled = LayoutState(positions=np.zeros((1, 2)), gamma=0.4, last_max_impulse=0.5)
    assert schedule_gamma(10, settled, cfg) == pytest.approx(0.6)
    capped = LayoutState(positions=np.zeros((1, 2)), gamma=2.5, last_max_impulse=0.0)
    assert schedule_gamma(10, capped, cfg) == pytest.approx(2.5)


def test_terminal_gamma():
    assert terminal_gamma(LayoutConfig()) == 2.5
    assert terminal_gamma(LayoutConfig(schedule=Schedule.NONE)) == 0.0
    assert terminal_gamma(LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=1.2)) == 1.2


@pytest.mark.parametrize("gamma_max", [2.5, 0.8, 0.0])
def test_constant_schedule_is_stepped_at_one_step_per_iteration(gamma_max):
    # gamma_max is the one gravity level: constant holds it from iteration 1,
    # as stepped does when one step of gamma_max comes every iteration.
    g = generate_random_tree(70, seed=2)
    mass = normalize_mass(closeness_centrality(g))
    constant = LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=gamma_max, seed=2, max_iterations=300)
    stepped = replace(constant, schedule=Schedule.STEPPED_ITERATION, block_len=1, gamma_step=gamma_max or 1.0)
    assert np.array_equal(run_layout(g, mass, constant), run_layout(g, mass, stepped))


def test_config_validation():
    with pytest.raises(ValueError):
        LayoutConfig(k=0)
    with pytest.raises(ValueError):
        LayoutConfig(sigma=-1)
    with pytest.raises(ValueError):
        LayoutConfig(block_len=0)
    with pytest.raises(ValueError):
        LayoutConfig(equilibrium_eps=0.0)
    LayoutConfig(gamma_max=0.0)  # allowed: disables gravity under stepped schedule
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
        {"schedule": "stepped"},
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
    "seed": (0, 7, 2**70, np.int32(3)), "schedule": tuple(Schedule),
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
            if name == "schedule":
                assert held is given
            elif name in ("block_len", "max_iterations", "seed"):
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
        {"k": 1e20, "schedule": Schedule.CONSTANT, "gamma_max": 1e300},
        {"k": 1e153, "schedule": Schedule.CONSTANT, "gamma_max": 1e300},
        {"k": 1e100, "gamma_max": 1e300, "gamma_step": 1e300, "block_len": 1},
        {"k": 1e150, "schedule": Schedule.NONE, "max_iterations": 20, "gap": 2e-6},
        {"k": 1e153, "schedule": Schedule.NONE, "max_iterations": 20, "gap": 0.1},
    ],
    ids=lambda kw: ",".join(
        f"{name}={value.value if isinstance(value, Schedule) else format(value, 'g')}" for name, value in kw.items()
    ),
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
    "k, schedule, scan",
    [
        (1.0, Schedule.CONSTANT, "gamma_max"),
        (1e20, Schedule.CONSTANT, "gamma_max"),
        (1e100, Schedule.STEPPED_ITERATION, "gamma_max"),
        (1e-100, Schedule.NONE, "scale"),
        (80.0, Schedule.NONE, "scale"),
    ],
)
def test_largest_config_inside_the_force_bound_keeps_impulses_finite(k, schedule, scan):
    # The largest power of two the bound admits, as gamma_max (gravity) or as
    # the start's coordinate scale (spring pull), steps 20 times with finite
    # impulses and no warning; twice that power raises. The none schedule
    # ignores gamma_max, however large. The graph is a 100-leaf star with
    # every leaf on one side, so the pulls on the centre add up.
    g = Graph.from_edges(101, [(0, v) for v in range(1, 101)])
    mass = normalize_mass(degree_centrality(g))
    base = LayoutConfig(
        k=k, schedule=schedule, gamma_max=2.0**1000, block_len=2, gamma_step=2.0**1000, max_iterations=20
    )
    unit = np.column_stack([np.ones(101), np.linspace(-1.0, 1.0, 101)])
    unit[0] = (-1.0, 0.0)

    def setup(power):
        x = 2.0**power
        return (replace(base, gamma_max=x), unit * k) if scan == "gamma_max" else (base, unit * x)

    def admitted(power):
        cfg, start = setup(power)
        try:
            engine._start(start, g, mass, None, cfg)
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
    cfg = LayoutConfig(schedule=Schedule.NONE, i_max=1e300, sigma=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nxt = step(state, g, uniform_mass(g), cfg)
    assert np.array_equal(nxt.positions, state.positions)


def test_initialize_deterministic_and_in_range():
    g = Graph(400)
    a = initialize_positions(g, seed=9, k=80.0)
    b = initialize_positions(g, seed=9, k=80.0)
    assert np.array_equal(a, b)
    assert a.shape == (400, 2)
    assert np.all(np.abs(a) <= 0.5 * 80.0 * math.sqrt(400))
    assert initialize_positions(Graph(0), 1, 80.0).shape == (0, 2)


def test_net_impulse_k2_at_natural_length():
    g = Graph.from_edges(2, [(0, 1)])
    state = LayoutState(positions=np.array([[0.0, 0.0], [80.0, 0.0]]), gamma=0.0)
    cfg = LayoutConfig(schedule=Schedule.NONE)
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
    # two unconnected vertices at distance d feel repulsion k^2/d each
    cfg = LayoutConfig(schedule=Schedule.NONE)
    for d, expected in ((256.0, 1.0), (1600.0, 0.4)):  # impulses 25 and 4
        g = Graph(2)
        state = LayoutState(positions=np.array([[0.0, 0.0], [d, 0.0]]))
        nxt = step(state, g, uniform_mass(g), cfg)
        moved = np.linalg.norm(nxt.positions - state.positions, axis=1)
        assert moved == pytest.approx([expected, expected])


def test_step_zero_impulse_fixed_point():
    g = Graph.from_edges(2, [(0, 1)])
    state = LayoutState(positions=np.array([[0.0, 0.0], [80.0, 0.0]]))
    nxt = step(state, g, uniform_mass(g), LayoutConfig(schedule=Schedule.NONE))
    assert np.array_equal(nxt.positions, state.positions)
    assert nxt.t == state.t + 1
    assert nxt.last_max_impulse == 0.0


def test_step_displacement_never_exceeds_cap():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(rng, 2, 14)
        cfg = LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=2.5)
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
    nxt = step(state, g, mass, cfg)
    for v in range(g.vertex_count):
        imp = net_impulse(v, state, g, mass, cfg)
        mag = float(np.linalg.norm(imp))
        want = cfg.sigma * imp * min(1.0, cfg.i_max / mag) if mag else np.zeros(2)
        got = nxt.positions[v] - state.positions[v]
        assert np.linalg.norm(got - want) <= 1e-9


def test_step_matches_scalar_reference():
    rng = np.random.default_rng(41)
    g = random_graph(rng, 8, 14)
    cfg = LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=1.3)
    state = LayoutState(positions=rng.uniform(-300, 300, (g.vertex_count, 2)), gamma=1.3)
    assert_step_matches_scalar_reference(state, g, uniform_mass(g), cfg)


def test_step_matches_scalar_reference_across_blocks():
    rng = np.random.default_rng(43)
    n = 300
    assert engine._block_rows(n) < n // 3  # the kernel walks several blocks
    g = Graph.from_edges(n, [(int(rng.integers(v)), v) for v in range(1, n)])
    cfg = LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=0.7)
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
    p, q = 10, rows + 20  # a second straddling pair, neither frozen
    pos[q] = pos[p]
    frozen = np.zeros(n, dtype=bool)
    frozen[v] = True
    k, seed, t = 80.0, 5, 17
    want = separate_coincident(
        pos, k, frozen, lambda x: engine._jitter_vector(seed, t, x, k)
    )
    # (p, q) moves q; (u, v) moves u because v is frozen; (u, w) moves w;
    # (v, w) is skipped because w already moved. v never moves.
    assert np.flatnonzero(np.any(want != pos, axis=1)).tolist() == [u, q, w]
    for block in (rows, 1, 7, n):
        got = pos.copy()
        engine._separated_repulsion(got, k, seed, t, frozen, engine._KernelScratch(n, block))
        assert np.array_equal(got, want)
    g = Graph(n)
    cfg = LayoutConfig(schedule=Schedule.NONE, seed=seed)
    nxt = step(LayoutState(positions=pos, t=t - 1), g, uniform_mass(g), cfg, frozen=frozen)
    assert np.array_equal(nxt.positions[v], pos[v])
    assert not np.array_equal(nxt.positions[u], pos[u])
    assert np.all(np.isfinite(nxt.positions))


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
cfg = gl.LayoutConfig(schedule=gl.Schedule.CONSTANT, gamma_max=1.0, seed=21)
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
    for schedule in (Schedule.STEPPED_ITERATION, Schedule.STEPPED_EQUILIBRIUM):
        cfg = LayoutConfig(schedule=schedule, block_len=5, max_iterations=60, gamma_max=0.6)
        state = LayoutState(positions=initialize_positions(g, 1, cfg.k))
        prev = state.gamma
        while state.t < cfg.max_iterations:
            state = step(state, g, mass, cfg)
            assert state.gamma >= prev
            assert state.gamma <= cfg.gamma_max
            prev = state.gamma


def test_run_layout_k2_natural_length():
    g = Graph.from_edges(2, [(0, 1)])
    cfg = LayoutConfig(schedule=Schedule.NONE, seed=17)
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
    ("schedule", "stop"),
    [(Schedule.NONE, 1), (Schedule.CONSTANT, 1), (Schedule.STEPPED_ITERATION, 40), (Schedule.STEPPED_EQUILIBRIUM, 5)],
    ids=lambda x: x.value if isinstance(x, Schedule) else str(x),
)
def test_run_layout_stops_where_step_loop_first_settles(schedule, stop):
    # At eps 1e6 every impulse counts as settled, so each run stops at the
    # first iteration its gamma reaches the schedule's terminal level (0 for
    # none, 0.8 for the others): at once for none and constant, at t = 40 =
    # 4 blocks of 10 for stepped, and for equilibrium after t = 1 (no
    # previous impulse) plus 4 raises.
    g = random_graph(np.random.default_rng(9), 8, 12)
    mass = uniform_mass(g)
    cfg = LayoutConfig(
        schedule=schedule, gamma_max=0.8, block_len=10,
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


def test_run_layout_matches_manual_step_loop_across_blocks_and_frozen():
    rng = np.random.default_rng(46)
    n = 300
    assert engine._block_rows(n) < n // 3  # the kernel walks several blocks
    g = random_tree(rng, n)
    mass = uniform_mass(g)
    cfg = LayoutConfig(seed=8, max_iterations=25, block_len=10)
    init = initialize_positions(g, cfg.seed, cfg.k)
    init[200] = init[5]  # a coincident pair, jittered in the first step
    frozen = np.zeros(n, dtype=bool)
    frozen[rng.choice(n, 40, replace=False)] = True
    for mask in (None, frozen):
        auto = run_layout(g, mass, cfg, initial=init, frozen=mask)
        state = LayoutState(positions=init)
        while state.t < cfg.max_iterations:
            state = step(state, g, mass, cfg, frozen=mask)
        assert np.array_equal(auto, state.positions)
        assert auto.flags.c_contiguous and state.positions.flags.c_contiguous
    assert np.array_equal(auto[frozen], init[frozen])


def test_reused_workspace_matches_fresh_scratch():
    rng = np.random.default_rng(47)
    n = 300
    g = random_tree(rng, n)
    mass = uniform_mass(g)
    cfg = LayoutConfig(schedule=Schedule.CONSTANT, gamma_max=0.9, seed=3)
    frozen = np.zeros(n, dtype=bool)
    frozen[[17, 250]] = True
    first = np.asfortranarray(rng.uniform(-900, 900, (n, 2)))
    first[250] = first[17]  # frozen and coincident: their d2 is floored
    ws = engine._Workspace(g, mass, frozen)
    assert engine._repulsion(first, cfg.k, ws.scratch)[1] == [(17, 250)]
    engine._advance(first, 1, 0.9, ws, cfg)
    # Alternating gammas: gravity must follow the gamma of each call.
    for coincident, gamma in itertools.product((False, True), (0.9, 1.1)):
        pos = np.asfortranarray(rng.uniform(-900, 900, (n, 2)))
        if coincident:
            pos[250] = pos[17]
        want = pos.copy(order="F")
        want_max = engine._advance(want, 2, gamma, engine._Workspace(g, mass, frozen), cfg)
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


def test_equilibrium_schedule_at_default_eps_matches_no_gravity():
    # States the current behaviour: on this tree the strongest impulse never
    # drops below the default equilibrium_eps, so the equilibrium schedule
    # never raises gamma and the run is byte-identical to one without
    # gravity. A change to the equilibrium trigger shows up here.
    g = generate_random_tree(70, seed=3)
    mass = normalize_mass(closeness_centrality(g))
    plain = run_layout(g, mass, LayoutConfig(schedule=Schedule.NONE, seed=3))
    equilibrium = run_layout(g, mass, LayoutConfig(schedule=Schedule.STEPPED_EQUILIBRIUM, seed=3))
    assert equilibrium.tobytes() == plain.tobytes()


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
    nxt = step(state, g, uniform_mass(g), LayoutConfig(schedule=Schedule.NONE))
    assert np.all(np.isfinite(nxt.positions))
    assert np.linalg.norm(nxt.positions[0] - nxt.positions[1]) > 0


def test_jitter_never_moves_frozen_vertices():
    g = Graph(3)
    pos = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 0.0]])
    frozen = np.array([True, False, True])
    state = LayoutState(positions=pos)
    nxt = step(state, g, uniform_mass(g), LayoutConfig(schedule=Schedule.NONE), frozen=frozen)
    assert np.array_equal(nxt.positions[0], pos[0])
    assert np.array_equal(nxt.positions[2], pos[2])
    assert not np.array_equal(nxt.positions[1], pos[1])


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
