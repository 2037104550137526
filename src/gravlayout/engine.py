"""Iterative force simulation with centrality-weighted gravity.

Each iteration computes a net impulse per vertex from three forces, all
evaluated against the same position snapshot (synchronous update):

  repulsion   f_r(u, v) = (k^2 / |P[u] - P[v]|^2) (P[v] - P[u])   from every other vertex
  attraction  f_a(u, v) = (|P[u] - P[v]| / k) (P[u] - P[v])       along each incident edge
  gravity     f_g(v)    = gamma_t M[v] (xi - P[v])                toward the centroid xi

The impulse is clamped to magnitude i_max (direction preserved), scaled by
sigma, and applied as a displacement. The gravity coefficient gamma_t grows
over iterations according to a schedule, which is what lets drawings first
untangle under the classical forces and only then compact toward the center.
schedule_gamma gives gamma_t, terminal_gamma its final level, and settled is
the stop rule; step and run_layout share one iteration body.

Repulsion is exact: one kernel walks the vertices in blocks of B rows and,
in the same pass, finds near-coincident pairs. B comes from n so that a
block holds about BLOCK_ELEMENTS pairs. A run allocates its scratch once,
in a workspace every iteration reuses: a (2, B, n) difference block, a
(2, B, n) column broadcast filled once per kernel call, and a (B, n)
squared-distance block (five arrays of at most 128 KiB), a (2, n) force
buffer and the edge endpoint indices. The springs, gravity and the clamp
after the kernel work on O(n) and O(m) temporaries. No (n, n) array is
ever formed.
The kernel's squared distances and row sums are np.einsum loops, the other
squared norms are add.reduce over the two coordinates, and no reduction in
a step goes through BLAS, so the output bits do not depend on B or on the
BLAS thread count. Positions are column-major inside a run, so each
coordinate is one contiguous row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Integral, Real

import numpy as np

from .centrality import MassVector, check_masses
from .graphs import Graph

TWO_PI = 2.0 * math.pi

# Pairs closer than JITTER_TRIGGER * k are separated by a deterministic nudge
# of magnitude JITTER_MAGNITUDE * k before forces are evaluated.
JITTER_TRIGGER = 1e-6
JITTER_MAGNITUDE = 1e-3

# Pair entries per block of the repulsion kernel: its scratch is five
# (rows, n) arrays with rows * n <= BLOCK_ELEMENTS (for n <= BLOCK_ELEMENTS).
BLOCK_ELEMENTS = 16384


class Schedule(Enum):
    """How the gravity coefficient evolves over iterations."""

    NONE = "none"
    CONSTANT = "constant"
    STEPPED_ITERATION = "stepped"
    STEPPED_EQUILIBRIUM = "equilibrium"


@dataclass(frozen=True)
class LayoutConfig:
    """Simulation parameters.

    k is the natural edge length: an isolated edge settles at length k where
    repulsion k^2/d and attraction d^2/k balance. Impulses are capped at
    i_max and scaled by sigma, so no vertex moves more than sigma * i_max
    per iteration.

    gamma_max is the run's one gravity level: the constant schedule holds it
    from the first iteration, the stepped schedule climbs to it by gamma_step
    every block_len iterations, the equilibrium schedule by gamma_step at
    each approximate equilibrium, and the none schedule ignores it.
    """

    k: float = 80.0
    i_max: float = 10.0
    sigma: float = 0.1
    gamma_max: float = 2.5
    schedule: Schedule = Schedule.STEPPED_ITERATION
    block_len: int = 200
    gamma_step: float = 0.2
    equilibrium_eps: float = 1.0
    max_iterations: int = 3000
    seed: int = 0

    def __post_init__(self) -> None:
        # Numbers are stored as Python floats and ints, whatever Real or
        # Integral type they came as.
        for name in ("k", "i_max", "sigma", "gamma_max", "gamma_step", "equilibrium_eps"):
            value = getattr(self, name)
            try:
                number = math.nan if isinstance(value, bool) or not isinstance(value, Real) else float(value)
            except OverflowError:  # an integer beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, number)
        for name in ("block_len", "max_iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.schedule, Schedule):
            raise ValueError(f"schedule must be a Schedule, got {self.schedule!r}")
        if self.k <= 0 or self.i_max <= 0 or self.sigma <= 0:
            raise ValueError("k, i_max, and sigma must be positive")
        if not (self.k * self.k < math.inf and (JITTER_TRIGGER * self.k) ** 2 >= sys.float_info.min):
            raise ValueError(f"k must keep k^2 and (JITTER_TRIGGER * k)^2 normal floats, got {self.k!r}")
        if self.gamma_max < 0 or self.gamma_step <= 0:
            raise ValueError("gamma_max must be >= 0, gamma_step > 0")
        if self.block_len < 1 or self.max_iterations < 1:
            raise ValueError("block_len and max_iterations must be >= 1")
        if self.equilibrium_eps <= 0:
            raise ValueError("equilibrium_eps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class LayoutState:
    """Positions plus iteration counter, current gamma, and last max impulse."""

    positions: np.ndarray
    t: int = 0
    gamma: float = 0.0
    last_max_impulse: float = math.inf


def terminal_gamma(config: LayoutConfig) -> float:
    """The gravity level a run is heading for under its schedule."""
    return 0.0 if config.schedule is Schedule.NONE else config.gamma_max


def settled(state: LayoutState, config: LayoutConfig) -> bool:
    """The stop rule: the strongest pre-clamp impulse of the last iteration
    is below equilibrium_eps and gamma has reached the schedule's terminal
    level. A start state (last_max_impulse inf) is never settled."""
    return state.last_max_impulse < config.equilibrium_eps and state.gamma >= terminal_gamma(config) - 1e-12


def initialize_positions(g: Graph, seed: int, k: float) -> np.ndarray:
    """Uniform random positions in the square of side k * sqrt(|V|) centered at origin."""
    n = g.vertex_count
    rng = np.random.default_rng(seed)
    half = 0.5 * k * math.sqrt(n)
    return rng.uniform(-half, half, size=(n, 2))


def repulsive_force(pu, pv, k: float) -> np.ndarray:
    """Force on v pushing it away from u; magnitude k^2 / |pu - pv|."""
    pu = np.asarray(pu, dtype=float)
    pv = np.asarray(pv, dtype=float)
    diff = pv - pu
    d2 = float(diff @ diff)
    if d2 == 0.0:
        raise ValueError("repulsive_force requires distinct points (jitter upstream)")
    return (k * k / d2) * diff


def attractive_force(pu, pv, k: float) -> np.ndarray:
    """Force on v pulling it toward u; magnitude |pu - pv|^2 / k."""
    pu = np.asarray(pu, dtype=float)
    pv = np.asarray(pv, dtype=float)
    diff = pu - pv
    return (math.sqrt(float(diff @ diff)) / k) * diff


def centroid(positions) -> np.ndarray:
    """Arithmetic mean of the positions."""
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        raise ValueError("centroid of no points is undefined")
    return pos.mean(axis=0)


def gravity_force(pv, xi, mass: float, gamma: float) -> np.ndarray:
    """Force gamma * mass * (xi - pv) pulling v toward the centroid."""
    pv = np.asarray(pv, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return gamma * mass * (xi - pv)


def schedule_gamma(t: int, state: LayoutState, config: LayoutConfig) -> float:
    """Gravity coefficient for iteration t under the configured schedule.
    The flat schedules hold their terminal level from the start."""
    if config.schedule is Schedule.STEPPED_ITERATION:
        return min(config.gamma_max, config.gamma_step * (t // config.block_len))
    if config.schedule is not Schedule.STEPPED_EQUILIBRIUM:
        return terminal_gamma(config)
    # Stepped by equilibrium: raise gamma one step whenever the previous
    # iteration's strongest impulse dropped below the equilibrium tolerance.
    if state.last_max_impulse < config.equilibrium_eps:
        return min(config.gamma_max, state.gamma + config.gamma_step)
    return state.gamma


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _jitter_vector(seed: int, t: int, v: int, k: float) -> np.ndarray:
    h = _splitmix64(_splitmix64(_splitmix64(seed & 0xFFFFFFFFFFFFFFFF) ^ t) ^ v)
    angle = TWO_PI * (h / 2.0**64)
    return JITTER_MAGNITUDE * k * np.array([math.cos(angle), math.sin(angle)])


def _block_rows(n: int) -> int:
    """Rows per kernel block: a fixed budget of BLOCK_ELEMENTS pair entries."""
    return max(1, min(n, BLOCK_ELEMENTS // max(n, 1)))


class _KernelScratch:
    """The kernel's buffers, reused by every call that is handed them: the
    (2, rows, n) difference block, the (2, rows, n) column broadcast
    (row i, column j holds vertex j's coordinates), the (rows, n) d2/weight
    block and the (2, n) force buffer."""

    def __init__(self, n: int, rows: int) -> None:
        self.diff = np.empty((2, rows, n))
        self.cols = np.empty((2, rows, n))
        self.d2 = np.empty((rows, n))
        self.rep = np.empty((2, n))


def _repulsion(pos: np.ndarray, k: float, s: _KernelScratch) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Repulsion on every vertex from one snapshot, as a (2, n) array, plus
    the near-coincident pairs.

    Walks the vertices as many rows at a time as the scratch's blocks hold.
    For rows a..b it forms the differences D[c, i, j] = pos[a + i, c] -
    pos[j, c] against every vertex, d2 = sum_c D^2, then w = k^2 / d2 with
    the self term at zero, and the row sums sum_j w D: row v's sums are the
    force on v. Both reductions are einsum loops without BLAS; rows are
    summed whole and independently, so the bits do not depend on the block
    rows, nor on a BLAS thread count. The result lives in the scratch's
    force buffer, so the next call with that scratch overwrites it.

    Pairs closer than JITTER_TRIGGER * k come back as (u, v) with u < v in
    row-major order. Their d2 is floored well below the trigger: callers
    separate real pairs, the floor only guards coincident frozen pairs.
    """
    n, rows = pos.shape[0], s.d2.shape[0]
    p = pos.T
    kk = k * k
    thresh2 = (JITTER_TRIGGER * k) ** 2
    floor2 = (1e-9 * k) ** 2
    # The column side of every block is the same: broadcast it once per call.
    # A broadcasting subtract would allocate its own buffers on every block.
    np.copyto(s.cols, p[:, None, :])
    close: list[tuple[int, int]] = []
    for a in range(0, n, rows):
        b = min(a + rows, n)
        bD, bd = s.diff[:, : b - a], s.d2[: b - a]
        # D[c, i, j] = p[c, a + i] - p[c, j]
        np.copyto(bD, p[:, a:b, None])
        np.subtract(bD, s.cols[:, : b - a], out=bD)
        np.einsum("kij,kij->ij", bD, bD, out=bd)
        bd.ravel()[a :: n + 1] = np.inf  # the self pairs (i, a + i)
        if bd.min() < thresh2:
            iu, iv = np.nonzero(bd < thresh2)
            iu += a
            keep = iu < iv
            close.extend(zip(iu[keep].tolist(), iv[keep].tolist()))
            np.maximum(bd, floor2, out=bd)
        np.divide(kk, bd, out=bd)
        np.einsum("ij,kij->ki", bd, bD, out=s.rep[:, a:b])
    return s.rep, close


def _jitter(
    pos: np.ndarray,
    pairs: list[tuple[int, int]],
    k: float,
    seed: int,
    t: int,
    frozen: np.ndarray,
) -> bool:
    """Nudge one vertex of each pair in place: the first unfrozen one, each
    vertex at most once. Return whether anything moved."""
    moved = set()
    for u, v in pairs:
        target = v if not frozen[v] else (u if not frozen[u] else None)
        if target is None or target in moved:
            continue
        pos[target] += _jitter_vector(seed, t, target, k)
        moved.add(target)
    return bool(moved)


def _separated_repulsion(
    pos: np.ndarray, k: float, seed: int, t: int, frozen: np.ndarray, s: _KernelScratch
) -> np.ndarray:
    """Separate near-coincident vertices in place (at most 8 rounds), then
    return the (2, n) repulsion at the separated positions. A step with no
    close pair makes one kernel pass."""
    for _ in range(8):
        rep, close = _repulsion(pos, k, s)
        if not (close and _jitter(pos, close, k, seed, t, frozen)):
            return rep
    return _repulsion(pos, k, s)[0]


class _Workspace:
    """What every step of a run reuses: the checked masses and frozen mask,
    the attraction endpoint indices and the kernel scratch."""

    def __init__(self, g: Graph, mass, frozen) -> None:
        n = g.vertex_count
        self.mass = mass.values if isinstance(mass, MassVector) else check_masses(mass)
        if self.mass.shape != (n,):
            raise ValueError(f"mass vector length {self.mass.shape} does not match {n} vertices")
        if frozen is None:
            frozen = np.zeros(n, dtype=bool)
        self.frozen = np.asarray(frozen, dtype=bool)
        if self.frozen.shape != (n,):
            raise ValueError(f"frozen mask length {self.frozen.shape} does not match {n} vertices")
        # None when nothing is frozen, so the update needs no mask.
        self.movable = ~self.frozen if self.frozen.any() else None
        # Flat indices into the (2, n) coordinates: [x_u, y_u, x_v, y_v] per edge.
        eu, ev = g.edge_array.T
        self.ends = np.concatenate([eu, eu + n, ev, ev + n])
        self.scratch = _KernelScratch(n, _block_rows(n))


def _add_attraction(imp: np.ndarray, p: np.ndarray, ends: np.ndarray, k: float) -> None:
    """Add the spring pull along every edge to the (2, n) impulses, in place.
    p is the (2, n) positions, ends the workspace's endpoint indices."""
    half = ends.size // 2
    vals = p.ravel()[ends]  # [p_u, p_v]; becomes the bincount weights [-pull, +pull]
    e = (vals[:half] - vals[half:]).reshape(2, -1)  # p_u - p_v
    length = np.sqrt(np.add.reduce(e * e, axis=0))
    np.multiply(e, length / k, out=vals[half:].reshape(2, -1))
    np.negative(vals[half:], out=vals[:half])
    imp += np.bincount(ends, vals, imp.size).reshape(imp.shape)


def _advance(pos: np.ndarray, t: int, gamma: float, ws: _Workspace, config: LayoutConfig) -> float:
    """Iteration t at gravity gamma, in place on the (n, 2) positions; return
    the strongest impulse on a movable vertex. Runs fastest when pos is
    column-major, so each coordinate is one contiguous row of pos.T."""
    if not pos.size:  # an empty drawing: no force, nothing to move
        return 0.0
    imp = _separated_repulsion(pos, config.k, config.seed, t, ws.frozen, ws.scratch)
    p = pos.T
    if ws.ends.size:
        _add_attraction(imp, p, ws.ends, config.k)
    # Gravity gamma M (xi - p); the centroid xi is p.mean's sum-then-divide.
    imp += (np.add.reduce(p, axis=1, keepdims=True) / p.shape[1] - p) * (gamma * ws.mass)
    mag = np.sqrt(np.add.reduce(imp * imp, axis=0))
    # sigma * min(1, i_max / mag), by a division that cannot overflow.
    scale = config.sigma * (config.i_max / np.maximum(mag, config.i_max))
    imp *= scale
    if ws.movable is None:
        p += imp
        return float(mag.max())
    p[:, ws.movable] += imp[:, ws.movable]
    return float(mag[ws.movable].max()) if ws.movable.any() else 0.0


def check_positions(positions, n: int | None = None) -> np.ndarray:
    """Positions of an n-vertex drawing as a float array; ValueError unless
    the shape is (n, 2) and every coordinate is finite. With n None, any
    number of rows passes.

    A float ndarray comes back as it is, without a copy: callers that move
    vertices copy first.
    """
    pos = np.asarray(positions, dtype=float)
    rows = len(pos) if n is None and pos.ndim else n
    if pos.shape != (rows, 2):
        raise ValueError(f"positions shape {pos.shape} is not ({'n' if n is None else n}, 2)")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    return pos


def _start(positions, g: Graph, mass, frozen, config: LayoutConfig) -> tuple[np.ndarray, _Workspace]:
    """A column-major copy of the checked positions, and a workspace. ValueError
    when max_iterations could carry a vertex to where a squared distance
    overflows: an iteration moves it at most sigma * i_max plus 8 jitter
    nudges of JITTER_MAGNITUDE * k. ValueError too when, within that reach,
    repulsion, gravity or the spring pull could overflow an impulse's squared
    magnitude: no gamma of the run exceeds terminal_gamma."""
    pos = np.array(check_positions(positions, g.vertex_count), order="F")
    per_step = config.sigma * config.i_max + 8 * JITTER_MAGNITUDE * config.k
    # min: an iteration count beyond the float range would not convert.
    reach = float(np.abs(pos).max(initial=0.0)) + min(config.max_iterations, sys.float_info.max) * per_step
    if 8 * reach * reach == math.inf:  # d2 of two vertices within reach on each axis
        raise ValueError(f"vertices could reach {reach:.3g} in max_iterations, overflowing squared distances")
    ws = _Workspace(g, mass, frozen)
    # Within reach each axis of a difference is at most 2 * reach, so gravity
    # gamma M (xi - p) is at most gamma * max(M) * 2 * reach on each axis, and
    # the pull (|e| / k) e of one edge at most 8 * reach^2 / k in magnitude.
    # A pair at least JITTER_TRIGGER * k apart repels with k^2 / d, at most
    # k / JITTER_TRIGGER; closer pairs are jittered apart first.
    gravity = terminal_gamma(config) * float(ws.mass.max(initial=0.0)) * 2 * reach
    pull = int(g.degrees.max(initial=0)) * (8 * reach * reach / config.k)
    repulsion = max(g.vertex_count - 1, 0) * config.k / JITTER_TRIGGER
    force = repulsion + gravity + pull  # on each axis
    if 2 * force * force == math.inf:
        raise ValueError(
            f"repulsion, gravity and spring forces within reach {reach:.3g} could overflow the impulses"
        )
    return pos, ws


def _next_state(state: LayoutState, pos: np.ndarray, ws: _Workspace, config: LayoutConfig) -> LayoutState:
    """The iteration after state, in place on pos: its positions, column-major."""
    t = state.t + 1
    gamma = schedule_gamma(t, state, config)
    return LayoutState(pos, t, gamma, _advance(pos, t, gamma, ws, config))


def step(
    state: LayoutState,
    g: Graph,
    mass,
    config: LayoutConfig,
    frozen: np.ndarray | None = None,
) -> LayoutState:
    """One synchronous iteration: update gamma, separate coincident pairs,
    compute all impulses from the snapshot, then displace every movable
    vertex by sigma * (impulse clamped to i_max).
    """
    pos, ws = _start(state.positions, g, mass, frozen, config)
    return replace(_next_state(state, pos, ws, config), positions=np.ascontiguousarray(pos))


def run_layout(
    g: Graph,
    mass,
    config: LayoutConfig,
    *,
    initial: np.ndarray | None = None,
    frozen: np.ndarray | None = None,
) -> np.ndarray:
    """Run the simulation to completion and return final positions.

    Iterates until max_iterations, or until the state is :func:`settled`.
    Fully deterministic for identical inputs, and step-for-step identical
    to iterating :func:`step` by hand. The scratch memory is allocated once
    per call and reused by every iteration. ValueError rather than
    non-finite positions.
    """
    if initial is None:
        initial = initialize_positions(g, config.seed, config.k)
    pos, ws = _start(initial, g, mass, frozen, config)
    state = LayoutState(positions=pos)
    while g.vertex_count and state.t < config.max_iterations and not settled(state, config):
        state = _next_state(state, pos, ws, config)
    if not np.isfinite(pos).all():
        raise ValueError("the layout diverged to non-finite positions")
    return np.ascontiguousarray(pos)
