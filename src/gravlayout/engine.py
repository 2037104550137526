"""Iterative force simulation with centrality-weighted gravity.

Each iteration computes a net impulse per vertex from three forces, all
evaluated against the same position snapshot (synchronous update):

  repulsion   f_r(u, v) = (k^2 / |P[u] - P[v]|^2) (P[v] - P[u])   from every other vertex
  attraction  f_a(u, v) = (|P[u] - P[v]| / k) (P[u] - P[v])       along each incident edge
  gravity     f_g(v)    = gamma_t M[v] (xi - P[v])                toward the centroid xi

The impulses are taken in the rest frame, less their mean: gravity sums
to gamma_t n (xi - xi_M), xi_M the mass-weighted centroid, a push that
only translates the drawing. The impulse is clamped to magnitude i_max
(direction preserved), scaled by heat * sigma, and applied as a
displacement. A run starts from initialize_positions, a radial drawing
that leaves trees untangled, and the gravity coefficient gamma_t climbs by
gamma_step each time a level comes to rest, up to gamma_max, which compacts
the drawing toward the center; a gamma_step of at least gamma_max holds
gravity constant from t = 1, and gamma_max 0 turns it off. _schedule_gamma
gives gamma_t and _settled is the stop rule; step and run_layout share one
iteration body.

The heat in (0, 1] is the adaptive cooling of Hu (Mathematica Journal 10(1),
2005, after Walshaw, GD 2000), kept per gravity level. It is 1 at the start
and whenever gamma changes. An iteration whose energy E = sum |F|^2 of the
rest-frame impulses is not a new low for the level multiplies it by COOLING;
WARM_AFTER new lows in a row divide it by COOLING, up to 1. Comparing with
the level's lowest energy, not the previous one, keeps a layout from
cycling at a fixed heat. So the moves shrink once the layout stops
improving and the longest move of an iteration falls. A level below
gamma_max only carries the drawing to the next one, so it ends once that
move is below LEVEL_EPS * equilibrium_eps; at gamma_max the run waits for
a move below equilibrium_eps, the settled state it stops at.

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
squared norms are add.reduce over the two coordinates, the energy is
add.reduce over the vertices, and no reduction in a step goes through BLAS,
so the output bits do not depend on B or on the BLAS thread count.
Positions are column-major inside a run, so each coordinate is one
contiguous row.

All seeded noise comes from one primitive, _uniforms: splitmix64 hashing
over numpy uint64 arrays, a uniform per (seed, t, key). The start's
Gaussian jitter is Box-Muller over keys 2v and 2v + 1 at t = 0, and the
nudge that separates a near-coincident vertex v in iteration t >= 1 takes
its angle from key v. So neither draws from, nor loads, numpy.random.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .centrality import MassVector, check_masses
from .graphs import (
    Graph, _bfs_parents, _check_finite, _check_integer, _check_real, _euler_tour, _first_vertices, _numbers,
    connected_components,
)

TWO_PI = 2.0 * math.pi
MASK64 = (1 << 64) - 1

# Pairs closer than JITTER_TRIGGER * k are separated by a deterministic nudge
# of magnitude JITTER_MAGNITUDE * k before forces are evaluated.
JITTER_TRIGGER = 1e-6
JITTER_MAGNITUDE = 1e-3

# The standard deviation of the start's Gaussian jitter, as a fraction of k.
START_JITTER = 0.02

# The heat controller: the factor a non-improving iteration cools by, and the
# run of new energy lows after which the heat recovers one factor.
COOLING = 0.9
WARM_AFTER = 5

# An intermediate gravity level ends once its longest move is below
# LEVEL_EPS * equilibrium_eps; only gamma_max waits for equilibrium_eps.
LEVEL_EPS = 3.0

# Pair entries per block of the repulsion kernel: its scratch is five
# (rows, n) arrays with rows * n <= BLOCK_ELEMENTS (for n <= BLOCK_ELEMENTS).
BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class LayoutConfig:
    """Simulation parameters.

    k is the natural edge length: an isolated edge settles at length k where
    repulsion k^2/d and attraction d^2/k balance. Impulses are capped at
    i_max and scaled by heat * sigma with the level's heat at most 1, so no
    vertex moves more than sigma * i_max per iteration (8 = 0.1 k by default).

    Gravity climbs to gamma_max by gamma_step, one step once a level has
    come to rest (its longest move below LEVEL_EPS * equilibrium_eps) or
    has run block_len iterations. The first level is gamma_step, not 0:
    the radial start of initialize_positions has nothing to untangle
    without gravity, and it holds up under steps of 0.5. A gamma_step of at least gamma_max holds
    gravity constant at gamma_max from the first iteration, and gamma_max 0
    turns gravity off. A run stops after max_iterations, or once it is
    settled at gamma_max: its longest move below equilibrium_eps.
    """

    k: float = 80.0
    i_max: float = 10.0
    sigma: float = 0.8
    gamma_max: float = 2.5
    block_len: int = 200
    gamma_step: float = 0.5
    equilibrium_eps: float = 1.0
    max_iterations: int = 3000
    seed: int = 0

    def __post_init__(self) -> None:
        # Numbers are stored as Python floats and ints, whatever Real or
        # Integral type they came as.
        for name in ("k", "i_max", "sigma", "gamma_max", "gamma_step", "equilibrium_eps"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        for name in ("block_len", "max_iterations", "seed"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
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
    """Positions after iteration t at gravity gamma, and the heat controller.

    last_max_impulse is the longest move of iteration t, heat * sigma *
    min(max |F|, i_max) over the rest-frame impulses F, with inf before the
    first. heat is the step factor of the next iteration at this level,
    streak the run of new energy lows that ends at t, lowest_energy the
    level's lowest energy so far, and level_start the t the level began
    after. The defaults are a start state, so LayoutState(positions=p)
    starts a run.
    """

    positions: np.ndarray
    t: int = 0
    gamma: float = 0.0
    last_max_impulse: float = math.inf
    heat: float = 1.0
    streak: int = 0
    lowest_energy: float = math.inf
    level_start: int = 0


def terminal_gamma(config: LayoutConfig) -> float:
    """The gravity level a run is heading for: gamma_max."""
    return config.gamma_max


def _settled(state: LayoutState, config: LayoutConfig) -> bool:
    """The stop rule: the longest move of the last iteration is below
    equilibrium_eps and gamma has reached gamma_max. Only the last level
    waits for equilibrium_eps; the ones before it end at LEVEL_EPS times
    that (_schedule_gamma). A start state (last_max_impulse inf) is never
    settled."""
    return state.last_max_impulse < config.equilibrium_eps and state.gamma >= config.gamma_max - 1e-12


def _deepest(labels: np.ndarray, depth: np.ndarray, count: int) -> np.ndarray:
    """Per component label, its deepest vertex, the smallest on a tie."""
    most = np.zeros(count, dtype=np.int64)
    np.maximum.at(most, labels, depth)
    far = np.flatnonzero(depth == most[labels])
    return far[np.unique(labels[far], return_index=True)[1]]


def _shelf_corners(sides: np.ndarray) -> np.ndarray:
    """Lower-left corners of squares with the given sides, packed largest
    first, left to right, on shelves of width sqrt(sum of sides^2)."""
    width = math.sqrt(float(np.add.reduce(sides * sides)))
    corners = np.empty((sides.size, 2))
    x = y = shelf = 0.0
    for c in np.argsort(-sides, kind="stable").tolist():
        side = float(sides[c])
        if x and x + side > width:  # the first square of a shelf always fits
            x, y, shelf = 0.0, y + shelf, 0.0
        corners[c] = (x, y)
        x += side
        shelf = max(shelf, side)
    return corners


def initialize_positions(g: Graph, seed: int, k: float) -> np.ndarray:
    """A seeded radial drawing (Eades, "Drawing free trees", Bull. ICA 5, 1992),
    as the (n, 2) start of a run.

    A BFS from each component's first vertex spans a forest of g (a forest
    is its own). Two sweeps find a longest path of each tree, whose middle
    becomes its root: a tree's center. A vertex of depth d sits at radius
    d * k in the middle of its wedge. A vertex's wedge is size / N of the
    circle for a subtree of size vertices in a component of N; its
    children's wedges follow one another, in tour order, after a share of
    1 / N it keeps for itself. Nested wedges keep the edges of one depth
    band apart, so a tree starts with few crossings, as a rule none.
    Components are packed in squares of side 2 * radius + k, largest first,
    on shelves of width sqrt(sum of the sides^2), and the packing is
    centered at the origin. Then every vertex gets Gaussian jitter of
    standard deviation START_JITTER * k on each axis, so that no start is
    exactly symmetric and each seed starts elsewhere: Box-Muller over the
    uniforms u, w = _uniforms(seed, 0, 2v), _uniforms(seed, 0, 2v + 1)
    moves vertex v by START_JITTER * k * sqrt(-2 log(1 - u)) at the angle
    2 pi w. The noise is splitmix64 hashing, so a start loads no
    numpy.random; seeds equal mod 2^64 start alike.

    Euler tours do the sweeps, and a level-synchronous BFS spans a graph
    with cycles, in O(n + m) memory and without BLAS; the shelves walk the
    components in a Python loop. ValueError unless seed is an integer >= 0
    and k is positive and finite, or when k is so large that the drawing
    overflows.
    """
    seed = _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    k = _check_finite("k", k)
    if k <= 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    n = g.vertex_count
    if not n:
        return np.zeros((0, 2))
    labels = connected_components(g)
    first = _first_vertices(labels)
    count = first.size
    forest = g
    if g.edge_count != n - count:  # a cycle: hang every vertex from its BFS parent
        parent = _bfs_parents(g, first)
        child = np.flatnonzero(parent >= 0)
        forest = Graph.from_edges(n, np.column_stack((parent[child], child)))
    # Sweep 1: the deepest vertex a below the first vertex ends a longest
    # path; sweep 2: the deepest vertex b below a is its other end. The
    # root is the ancestor of b (in the tree rooted at a) halfway down.
    a = _deepest(labels, _euler_tour(forest, labels, first)[4], count)
    _, _, enter, leave, depth = _euler_tour(forest, labels, a)
    b = _deepest(labels, depth, count)[labels]
    middle = (enter <= enter[b]) & (leave[b] <= leave) & (depth == depth[b] // 2)
    root = np.empty(count, dtype=np.int64)
    root[labels[middle]] = np.flatnonzero(middle)
    _, size, enter, _, depth = _euler_tour(forest, labels, root)
    # v's preorder index: of the tour's arcs up to the one into v, depth[v]
    # more go down than up, and each down arc enters one vertex.
    before = (enter - enter[root][labels] + depth) // 2
    angle = TWO_PI * (before + 0.5 * size) / size[root][labels]
    # A k too large for the drawing overflows to inf or NaN, caught below.
    with np.errstate(over="ignore", invalid="ignore"):
        pos = np.column_stack((np.cos(angle), np.sin(angle))) * (k * depth)[:, None]
        radius = np.zeros(count)
        np.maximum.at(radius, labels, k * depth)
        side = 2.0 * radius + k
        pos += (_shelf_corners(side) + 0.5 * side[:, None])[labels]
        pos -= 0.5 * (pos.min(axis=0) + pos.max(axis=0))
        u, w = _uniforms(seed, 0, np.arange(2 * n)).reshape(n, 2).T
        r = START_JITTER * k * np.sqrt(-2.0 * np.log1p(-u))
        angle = TWO_PI * w
        pos += r[:, None] * np.column_stack((np.cos(angle), np.sin(angle)))
    if not np.isfinite(pos).all():
        raise ValueError(f"k = {k!r} puts the start beyond the float range")
    return pos


def _schedule_gamma(t: int, state: LayoutState, config: LayoutConfig) -> float:
    """Gravity coefficient for iteration t after state.

    Gamma rises by gamma_step, capped at gamma_max, once the previous
    iteration's longest move fell below LEVEL_EPS * equilibrium_eps, or
    when iteration t would be the level's (block_len + 1)-th. A level below
    gamma_max only carries the drawing to the next, so it need not settle
    to equilibrium_eps; at gamma_max gamma cannot rise, and the run goes on
    until it is settled. There is no gravity-free level: a start state
    (gamma 0) steps straight to min(gamma_max, gamma_step). So a gamma_step
    of at least gamma_max holds gamma_max from t = 1, and gamma_max 0 keeps
    gravity off: neither run ever changes level, whatever LEVEL_EPS."""
    if (
        state.gamma == 0.0
        or state.last_max_impulse < LEVEL_EPS * config.equilibrium_eps
        or t - state.level_start > config.block_len
    ):
        return min(config.gamma_max, state.gamma + config.gamma_step)
    return state.gamma


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer (Steele, Lea and Flood, "Fast splittable
    pseudorandom number generators", OOPSLA 2014) on a uint64 array,
    elementwise. Array arithmetic wraps mod 2^64 silently; numpy's scalar
    uint64 arithmetic would warn on overflow, so x is never a scalar."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, t: int, keys) -> np.ndarray:
    """Seeded noise: one uniform in [0, 1) per key (a non-negative integer),
    the top 53 bits of mix(mix(mix(seed) ^ t) ^ key) over 2^53, where mix is
    _splitmix64 and seed and t are taken mod 2^64. Counter-based (Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011): a uniform
    depends on (seed, t, key) alone, not on what else is drawn. The nudges
    of iteration t >= 1 key by vertex; the start is t = 0."""
    h = _splitmix64(np.array([int(seed) & MASK64], dtype=np.uint64))
    h = _splitmix64(h ^ np.uint64(int(t) & MASK64))
    h = _splitmix64(np.asarray(keys, dtype=np.uint64) ^ h)
    return (h >> np.uint64(11)) * 2.0**-53


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
    row-major order. Their d2 is floored well below the trigger, a guard
    against a division by zero: callers separate such pairs first.
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


def _jitter(pos: np.ndarray, pairs: list[tuple[int, int]], k: float, seed: int, t: int) -> None:
    """Nudge the second vertex v of each pair in place, each vertex once, by
    JITTER_MAGNITUDE * k at the angle 2 pi _uniforms(seed, t, v)."""
    # Not np.unique: without a return_* flag it imports numpy.ma.
    moved = np.array(sorted({v for _, v in pairs}), dtype=np.int64)
    angle = TWO_PI * _uniforms(seed, t, moved)
    pos[moved] += JITTER_MAGNITUDE * k * np.column_stack((np.cos(angle), np.sin(angle)))


def _separated_repulsion(pos: np.ndarray, k: float, seed: int, t: int, s: _KernelScratch) -> np.ndarray:
    """Separate near-coincident vertices in place (at most 8 rounds), then
    return the (2, n) repulsion at the separated positions. A step with no
    close pair makes one kernel pass."""
    for _ in range(8):
        rep, close = _repulsion(pos, k, s)
        if not close:
            return rep
        _jitter(pos, close, k, seed, t)
    return _repulsion(pos, k, s)[0]


class _Workspace:
    """What every step of a run reuses: the checked masses, the attraction
    endpoint indices and the kernel scratch."""

    def __init__(self, g: Graph, mass) -> None:
        n = g.vertex_count
        self.mass = mass.values if isinstance(mass, MassVector) else check_masses(mass)
        if self.mass.shape != (n,):
            raise ValueError(f"mass vector length {self.mass.shape} does not match {n} vertices")
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


def _advance(
    pos: np.ndarray, t: int, gamma: float, ws: _Workspace, config: LayoutConfig, heat: float = 1.0
) -> tuple[float, float]:
    """Iteration t at gravity gamma and the given heat, in place on the
    (n, 2) positions. The impulses are taken in the rest frame (less their
    mean), clamped and applied; return the strongest rest-frame impulse and
    the energy, the sum of their squares. Runs fastest when pos is
    column-major, so each coordinate is one contiguous row of pos.T."""
    if not pos.size:  # an empty drawing: no force, nothing to move
        return 0.0, 0.0
    imp = _separated_repulsion(pos, config.k, config.seed, t, ws.scratch)
    p = pos.T
    n = p.shape[1]
    if ws.ends.size:
        _add_attraction(imp, p, ws.ends, config.k)
    # Gravity gamma M (xi - p); the centroid xi is p.mean's sum-then-divide.
    imp += (np.add.reduce(p, axis=1, keepdims=True) / n - p) * (gamma * ws.mass)
    imp -= np.add.reduce(imp, axis=1, keepdims=True) / n  # the mean only translates the drawing
    mag2 = np.add.reduce(imp * imp, axis=0)
    mag = np.sqrt(mag2)
    # heat * sigma * min(1, i_max / mag), by a division that cannot overflow.
    imp *= (heat * config.sigma) * (config.i_max / np.maximum(mag, config.i_max))
    p += imp
    return float(mag.max()), float(np.add.reduce(mag2))


def check_positions(positions, n: int | None = None) -> np.ndarray:
    """Positions of an n-vertex drawing as a float array; ValueError unless
    they are n rows of 2 finite numbers (`graphs._numbers`: no bool, string
    or complex value) and no side s of their bounding box has 2 s^2, the
    largest quantity orientation predicates and squared lengths form, beyond
    the float range. With n None, any number of rows passes. Every run_layout
    drawing passes: _start keeps 8 reach^2 finite, no side exceeds 2 reach.

    A float64 ndarray comes back as it is, without a copy: callers that move
    vertices copy first.
    """
    pos = _numbers("positions", positions, width=2)
    if n is not None and len(pos) != n:
        raise ValueError(f"positions shape {pos.shape} is not ({n}, 2)")
    if not np.all(np.isfinite(pos)):
        raise ValueError("positions must be finite")
    # Per column, as an axis-0 reduction is slow; Python floats overflow silently.
    side = max(float(c.max()) - float(c.min()) for c in pos.T) if len(pos) else 0.0
    if 2.0 * side * side == math.inf:
        raise ValueError(f"the drawing spans {side:.3g}, too wide for its squared lengths to stay finite")
    return pos


def _start(positions, g: Graph, mass, config: LayoutConfig) -> tuple[np.ndarray, _Workspace]:
    """A column-major copy of the checked positions, and a workspace. ValueError
    when max_iterations could carry a vertex to where a squared distance
    overflows: an iteration moves it at most sigma * i_max plus 8 jitter
    nudges of JITTER_MAGNITUDE * k. ValueError too when, within that reach,
    repulsion, gravity or the spring pull could overflow the energy, the sum
    of the rest-frame impulses' squared magnitudes: no gamma of the run exceeds
    gamma_max."""
    pos = np.array(check_positions(positions, g.vertex_count), order="F")
    per_step = config.sigma * config.i_max + 8 * JITTER_MAGNITUDE * config.k
    # min: an iteration count beyond the float range would not convert.
    reach = float(np.abs(pos).max(initial=0.0)) + min(config.max_iterations, sys.float_info.max) * per_step
    if 8 * reach * reach == math.inf:  # d2 of two vertices within reach on each axis
        raise ValueError(f"vertices could reach {reach:.3g} in max_iterations, overflowing squared distances")
    ws = _Workspace(g, mass)
    # Within reach each axis of a difference is at most 2 * reach, so gravity
    # gamma M (xi - p) is at most gamma * max(M) * 2 * reach on each axis, and
    # the pull (|e| / k) e of one edge at most 8 * reach^2 / k in magnitude.
    # A pair at least JITTER_TRIGGER * k apart repels with k^2 / d, at most
    # k / JITTER_TRIGGER; closer pairs are jittered apart first.
    gravity = config.gamma_max * float(ws.mass.max(initial=0.0)) * 2 * reach
    pull = int(g.degrees.max(initial=0)) * (8 * reach * reach / config.k)
    repulsion = max(g.vertex_count - 1, 0) * config.k / JITTER_TRIGGER
    force = repulsion + gravity + pull  # on each axis; twice that in the rest frame
    if 8 * max(g.vertex_count, 1) * force * force == math.inf:
        raise ValueError(
            f"repulsion, gravity and spring forces within reach {reach:.3g} could overflow the impulses"
        )
    return pos, ws


def _next_state(state: LayoutState, pos: np.ndarray, ws: _Workspace, config: LayoutConfig) -> LayoutState:
    """The iteration after state, in place on pos: its positions, column-major.
    A new gravity level starts at full heat with no energy record; then the
    iteration's energy cools or warms the heat of the next one."""
    t = state.t + 1
    gamma = _schedule_gamma(t, state, config)
    if gamma != state.gamma:
        state = replace(state, heat=1.0, streak=0, lowest_energy=math.inf, level_start=state.t)
    strongest, energy = _advance(pos, t, gamma, ws, config, state.heat)
    move = state.heat * config.sigma * min(strongest, config.i_max)
    heat, streak, lowest = state.heat * COOLING, 0, state.lowest_energy
    if energy < lowest:
        heat, streak, lowest = state.heat, state.streak + 1, energy
        if streak == WARM_AFTER:
            heat, streak = min(1.0, heat / COOLING), 0
    return LayoutState(pos, t, gamma, move, heat, streak, lowest, state.level_start)


def step(
    state: LayoutState,
    g: Graph,
    mass,
    config: LayoutConfig,
    frozen: None = None,
) -> LayoutState:
    """One synchronous iteration: update gamma, separate coincident pairs,
    compute all impulses from the snapshot, take them in the rest frame,
    displace every vertex by heat * sigma * (impulse clamped to i_max), and
    cool or warm the heat. The state carries the whole controller, so a
    loop of step calls replays run_layout bit for bit.

    Every vertex moves: frozen must be None (perfbench's step replay passes
    it positionally), and any other value raises ValueError. So does a
    state whose heat is not in (0, 1] or whose gamma is not in [0,
    gamma_max]: the displacement cap and the overflow bound rest on both.
    So does a controller no run reaches: t and level_start not integers
    with 0 <= level_start <= t, streak not an integer >= 0, or
    lowest_energy or last_max_impulse negative or NaN. heat, gamma,
    lowest_energy and last_max_impulse are read as real numbers
    (`graphs._check_real`), so a bool, string, None or complex value raises
    ValueError naming the field.
    """
    if frozen is not None:
        raise ValueError("step moves every vertex: frozen must be None")
    t = _check_integer("state t", state.t)
    if not 0 <= _check_integer("state level_start", state.level_start) <= t:
        raise ValueError(f"state t and level_start need 0 <= level_start <= t: {t}, {state.level_start!r}")
    if _check_integer("state streak", state.streak) < 0:
        raise ValueError(f"state streak must be >= 0, got {state.streak!r}")
    low = _check_real("state lowest_energy", state.lowest_energy)
    last = _check_real("state last_max_impulse", state.last_max_impulse)
    if not (low >= 0.0 and last >= 0.0):
        raise ValueError(f"state lowest_energy and last_max_impulse must be >= 0, got {low!r}, {last!r}")
    heat = _check_real("state heat", state.heat)
    if not 0.0 < heat <= 1.0:
        raise ValueError(f"state heat must be in (0, 1], got {state.heat!r}")
    gamma = _check_real("state gamma", state.gamma)
    if not 0.0 <= gamma <= config.gamma_max:
        raise ValueError(f"state gamma must be in [0, gamma_max={config.gamma_max!r}], got {state.gamma!r}")
    state = replace(state, gamma=gamma, last_max_impulse=last, heat=heat, lowest_energy=low)
    pos, ws = _start(state.positions, g, mass, config)
    return replace(_next_state(state, pos, ws, config), positions=np.ascontiguousarray(pos))


def run_layout(
    g: Graph,
    mass,
    config: LayoutConfig,
    *,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Run the simulation to completion and return final positions.

    Iterates until max_iterations, or until the state is settled (`_settled`).
    Fully deterministic for identical inputs, and step-for-step identical
    to iterating :func:`step` by hand. The scratch memory is allocated once
    per call and reused by every iteration. ValueError rather than
    non-finite positions.
    """
    if initial is None:
        initial = initialize_positions(g, config.seed, config.k)
    pos, ws = _start(initial, g, mass, config)
    state = LayoutState(positions=pos)
    while g.vertex_count and state.t < config.max_iterations and not _settled(state, config):
        state = _next_state(state, pos, ws, config)
    if not np.isfinite(pos).all():
        raise ValueError("the layout diverged to non-finite positions")
    return np.ascontiguousarray(pos)
