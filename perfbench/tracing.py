"""Spans at gravlayout's layer boundaries, recorded from the benchmark process.

`Tracer.install` wraps the public functions at the module names the CLI and
the arc phase call them by (for example `gravlayout.cli.run_layout`), so no
file of the program changes. Each span keeps its name, start, end, parent
span and job id in memory; `write_spans` saves them once the run is over.

The wrappers also keep what a later check needs: the arguments and result of
every `run_layout` call (for the step-by-step replay) and of every
`compute_metrics` call (for the memory pass). Nothing is computed inside a
span beyond the call itself.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np

from gravlayout import arcs, cli, engine, metrics

ENGINE_SPAN = "engine.run_layout"
DUMMY_SPAN = "arcs.dummy_phase"
ARCS_SPAN = "arcs.layout_lombardi"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.job: str | None = None
        self.engine_calls: list[dict] = []
        self.metrics_calls: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; return the span index and fn's result."""
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None, "job": self.job}
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        return index, result

    def _engine_span_name(self) -> str:
        # layout_lombardi calls run_layout twice: first the main layout, then
        # the dummy phase. Any later call under the same arcs span is arc work.
        parent = self._stack[-1] if self._stack else None
        if parent is None or self.spans[parent]["name"] != ARCS_SPAN:
            return ENGINE_SPAN
        earlier = [s for s in self.spans[parent + 1:] if s["parent"] == parent]
        return DUMMY_SPAN if any(s["name"] == ENGINE_SPAN for s in earlier) else ENGINE_SPAN

    def _wrap(self, module, attr: str, name, after=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span_name = name() if callable(name) else name
            index, result = self.call(span_name, original, *args, **kwargs)
            if after is not None:
                after(index, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def _after_engine(self, index, args, kwargs, result) -> None:
        self.engine_calls.append({"span": index, "args": args, "kwargs": kwargs,
                                  "result": np.array(result, copy=True)})

    def _after_metrics(self, index, args, kwargs, result) -> None:
        self.metrics_calls.append({"span": index, "args": args, "kwargs": kwargs})

    def _after_crossings(self, index, args, kwargs, result) -> None:
        m = args[0].edge_count
        self.spans[index]["pairs"] = m * (m - 1) // 2

    def _after_render(self, index, args, kwargs, result) -> None:
        self.spans[index]["bytes"] = len(result.encode("utf-8"))

    def install(self) -> None:
        self._wrap(cli, "parse_edge_list", "graphs.parse_edge_list")
        self._wrap(cli, "parse_graph_json", "graphs.parse_graph_json")
        self._wrap(cli, "compute_centrality", "centrality.compute_centrality")
        self._wrap(cli, "normalize_mass", "centrality.normalize_mass")
        self._wrap(cli, "run_layout", self._engine_span_name, self._after_engine)
        self._wrap(cli, "layout_lombardi", ARCS_SPAN)
        self._wrap(arcs, "run_layout", self._engine_span_name, self._after_engine)
        self._wrap(cli, "compute_metrics", "metrics.compute_metrics", self._after_metrics)
        self._wrap(metrics, "count_crossings", "metrics.count_crossings", self._after_crossings)
        self._wrap(cli, "render_svg", "render.render_svg", self._after_render)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def replay_run_layout(g, mass, config, initial=None, frozen=None):
    """Drive the public `engine.step` under run_layout's own stop rule.

    Returns (positions, iterations, stopped_at_equilibrium). run_layout is
    documented as step-for-step identical to this loop.
    """
    if initial is None:
        pos = engine.initialize_positions(g, config.seed, config.k)
    else:
        pos = np.array(initial, dtype=float)
    if g.vertex_count == 0:
        return pos, 0, False
    state = engine.LayoutState(positions=pos)
    target = engine.terminal_gamma(config)
    while state.t < config.max_iterations:
        state = engine.step(state, g, mass, config, frozen)
        # run_layout's stop rule, including its 1e-12 tolerance on gamma.
        if state.gamma >= target - 1e-12 and state.last_max_impulse < config.equilibrium_eps:
            return state.positions, state.t, True
    return state.positions, state.t, False


def traced_peak(fn, *args, **kwargs):
    """Run fn under tracemalloc; return (result, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def write_spans(spans: list[dict], path) -> None:
    """One JSON object per line; times are seconds from the first span."""
    t0 = spans[0]["start"] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for index, s in enumerate(spans):
            row = dict(s, id=index, start=s["start"] - t0, end=s["end"] - t0)
            fh.write(json.dumps(row) + "\n")
