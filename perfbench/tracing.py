"""Span tracing for one recovnet CLI process.

Run as ``python perfbench/tracing.py ARGS...`` in place of
``python -m recovnet ARGS...``. It imports recovnet, wraps the public
functions of each layer module at every name their callers look them up,
runs the CLI in this process, and when the process ends writes the spans and
counters it kept in memory to the JSON file named by ``PERFBENCH_TRACE_OUT``.

A span is ``(id, parent, name, start_ns, end_ns)``; names are
``<layer>.<function>``. A span opened on a thread-pool worker, whose own
stack is empty, takes as parent the innermost open span of the main thread
(the GA or baseline call that is blocked waiting for the pool). Counter
hooks never raise into the program: a hook that fails adds to ``errors``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import runpy
import sys
import threading
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "io", "graph", "synthetic", "diffusion", "empirical",
    "fitting", "ga", "multipliers", "analysis", "cli",
)
# called once per simulated week or per input row: a span each would cost
# more than the work it measures
UNTRACED = {"diffusion.recovered_neighbor_fraction", "diffusion.diffusion_step", "io.parse_day"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: Counter = Counter()
        self.errors = 0
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        stack = self._stack()
        parent = 0
        source = stack if stack or stack is self._main_stack else self._main_stack
        try:
            parent = source[-1][0]
        except IndexError:
            pass
        stack.append((next(self._ids), parent, name, perf_counter_ns()))

    def end(self) -> None:
        sid, parent, name, start = self._stack().pop()
        self.spans.append((sid, parent, name, start, perf_counter_ns()))

    def hook(self, fn, *args) -> None:
        try:
            fn(self.counters, *args)
        except Exception:  # a counter must never change the program's behaviour
            self.errors += 1

    def dump(self, path: str, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"run_id": run_id, "spans": self.spans,
                 "counters": dict(self.counters), "errors": self.errors},
                handle,
            )


# ---------------------------------------------------------------------------
# counter hooks: (counters, result, bound arguments)
# ---------------------------------------------------------------------------

def _diffusion_work(counters, states, arguments) -> None:
    """Weeks run_diffusion updated, and the sparse-product work they took.

    The update loop runs from first_update_week until a week repeats its
    predecessor (that week included) or the horizon is reached.
    """
    import numpy as np

    graph, schedule = arguments["g"], arguments["schedule"]
    first, horizon = schedule.first_update_week, schedule.horizon
    same = np.all(states[first:] == states[first - 1:-1], axis=1)
    weeks = int(np.argmax(same)) + 1 if same.any() else horizon - first + 1
    matrix = graph.adjacency_matrix
    per_week = (
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        + 2 * 8 * graph.n  # int64 state vector in, int64 neighbour counts out
    )
    counters["diffusion.weeks_simulated"] += weeks
    counters["diffusion.matvec_nnz"] += matrix.nnz * weeks
    counters["diffusion.bytes_computed"] += per_week * weeks


ROWS = {
    "io.read_edge_list": lambda graph: graph.m,
    "io.read_durations": len,
    "io.read_thresholds": lambda tau: tau.n,
    "io.read_attributes": len,
    "io.read_feature_collection": len,
    "io.read_visit_series": lambda series: sum(len(v) for _, v in series.values()),
}


def _rows(measure):
    def hook(counters, result, arguments) -> None:
        counters["io.rows_read"] += int(measure(result))
    return hook


AFTER = {"diffusion.run_diffusion": _diffusion_work}
AFTER.update({name: _rows(measure) for name, measure in ROWS.items()})


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _binder(fn):
    """Maps a call's arguments to parameter names, defaults included; a
    cheaper stand-in for Signature.bind on a hot path."""
    parameters = inspect.signature(fn).parameters
    names = list(parameters)
    defaults = {k: p.default for k, p in parameters.items() if p.default is not p.empty}

    def bind(args, kwargs) -> dict:
        return {**defaults, **dict(zip(names, args)), **kwargs}

    return bind


def _wrap_function(tracer: Tracer, fn, name: str):
    after = AFTER.get(name)
    bind = _binder(fn) if after else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            tracer.hook(after, result, bind(args, kwargs))
        return result

    return traced


def _wrap_run_ga(tracer: Tracer, fn):
    """run_ga with its fitness callable replaced by a counted, traced one;
    distinct chromosomes are counted per run."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        arguments = signature.bind(*args, **kwargs)
        fitness = arguments.arguments["fitness"]
        seen: set = set()

        def counted(chromosome):
            seen.add(chromosome.tobytes())
            tracer.begin("ga.fitness")
            try:
                return fitness(chromosome)
            finally:
                tracer.end()

        arguments.arguments["fitness"] = counted
        tracer.begin("ga.run_ga")
        try:
            result = fn(*arguments.args, **arguments.kwargs)
        finally:
            tracer.end()

        def count(counters):
            counters["ga.generations"] += len(result.history)
            counters["ga.distinct_evaluations"] += len(seen)
        tracer.hook(count)
        return result

    return traced


def _wrap_atomic_write(tracer: Tracer, fn):
    """Every table and JSON file the program writes goes through atomic_write."""

    @contextlib.contextmanager
    @functools.wraps(fn)
    def traced(path):
        tracer.begin("io.atomic_write")
        try:
            with fn(path) as handle:
                yield handle
        finally:
            tracer.end()
        tracer.hook(lambda counters: counters.update({"io.bytes_written": os.path.getsize(path)}))

    return traced


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    method = getattr(cls, attr)

    @functools.wraps(method)
    def traced(self, *args, **kwargs):
        tracer.begin(name)
        try:
            result = method(self, *args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            tracer.hook(after, self)
        return result

    setattr(cls, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer module and rebind each name
    (in any recovnet module) that refers to it."""
    modules = {layer: importlib.import_module(f"recovnet.{layer}") for layer in LAYERS}
    replacements = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_") or name in UNTRACED
                or not inspect.isfunction(value) or value.__module__ != module.__name__
            ):
                continue
            if name == "ga.run_ga":
                replacements[id(value)] = _wrap_run_ga(tracer, value)
            elif name == "io.atomic_write":
                replacements[id(value)] = _wrap_atomic_write(tracer, value)
            else:
                replacements[id(value)] = _wrap_function(tracer, value, name)

    for module in [m for key, m in sys.modules.items() if key == "recovnet" or key.startswith("recovnet.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])

    def count_edges(counters, graph):
        counters["graph.edges"] += graph.m

    _wrap_method(tracer, modules["graph"].SpatialGraph, "__init__", "graph.SpatialGraph", count_edges)
    _wrap_method(tracer, modules["ga"].RealVectorEncoding, "mutate", "ga.mutate")
    _wrap_method(tracer, modules["ga"].SubsetEncoding, "mutate", "ga.mutate")


def main(argv: list[str]) -> None:
    out = os.environ["PERFBENCH_TRACE_OUT"]
    sys.path[0] = os.getcwd()  # as `python -m` would have it
    tracer = Tracer()
    install(tracer)
    sys.argv = ["recovnet", *argv]
    try:
        runpy.run_module("recovnet", run_name="__main__", alter_sys=True)
    finally:
        tracer.dump(out, os.environ.get("PERFBENCH_RUN_ID", ""))


if __name__ == "__main__":
    main(sys.argv[1:])
