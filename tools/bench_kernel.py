"""Times one fitness call of each kind on a county-scale instance, and one
read of a large visits file.

    PYTHONPATH=src python tools/bench_kernel.py --label change

The instance is ``synth --nodes 2010 --kind perturbed_grid --rng-seed 1``,
written to a temporary directory. Timed, each as the median of --repeats
calls after two warm-up calls:

- ``need``: DiffusionKernel.need on a 2010 x 64 threshold matrix;
- ``losses_P10`` and ``losses_P65``: FitProblem.losses on 10 and 65
  uniform-random chromosomes (65 is one column chunk of ``baseline``);
- ``recovered_P10``: MultiplierProblem.recovered on 10 random seed sets of
  20 nodes, over the planted thresholds.

Before timing, the losses and recovered counts of a few columns are checked
against the plain-loop re-simulation of ``tests/oracles.py``.

``read_visits`` is io.read_visit_series on a visits file of 4 000 units x
110 days (440 000 unquoted rows, 5.7 MB, shaped like the benchmark's
``ingest-large`` input), written to a temporary directory and checked
against ``tests/oracles.naive_read_visit_series``. It is timed as the median
of --visit-repeats calls after two warm-up calls, and one more call gives
``peak_mib``, the tracemalloc peak of a read.

The result is stored under --label in --out (other labels are kept), so that
two source trees can be compared by running the harness once with each on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import recovnet
from recovnet import MultiplierProblem, build_fit_problem, io
from recovnet.cli import main as cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402

NODES = 2010
HORIZON, FIRST_UPDATE_WEEK = 14, 3
VISIT_UNITS, VISIT_DAYS = 4000, 110


def instance(root: Path):
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli(["synth", "--nodes", str(NODES), "--kind", "perturbed_grid",
                     "--rng-seed", "1", "--out", str(root)])
    assert code == 0, "synth failed"
    graph = io.read_edge_list(root / "edges.csv")
    durations = io.read_durations(root / "durations.csv")
    planted = io.read_thresholds(root / "planted_thresholds.csv")
    return graph, durations, planted.take([planted.node_ids.index(n) for n in graph.nodes])


def check_against_oracle(graph, durations, problem, multipliers, chromosomes, seed_sets):
    """Losses and recovered counts of the first two columns equal a plain-loop
    re-simulation."""
    neighbors = {node: sorted(graph.neighbors(node)) for node in graph.nodes}
    affected = {node: 0 for node in graph.nodes}
    losses = problem.losses(chromosomes[:2])
    for p, row in enumerate(chromosomes[:2]):
        values = np.zeros(graph.n)
        values[problem.free_indices] = row
        weeks = oracles.naive_diffusion(neighbors, dict(zip(graph.nodes, values)), affected)
        loss = sum((durations[node] <= t) != bool(weeks[t][node])
                   for t in range(1, HORIZON + 1) for node in graph.nodes)
        assert losses[p] == loss, f"losses column {p}: {losses[p]} vs oracle {loss}"
    recovered = multipliers.recovered(seed_sets[:2])
    thresholds = dict(zip(graph.nodes, multipliers.thresholds.values))
    for p, row in enumerate(seed_sets[:2]):
        initial = dict(affected, **{graph.nodes[i]: 1 for i in row})
        final = sum(oracles.naive_diffusion(neighbors, thresholds, initial)[-1].values())
        assert recovered[p] == final, f"recovered column {p}: {recovered[p]} vs oracle {final}"


def timed(fn, repeats: int) -> dict:
    for _ in range(2):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "calls": repeats}


def read_visits(repeats: int) -> dict:
    """Time io.read_visit_series on an ingest-large-shaped visits file,
    after checking it against the row-by-row oracle."""
    rng = np.random.default_rng(0)
    visits = rng.integers(0, 102, (VISIT_UNITS, VISIT_DAYS)).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "visits.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,day,visits\n")
            for unit, series in enumerate(visits):
                handle.write("".join(f"g{unit:05d},{d},{v}\n" for d, v in enumerate(series)))
        expected = oracles.naive_read_visit_series(path)
        series = io.read_visit_series(path)
        assert list(series) == sorted(expected), "read_visits: node ids differ from the oracle"
        for node, (first_day, values) in series.items():
            assert (first_day, values.tolist()) == expected[node], f"read_visits: node {node}"
        del expected, series
        timing = timed(lambda: io.read_visit_series(path), repeats)
        tracemalloc.start()
        io.read_visit_series(path)
        timing["peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        tracemalloc.stop()
    return timing


def measure(repeats: int, visit_repeats: int) -> dict:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        graph, durations, planted = instance(Path(tmp))
    schedule = recovnet.DiffusionSchedule(HORIZON, FIRST_UPDATE_WEEK)
    problem = build_fit_problem(graph, durations, schedule=schedule)
    multipliers = MultiplierProblem(graph, planted, schedule=schedule)
    chromosomes = {p: rng.random((p, problem.free_count)) for p in (10, 65)}
    seed_sets = np.sort(np.argsort(rng.random((10, graph.n)), axis=1)[:, :20], axis=1)
    check_against_oracle(graph, durations, problem, multipliers, chromosomes[10], seed_sets)
    thresholds = rng.random((graph.n, 64))
    return {
        "need": timed(lambda: problem.kernel.need(thresholds), repeats),
        "losses_P10": timed(lambda: problem.losses(chromosomes[10]), repeats),
        "losses_P65": timed(lambda: problem.losses(chromosomes[65]), repeats),
        "recovered_P10": timed(lambda: multipliers.recovered(seed_sets), repeats),
        "read_visits": read_visits(visit_repeats),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    parser.add_argument("--out", type=Path, default=ROOT / "tools" / "BENCH_kernel.json")
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--visit-repeats", type=int, default=20)
    args = parser.parse_args(argv)
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results.setdefault("instance", f"synth --nodes {NODES} --kind perturbed_grid --rng-seed 1")
    results.setdefault("entries", {})[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timings": measure(args.repeats, args.visit_repeats),
    }
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps(results["entries"][args.label]["timings"], indent=2))


if __name__ == "__main__":
    main()
