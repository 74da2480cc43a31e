"""Times one fitness call of each kind on a county-scale instance, one read
of a large visits file, the GeoJSON-to-graph and edge-list reads, and the
start-up of a fresh process for each command.

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

``stage2_search`` times search_multipliers over every size of two shapes,
as the benchmark's multipliers stages search them: ``paper`` is the n = 2010
instance with sizes 20/60/101/201 and 25 generations, ``small`` a 40-node
``small-exact`` instance (``synth --nodes 40 --seed-fraction 0.1
--threshold-low 0.3 --threshold-high 0.9 --rng-seed 1``) with sizes 1-3 and
75 generations. The thresholds are uniform-random on the free nodes
(``paper``) or planted (``small``), and each size's generator is seeded as
``multipliers --rng-seed 1`` seeds it. Before timing, each size's set and
its per-generation best values are checked against a search of that size
alone. Each shape is timed as the median of STAGE2_REPEATS (15) searches
after two warm-up searches, with ``kernel_calls``, the weeks_recovered calls
of one search.

``cold_start`` is the wall time of fresh child processes run with
COLD_START_ENV (recorded in the entry), as the benchmark runs its stages:
``import numpy``, ``import recovnet.cli``, then each command as
``python -m recovnet`` on a 16-node ``synth`` instance (build-graph on a
4 x 4 grid, durations on 16 units' visits; fit, baseline and multipliers
with tiny budgets). The steps are run in turn COLD_START_REPEATS (21) times
after one untimed pass, and each is reported as the median of its runs,
with ``peak_rss_mib``, the median of its children's ru_maxrss: the step
with the largest one sets the benchmark's ``peak_rss_mib``.
``package_import`` is the median of ``import recovnet.cli`` minus the
``import numpy`` of the same turn: the package's own cost, which a drift in
the machine's speed between turns moves less than either time alone. With
PYTHONDONTWRITEBYTECODE=1 and no ``__pycache__`` under the package, which
the harness checks, every child compiles the package from source.

``contiguity`` is io.read_feature_collection plus build_contiguity_graph
(queen) on a 50 x 80 grid of squares as GeoJSON (4 000 units, the
coordinates of ``ingest-large``'s ``units.geojson``), and ``read_edges`` is
io.read_edge_list on the 15 612-edge list of that graph. Before timing, the
queen edges are checked against the pairwise test of
``tests/oracles.classify_pair``, run on every pair of units whose bounding
boxes touch (no other pair can share a vertex), and the edge list read back
against the graph that wrote it. Each is timed as the median of
GRAPH_REPEATS (30) calls after two warm-up calls.

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
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # cold_start children must compile the package from source
import recovnet  # noqa: E402
from recovnet import MultiplierProblem, build_fit_problem, io  # noqa: E402
from recovnet.cli import main as cli  # noqa: E402

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


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "calls": len(samples)}


def timed(fn, repeats: int) -> dict:
    for _ in range(2):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return quartiles(samples)


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


GRID_ROWS, GRID_COLS = 50, 80
GRAPH_REPEATS = 30
LON, LAT, STEP = -95.8, 29.5, 0.005


def grid_geojson(path: Path, rows: int = GRID_ROWS, cols: int = GRID_COLS) -> list:
    """Write a grid of squares, by default ingest-large's 50 x 80; return
    its (id, rings)."""
    xs = [LON + c * STEP for c in range(cols + 1)]
    ys = [LAT + r * STEP for r in range(rows + 1)]
    units = [
        (f"g{r * cols + c:05d}", [[(xs[c], ys[r]), (xs[c + 1], ys[r]),
                                   (xs[c + 1], ys[r + 1]), (xs[c], ys[r + 1]),
                                   (xs[c], ys[r])]])
        for r in range(rows) for c in range(cols)
    ]
    features = [{"type": "Feature", "properties": {"id": unit},
                 "geometry": {"type": "Polygon", "coordinates": rings}}
                for unit, rings in units]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return units


def oracle_queen_edges(units) -> set:
    """oracles.classify_pair on every pair of units whose bounding boxes
    touch, in a sweep over the boxes sorted by their left edge."""
    boxes = []
    for _, rings in units:
        xs = [x for ring in rings for x, _ in ring]
        ys = [y for ring in rings for _, y in ring]
        boxes.append((min(xs), min(ys), max(xs), max(ys)))
    order = sorted(range(len(units)), key=lambda i: boxes[i][0])
    edges = set()
    for a, i in enumerate(order):
        for j in order[a + 1:]:
            if boxes[j][0] > boxes[i][2]:
                break
            if boxes[j][1] <= boxes[i][3] and boxes[i][1] <= boxes[j][3] \
                    and oracles.classify_pair(units[i][1], units[j][1]):
                edges.add(tuple(sorted((units[i][0], units[j][0]))))
    return edges


def graph_reads() -> dict:
    """Time GeoJSON to queen graph and the edge-list read, after checking
    both."""
    rule = recovnet.ContiguityRule("queen")
    with tempfile.TemporaryDirectory() as tmp:
        geometry, edges = Path(tmp) / "units.geojson", Path(tmp) / "edges.csv"
        units = grid_geojson(geometry)
        graph = recovnet.build_contiguity_graph(io.read_feature_collection(geometry), rule)
        assert set(graph.edges) == oracle_queen_edges(units), "contiguity: edges differ"
        io.write_edge_list(graph, edges)
        read = io.read_edge_list(edges)
        assert read.m == 15612 and read.edges == graph.edges, "read_edges: edges differ"
        return {
            "contiguity": timed(lambda: recovnet.build_contiguity_graph(
                io.read_feature_collection(geometry), rule), GRAPH_REPEATS),
            "read_edges": timed(lambda: io.read_edge_list(edges), GRAPH_REPEATS),
        }


STAGE2_REPEATS = 15
STAGE2_SHAPES = {
    "paper": {"sizes": (20, 60, 101, 201), "generations": 25},
    "small": {"sizes": (1, 2, 3), "generations": 75},
}


def small_instance(root: Path):
    with contextlib.redirect_stdout(stdio.StringIO()):
        code = cli(["synth", "--nodes", "40", "--seed-fraction", "0.1", "--threshold-low", "0.3",
                    "--threshold-high", "0.9", "--rng-seed", "1", "--out", str(root)])
    assert code == 0, "synth failed"
    graph = io.read_edge_list(root / "edges.csv")
    planted = io.read_thresholds(root / "planted_thresholds.csv")
    return graph, planted.take([planted.node_ids.index(n) for n in graph.nodes])


def stage2_search(problems: dict) -> dict:
    """Time each shape's search over all its sizes, after checking every
    size's result against a search of that size alone."""
    timings = {}
    for name, shape in STAGE2_SHAPES.items():
        problem, sizes = problems[name], shape["sizes"]
        config = recovnet.GaConfig(max_iterations=shape["generations"], rng_seed=1)
        for size, result in zip(sizes, recovnet.search_multipliers(problem, sizes, config)):
            [alone] = recovnet.search_multipliers(problem, [size], config)
            assert result.members == alone.members and (
                [r.best_fitness for r in result.ga_result.history]
                == [r.best_fitness for r in alone.ga_result.history]
            ), f"stage2_search {name}: size {size} differs from its search alone"
        calls = []  # one entry per weeks_recovered call of the timed searches
        weeks_recovered = problem.kernel.weeks_recovered
        problem.kernel.weeks_recovered = lambda *args: calls.append(1) or weeks_recovered(*args)
        timings[name] = timed(lambda: recovnet.search_multipliers(problem, sizes, config), STAGE2_REPEATS)
        timings[name]["kernel_calls"] = len(calls) // (2 + STAGE2_REPEATS)
    return timings


COLD_START_REPEATS = 21
# as the benchmark runs every stage: no bytecode cache is written
COLD_START_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def cold_start_steps(root: Path) -> dict[str, list[str]]:
    """The child command lines, in order: each command reads only what the
    commands before it write under root."""
    synth, fit, mult = root / "synth", root / "fit", root / "mult"
    grid_geojson(root / "grid.geojson", 4, 4)
    (root / "visits.csv").write_text("id,day,visits\n" + "".join(
        f"u{unit},{day},{100 if day <= 20 else 85 + unit}\n"
        for unit in range(16) for day in range(131)))
    recovnet_cli = [sys.executable, "-m", "recovnet"]
    graph = ["--edges", synth / "edges.csv"]
    observed = [*graph, "--durations", synth / "durations.csv"]
    steps = {
        "import_numpy": [sys.executable, "-c", "import numpy"],
        "import_cli": [sys.executable, "-c", "import recovnet.cli"],
        "synth": ["synth", "--nodes", 16, "--rng-seed", 3, "--out", synth],
        "build-graph": ["build-graph", "--geometry", root / "grid.geojson",
                        "--out", root / "graph"],
        "durations": ["durations", "--visits", root / "visits.csv", "--baseline-start", 0,
                      "--baseline-end", 20, "--recovery-start", 27, "--out", root / "durations"],
        "fit": ["fit", *observed, "--max-iterations", 5, "--out", fit],
        "baseline": ["baseline", *observed, "--runs", 20, "--out", root / "baseline"],
        "multipliers": ["multipliers", *graph, "--thresholds", fit / "thresholds.csv",
                        "--sizes", "1,2", "--max-iterations", 3, "--out", mult],
        "analyze": ["analyze", *observed, "--thresholds", fit / "thresholds.csv",
                    "--attributes", synth / "attributes.csv", "--multipliers-dir", mult,
                    "--out", root / "analysis"],
    }
    return {name: (argv if name.startswith("import_") else recovnet_cli + list(map(str, argv)))
            for name, argv in steps.items()}


# Runs each command line it reads (arguments separated by NUL) in a child
# and writes back the child's seconds, exit code and ru_maxrss (KiB). A
# child's ru_maxrss includes the memory of the process that spawned it, so
# the children are spawned from this small process, not from the harness.
LAUNCHER = """
import os, sys, time
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
for line in sys.stdin:
    argv = line.rstrip("\\n").split("\\0")
    start = time.perf_counter()
    _, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=quiet), 0)
    print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
          flush=True)
"""


def cold_start() -> dict:
    """Fresh-process wall times and peak RSS of each step of
    cold_start_steps, taken in turn COLD_START_REPEATS times after one
    untimed pass."""
    package = Path(recovnet.__file__).parent
    assert not (package / "__pycache__").exists(), \
        f"cold_start: remove {package / '__pycache__'}, or the children do not compile"
    env = {**os.environ, **COLD_START_ENV, "PYTHONPATH": str(package.parent)}
    samples: dict[str, list[float]] = {}
    peaks: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as tmp, subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE) as launcher:
        steps = cold_start_steps(Path(tmp))
        for k in range(COLD_START_REPEATS + 1):
            for name, argv in steps.items():
                launcher.stdin.write("\0".join(argv) + "\n")
                launcher.stdin.flush()
                seconds, code, maxrss = launcher.stdout.readline().split()
                if int(code):
                    raise SystemExit(f"cold_start: {name} failed: {' '.join(argv)}")
                if k:
                    samples.setdefault(name, []).append(float(seconds) * 1e3)
                    peaks.setdefault(name, []).append(int(maxrss) / 1024)
        launcher.stdin.close()
    package_import = [a - b for a, b in zip(samples["import_cli"], samples["import_numpy"])]
    return {"environment": COLD_START_ENV, "package_import": quartiles(package_import),
            **{name: {**quartiles(times), "peak_rss_mib": round(statistics.median(peaks[name]), 2)}
               for name, times in samples.items()}}


def measure(repeats: int, visit_repeats: int) -> dict:
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        graph, durations, planted = instance(Path(tmp))
        small_graph, small_planted = small_instance(Path(tmp) / "small")
    schedule = recovnet.DiffusionSchedule(HORIZON, FIRST_UPDATE_WEEK)
    problem = build_fit_problem(graph, durations, schedule=schedule)
    multipliers = MultiplierProblem(graph, planted, schedule=schedule)
    drawn = recovnet.ThresholdVector.assemble(
        graph.nodes, problem.seed_mask, np.random.default_rng(1).random(problem.free_count))
    stage2 = {"paper": MultiplierProblem(graph, drawn, schedule=schedule),
              "small": MultiplierProblem(small_graph, small_planted, schedule=schedule)}
    chromosomes = {p: rng.random((p, problem.free_count)) for p in (10, 65)}
    seed_sets = np.sort(np.argsort(rng.random((10, graph.n)), axis=1)[:, :20], axis=1)
    check_against_oracle(graph, durations, problem, multipliers, chromosomes[10], seed_sets)
    thresholds = rng.random((graph.n, 64))
    return {
        "need": timed(lambda: problem.kernel.need(thresholds), repeats),
        "losses_P10": timed(lambda: problem.losses(chromosomes[10]), repeats),
        "losses_P65": timed(lambda: problem.losses(chromosomes[65]), repeats),
        "recovered_P10": timed(lambda: multipliers.recovered(seed_sets), repeats),
        "stage2_search": stage2_search(stage2),
        "read_visits": read_visits(visit_repeats),
        **graph_reads(),
        "cold_start": cold_start(),
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
