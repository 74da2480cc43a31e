"""Times two recovnet source trees in one process on the benchmark's inputs.

    python tools/bench_kernel.py OLD_SRC [--out FILE] [--repeats N] [--visit-repeats N]

OLD_SRC holds the old ``recovnet`` package (another checkout's ``src``); the
new tree is this checkout's ``src``, so ``tools/bench_kernel.py src`` is an
A/A run. Each tree is loaded as a package of its own name whatever
PYTHONPATH holds. Neither may hold a ``__pycache__`` and no bytecode is
written, so every module compiles from source, as in the benchmark.

An entry times pairs of one call per tree, alternating which goes first,
after two warm-up pairs. It records per tree (``old``, ``new``) the median
and quartiles in ms, and over the pairs ``ratio`` (the median of new / old),
``new_faster`` (the pairs the new tree won) and ``pairs``. --out receives
them with both trees' paths, the machine, Python and NumPy. The inputs are
those of ``perfbench/workloads.py`` at seed 1, written once and read by both
trees; every check runs for both trees before timing.

- ``need``, ``losses_P10``, ``losses_P65``, ``recovered_P10`` (--repeats
  pairs), on ``paper-scale``'s n = 2010 instance: DiffusionKernel.need on a
  2010 x 64 matrix, FitProblem.losses on 10 and 65 random chromosomes (65 is
  one kernel call of ``baseline``), MultiplierProblem.recovered on 10
  random 20-node seed sets over the planted thresholds. Two columns of each
  are checked against the plain-loop re-simulation of ``tests/oracles.py``.
- ``stage2_search`` (40 pairs): search_multipliers over every size of two
  shapes, as the multipliers stages search them. ``paper`` is that instance
  with random thresholds on the free nodes, ``default_sizes(2010)`` and
  ``PaperScale.multiplier_generations``; ``small`` is ``small-exact``'s
  planted instance with ``SmallExact.sizes`` and ``multiplier_generations``.
  Each size is checked against a search of that size alone.
  ``kernel_calls`` is the weeks_recovered calls of one search.
- ``baseline_1000`` and ``brute_force_small`` (40 pairs): random_baseline
  with ``PaperScale.baseline_runs`` (1 000) runs at rng_seed 1 on the
  n = 2010 fit problem, whose losses must be equal across the trees, and
  brute_force_multipliers for each of ``SmallExact.sizes`` on
  ``small-exact``'s planted instance, whose members and counts must be equal
  across the trees. ``baseline_n4000`` (40 pairs) is random_baseline with
  ``IngestLarge.baseline_runs`` (100) runs at rng_seed 1 on ``ingest-large``'s
  n = 4000 queen graph and constructed durations, losses equal likewise.
- ``contiguity`` and ``read_edges`` (30 pairs): ``ingest-large``'s GeoJSON
  to a queen graph, checked against ``reference.grid_queen_edges``, and
  io.read_edge_list on its edge list.
- ``read_visits`` (--visit-repeats pairs): io.read_visit_series on
  ``ingest-large``'s ``visits.csv``, checked against
  ``oracles.naive_read_visit_series``, with ``peak_mib``, the tracemalloc
  peak of one more read. ``read_visits_crlf`` reads a \\r\\n copy, and
  ``read_visits_geoid`` a copy whose unit ids have the paper's shape: a
  12-digit block-group GEOID of Harris County (48201 and 7 digits), two
  64-bit key words where the benchmark's 6-byte ids take one.
- ``durations_cmd`` (--visit-repeats pairs): the ``durations`` command,
  ``cli.main`` run in process on ``ingest-large``'s ``visits.csv`` with that
  workload's window flags, into a fresh directory per call. Both trees'
  ``durations.csv`` must be byte-equal and pass
  ``IngestLarge.check_durations``.
- ``package_import`` (40 pairs, one warm-up): ``import recovnet.cli`` minus
  the same turn's ``import numpy``, in fresh children with the tree on
  PYTHONPATH (the difference drifts less with the machine than either).
- ``stage_peaks`` (6 pairs, no warm-up): the peak RSS in MiB (ru_maxrss)
  of each ``paper-scale`` stage, ``python -m recovnet`` with the tree on
  PYTHONPATH, run in order in a fresh directory per turn. The stages are
  children of a small launcher process, so that each ru_maxrss is the
  stage's own and not this process's high-water mark. Per stage it records
  each tree's median and quartiles (``median_mib``), ``ratio`` and
  ``new_lower``, the pairs in which the new tree's peak was lower. The
  largest is the stage that sets the workload's ``peak_rss_mib``. A peak
  moves with the length of the tree's path, so give OLD_SRC a path as long
  as this checkout's ``src``.
- ``paper_budget`` (10 pairs, no warm-up): fit_thresholds for 10 000
  generations at P = 10, then search_multipliers on that fit for 2 000
  generations over the default sizes, on the ``paper-scale`` instance with
  rng_seed 1. Each tree records every pair's stage seconds and fit
  performance_index, and the final loss, rows scored, the search's kernel
  calls and the recovered count per size, which must repeat in every pair.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io as stdio
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.dont_write_bytecode = True  # every module of both trees is compiled from source
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import reference  # noqa: E402
from workloads import IngestLarge, PaperScale, SmallExact, default_sizes, expect  # noqa: E402

ORACLES = reference.load_oracles(ROOT)
SEED = 1
SIDES = ("old", "new")
# even, so that each tree goes first in half the pairs
GRAPH_PAIRS, STAGE2_PAIRS, SCORING_PAIRS, IMPORT_PAIRS, PAPER_PAIRS = 30, 40, 40, 40, 10
PEAK_PAIRS = 6
# runs each command line of the JSON list argv[1] as `python -m recovnet`,
# in turn, and prints their ru_maxrss in MiB; its own memory stays small
LAUNCHER = """
import json, os, subprocess, sys
peaks = []
for args in json.loads(sys.argv[1]):
    proc = subprocess.Popen([sys.executable, "-m", "recovnet", *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"recovnet {args[0]} failed")
    peaks.append(usage.ru_maxrss / 1024)
print(json.dumps(peaks))
"""


def load_tree(name: str, src: Path):
    """src's recovnet package, loaded as the package `name` with its cli and
    io modules: its relative imports and lazy names resolve inside `name`."""
    package = src.resolve() / "recovnet"
    if (package / "__pycache__").exists():
        raise SystemExit(f"remove {package / '__pycache__'}: the package must compile from source")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[name] = tree
    spec.loader.exec_module(tree)
    importlib.import_module(f"{name}.cli")  # sets tree.cli and tree.io
    return tree


def quartiles(samples: list[float], unit: str = "ms") -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {f"median_{unit}": round(median, 4), f"q1_{unit}": round(q1, 4),
            f"q3_{unit}": round(q3, 4)}


def paired(run, pairs: int, warmups: int = 2) -> dict:
    """run(side) for both sides in alternating order, `warmups` untimed pairs
    and then `pairs` pairs; run returns the milliseconds to record."""
    expect(pairs % 2 == 0, f"{pairs} pairs: each tree must go first in half of them")
    samples = {side: [] for side in SIDES}
    for k in range(warmups + pairs):
        for side in SIDES[::-1] if k % 2 else SIDES:
            ms = run(side)
            if k >= warmups:
                samples[side].append(ms)
    ratios = [new / old for old, new in zip(samples["old"], samples["new"])]
    return {**{side: quartiles(samples[side]) for side in SIDES},
            "ratio": round(statistics.median(ratios), 4),
            "new_faster": sum(ratio < 1 for ratio in ratios), "pairs": pairs}


def timed(call, pairs: int, warmups: int = 2) -> dict:
    """paired timing of call(side)."""
    def run(side):
        start = time.perf_counter()
        call(side)
        return (time.perf_counter() - start) * 1e3
    return paired(run, pairs, warmups)


def synth(tree, workload, out: Path) -> Path:
    """Runs the workload's synth stage at SEED with its --out set to out."""
    [stage] = [stage for stage in workload.stages(SEED) if stage.name == "synth"]
    args = list(stage.args)
    args[args.index("--out") + 1] = str(out)
    with contextlib.redirect_stdout(stdio.StringIO()):
        expect(tree.cli.main(args) == 0, f"{workload.name}: synth failed")
    return out


def thresholds_for(tree, graph, values: np.ndarray, seed_mask: np.ndarray):
    """Node-order thresholds in the form tree's MultiplierProblem takes: a
    ThresholdVector on a tree that still defines one, else the array."""
    if hasattr(tree, "ThresholdVector"):
        return tree.ThresholdVector(graph.nodes, values, seed_mask)
    return values


def instance(tree, directory: Path):
    """The graph, durations, planted thresholds and seed mask (both in node
    order) synth wrote; the thresholds are read by perfbench's reader, which
    neither tree's form changes."""
    graph = tree.io.read_edge_list(directory / "edges.csv")
    planted, seeds = reference.read_thresholds(directory / "planted_thresholds.csv")
    return (graph, tree.io.read_durations(directory / "durations.csv"),
            np.array([planted[n] for n in graph.nodes]),
            np.array([n in seeds for n in graph.nodes]))


def build(tree, paper: Path, small: Path) -> SimpleNamespace:
    """What the in-process entries call, built by one tree from the inputs."""
    graph, durations, planted, seeds = instance(tree, paper)
    problem = tree.build_fit_problem(graph, durations)
    drawn = np.zeros(graph.n)
    drawn[problem.free_indices] = np.random.default_rng(1).random(problem.free_count)
    small_graph, _, small_planted, small_seeds = instance(tree, small)
    return SimpleNamespace(
        tree=tree, graph=graph, durations=durations, problem=problem, planted=planted,
        multipliers=tree.MultiplierProblem(graph, thresholds_for(tree, graph, planted, seeds)),
        stage2={"paper": tree.MultiplierProblem(
                    graph, thresholds_for(tree, graph, drawn, problem.seed_mask)),
                "small": tree.MultiplierProblem(small_graph, thresholds_for(
                    tree, small_graph, small_planted, small_seeds))})


def kernel_entries(sides: dict, paper: Path, repeats: int) -> dict:
    """need, losses and recovered, after checking the losses and recovered
    counts of two columns against a plain-loop re-simulation."""
    rng = np.random.default_rng(0)
    n, free_count = sides["new"].graph.n, sides["new"].problem.free_count
    chromosomes = {p: rng.random((p, free_count)) for p in (10, 65)}
    seed_sets = np.sort(np.argsort(rng.random((10, n)), axis=1)[:, :20], axis=1)
    neighbors = reference.read_neighbors(paper / "edges.csv")
    durations = reference.read_durations(paper / "durations.csv")
    for side, s in sides.items():
        nodes, losses = s.graph.nodes, s.problem.losses(chromosomes[10][:2])
        for p, row in enumerate(chromosomes[10][:2]):
            values = np.zeros(n)
            values[s.problem.free_indices] = row
            weeks = reference.simulate(ORACLES, neighbors, dict(zip(nodes, values)))
            loss = reference.zero_one_loss(durations, weeks)
            expect(losses[p] == loss, f"losses column {p} ({side}): {losses[p]} vs oracle {loss}")
        recovered = s.multipliers.recovered(seed_sets[:2])
        planted = dict(zip(nodes, s.planted))
        for p, row in enumerate(seed_sets[:2]):
            weeks = reference.simulate(ORACLES, neighbors, planted, [nodes[i] for i in row])
            final = reference.recovered_at_horizon(weeks)
            expect(recovered[p] == final,
                   f"recovered column {p} ({side}): {recovered[p]} vs oracle {final}")
    thresholds = rng.random((n, 64))
    return {
        "need": timed(lambda side: sides[side].problem.kernel.need(thresholds), repeats),
        "losses_P10": timed(lambda side: sides[side].problem.losses(chromosomes[10]), repeats),
        "losses_P65": timed(lambda side: sides[side].problem.losses(chromosomes[65]), repeats),
        "recovered_P10": timed(lambda side: sides[side].multipliers.recovered(seed_sets), repeats),
    }


def stage2_search(sides: dict) -> dict:
    """Each shape's search over all its sizes, after checking every size's
    result against a search of that size alone."""
    shapes = {"paper": (default_sizes(PaperScale.nodes), PaperScale.multiplier_generations),
              "small": (SmallExact.sizes, SmallExact.multiplier_generations)}
    timings = {}
    for name, (sizes, generations) in shapes.items():
        configs = {side: s.tree.GaConfig(max_iterations=generations, rng_seed=SEED)
                   for side, s in sides.items()}
        for side, s in sides.items():
            search, problem, config = s.tree.search_multipliers, s.stage2[name], configs[side]
            for size, result in zip(sizes, search(problem, sizes, config)):
                [alone] = search(problem, [size], config)
                expect(result.members == alone.members and np.array_equal(
                    result.ga_result.history, alone.ga_result.history),
                    f"stage2_search {name} ({side}): size {size} differs from its search alone")
        before = {side: sum(s.stage2[name].kernel.calls.values()) for side, s in sides.items()}
        timings[name] = timed(lambda side: sides[side].tree.search_multipliers(
            sides[side].stage2[name], sizes, configs[side]), STAGE2_PAIRS)
        for side, s in sides.items():  # the timed searches' calls, warm-ups included
            calls = sum(s.stage2[name].kernel.calls.values()) - before[side]
            timings[name][side]["kernel_calls"] = calls // (2 + STAGE2_PAIRS)
    return timings


def scoring_sites(sides: dict) -> dict:
    """random_baseline at paper-scale and brute force at small-exact, after
    checking that the trees agree on the losses and on the chosen sets."""
    def baseline(side):
        s = sides[side]
        return s.tree.random_baseline(s.problem, PaperScale.baseline_runs, rng_seed=SEED).losses

    def brute_force(side):
        s = sides[side]
        return [(result.members, result.recovered_with) for result in (
            s.tree.brute_force_multipliers(s.stage2["small"], size) for size in SmallExact.sizes)]

    expect(np.array_equal(baseline("old"), baseline("new")), "baseline_1000: losses differ")
    chosen = {side: brute_force(side) for side in SIDES}
    expect(chosen["old"] == chosen["new"], f"brute_force_small: sets or counts differ: {chosen}")
    return {"baseline_1000": timed(baseline, SCORING_PAIRS),
            "brute_force_small": timed(brute_force, SCORING_PAIRS)}


def baseline_n4000(sides: dict, edges: Path, durations: dict) -> dict:
    """random_baseline on ingest-large's graph and durations, after checking
    that the trees agree on the losses."""
    with warnings.catch_warnings():  # its seeds recover in other weeks than week 3
        warnings.simplefilter("ignore", UserWarning)
        problems = {side: s.tree.build_fit_problem(s.tree.io.read_edge_list(edges), durations)
                    for side, s in sides.items()}

    def baseline(side):
        return sides[side].tree.random_baseline(
            problems[side], IngestLarge.baseline_runs, rng_seed=SEED).losses

    expect(np.array_equal(baseline("old"), baseline("new")), "baseline_n4000: losses differ")
    return timed(baseline, SCORING_PAIRS)


def graph_reads(sides: dict, inputs: Path, ids: list[list[str]]) -> dict:
    """GeoJSON to queen graph and the edge-list read, after checking both."""
    geometry, edges = inputs / "units.geojson", inputs / "edges.csv"
    expected = reference.grid_queen_edges(ids)
    rules = {side: s.tree.ContiguityRule("queen") for side, s in sides.items()}

    def contiguity(side):
        tree = sides[side].tree
        return tree.build_contiguity_graph(tree.io.read_feature_collection(geometry), rules[side])

    for side in SIDES:
        expect(set(contiguity(side).edges) == expected, f"contiguity ({side}): edges differ")
    sides["new"].tree.io.write_edge_list(contiguity("new"), edges)
    for side, s in sides.items():
        read = s.tree.io.read_edge_list(edges)
        expect(set(read.edges) == expected and read.m == len(expected),
               f"read_edges ({side}): edges differ")
    return {"contiguity": timed(contiguity, GRAPH_PAIRS),
            "read_edges": timed(lambda side: sides[side].tree.io.read_edge_list(edges),
                                GRAPH_PAIRS)}


def read_visits(sides: dict, path: Path, repeats: int) -> dict:
    """io.read_visit_series on path, after checking it against the row-by-row
    oracle, with each tree's tracemalloc peak of one more read."""
    expected = ORACLES.naive_read_visit_series(path)
    for side, s in sides.items():
        series = s.tree.io.read_visit_series(path)
        expect(list(series) == sorted(expected) and all(
            (day, values.tolist()) == expected[node] for node, (day, values) in series.items()),
            f"{path.name} ({side}): series differ from the oracle")
    del expected, series
    timing = timed(lambda side: sides[side].tree.io.read_visit_series(path), repeats)
    for side, s in sides.items():
        tracemalloc.start()
        s.tree.io.read_visit_series(path)
        timing[side]["peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
        tracemalloc.stop()
    return timing


def durations_cmd(sides: dict, inputs: Path, ingest, repeats: int) -> dict:
    """The durations command on inputs/visits.csv, run by each tree's cli.main
    into a fresh directory per call, after checking both trees' tables."""
    workload = IngestLarge()
    [stage] = [stage for stage in workload.stages(SEED) if stage.name == "durations"]
    args = list(stage.args)
    args[args.index("--visits") + 1] = str(inputs / "visits.csv")
    calls = itertools.count()

    def run(side: str) -> Path:
        directory = inputs / f"durations_{next(calls)}"
        args[args.index("--out") + 1] = str(directory / "durations")
        with contextlib.redirect_stdout(stdio.StringIO()):
            expect(sides[side].tree.cli.main(args) == 0, f"durations_cmd ({side}) failed")
        return directory

    tables = {}
    for side in SIDES:
        directory = run(side)
        workload.check_durations(ORACLES, directory, ingest)
        tables[side] = (directory / "durations" / "durations.csv").read_bytes()
    expect(tables["old"] == tables["new"], "durations_cmd: durations.csv differs across trees")
    return timed(run, repeats)


def geoid_copy(visits: Path, out: Path) -> Path:
    """visits with unit g<i> renamed to a Harris County block-group GEOID:
    block group i % 4 + 1 of tract 100000 + 100 * (i // 4)."""
    def geoid(unit: re.Match) -> bytes:
        i = int(unit[1])
        return b"48201%06d%d" % (100000 + i // 4 * 100, i % 4 + 1)

    out.write_bytes(re.sub(rb"^g(\d+)", geoid, visits.read_bytes(), flags=re.M))
    return out


def package_import(srcs: dict) -> dict:
    """Fresh-child `import recovnet.cli` minus the same turn's `import numpy`."""
    def child(code: str, side: str) -> float:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(srcs[side])}
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return (time.perf_counter() - start) * 1e3

    def run(side: str) -> float:
        numpy_ms = child("import numpy", side)
        return child("import recovnet.cli", side) - numpy_ms

    return paired(run, IMPORT_PAIRS, warmups=1)


def stage_peaks(srcs: dict, tmp: Path) -> dict:
    """Each paper-scale stage's ru_maxrss, the stages run by LAUNCHER."""
    stages = PaperScale().stages(SEED)
    argv = json.dumps([list(stage.args) for stage in stages])
    peaks = {side: [] for side in SIDES}
    for k in range(PEAK_PAIRS):
        for side in SIDES[::-1] if k % 2 else SIDES:
            run = tmp / f"peaks_{k}_{side}"
            run.mkdir()
            env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(srcs[side])}
            done = subprocess.run([sys.executable, "-c", LAUNCHER, argv], cwd=run, env=env,
                                  check=True, capture_output=True, text=True)
            peaks[side].append(json.loads(done.stdout))
            shutil.rmtree(run)
    entries = {}
    for j, stage in enumerate(stages):
        samples = {side: [turn[j] for turn in peaks[side]] for side in SIDES}
        ratios = [new / old for old, new in zip(samples["old"], samples["new"])]
        entries[stage.name] = {
            **{side: quartiles(samples[side], "mib") for side in SIDES},
            "ratio": round(statistics.median(ratios), 4),
            "new_lower": sum(ratio < 1 for ratio in ratios), "pairs": PEAK_PAIRS}
    return entries


def paper_budget(sides: dict) -> dict:
    """Stage 1 and stage 2 at the paper's budget, in PAPER_PAIRS pairs."""
    clocks = ("fit_s", "search_s", "performance_index")
    runs = {side: [] for side in SIDES}

    def run(side: str) -> None:
        s, tree = sides[side], sides[side].tree
        start = time.perf_counter()
        fit = tree.fit_thresholds(tree.build_fit_problem(s.graph, s.durations), tree.GaConfig(
            population_size=10, max_iterations=10_000, rng_seed=SEED))
        fitted = time.perf_counter()
        problem, sizes = tree.MultiplierProblem(s.graph, fit.thresholds), default_sizes(s.graph.n)
        results = tree.search_multipliers(problem, sizes, tree.GaConfig(max_iterations=2_000,
                                                                        rng_seed=SEED))
        history = fit.ga_result.history
        runs[side].append({
            "fit_s": round(fitted - start, 3), "search_s": round(time.perf_counter() - fitted, 3),
            "performance_index": round(tree.performance_index(
                history[0].item(), fit.final_loss, history.size, fitted - start
            )["performance_index"], 2),
            "final_loss": fit.final_loss, "rows_scored": fit.ga_result.rows_scored,
            "kernel_calls": sum(problem.kernel.calls.values()),
            "recovered_without": problem.recovered_without,
            "recovered_with": {str(size): r.recovered_with for size, r in zip(sizes, results)},
        })

    timing = timed(run, PAPER_PAIRS, warmups=0)
    for side in SIDES:
        counts = [{k: v for k, v in r.items() if k not in clocks} for r in runs[side]]
        expect(all(c == counts[0] for c in counts),
               f"paper_budget ({side}): a pair's loss or counts differ: {counts}")
        timing[side].update(counts[0], **{k: [r[k] for r in runs[side]] for k in clocks})
    return timing


def measure(srcs: dict, repeats: int, visit_repeats: int) -> dict:
    trees = {side: load_tree(f"recovnet_{side}", src) for side, src in srcs.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paper = synth(trees["new"], PaperScale(), tmp / "paper")
        small = synth(trees["new"], SmallExact(), tmp / "small")
        ingest = IngestLarge().prepare(tmp, SEED)
        crlf = tmp / "visits_crlf.csv"
        crlf.write_bytes((tmp / "visits.csv").read_bytes().replace(b"\n", b"\r\n"))
        geoid = geoid_copy(tmp / "visits.csv", tmp / "visits_geoid.csv")
        sides = {side: build(tree, paper, small) for side, tree in trees.items()}
        return {
            **kernel_entries(sides, paper, repeats),
            "stage2_search": stage2_search(sides),
            **scoring_sites(sides),
            **graph_reads(sides, tmp, ingest.ids),
            "read_visits": read_visits(sides, tmp / "visits.csv", visit_repeats),
            "read_visits_crlf": read_visits(sides, crlf, visit_repeats),
            "read_visits_geoid": read_visits(sides, geoid, visit_repeats),
            "durations_cmd": durations_cmd(sides, tmp, ingest, visit_repeats),
            "baseline_n4000": baseline_n4000(sides, tmp / "edges.csv", ingest.durations),
            "package_import": package_import(srcs),
            "stage_peaks": stage_peaks(srcs, tmp),
            "paper_budget": paper_budget(sides),
        }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, help="directory holding the old recovnet package")
    parser.add_argument("--out", type=Path, default=ROOT / "tools" / "BENCH_kernel.json")
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--visit-repeats", type=int, default=20)
    args = parser.parse_args(argv)
    srcs = {"old": args.old_src.resolve(), "new": ROOT / "src"}
    results = {"old_src": str(args.old_src), "new_src": "src",
               "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
               "python": platform.python_version(), "numpy": np.__version__,
               "entries": measure(srcs, args.repeats, args.visit_repeats)}
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps(results["entries"], indent=2))


if __name__ == "__main__":
    main()
