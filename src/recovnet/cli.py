"""Command-line pipeline driver.

Subcommands: build-graph, durations, fit, baseline, multipliers, analyze,
synth. Every run writes its effective settings, seed, and versions to a
manifest in the output directory; all data tables are deterministic given
the same config and seed (wall-clock timing stays out of them).

Exit codes: 0 success, 1 usage, 2 configuration, 3 data/I-O, 4 internal.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

from . import __version__, io
from .analysis import (
    correlate,
    multiplier_attribute_comparison,
    tertile_attribute_report,
    threshold_summary,
)
from .diffusion import (
    DiffusionSchedule,
    ThresholdVector,
    all_affected,
    recovered_counts,
    run_diffusion,
)
from .empirical import VisitSeries, compute_recovery_duration, weekly_difference
from .errors import ConfigError, DataError, RecovnetError
from .fitting import build_fit_problem, fit_thresholds, random_baseline
from .ga import GaConfig, performance_index
from .graph import ContiguityRule, build_contiguity_graph, graph_metrics
from .multipliers import (
    MultiplierProblem,
    MultiplierResult,
    brute_force_multipliers,
    search_multipliers,
)
from .synthetic import SynthSpec, generate_instance, write_instance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

DEFAULT_SIZE_PERCENTS = (1.0, 3.0, 5.0, 10.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _default_workers() -> int:
    """RECOVNET_THREADS when set, else 1."""
    env = os.environ.get("RECOVNET_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"RECOVNET_THREADS must be an integer, got {env!r}") from None
    return 1


def _record_workers(settings: Settings) -> None:
    """Resolve and record the worker count; evaluation runs on one thread
    whatever it is (a thread pool measured no faster, see README)."""
    settings.get("workers", default=_default_workers(), cast=int)


class Settings:
    """CLI values merged over a flat JSON config file; flags win."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config: dict = {}
        self.resolved: dict = {}
        path = self.args.get("config")
        if path:
            if not Path(path).exists():
                raise ConfigError(f"config file not found: {path}")
            try:
                loaded = io.read_json(path)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
            if not isinstance(loaded, dict):
                raise ConfigError(f"config file {path} must hold a JSON object")
            self.config = loaded

    def get(
        self,
        dest: str,
        config_key: Optional[str] = None,
        default=None,
        cast: Optional[Callable] = None,
        required: bool = False,
    ):
        key = config_key or dest
        value = self.args.get(dest)
        if value is None:
            value = self.config.get(key, default)
        if value is None:
            if required:
                raise ConfigError(f"missing required setting {key!r}")
            self.resolved[key] = None
            return None
        if cast is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
        self.resolved[key] = value
        return value


def _parse_sizes(value) -> list[int]:
    if isinstance(value, str):
        parts = [p for p in value.replace(" ", "").split(",") if p]
        value = [int(p) for p in parts]
    sizes = [int(v) for v in value]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive integers")
    return sizes


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def default_multiplier_sizes(n: int) -> list[int]:
    """1%, 3%, 5%, and 10% of the node count, rounded half up, deduplicated."""
    sizes = []
    for pct in DEFAULT_SIZE_PERCENTS:
        size = max(1, _round_half_up(n * pct / 100.0))
        if size <= n and size not in sizes:
            sizes.append(size)
    return sizes


def _require_file(path: str, what: str) -> str:
    if not Path(path).exists():
        raise ConfigError(f"{what} file not found: {path}")
    return path


def _write_manifest(
    out_dir: Path, command: str, settings: Settings, extra: Optional[dict] = None
) -> None:
    manifest = {
        "command": command,
        "settings": settings.resolved,
        "versions": {
            "recovnet": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    io.write_json(manifest, out_dir / "manifest.json")


def _out_dir(settings: Settings) -> Path:
    out = settings.get("out", required=True, cast=str)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_graph(settings: Settings):
    geometry = settings.get("geometry", cast=str)
    edges = settings.get("edges", cast=str)
    if (geometry is None) == (edges is None):
        raise ConfigError("exactly one of --geometry or --edges is required")
    if geometry is not None:
        _require_file(geometry, "geometry")
        rule = ContiguityRule(
            kind=settings.get("rule", default="queen", cast=str),
            snap_tolerance=settings.get("snap_tolerance", default=0.0, cast=float),
        )
        return build_contiguity_graph(io.read_feature_collection(geometry), rule)
    _require_file(edges, "edge list")
    return io.read_edge_list(edges)


def _schedule(settings: Settings) -> DiffusionSchedule:
    return DiffusionSchedule(
        horizon=settings.get("horizon", default=14, cast=int),
        first_update_week=settings.get("first_update_week", default=3, cast=int),
    )


def _ga_config(settings: Settings, prefix: str, default_max: int, rng_seed: int) -> GaConfig:
    def key(name: str) -> str:
        return f"{prefix}_{name}"

    mutation = settings.get("mutation_prob", key("mutation_prob"), cast=float)
    return GaConfig(
        population_size=settings.get(
            "population_size", key("population_size"), default=10, cast=int
        ),
        max_iterations=settings.get(
            "max_iterations", key("max_iterations"), default=default_max, cast=int
        ),
        crossover_prob=settings.get(
            "crossover_prob", key("crossover_prob"), default=0.9, cast=float
        ),
        mutation_prob=mutation,
        tournament_size=settings.get(
            "tournament_size", key("tournament_size"), default=2, cast=int
        ),
        elitism_count=settings.get(
            "elitism_count", key("elitism_count"), default=1, cast=int
        ),
        rng_seed=rng_seed,
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_build_graph(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    graph = _load_graph(settings)
    metrics = graph_metrics(graph)
    io.write_edge_list(graph, out / "edges.csv")
    io.write_metrics(metrics, out / "metrics.json")
    _write_manifest(out, "build-graph", settings)
    print(io.metrics_line(metrics))
    return EXIT_OK


def cmd_durations(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    visits_path = _require_file(settings.get("visits", required=True, cast=str), "visits")
    baseline_start = io.parse_day(settings.get("baseline_start", required=True, cast=str))
    baseline_end = io.parse_day(settings.get("baseline_end", required=True, cast=str))
    recovery_start = io.parse_day(settings.get("recovery_start", required=True, cast=str))
    ratio = settings.get("ratio", default=0.9, cast=float)
    persistence = settings.get("persistence_days", default=3, cast=int)
    halfwidth = settings.get("ma_halfwidth", default=3, cast=int)

    series_by_node = io.read_visit_series(visits_path)
    durations: dict[str, float] = {}
    for node in sorted(series_by_node):
        first_day, visits = series_by_node[node]
        series = VisitSeries(
            visits=visits,
            baseline_start=baseline_start - first_day,
            baseline_end=baseline_end - first_day,
            recovery_start=recovery_start - first_day,
        )
        durations[node] = compute_recovery_duration(
            series, ratio=ratio, persistence_days=persistence, ma_halfwidth=halfwidth
        )
    io.write_durations(durations, out / "durations.csv")
    _write_manifest(out, "durations", settings)
    print(f"computed recovery durations for {len(durations)} nodes")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    graph = _load_graph(settings)
    durations = io.read_durations(
        _require_file(settings.get("durations", required=True, cast=str), "durations")
    )
    schedule = _schedule(settings)
    seed_cutoff = settings.get("seed_cutoff", default=3.0, cast=float)
    rng_seed = settings.get("rng_seed", default=0, cast=int)
    _record_workers(settings)
    config = _ga_config(settings, "stage1", default_max=10_000, rng_seed=rng_seed)
    baseline_runs = settings.get("baseline_runs", default=0, cast=int)

    problem = build_fit_problem(graph, durations, seed_cutoff, schedule)
    result = fit_thresholds(problem, config)

    io.write_thresholds(result.thresholds, out / "thresholds.csv")
    io.write_generation_stats(
        result.ga_result.history, out / "generations.csv", include_seconds=False
    )
    io.write_generation_stats(
        result.ga_result.history, out / "ga_timing.csv", include_seconds=True
    )
    simulated = run_diffusion(graph, result.thresholds, all_affected(graph.n), schedule)
    io.write_trajectory(graph.nodes, simulated, out / "trajectory.csv")

    report = {
        "final_loss": result.final_loss,
        "initial_best_loss": result.ga_result.history[0].best_fitness,
        "generations": result.ga_result.generations,
        "free_nodes": problem.free_count,
        "seed_nodes": int(problem.seed_mask.sum()),
        "generation_stats_file": "generations.csv",
    }
    if baseline_runs > 0:
        baseline = random_baseline(problem, baseline_runs, rng_seed=rng_seed)
        report["baseline"] = {
            "mean": baseline.mean,
            "std": baseline.std,
            "runs": baseline.runs,
        }
    io.write_json(report, out / "fit_report.json")

    # wall-clock figures stay out of the deterministic tables
    timing: dict = {"total_seconds": result.ga_result.total_seconds}
    if result.ga_result.total_seconds > 0:
        perf = performance_index(
            initial_best_loss=result.ga_result.history[0].best_fitness,
            final_best_loss=result.final_loss,
            generations=result.ga_result.generations,
            total_seconds=result.ga_result.total_seconds,
        )
        timing["loss_descent_per_generation"] = perf.loss_descent_per_generation
        timing["seconds_per_generation"] = perf.seconds_per_generation
        timing["performance_index"] = perf.index
    _write_manifest(out, "fit", settings, extra={"timing": timing})
    print(f"final loss {result.final_loss} after {result.ga_result.generations} generations")
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    graph = _load_graph(settings)
    durations = io.read_durations(
        _require_file(settings.get("durations", required=True, cast=str), "durations")
    )
    schedule = _schedule(settings)
    seed_cutoff = settings.get("seed_cutoff", default=3.0, cast=float)
    runs = settings.get("runs", default=1000, cast=int)
    rng_seed = settings.get("rng_seed", default=0, cast=int)
    _record_workers(settings)

    problem = build_fit_problem(graph, durations, seed_cutoff, schedule)
    stats = random_baseline(problem, runs, rng_seed=rng_seed)
    io.write_json(
        {"mean": stats.mean, "std": stats.std, "runs": stats.runs},
        out / "baseline.json",
    )
    with io.atomic_write(out / "baseline_losses.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run", "loss"])
        for i, loss in enumerate(stats.losses):
            writer.writerow([i, int(loss)])
    _write_manifest(out, "baseline", settings)
    print(f"baseline loss over {stats.runs} runs: mean {stats.mean:.3f}, std {stats.std:.3f}")
    return EXIT_OK


def _multiplier_seed(rng_seed: int, size: int) -> int:
    return int(np.random.SeedSequence([rng_seed, size]).generate_state(1)[0])


def _align_thresholds(tau, graph):
    """Reorder a threshold table to the graph's node order (same id set)."""
    if tau.node_ids == graph.nodes:
        return tau
    if sorted(tau.node_ids) != sorted(graph.nodes):
        raise DataError("threshold table and graph cover different node sets")
    position = {node: i for i, node in enumerate(tau.node_ids)}
    order = [position[node] for node in graph.nodes]
    return ThresholdVector(
        node_ids=graph.nodes,
        values=tau.values[order],
        seed_mask=tau.seed_mask[order],
    )


def cmd_multipliers(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    graph = _load_graph(settings)
    thresholds = _align_thresholds(
        io.read_thresholds(
            _require_file(settings.get("thresholds", required=True, cast=str), "thresholds")
        ),
        graph,
    )
    schedule = _schedule(settings)
    rng_seed = settings.get("rng_seed", default=0, cast=int)
    _record_workers(settings)
    brute = bool(settings.get("brute_force", default=False))
    enumeration_cap = settings.get("enumeration_cap", default=10**6, cast=int)
    pool_kind = settings.get("pool", default="all", cast=str)
    if pool_kind not in ("all", "unrecovered"):
        raise ConfigError(f"pool must be 'all' or 'unrecovered', got {pool_kind!r}")

    sizes = settings.get("sizes", cast=_parse_sizes)
    if sizes is None:
        sizes = default_multiplier_sizes(graph.n)
        settings.resolved["sizes"] = sizes

    candidate_pool = None
    if pool_kind == "unrecovered":
        base = run_diffusion(graph, thresholds, all_affected(graph.n), schedule)
        candidate_pool = tuple(
            node for node, recovered in zip(graph.nodes, base[-1]) if not recovered
        )
        if not candidate_pool:
            raise DataError("cannot restrict pool to unrecovered nodes: none exist")

    summary_rows = []
    geometry = settings.args.get("geometry") or settings.config.get("geometry")
    for size in sizes:
        problem = MultiplierProblem(
            graph=graph,
            thresholds=thresholds,
            size=size,
            schedule=schedule,
            candidate_pool=candidate_pool,
        )
        if brute:
            result = brute_force_multipliers(problem, enumeration_cap)
            method = "brute-force"
        else:
            config = _ga_config(
                settings, "stage2", default_max=2_000,
                rng_seed=_multiplier_seed(rng_seed, size),
            )
            result = search_multipliers(problem, config)
            method = "ga"
            io.write_generation_stats(
                result.ga_result.history,
                out / f"generations_N{size}.csv",
                include_seconds=False,
            )
        io.write_multiplier_set(graph.nodes, set(result.members), out / f"multipliers_N{size}.csv")
        if geometry:
            io.annotate_feature_collection(
                geometry, set(result.members), out / f"multipliers_N{size}.geojson"
            )
        summary_rows.append(
            [
                size,
                method,
                result.recovered_with,
                result.recovered_without,
                "" if result.increment_rate is None else repr(result.increment_rate),
            ]
        )
        rate = (
            "undefined" if result.increment_rate is None
            else f"{result.increment_rate:.2f}%"
        )
        print(
            f"N={size}: recovered {result.recovered_with} vs {result.recovered_without} "
            f"natural ({rate} increment)"
        )

    with io.atomic_write(out / "multipliers_summary.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["size", "method", "recovered_with", "recovered_without", "increment_rate_pct"]
        )
        writer.writerows(summary_rows)
    _write_manifest(out, "multipliers", settings)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    thresholds = io.read_thresholds(
        _require_file(settings.get("thresholds", required=True, cast=str), "thresholds")
    )
    attrs = io.read_attributes(
        _require_file(settings.get("attributes", required=True, cast=str), "attributes")
    )
    include_seeds = bool(settings.get("include_seeds", default=False))

    summary = threshold_summary(thresholds, include_seeds=include_seeds)
    report = {
        "threshold_summary": {
            "mean": summary.mean,
            "variance": summary.variance,
            "tertile_lower": summary.tertile_lower,
            "tertile_upper": summary.tertile_upper,
            "count": summary.count,
            "includes_seeds": summary.includes_seeds,
            "variance_convention": "population",
        },
        "correlations": {},
    }

    included = [
        (node, value)
        for node, value, seed in zip(thresholds.node_ids, thresholds.values, thresholds.seed_mask)
        if include_seeds or not seed
    ]
    included_ids = [node for node, _ in included]
    tau_values = np.array([value for _, value in included])
    for attribute in attrs.available_attributes():
        values = attrs.values(attribute, included_ids)
        try:
            corr = correlate(tau_values, values)
        except ValueError as exc:
            report["correlations"][attribute] = {"error": str(exc)}
            continue
        report["correlations"][attribute] = {
            "r": corr.r,
            "p_value": corr.p_value,
            "n": corr.n,
        }

    tertiles = tertile_attribute_report(thresholds, attrs, include_seeds=include_seeds)
    with io.atomic_write(out / "tertile_attributes.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tertile", "attribute", "count", "mean", "q1", "median", "q3"])
        for tertile, by_attr in tertiles.summaries.items():
            for attribute, s in by_attr.items():
                writer.writerow(
                    [tertile, attribute, s.count, repr(s.mean), repr(s.q1),
                     repr(s.median), repr(s.q3)]
                )
    with io.atomic_write(out / "tertile_members.csv") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tertile", "id"])
        for tertile, members in tertiles.tertiles.items():
            for node in members:
                writer.writerow([tertile, node])

    edges = settings.get("edges", cast=str)
    durations_path = settings.get("durations", cast=str)
    if edges and durations_path:
        graph = io.read_edge_list(_require_file(edges, "edge list"))
        aligned = _align_thresholds(thresholds, graph)
        durations = io.read_durations(_require_file(durations_path, "durations"))
        schedule = _schedule(settings)
        problem = build_fit_problem(
            graph, durations,
            settings.get("seed_cutoff", default=3.0, cast=float), schedule,
        )
        simulated = run_diffusion(graph, aligned, all_affected(graph.n), schedule)
        diff, cumulative = weekly_difference(problem.empirical, simulated)
        empirical_counts = recovered_counts(problem.empirical)
        simulated_counts = recovered_counts(simulated)
        with io.atomic_write(out / "recovery_curves.csv") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["week", "empirical_recovered", "simulated_recovered",
                 "difference", "cumulative_difference"]
            )
            for week in range(len(diff)):
                writer.writerow(
                    [week, int(empirical_counts[week]), int(simulated_counts[week]),
                     int(diff[week]), int(cumulative[week])]
                )
        report["recovery_curves_file"] = "recovery_curves.csv"

    multipliers_dir = settings.get("multipliers_dir", cast=str)
    if multipliers_dir:
        results = _load_multiplier_results(Path(multipliers_dir))
        comparison = multiplier_attribute_comparison(results, attrs)
        with io.atomic_write(out / "multiplier_attributes.csv") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["size", "group", "attribute", "count", "mean", "q1", "median", "q3"]
            )
            for entry in comparison.entries:
                if entry.summary is None:
                    writer.writerow(
                        [entry.size, entry.group, entry.attribute, 0, "", "", "", ""]
                    )
                else:
                    s = entry.summary
                    writer.writerow(
                        [entry.size, entry.group, entry.attribute, s.count,
                         repr(s.mean), repr(s.q1), repr(s.median), repr(s.q3)]
                    )
        with io.atomic_write(out / "increment_rates.csv") as handle:
            writer = csv.writer(handle)
            writer.writerow(["size", "recovered_with", "recovered_without", "increment_rate_pct"])
            for result in results:
                writer.writerow(
                    [len(result.members), result.recovered_with, result.recovered_without,
                     "" if result.increment_rate is None else repr(result.increment_rate)]
                )
        report["multiplier_comparison_file"] = "multiplier_attributes.csv"

    io.write_json(report, out / "analysis_report.json")
    _write_manifest(out, "analyze", settings)
    print(
        f"threshold mean {summary.mean:.4f}, variance {summary.variance:.4f} "
        f"over {summary.count} nodes"
    )
    return EXIT_OK


def _load_multiplier_results(directory: Path) -> list[MultiplierResult]:
    summary_path = directory / "multipliers_summary.csv"
    if not summary_path.exists():
        raise ConfigError(f"multiplier summary not found: {summary_path}")
    results = []
    with open(summary_path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            size = int(row["size"])
            set_path = directory / f"multipliers_N{size}.csv"
            if not set_path.exists():
                raise ConfigError(f"multiplier set file not found: {set_path}")
            members = io.read_multiplier_set(set_path)
            rate = row.get("increment_rate_pct", "")
            results.append(
                MultiplierResult(
                    members=members,
                    recovered_with=int(row["recovered_with"]),
                    recovered_without=int(row["recovered_without"]),
                    increment_rate=float(rate) if rate else None,
                )
            )
    return results


def cmd_synth(args: argparse.Namespace) -> int:
    settings = Settings(args)
    out = _out_dir(settings)
    spec = SynthSpec(
        node_count=settings.get("nodes", "node_count", required=True, cast=int),
        graph_kind=settings.get("kind", "graph_kind", default="grid", cast=str),
        seed_fraction=settings.get("seed_fraction", default=0.2, cast=float),
        threshold_low=settings.get("threshold_low", default=0.1, cast=float),
        threshold_high=settings.get("threshold_high", default=0.6, cast=float),
        attribute_coupling=settings.get("coupling", "attribute_coupling", default=-0.8, cast=float),
        rng_seed=settings.get("rng_seed", default=0, cast=int),
        edge_removal_fraction=settings.get("edge_removal_fraction", default=0.15, cast=float),
    )
    instance = generate_instance(spec)
    write_instance(instance, spec, out)
    _write_manifest(out, "synth", settings)
    unrecovered = int(instance.graph.n - instance.trajectory[-1].sum())
    print(
        f"synthesized {instance.graph.n} nodes / {instance.graph.m} edges, "
        f"{int(instance.thresholds.seed_mask.sum())} seeds, "
        f"{unrecovered} unrecovered at the horizon"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="recovnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"recovnet {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--out", help="output directory")

    def graph_source(p):
        p.add_argument("--geometry", help="GeoJSON feature collection of polygon units")
        p.add_argument("--edges", help="edge-list CSV (src,dst)")

    def schedule_opts(p):
        p.add_argument("--horizon", type=int, help="diffusion horizon in weeks (14)")
        p.add_argument("--first-update-week", type=int, help="first update week (3)")

    def ga_opts(p):
        p.add_argument("--population-size", type=int, help="GA population size (10)")
        p.add_argument("--max-iterations", type=int, help="GA generation budget")
        p.add_argument("--crossover-prob", type=float)
        p.add_argument("--mutation-prob", type=float)
        p.add_argument("--tournament-size", type=int)
        p.add_argument("--elitism-count", type=int)

    p = sub.add_parser("build-graph", help="construct a contiguity graph and its metrics")
    common(p)
    graph_source(p)
    p.add_argument("--rule", choices=["queen", "rook", "bishop"], help="contiguity rule")
    p.add_argument("--snap-tolerance", type=float, help="vertex snap tolerance (0)")
    p.set_defaults(handler=cmd_build_graph)

    p = sub.add_parser("durations", help="recovery durations from daily visit series")
    common(p)
    p.add_argument("--visits", help="visits CSV (id,day,visits)")
    p.add_argument("--baseline-start", help="first baseline day (index or ISO date)")
    p.add_argument("--baseline-end", help="last baseline day (inclusive)")
    p.add_argument("--recovery-start", help="first day recovery is assessed")
    p.add_argument("--ratio", type=float, help="recovery ratio vs baseline (0.9)")
    p.add_argument("--persistence-days", type=int, help="consecutive qualifying days (3)")
    p.add_argument("--ma-halfwidth", type=int, help="moving-average halfwidth (3)")
    p.set_defaults(handler=cmd_durations)

    p = sub.add_parser("fit", help="stage 1: fit thresholds to observed durations")
    common(p)
    graph_source(p)
    schedule_opts(p)
    ga_opts(p)
    p.add_argument("--durations", help="durations CSV (id,duration_weeks)")
    p.add_argument("--seed-cutoff", type=float, help="seed duration cutoff in weeks (3)")
    p.add_argument("--rng-seed", type=int, help="random seed (0)")
    p.add_argument("--workers", type=int,
                   help="recorded in the manifest; evaluation runs on one thread (1)")
    p.add_argument("--baseline-runs", type=int, help="also run a random baseline")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("baseline", help="random-threshold loss baseline")
    common(p)
    graph_source(p)
    schedule_opts(p)
    p.add_argument("--durations", help="durations CSV (id,duration_weeks)")
    p.add_argument("--seed-cutoff", type=float)
    p.add_argument("--runs", type=int, help="number of random draws (1000)")
    p.add_argument("--rng-seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("multipliers", help="stage 2: search recovery-multiplier sets")
    common(p)
    graph_source(p)
    schedule_opts(p)
    ga_opts(p)
    p.add_argument("--thresholds", help="fitted thresholds CSV")
    p.add_argument("--sizes", help="comma-separated set sizes (default 1,3,5,10%% of n)")
    p.add_argument("--pool", choices=["all", "unrecovered"], help="candidate pool")
    p.add_argument("--brute-force", action="store_const", const=True, default=None,
                   help="enumerate instead of running the GA")
    p.add_argument("--enumeration-cap", type=int, help="max subsets to enumerate (1e6)")
    p.add_argument("--rng-seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(handler=cmd_multipliers)

    p = sub.add_parser("analyze", help="threshold and attribute reports")
    common(p)
    schedule_opts(p)
    p.add_argument("--thresholds", help="thresholds CSV")
    p.add_argument("--attributes", help="attributes CSV")
    p.add_argument("--include-seeds", action="store_const", const=True, default=None,
                   help="include seed nodes in summaries and tertiles")
    p.add_argument("--edges", help="edge list (enables recovery curves)")
    p.add_argument("--durations", help="durations CSV (enables recovery curves)")
    p.add_argument("--seed-cutoff", type=float)
    p.add_argument("--multipliers-dir", help="output directory of a multipliers run")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic instance")
    common(p)
    p.add_argument("--nodes", type=int, help="number of spatial units")
    p.add_argument("--kind", choices=["grid", "perturbed_grid"], help="graph kind")
    p.add_argument("--seed-fraction", type=float, help="fraction of threshold-0 seeds (0.2)")
    p.add_argument("--threshold-low", type=float, help="planted threshold lower bound (0.1)")
    p.add_argument("--threshold-high", type=float, help="planted threshold upper bound (0.6)")
    p.add_argument("--coupling", type=float, help="attribute-threshold rank coupling (-0.8)")
    p.add_argument("--edge-removal-fraction", type=float, help="perturbed_grid removals (0.15)")
    p.add_argument("--rng-seed", type=int)
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            raise _UsageError("a subcommand is required (see --help)")
        return handler(args)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RecovnetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
