"""Command-line pipeline driver.

Subcommands: build-graph, durations, fit, baseline, multipliers, analyze,
synth. Every run writes its effective settings, seed, and versions to a
manifest in the output directory; all data tables are deterministic given
the same config and seed (wall-clock timing stays out of them).

Exit codes: 0 success, 1 usage, 2 configuration, 3 data/I-O, 4 internal.
"""

from __future__ import annotations

import argparse
import atexit
import datetime
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence

import numpy as np

# the modules every command loads; each handler imports the stages it runs
from . import __version__, io
from .diffusion import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_FIRST_UPDATE_WEEK,
    DEFAULT_HORIZON_WEEKS,
    DEFAULT_SEED_CUTOFF_WEEKS,
    DiffusionSchedule,
    recovered_counts,
    run_diffusion,
)
from .errors import ConfigError, DataError, RecovnetError
from .graph import (
    CONTIGUITY_KINDS,
    GRAPH_KINDS,
    ContiguityRule,
    align_rows,
    build_contiguity_graph,
    graph_metrics,
)

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


# Option types: each converts a flag's text or a config file's JSON value,
# raising ValueError on anything else.

def _integer(value) -> int:
    """An integer; a JSON 2.0 passes, 2.7 and true do not."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _text(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {value!r}")


def _day(value) -> str:
    """A day index or ISO date that io.parse_day reads, kept as written."""
    text = str(_integer(value)) if isinstance(value, int) else _text(value)
    try:
        io.parse_day(text)
    except DataError:
        raise ValueError(f"expected a day index or ISO date, got {value!r}") from None
    return text


def _switch(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def _sizes(value) -> list[int]:
    """Comma-separated flag text or a JSON list of integers."""
    if isinstance(value, str):
        value = [part for part in value.replace(" ", "").split(",") if part]
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a list of set sizes, got {value!r}")
    return [_integer(v) for v in value]


ALL = ("build-graph", "durations", "fit", "baseline", "multipliers", "analyze", "synth")
GRAPH = ("build-graph", "fit", "baseline", "multipliers")
SCHEDULE = ("fit", "baseline", "multipliers", "analyze")
GA = ("fit", "multipliers")
STAGE_PREFIX = {"fit": "stage1_", "multipliers": "stage2_"}


@dataclass(frozen=True)
class Option:
    """One setting, taken by each command in commands as the flag --name
    (underscores as dashes) and the config key key, else name.

    Staged rows (the GA settings) take the key stage1_<name> under fit and
    stage2_<name> under multipliers. default may map each command to its
    own default; the commands in required have none. minimum bounds an
    integer, or each item of a list, whose items must then also be distinct.
    """

    name: str
    type: Callable
    default: object
    help: str
    commands: tuple[str, ...]
    key: Optional[str] = None
    staged: bool = False
    required: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()
    minimum: Optional[int] = None

    def config_key(self, command: str) -> str:
        return STAGE_PREFIX[command] + self.name if self.staged else self.key or self.name

    def default_for(self, command: str):
        return self.default[command] if isinstance(self.default, dict) else self.default


# Every setting of every command, declared once: the flags, the config keys,
# the defaults, the help text and the manifest's settings all come from here.
OPTIONS = (
    Option("out", _text, None, "output directory", ALL, required=ALL),
    Option("geometry", _text, None, "GeoJSON feature collection of polygon units", GRAPH),
    Option("edges", _text, None, "edge-list CSV (src,dst); analyze draws recovery curves "
           "when given it and --durations", GRAPH + ("analyze",)),
    Option("rule", _text, "queen", "contiguity rule for --geometry", GRAPH,
           choices=CONTIGUITY_KINDS),
    Option("snap_tolerance", _number, 0.0, "vertex snap tolerance for --geometry", GRAPH),
    Option("visits", _text, None, "visits CSV (id,day,visits)", ("durations",),
           required=("durations",)),
    Option("baseline_start", _day, None, "first baseline day (index or ISO date)",
           ("durations",), required=("durations",)),
    Option("baseline_end", _day, None, "last baseline day (inclusive)", ("durations",),
           required=("durations",)),
    Option("recovery_start", _day, None, "first day recovery is assessed", ("durations",),
           required=("durations",)),
    Option("ratio", _number, 0.9, "recovery ratio vs baseline", ("durations",)),
    Option("persistence_days", _integer, 3, "consecutive qualifying days", ("durations",),
           minimum=1),
    Option("ma_halfwidth", _integer, 3, "moving-average halfwidth", ("durations",),
           minimum=0),
    Option("durations", _text, None, "durations CSV (id,duration_weeks)",
           ("fit", "baseline", "analyze"), required=("fit", "baseline")),
    Option("thresholds", _text, None, "thresholds CSV (id,threshold,is_seed)",
           ("multipliers", "analyze"), required=("multipliers", "analyze")),
    Option("attributes", _text, None, "attributes CSV", ("analyze",), required=("analyze",)),
    Option("horizon", _integer, DEFAULT_HORIZON_WEEKS, "diffusion horizon in weeks", SCHEDULE),
    Option("first_update_week", _integer, DEFAULT_FIRST_UPDATE_WEEK, "first update week",
           SCHEDULE),
    Option("seed_cutoff", _number, DEFAULT_SEED_CUTOFF_WEEKS, "seed duration cutoff in weeks",
           ("fit", "baseline")),
    Option("population_size", _integer, 10, "GA population size", GA, staged=True),
    Option("max_iterations", _integer, {"fit": 10_000, "multipliers": 2_000},
           "GA generation budget", GA, staged=True),
    Option("crossover_prob", _number, 0.9, "GA crossover probability", GA, staged=True),
    Option("mutation_prob", _number, None, "GA mutation probability (by default 1/k per "
           "threshold for fit, one swap per child for multipliers)", GA, staged=True),
    Option("tournament_size", _integer, 2, "GA tournament size", GA, staged=True),
    Option("elitism_count", _integer, 1, "GA elites kept per generation", GA, staged=True),
    Option("rng_seed", _integer, 0, "random seed", ("fit", "baseline", "multipliers", "synth"),
           minimum=0),
    Option("baseline_runs", _integer, 0, "also run a random baseline of this many draws",
           ("fit",), minimum=0),
    Option("runs", _integer, 1000, "number of random draws", ("baseline",), minimum=1),
    Option("sizes", _sizes, None, "comma-separated set sizes (by default those of 1,3,5,10%% "
           "of n that fit the candidate pool)",
           ("multipliers",), minimum=1),
    Option("pool", _text, "all", "candidate pool", ("multipliers",),
           choices=("all", "unrecovered")),
    Option("brute_force", _switch, False, "enumerate instead of running the GA",
           ("multipliers",)),
    Option("enumeration_cap", _integer, DEFAULT_ENUMERATION_CAP, "max subsets to enumerate",
           ("multipliers",), minimum=1),
    Option("include_seeds", _switch, False, "include seed nodes in summaries and tertiles",
           ("analyze",)),
    Option("multipliers_dir", _text, None, "output directory of a multipliers run",
           ("analyze",)),
    Option("nodes", _integer, None, "number of spatial units", ("synth",), key="node_count",
           required=("synth",)),
    Option("kind", _text, "grid", "graph kind", ("synth",), key="graph_kind",
           choices=GRAPH_KINDS),
    Option("seed_fraction", _number, 0.2, "fraction of threshold-0 seeds", ("synth",)),
    Option("threshold_low", _number, 0.1, "planted threshold lower bound", ("synth",)),
    Option("threshold_high", _number, 0.6, "planted threshold upper bound", ("synth",)),
    Option("coupling", _number, -0.8, "attribute-threshold rank coupling", ("synth",),
           key="attribute_coupling"),
    Option("edge_removal_fraction", _number, 0.15, "perturbed_grid edge removals", ("synth",)),
)

# one config file may serve several commands, so any command's key is accepted
CONFIG_ROWS = {o.config_key(c): o for o in OPTIONS for c in o.commands}


def _options(command: str) -> list[Option]:
    return [option for option in OPTIONS if command in option.commands]


def _flag(option: Option) -> str:
    return "--" + option.name.replace("_", "-")


def _check(option: Option, value, source: str) -> None:
    if option.choices and value not in option.choices:
        raise ConfigError(f"{source} must be one of {', '.join(option.choices)}, got {value!r}")
    items = value if isinstance(value, list) else [value]
    if option.minimum is not None and min(items) < option.minimum:
        raise ConfigError(f"{source} must be >= {option.minimum}, got {min(items)}")
    repeated = [v for i, v in enumerate(items) if v in items[:i]]
    if repeated:
        raise ConfigError(f"{source} lists {repeated[0]} more than once")


def _read_config(path: str) -> dict:
    """The config file's values by key, each converted and checked by its
    row; a null value counts as absent."""
    _require_file(path, "config")
    try:
        loaded = io.read_json(path)
    except ValueError as exc:  # JSONDecodeError, or bad UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(loaded) - set(CONFIG_ROWS))
    if unknown:
        hints = [
            f"for {_flag(o)} use " + " or ".join(sorted({o.config_key(c) for c in o.commands}))
            for o in OPTIONS if o.name in unknown
        ]
        raise ConfigError(
            f"unknown config key(s) in {path}: {', '.join(map(repr, unknown))}"
            + (f" ({'; '.join(hints)})" if hints else "")
        )
    config = {}
    for key, value in loaded.items():
        if value is not None:
            source = f"config key {key!r}"
            try:
                config[key] = CONFIG_ROWS[key].type(value)
            except ValueError as exc:
                raise ConfigError(f"{source}: {exc}") from None
            _check(CONFIG_ROWS[key], config[key], source)
    return config


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """Each option of the command from its flag, else the config file, else
    its default; a missing required value or a bad value is a config error."""
    command = args.command
    config = _read_config(args.config) if args.config else {}
    values = {}
    for option in _options(command):
        key = option.config_key(command)
        value = getattr(args, option.name)
        if value is not None:
            _check(option, value, _flag(option))
        else:
            value = config.get(key)
        if value is None:
            if command in option.required:
                raise ConfigError(f"missing required setting {key!r}")
            value = option.default_for(command)
        values[option.name] = value
    return argparse.Namespace(command=command, **values)


def _ga_config(s: argparse.Namespace):
    """The GaConfig of a fit or multipliers run's staged settings; an error
    names the setting by its config key and its flag."""
    from .ga import GaConfig
    staged = {o.name: o for o in OPTIONS if o.staged}
    try:
        return GaConfig(**{name: getattr(s, name) for name in staged}, rng_seed=s.rng_seed)
    except ConfigError as exc:
        name, _, problem = str(exc).partition(" ")  # each message starts with its field
        option = staged[name]
        raise ConfigError(f"{option.config_key(s.command)} ({_flag(option)}) {problem}") from None


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


def _write_manifest(s: argparse.Namespace, extra: Optional[dict]) -> None:
    manifest = {
        "command": s.command,
        "settings": {o.config_key(s.command): getattr(s, o.name) for o in _options(s.command)},
        "versions": {
            "recovnet": __version__,
            "python": sys.version.split()[0],  # as platform.python_version() reads it
            "numpy": np.__version__,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    io.write_json(manifest, Path(s.out) / "manifest.json")


def _load_graph(s: argparse.Namespace):
    """The graph of --geometry or --edges, which must hold a node. The
    contiguity settings are checked whichever input is given."""
    if (s.geometry is None) == (s.edges is None):
        raise ConfigError("exactly one of --geometry or --edges is required")
    rule = ContiguityRule(s.rule, s.snap_tolerance)
    if s.geometry is not None:
        path = _require_file(s.geometry, "geometry")
        graph = build_contiguity_graph(io.read_feature_collection(path), rule)
    else:
        path = _require_file(s.edges, "edge list")
        graph = io.read_edge_list(path)
    if graph.n == 0:
        raise DataError(f"{path}: graph has no nodes")
    return graph


def _fit_problem(s: argparse.Namespace):
    from .fitting import build_fit_problem
    schedule = DiffusionSchedule(s.horizon, s.first_update_week)  # checked before any read
    graph = _load_graph(s)
    path = _require_file(s.durations, "durations")
    return build_fit_problem(graph, *io.read_durations(path), s.seed_cutoff, schedule,
                             source=path)


def _summary_cells(summary: Optional[dict]) -> list:
    """count, mean, q1, median and q3 of a group's summary; for none, count
    0 and the rest empty."""
    if summary is None:
        return [0, "", "", "", ""]
    return [summary["count"],
            *(repr(summary[key]) for key in ("mean", "q1", "median", "q3"))]


# ---------------------------------------------------------------------------
# subcommand handlers: each writes its tables under --out (the directory
# appears with the first file) and returns its extra manifest fields, if any
# ---------------------------------------------------------------------------

def cmd_build_graph(s: argparse.Namespace) -> None:
    graph = _load_graph(s)
    metrics = graph_metrics(graph)
    io.write_edge_list(graph, Path(s.out) / "edges.csv")
    io.write_metrics(metrics, Path(s.out) / "metrics.json")
    print(io.metrics_line(metrics))


def cmd_durations(s: argparse.Namespace) -> None:
    from .empirical import compute_recovery_durations
    if not 0 < s.ratio <= 1:
        raise ConfigError(f"ratio must be in (0, 1], got {s.ratio}")
    start, end, recovery = map(io.parse_day, (s.baseline_start, s.baseline_end, s.recovery_start))
    # a unit's first day shifts all three days alike, so their order is the flags' alone
    if start > end:
        raise ConfigError(f"--baseline-start {s.baseline_start} is after "
                          f"--baseline-end {s.baseline_end}")
    if end >= recovery:
        raise ConfigError(f"--baseline-end {s.baseline_end} must be before "
                          f"--recovery-start {s.recovery_start}")
    visits_path = _require_file(s.visits, "visits")

    panel = io.read_visit_series(visits_path)
    ids = panel[0]
    if not ids:
        raise DataError(f"{visits_path}: no visit rows")
    durations = compute_recovery_durations(
        *panel, start, end, recovery, s.ratio, s.persistence_days, s.ma_halfwidth, visits_path)
    io.write_durations(ids, durations, Path(s.out) / "durations.csv")
    print(f"computed recovery durations for {len(ids)} nodes")


def cmd_fit(s: argparse.Namespace) -> dict:
    from .fitting import fit_thresholds, random_baseline
    from .ga import performance_index
    config = _ga_config(s)
    problem = _fit_problem(s)
    out = Path(s.out)
    result = fit_thresholds(problem, config)
    history, seconds = result.ga_result.history, result.ga_result.seconds

    io.write_thresholds(problem.graph.nodes, result.thresholds, problem.seed_mask,
                        out / "thresholds.csv")
    io.write_generation_stats(history, out / "generations.csv")
    io.write_generation_stats(history, out / "ga_timing.csv", seconds)
    io.write_trajectory(problem.graph.nodes, result.weeks, problem.schedule.horizon,
                        out / "trajectory.csv")

    report = {
        "final_loss": result.final_loss,
        "initial_best_loss": history[0].item(),
        "generations": history.size,
        "free_nodes": problem.free_count,
        "seed_nodes": int(problem.seed_mask.sum()),
        "generation_stats_file": "generations.csv",
    }
    if s.baseline_runs > 0:
        report["baseline"], _ = random_baseline(problem, s.baseline_runs, rng_seed=s.rng_seed)
    io.write_json(report, out / "fit_report.json")

    # wall-clock figures stay out of the deterministic tables
    total_seconds = float(seconds.sum())
    timing = {"total_seconds": total_seconds, "rows_scored": result.ga_result.rows_scored}
    if total_seconds > 0:
        timing.update(performance_index(history[0].item(), result.final_loss, history.size,
                                        total_seconds))
    print(f"final loss {result.final_loss} after {history.size} generations")
    return {"timing": timing}


def cmd_baseline(s: argparse.Namespace) -> None:
    from .fitting import random_baseline
    summary, losses = random_baseline(_fit_problem(s), s.runs, rng_seed=s.rng_seed)
    out = Path(s.out)
    io.write_json(summary, out / "baseline.json")
    io.write_table(out / "baseline_losses.csv", ["run", "loss"],
                   ([i, int(loss)] for i, loss in enumerate(losses)))
    print("baseline loss over {runs} runs: mean {mean:.3f}, std {std:.3f}".format(**summary))


def cmd_multipliers(s: argparse.Namespace) -> dict:
    from .multipliers import MultiplierProblem, brute_force_multipliers, search_multipliers
    config = _ga_config(s)  # checked, as the manifest records it, even for --brute-force
    schedule = DiffusionSchedule(s.horizon, s.first_update_week)  # checked before any read
    graph = _load_graph(s)
    path = _require_file(s.thresholds, "thresholds")
    ids, values, _ = io.read_thresholds(path)
    thresholds = values[align_rows(ids, graph.nodes, path)]
    problem = MultiplierProblem(graph, thresholds, schedule)  # for every size and the pool

    candidate_pool = None
    if s.pool == "unrecovered":
        candidate_pool = np.flatnonzero(problem.unforced_weeks == 0)
        if not candidate_pool.size:
            raise DataError("cannot restrict pool to unrecovered nodes: none exist")
    pool_size = graph.n if candidate_pool is None else candidate_pool.size
    pool = f"the {s.pool!r} candidate pool's {pool_size} nodes"
    if s.sizes is None:
        sizes = default_multiplier_sizes(graph.n)
        s.sizes = [size for size in sizes if size <= pool_size]
        dropped = [size for size in sizes if size > pool_size]
        if dropped:
            print(f"dropped default sizes {','.join(map(str, dropped))}, larger than {pool}",
                  file=sys.stderr)
        if not s.sizes:
            raise ConfigError(f"every default size exceeds {pool}; give --sizes")
    if max(s.sizes) > pool_size:
        raise ConfigError(f"sizes must be at most {pool}, got {max(s.sizes)}")

    out = Path(s.out)
    method = "brute-force" if s.brute_force else "ga"
    start = time.perf_counter()
    results = (brute_force_multipliers(problem, s.sizes, candidate_pool, s.enumeration_cap)
               if s.brute_force else search_multipliers(problem, s.sizes, config, candidate_pool))
    # wall-clock figures stay out of the deterministic tables
    timing = {
        "search_seconds": time.perf_counter() - start,
        "kernel_calls": sum(problem.kernel.calls.values()),
        "columns_per_call": {str(k): v for k, v in sorted(problem.kernel.calls.items())},
        "rows_scored": {str(size): math.comb(pool_size, size) if result.ga_result is None
                        else result.ga_result.rows_scored
                        for size, result in zip(s.sizes, results)},
    }
    copies = {}
    for size, result in zip(s.sizes, results):
        if result.ga_result is not None:
            io.write_generation_stats(result.ga_result.history, out / f"generations_N{size}.csv")
        io.write_multiplier_set(graph.nodes, result.members, out / f"multipliers_N{size}.csv")
        copies[out / f"multipliers_N{size}.geojson"] = result.members
        rate = (
            "undefined" if result.increment_rate is None
            else f"{result.increment_rate:.2f}%"
        )
        print(
            f"N={size}: recovered {result.recovered_with} vs {result.recovered_without} "
            f"natural ({rate} increment)"
        )

    if s.geometry:  # after the searches, so that one parse serves every copy
        io.annotate_feature_collection(s.geometry, copies)
    io.write_multiplier_summary(method, results, out / "multipliers_summary.csv")
    return {"timing": timing}


def cmd_analyze(s: argparse.Namespace) -> None:
    from .analysis import attribute_summaries, correlate, split_tertiles, threshold_summary
    curves = bool(s.edges)
    if curves != bool(s.durations):
        missing = "durations" if curves else "edges"
        raise ConfigError(f"recovery curves need both --edges and --durations; missing {missing!r}")
    schedule = DiffusionSchedule(s.horizon, s.first_update_week)  # checked with or without curves
    thresholds_path = _require_file(s.thresholds, "thresholds")
    ids, thresholds, seed_mask = io.read_thresholds(thresholds_path)
    # the nodes every summary covers: the free nodes, and the seeds on request
    keep = np.arange(len(ids)) if s.include_seeds else np.flatnonzero(~seed_mask)
    if not keep.size:
        seeds = int(seed_mask.sum())
        if not seeds:
            raise DataError(f"{thresholds_path}: no nodes to summarize")
        raise DataError(f"{thresholds_path}: no free nodes to summarize; its {seeds} seed "
                        "node(s) count with --include-seeds")
    if curves:
        from .empirical import align_durations, durations_to_weeks
        graph = io.read_edge_list(_require_file(s.edges, "edge list"))
        aligned = thresholds[align_rows(ids, graph.nodes, thresholds_path)]
        durations_path = _require_file(s.durations, "durations")
        empirical = durations_to_weeks(align_durations(
            *io.read_durations(durations_path), graph.nodes, s.horizon, durations_path), s.horizon)
        simulated = run_diffusion(graph, aligned, schedule)
    # every attribute summary indexes these columns, in the thresholds' node order
    attributes_path = _require_file(s.attributes, "attributes")
    attribute_ids, attributes = io.read_attributes(attributes_path)
    rows = align_rows(attribute_ids, ids, attributes_path)
    columns = {name: column[rows] for name, column in attributes.items()}
    if s.multipliers_dir:
        directory = Path(s.multipliers_dir)
        _require_file(directory / "multipliers_summary.csv", "multiplier summary")
        results = io.read_multiplier_results(directory, ids)
    out = Path(s.out)

    kept = thresholds[keep]
    summary = {**threshold_summary(kept), "includes_seeds": s.include_seeds}
    report = {"threshold_summary": summary, "correlations": {}}
    for attribute, column in columns.items():
        try:
            corr = correlate(kept, column[keep])
        except ValueError as exc:
            corr = {"error": str(exc)}
        report["correlations"][attribute] = corr

    tertiles = split_tertiles(ids, thresholds, keep)
    groups = [((name,), members) for name, members in tertiles.items() if members.size]
    io.write_table(
        out / "tertile_attributes.csv",
        ["tertile", "attribute", "count", "mean", "q1", "median", "q3"],
        ([*head, *_summary_cells(st)] for *head, st in attribute_summaries(groups, columns)),
    )
    io.write_table(
        out / "tertile_members.csv", ["tertile", "id"],
        ([tertile, ids[i]] for tertile, members in tertiles.items()
         for i in members),
    )

    if curves:
        empirical_counts = recovered_counts(empirical, s.horizon)
        simulated_counts = recovered_counts(simulated, s.horizon)
        diff = empirical_counts - simulated_counts
        io.write_table(
            out / "recovery_curves.csv",
            ["week", "empirical_recovered", "simulated_recovered",
             "difference", "cumulative_difference"],
            zip(range(s.horizon + 1), empirical_counts.tolist(), simulated_counts.tolist(),
                diff.tolist(), diff.cumsum().tolist()),
        )
        report["recovery_curves_file"] = "recovery_curves.csv"

    if s.multipliers_dir:
        groups = []
        for _, selected in results:
            others = np.delete(np.arange(len(ids)), selected)  # in node order
            groups += [((len(selected), "multiplier"), selected),
                       ((len(selected), "non_multiplier"), others)]
        io.write_table(
            out / "multiplier_attributes.csv",
            ["size", "group", "attribute", "count", "mean", "q1", "median", "q3"],
            ([*head, *_summary_cells(st)] for *head, st in attribute_summaries(groups, columns)),
        )
        io.write_table(out / "increment_rates.csv",
                       ["size", "recovered_with", "recovered_without", "increment_rate_pct"],
                       (cells for cells, _ in results))
        report["multiplier_comparison_file"] = "multiplier_attributes.csv"

    io.write_json(report, out / "analysis_report.json")
    print(
        f"threshold mean {summary['mean']:.4f}, variance {summary['variance']:.4f} "
        f"over {summary['count']} nodes"
    )


def cmd_synth(s: argparse.Namespace) -> None:
    from .synthetic import SynthSpec, generate_instance, write_instance
    # every synth setting but --out is a SynthSpec field under its config key
    spec = SynthSpec(**{o.config_key("synth"): getattr(s, o.name)
                        for o in _options("synth") if o.name != "out"})
    instance = generate_instance(spec)
    write_instance(instance, spec, s.out)
    unrecovered = int(np.count_nonzero(instance.weeks == 0))
    print(
        f"synthesized {instance.graph.n} nodes / {instance.graph.m} edges, "
        f"{int(instance.seed_mask.sum())} seeds, "
        f"{unrecovered} unrecovered at the horizon"
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _flag_type(convert: Callable) -> Callable:
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _help(option: Option, command: str) -> str:
    if command in option.required:
        return f"{option.help} (required)"
    default = option.default_for(command)
    return option.help if default is None else f"{option.help} (default: {default})"


def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    # built per call, so that a handler rebound after import (by a tracer,
    # say) is the one that runs; when command is one of them, the others get
    # no flags, as none of theirs is read
    commands = {
        "build-graph": (cmd_build_graph, "construct a contiguity graph and its metrics"),
        "durations": (cmd_durations, "recovery durations from daily visit series"),
        "fit": (cmd_fit, "stage 1: fit thresholds to observed durations"),
        "baseline": (cmd_baseline, "random-threshold loss baseline"),
        "multipliers": (cmd_multipliers, "stage 2: search recovery-multiplier sets"),
        "analyze": (cmd_analyze, "threshold and attribute reports"),
        "synth": (cmd_synth, "generate a synthetic instance"),
    }
    parser = _Parser(prog="recovnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"recovnet {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (handler, summary) in commands.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if command in commands and name != command:
            continue
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for option in _options(name):
            if option.type is _switch:
                p.add_argument(_flag(option), dest=option.name, action="store_const",
                               const=True, help=_help(option, name))
            else:
                p.add_argument(_flag(option), dest=option.name, type=_flag_type(option.type),
                               choices=option.choices or None, help=_help(option, name))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv[0] if argv else None).parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        s = _settings(args)
        _write_manifest(s, args.handler(s))
        return EXIT_OK
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
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> NoReturn:
    """The process entry (`python -m recovnet`, the `recovnet` script): main()
    on sys.argv, then SystemExit with its code.

    Every `finally` around the entry runs as the SystemExit passes, but the
    interpreter's teardown does not: an atexit handler registered before
    main() runs after every handler registered later and ends the process
    with main()'s code once stdout and stderr are flushed. It leaves the exit
    to Python, as if it were not there, when main() did not return (a
    KeyboardInterrupt), when an exception other than SystemExit reached the
    top level, or when a stream is None or its flush raises (a closed or full
    stdout), so that Python reports it. A caller that catches the SystemExit
    and goes on still ends with main()'s code: run() belongs at the top of a
    process; library callers and tests call main().
    """
    code = []
    atexit.register(_exit_without_teardown, code)
    code.append(main())
    raise SystemExit(code[0])


def _exit_without_teardown(code: list) -> None:
    if not code or hasattr(sys, "last_value"):  # set as Python prints an uncaught exception
        return
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # closed as the process started (`>&-`)
            return
        try:
            stream.flush()
        except (OSError, ValueError):  # full, broken or closed: Python's own exit reports it
            return
    os._exit(code[0])


if __name__ == "__main__":
    run()
