"""The benchmark's workloads: the CLI stages each one runs, the inputs it
writes, and the checks that its outputs are correct.

Every input comes from the workload seed. A pass runs the stages in order,
each as its own ``python -m recovnet ...`` process; a stage's output
directory is named after the stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (
    exact_multipliers,
    grid_queen_edges,
    is_connected,
    read_durations,
    read_edges,
    read_json,
    read_neighbors,
    read_selected,
    read_table,
    read_thresholds,
    recovered_at_horizon,
    simulate,
    zero_one_loss,
)

SEED_CUTOFF_WEEKS = 3.0


@dataclass(frozen=True)
class Stage:
    name: str  # also the stage's output directory
    args: tuple[str, ...]  # after `python -m recovnet`


Check = tuple[str, Callable[[], None]]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def summary_rows(directory: Path) -> list[dict]:
    rows = read_table(
        directory / "multipliers_summary.csv",
        ["size", "method", "recovered_with", "recovered_without", "increment_rate_pct"],
    )
    return [
        {"size": int(size), "method": method, "with": int(with_), "without": int(without),
         "rate": rate}
        for size, method, with_, without, rate in rows
    ]


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------

def check_planted(oracles, synth: Path, node_count: int) -> None:
    """synth derives durations by simulating its planted thresholds: seeds
    get 2.5 weeks, other nodes their first recovered week, and nodes still
    affected at the horizon the 14-week cap."""
    neighbors = read_neighbors(synth / "edges.csv")
    expect(len(neighbors) == node_count, f"{len(neighbors)} nodes, expected {node_count}")
    expect(is_connected(neighbors), "synthetic graph is disconnected")
    thresholds, seeds = read_thresholds(synth / "planted_thresholds.csv")
    weeks = simulate(oracles, neighbors, thresholds)
    durations = read_durations(synth / "durations.csv")
    for node in neighbors:
        first = next((t for t, week in enumerate(weeks) if week[node]), None)
        expected = 2.5 if node in seeds else float(len(weeks) - 1 if first is None else first)
        expect(durations[node] == expected,
               f"node {node}: duration {durations[node]}, planted simulation gives {expected}")


def check_fit(oracles, edges: Path, durations_path: Path, fit: Path) -> None:
    """The reported final loss and trajectory equal a re-simulation of the
    written thresholds; seeds are exactly the fast-recovering nodes."""
    neighbors = read_neighbors(edges)
    durations = read_durations(durations_path)
    thresholds, seeds = read_thresholds(fit / "thresholds.csv")
    expect(seeds == {n for n in neighbors if durations[n] < SEED_CUTOFF_WEEKS},
           "seed set differs from durations below the cutoff")
    expect(all(thresholds[n] == 0.0 for n in seeds), "a seed has a non-zero threshold")
    expect(all(0.0 <= v <= 1.0 for v in thresholds.values()), "threshold outside [0, 1]")
    weeks = simulate(oracles, neighbors, thresholds)
    report = read_json(fit / "fit_report.json")
    loss = zero_one_loss(durations, weeks)
    expect(report["final_loss"] == loss,
           f"final_loss {report['final_loss']}, re-simulation gives {loss}")
    trajectory = read_table(fit / "trajectory.csv", ["id", "week", "state"])
    mismatched = sum(weeks[int(week)][node] != int(state) for node, week, state in trajectory)
    expect(len(trajectory) == len(neighbors) * len(weeks) and mismatched == 0,
           f"trajectory.csv differs from the re-simulation in {mismatched} cells")


def check_baseline(baseline: Path, runs: int, node_count: int) -> None:
    losses = [int(loss) for _, loss in read_table(baseline / "baseline_losses.csv", ["run", "loss"])]
    stats = read_json(baseline / "baseline.json")
    expect(len(losses) == runs == stats["runs"], f"{len(losses)} losses for {runs} runs")
    expect(all(0 <= x <= 14 * node_count for x in losses), "a loss is out of range")
    mean = sum(losses) / runs
    std = math.sqrt(sum((x - mean) ** 2 for x in losses) / (runs - 1))
    expect(math.isclose(stats["mean"], mean, rel_tol=1e-9)
           and math.isclose(stats["std"], std, rel_tol=1e-9),
           f"baseline.json mean/std {stats['mean']}/{stats['std']} vs {mean}/{std}")


def check_multiplier_sets(oracles, edges: Path, thresholds_path: Path, out: Path,
                          sizes: list[int]) -> None:
    """Each written set has its size and reproduces its recovered counts."""
    neighbors = read_neighbors(edges)
    thresholds, _ = read_thresholds(thresholds_path)
    natural = recovered_at_horizon(simulate(oracles, neighbors, thresholds))
    rows = summary_rows(out)
    expect([row["size"] for row in rows] == sizes, f"sizes {[r['size'] for r in rows]} != {sizes}")
    for row in rows:
        members = read_selected(out / f"multipliers_N{row['size']}.csv")
        expect(len(members) == row["size"], f"N={row['size']}: {len(members)} members")
        value = recovered_at_horizon(simulate(oracles, neighbors, thresholds, members))
        expect(value == row["with"],
               f"N={row['size']}: recovered_with {row['with']}, re-simulation gives {value}")
        expect(row["without"] == natural,
               f"N={row['size']}: recovered_without {row['without']}, expected {natural}")
        if natural > 0:
            rate = 100.0 * (value - natural) / natural
            expect(math.isclose(float(row["rate"]), rate, rel_tol=1e-12, abs_tol=1e-12),
                   f"N={row['size']}: increment rate {row['rate']} vs {rate}")


def default_sizes(n: int) -> list[int]:
    """1%, 3%, 5% and 10% of n, rounded half up, as documented."""
    sizes = []
    for pct in (1, 3, 5, 10):
        size = max(1, math.floor(n * pct / 100 + 0.5))
        if size not in sizes:
            sizes.append(size)
    return sizes


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class PaperScale:
    name = "paper-scale"
    nodes = 2010
    fit_generations = 50
    multiplier_generations = 25
    baseline_runs = 1000

    def prepare(self, inputs: Path, seed: int) -> None:
        return None

    def stages(self, seed: int) -> list[Stage]:
        s = str(seed)
        graph = ("--edges", "synth/edges.csv")
        durations = ("--durations", "synth/durations.csv")
        return [
            Stage("synth", ("synth", "--kind", "perturbed_grid", "--nodes", str(self.nodes),
                            "--rng-seed", s, "--out", "synth")),
            Stage("fit", ("fit", *graph, *durations, "--max-iterations",
                          str(self.fit_generations), "--rng-seed", s, "--out", "fit")),
            Stage("baseline", ("baseline", *graph, *durations, "--runs", str(self.baseline_runs),
                               "--rng-seed", s, "--out", "baseline")),
            Stage("multipliers", ("multipliers", *graph, "--thresholds", "fit/thresholds.csv",
                                  "--max-iterations", str(self.multiplier_generations),
                                  "--rng-seed", s, "--out", "multipliers")),
            Stage("analyze", ("analyze", "--thresholds", "fit/thresholds.csv",
                              "--attributes", "synth/attributes.csv", *graph, *durations,
                              "--multipliers-dir", "multipliers", "--out", "analyze")),
        ]

    def checks(self, oracles, run: Path, inputs) -> list[Check]:
        edges, durations = run / "synth/edges.csv", run / "synth/durations.csv"
        return [
            ("synth planted thresholds", lambda: check_planted(oracles, run / "synth", self.nodes)),
            ("fit loss and trajectory", lambda: check_fit(oracles, edges, durations, run / "fit")),
            ("baseline statistics",
             lambda: check_baseline(run / "baseline", self.baseline_runs, self.nodes)),
            ("multiplier sets", lambda: check_multiplier_sets(
                oracles, edges, run / "fit/thresholds.csv", run / "multipliers",
                default_sizes(self.nodes))),
            ("analysis report", lambda: self.check_analysis(oracles, run)),
        ]

    @staticmethod
    def check_analysis(oracles, run: Path) -> None:
        thresholds, seeds = read_thresholds(run / "fit/thresholds.csv")
        values = [v for node, v in thresholds.items() if node not in seeds]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        summary = read_json(run / "analyze/analysis_report.json")["threshold_summary"]
        expect(summary["count"] == len(values), "threshold count differs")
        expect(math.isclose(summary["mean"], mean, rel_tol=1e-9)
               and math.isclose(summary["variance"], variance, rel_tol=1e-9),
               f"threshold mean/variance {summary['mean']}/{summary['variance']} "
               f"vs {mean}/{variance}")
        neighbors = read_neighbors(run / "synth/edges.csv")
        durations = read_durations(run / "synth/durations.csv")
        weeks = simulate(oracles, neighbors, thresholds)
        curves = read_table(
            run / "analyze/recovery_curves.csv",
            ["week", "empirical_recovered", "simulated_recovered"],
        )
        for row in curves:
            week = int(row[0])
            empirical = sum(durations[n] <= week for n in neighbors)
            expect(int(row[1]) == empirical and int(row[2]) == sum(weeks[week].values()),
                   f"recovery curve differs at week {week}")
        rates = read_table(run / "analyze/increment_rates.csv", ["size", "recovered_with"])
        expected = [(r["size"], r["with"]) for r in summary_rows(run / "multipliers")]
        expect([(int(s), int(w)) for s, w, *_ in rates] == expected,
               "increment_rates.csv differs from multipliers_summary.csv")

    def quality(self, run: Path) -> dict:
        return {
            "fit_final_loss": read_json(run / "fit/fit_report.json")["final_loss"],
            "multipliers_recovered": sum(r["with"] for r in summary_rows(run / "multipliers")),
        }


class SmallExact:
    name = "small-exact"
    nodes = 40
    sizes = [1, 2, 3]
    fit_generations = 200
    multiplier_generations = 75

    def prepare(self, inputs: Path, seed: int) -> None:
        return None

    def stages(self, seed: int) -> list[Stage]:
        s = str(seed)
        graph = ("--edges", "synth/edges.csv")
        sizes = ("--sizes", ",".join(map(str, self.sizes)))
        return [
            Stage("synth", ("synth", "--nodes", str(self.nodes), "--seed-fraction", "0.1",
                            "--threshold-low", "0.3", "--threshold-high", "0.9",
                            "--rng-seed", s, "--out", "synth")),
            Stage("fit", ("fit", *graph, "--durations", "synth/durations.csv",
                          "--max-iterations", str(self.fit_generations),
                          "--rng-seed", s, "--out", "fit")),
            Stage("brute_force", ("multipliers", *graph, "--thresholds", "fit/thresholds.csv",
                                  "--brute-force", *sizes, "--out", "brute_force")),
            Stage("multipliers", ("multipliers", *graph, "--thresholds", "fit/thresholds.csv",
                                  *sizes, "--max-iterations", str(self.multiplier_generations),
                                  "--rng-seed", s, "--out", "multipliers")),
        ]

    def checks(self, oracles, run: Path, inputs) -> list[Check]:
        edges, thresholds = run / "synth/edges.csv", run / "fit/thresholds.csv"
        return [
            ("synth planted thresholds", lambda: check_planted(oracles, run / "synth", self.nodes)),
            ("fit loss and trajectory",
             lambda: check_fit(oracles, edges, run / "synth/durations.csv", run / "fit")),
            ("brute-force sets reproduce", lambda: check_multiplier_sets(
                oracles, edges, thresholds, run / "brute_force", self.sizes)),
            ("brute-force sets are exact", lambda: self.check_exact(run)),
            ("GA sets reproduce", lambda: check_multiplier_sets(
                oracles, edges, thresholds, run / "multipliers", self.sizes)),
        ]

    def check_exact(self, run: Path) -> None:
        neighbors = read_neighbors(run / "synth/edges.csv")
        thresholds, _ = read_thresholds(run / "fit/thresholds.csv")
        ga = {row["size"]: row["with"] for row in summary_rows(run / "multipliers")}
        for row in summary_rows(run / "brute_force"):
            best, members = exact_multipliers(neighbors, thresholds, row["size"])
            written = read_selected(run / "brute_force" / f"multipliers_N{row['size']}.csv")
            expect(row["method"] == "brute-force" and row["with"] == best,
                   f"N={row['size']}: brute force reports {row['with']}, optimum is {best}")
            expect(written == set(members),
                   f"N={row['size']}: set {sorted(written)} is not the first optimum {members}")
            expect(ga[row["size"]] <= best, f"N={row['size']}: GA beats the exact optimum")

    def quality(self, run: Path) -> dict:
        ga = sum(r["with"] for r in summary_rows(run / "multipliers"))
        exact = sum(r["with"] for r in summary_rows(run / "brute_force"))
        return {
            "fit_final_loss": read_json(run / "fit/fit_report.json")["final_loss"],
            "multipliers_recovered": ga,
            "oracle_gap": exact - ga,
        }


@dataclass
class IngestInputs:
    ids: list[list[str]]  # ids[row][col] of the unit squares
    durations: dict[str, float]  # recovery duration known from construction
    visits: np.ndarray  # (units, days) daily visit counts


class IngestLarge:
    """A grid of unit squares as GeoJSON and a daily visit series per unit
    whose recovery day is set by construction.

    Days 0-6 are the baseline (100 visits a day). From day 7 a unit has 0-20
    visits until its recovery day k, and 95-101 from then on. Recovery is
    assessed from day 10, so every 7-day moving-average window it looks at
    lies after the baseline; a window holding one low day averages at most
    (20 + 6 * 101) / 7 < 90 = 0.9 * baseline, a window of recovered days at
    least 95. The first qualifying day is therefore k + 3, and a unit with
    k + 3 = 10 + d - 1 recovers in d/7 weeks; one in ten units never recovers
    (14 weeks). About a third of the units also have a false start: eight
    high days, starting on day 7 or later and ending at least one low day
    before k, give exactly two qualifying days in a row, one short of the
    three-day persistence rule.
    """

    name = "ingest-large"
    rows, cols = 50, 80
    baseline_days, recovery_start = 7, 10
    days = 10 + 98 + 2  # the last assessable day (98) needs two more for persistence
    baseline_runs = 100
    lon, lat, step = -95.8, 29.5, 0.005

    def stages(self, seed: int) -> list[Stage]:
        return [
            Stage("build_graph", ("build-graph", "--geometry", "../inputs/units.geojson",
                                  "--out", "build_graph")),
            Stage("durations", ("durations", "--visits", "../inputs/visits.csv",
                                "--baseline-start", "0",
                                "--baseline-end", str(self.baseline_days - 1),
                                "--recovery-start", str(self.recovery_start),
                                "--out", "durations")),
            Stage("baseline", ("baseline", "--edges", "build_graph/edges.csv",
                               "--durations", "durations/durations.csv",
                               "--runs", str(self.baseline_runs), "--rng-seed", str(seed),
                               "--out", "baseline")),
        ]

    def prepare(self, inputs: Path, seed: int) -> IngestInputs:
        rng = np.random.default_rng([seed, 20000])
        n = self.rows * self.cols
        ids = [[f"g{r * self.cols + c:05d}" for c in range(self.cols)] for r in range(self.rows)]
        xs = [self.lon + c * self.step for c in range(self.cols + 1)]
        ys = [self.lat + r * self.step for r in range(self.rows + 1)]
        features = [
            {
                "type": "Feature",
                "properties": {"id": ids[r][c]},
                "geometry": {"type": "Polygon", "coordinates": [[
                    [xs[c], ys[r]], [xs[c + 1], ys[r]], [xs[c + 1], ys[r + 1]],
                    [xs[c], ys[r + 1]], [xs[c], ys[r]],
                ]]},
            }
            for r in range(self.rows)
            for c in range(self.cols)
        ]
        with open(inputs / "units.geojson", "w", encoding="utf-8") as handle:
            json.dump({"type": "FeatureCollection", "features": features}, handle)

        kind = rng.random(n)
        day = np.where(kind < 0.2, rng.integers(1, 21, n), rng.integers(21, 99, n))
        never = kind >= 0.9
        recovery_day = np.where(never, self.days, self.recovery_start + day - 4)
        latest_start = recovery_day - 9  # the false start ends before day k - 1
        false_start = (rng.random(n) < 1 / 3) & (latest_start >= self.baseline_days)
        start = self.baseline_days + (
            rng.random(n) * (latest_start - self.baseline_days + 1)
        ).astype(np.int64)
        days = np.arange(self.days)
        high = (days >= recovery_day[:, None]) | (
            false_start[:, None] & (days >= start[:, None]) & (days < start[:, None] + 8)
        )
        visits = np.where(
            high, rng.integers(95, 102, (n, self.days)), rng.integers(0, 21, (n, self.days))
        )
        visits[:, : self.baseline_days] = 100
        flat = [unit for row in ids for unit in row]
        with open(inputs / "visits.csv", "w", encoding="utf-8") as handle:
            handle.write("id,day,visits\n")
            for unit, series in zip(flat, visits.tolist()):
                handle.write("".join(f"{unit},{d},{v}\n" for d, v in enumerate(series)))
        durations = dict(zip(flat, np.where(never, 14.0, day / 7.0).tolist()))
        return IngestInputs(ids=ids, durations=durations, visits=visits)

    def checks(self, oracles, run: Path, inputs: IngestInputs) -> list[Check]:
        n = self.rows * self.cols
        return [
            ("queen edges of the grid", lambda: self.check_edges(run, inputs)),
            ("durations", lambda: self.check_durations(oracles, run, inputs)),
            ("baseline statistics", lambda: check_baseline(run / "baseline", self.baseline_runs, n)),
        ]

    @staticmethod
    def check_edges(run: Path, inputs: IngestInputs) -> None:
        written = read_edges(run / "build_graph/edges.csv")
        expected = grid_queen_edges(inputs.ids)
        expect(written == expected, f"{len(written ^ expected)} edges differ from the queen grid")
        metrics = read_json(run / "build_graph/metrics.json")
        expect(metrics["m"] == len(expected), f"metrics.json m = {metrics['m']}")

    def check_durations(self, oracles, run: Path, inputs: IngestInputs) -> None:
        written = read_durations(run / "durations/durations.csv")
        expect(written == inputs.durations, "durations differ from their construction")
        flat = [unit for row in inputs.ids for unit in row]
        for unit, series in zip(flat, inputs.visits.tolist()):
            expected = oracles.naive_recovery_duration(
                series, 0, self.baseline_days - 1, self.recovery_start
            )
            expect(written[unit] == expected,
                   f"unit {unit}: duration {written[unit]}, oracle gives {expected}")

    def quality(self, run: Path) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PaperScale(), SmallExact(), IngestLarge())}
