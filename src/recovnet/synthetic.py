"""Deterministic synthetic instances for end-to-end testing: a grid of unit
squares, planted thresholds, durations obtained by forward simulation, and
attributes rank-correlated with the planted thresholds.

Because durations come from simulating the planted thresholds, the planted
chromosome reproduces the empirical trajectory exactly (up to nodes that
never recover, which the 14-week cap marks recovered at the horizon).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io
from .analysis import AttributeRow, AttributeTable
from .diffusion import DiffusionSchedule, ThresholdVector, all_affected, run_diffusion
from .errors import ConfigError
from .graph import ContiguityRule, SpatialGraph, SpatialUnit, build_contiguity_graph

GRAPH_KINDS = ("grid", "perturbed_grid")
SEED_DURATION_WEEKS = 2.5  # any value under the 3-week cutoff; fixed for determinism


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic instance; every draw comes from rng_seed."""

    node_count: int
    graph_kind: str = "grid"
    seed_fraction: float = 0.2
    threshold_low: float = 0.1
    threshold_high: float = 0.6
    attribute_coupling: float = -0.8
    rng_seed: int = 0
    edge_removal_fraction: float = 0.15  # perturbed_grid only

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigError(f"node_count must be >= 1, got {self.node_count}")
        if self.graph_kind not in GRAPH_KINDS:
            raise ConfigError(
                f"graph_kind must be one of {GRAPH_KINDS}, got {self.graph_kind!r}"
            )
        if not 0.0 <= self.seed_fraction <= 1.0:
            raise ConfigError(f"seed_fraction must be in [0, 1], got {self.seed_fraction}")
        if self.seed_count < 1:
            raise ConfigError(
                "seed_fraction too small: the planted diffusion needs at least one "
                "seed node to recover anything"
            )
        if not 0.0 < self.threshold_low <= self.threshold_high <= 1.0:
            raise ConfigError(
                f"need 0 < threshold_low <= threshold_high <= 1, got "
                f"[{self.threshold_low}, {self.threshold_high}]"
            )
        if not -1.0 <= self.attribute_coupling <= 1.0:
            raise ConfigError(
                f"attribute_coupling must be in [-1, 1], got {self.attribute_coupling}"
            )
        if not 0.0 <= self.edge_removal_fraction < 1.0:
            raise ConfigError(
                f"edge_removal_fraction must be in [0, 1), got {self.edge_removal_fraction}"
            )

    @property
    def seed_count(self) -> int:
        return int(math.floor(self.seed_fraction * self.node_count + 0.5))


@dataclass(eq=False)
class SyntheticInstance:
    """Everything the pipeline consumes, plus the planted forward trajectory."""

    graph: SpatialGraph
    thresholds: ThresholdVector
    durations: dict[str, float]
    attributes: AttributeTable
    trajectory: np.ndarray


def grid_units(count: int) -> list[SpatialUnit]:
    """`count` unit squares laid out row-major on a near-square grid."""
    cols = max(1, int(round(math.sqrt(count))))
    units = []
    for k in range(count):
        r, c = divmod(k, cols)
        x, y = float(c), float(r)
        ring = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y))
        units.append(SpatialUnit(id=f"u{k:04d}", geometry=(ring,)))
    return units


def _reachable(adjacency: dict[str, set[str]], source: str, target: str) -> bool:
    """Breadth-first search from source that stops once it reaches target."""
    seen = {source}
    frontier = deque([source])
    while frontier:
        for nbr in adjacency[frontier.popleft()]:
            if nbr == target:
                return True
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return False


def _perturb_edges(graph: SpatialGraph, fraction: float, rng: np.random.Generator) -> SpatialGraph:
    """Drop random edges, skipping any removal that would disconnect the graph.

    The grid starts connected and every accepted removal keeps it so; a
    removal then disconnects it exactly when its endpoints no longer reach
    each other.
    """
    target = int(math.floor(fraction * graph.m + 0.5))
    adjacency = {n: set(graph.neighbors(n)) for n in graph.nodes}
    order = rng.permutation(graph.m)
    removed = 0
    for idx in order:
        if removed == target:
            break
        u, v = graph.edges[idx]
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        if _reachable(adjacency, u, v):
            removed += 1
        else:
            adjacency[u].add(v)
            adjacency[v].add(u)
    edges = sorted(
        (u, v) for u in graph.nodes for v in adjacency[u] if u < v
    )
    return SpatialGraph(graph.nodes, edges)


def _rank_positions(values: np.ndarray) -> np.ndarray:
    """Rank of each entry (0-based, ties broken by index, stable)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size)
    return ranks


def generate_instance(spec: SynthSpec) -> SyntheticInstance:
    """Build the graph, plant thresholds, simulate, and derive durations and
    attributes. Identical specs produce identical instances."""
    rng = np.random.default_rng(spec.rng_seed)

    graph = build_contiguity_graph(grid_units(spec.node_count), ContiguityRule("queen"))
    if spec.graph_kind == "perturbed_grid":
        graph = _perturb_edges(graph, spec.edge_removal_fraction, rng)

    n = graph.n
    seed_mask = np.zeros(n, dtype=bool)
    seed_mask[rng.choice(n, size=spec.seed_count, replace=False)] = True
    free_values = rng.uniform(spec.threshold_low, spec.threshold_high, int((~seed_mask).sum()))
    tau = ThresholdVector.assemble(graph.nodes, seed_mask, free_values)

    schedule = DiffusionSchedule()
    trajectory = run_diffusion(graph, tau, all_affected(n), schedule)

    durations: dict[str, float] = {}
    for i, node in enumerate(graph.nodes):
        if seed_mask[i]:
            durations[node] = SEED_DURATION_WEEKS
        elif trajectory[-1, i]:
            first_week = int(np.argmax(trajectory[:, i]))
            durations[node] = float(first_week)
        else:
            durations[node] = float(schedule.horizon)

    attributes = _coupled_attributes(graph, tau, spec.attribute_coupling, rng)
    return SyntheticInstance(
        graph=graph,
        thresholds=tau,
        durations=durations,
        attributes=attributes,
        trajectory=trajectory,
    )


def _coupled_attributes(
    graph: SpatialGraph,
    tau: ThresholdVector,
    coupling: float,
    rng: np.random.Generator,
) -> AttributeTable:
    """Income attributes with (approximately) the requested rank correlation
    to the thresholds, exact at coupling +/-1; minority share mirrors income."""
    n = graph.n
    weight = abs(coupling)
    direction = 1.0 if coupling >= 0 else -1.0
    tau_score = (_rank_positions(tau.values) + 0.5) / n
    noise = rng.random(n)
    score = direction * weight * tau_score + math.sqrt(1.0 - weight * weight) * noise

    # monotone transforms of the score keep rank correlations intact
    position = _rank_positions(score) / max(n - 1, 1)
    per_capita = 15_000.0 + 55_000.0 * position
    household = per_capita * (2.2 + 0.6 * position)
    minority = 10.0 + 80.0 * (1.0 - position)
    flood = rng.uniform(0.0, 3.0, n)

    rows = {
        node: AttributeRow(
            per_capita_income=float(per_capita[i]),
            median_household_income=float(household[i]),
            minority_pct=float(minority[i]),
            flood_extent=float(flood[i]),
        )
        for i, node in enumerate(graph.nodes)
    }
    return AttributeTable(rows)


def write_instance(instance: SyntheticInstance, spec: SynthSpec, directory: str | Path) -> None:
    """Persist an instance in the formats the pipeline consumes, plus a
    record of the generating recipe (instance.json)."""
    directory = Path(directory)
    io.write_edge_list(instance.graph, directory / "edges.csv")
    io.write_durations(instance.durations, directory / "durations.csv")
    io.write_attributes(instance.attributes, directory / "attributes.csv")
    io.write_thresholds(instance.thresholds, directory / "planted_thresholds.csv")
    io.write_trajectory(
        instance.graph.nodes, instance.trajectory, directory / "trajectory.csv"
    )
    io.write_json(asdict(spec), directory / "instance.json")
