"""Deterministic synthetic instances for end-to-end testing: a grid of unit
squares, planted thresholds, durations obtained by forward simulation, and
attributes rank-correlated with the planted thresholds.

Because durations come from simulating the planted thresholds, the planted
chromosome reproduces the empirical recovered weeks exactly (up to nodes
that never recover, which the 14-week cap marks recovered at the horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .diffusion import DEFAULT_HORIZON_WEEKS, run_diffusion
from .errors import ConfigError
from .graph import GRAPH_KINDS, ContiguityRule, Polygons, SpatialGraph, build_contiguity_graph

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
    """Everything the pipeline consumes, plus the planted run's recovered
    weeks; the planted thresholds, their seed_mask, the durations, the weeks
    and each attribute column are in the graph's node order."""

    graph: SpatialGraph
    thresholds: np.ndarray
    seed_mask: np.ndarray
    durations: np.ndarray
    attributes: dict[str, np.ndarray]
    weeks: np.ndarray


def grid_units(count: int) -> Polygons:
    """`count` unit squares laid out row-major on a near-square grid."""
    cols = max(1, int(round(math.sqrt(count))))
    row, col = np.divmod(np.arange(count, dtype=np.float64), cols)
    # the closed ring (x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)
    xy = np.stack([col[:, None] + [0, 1, 1, 0, 0], row[:, None] + [0, 0, 1, 1, 0]], axis=-1)
    ids = tuple(f"u{k:04d}" for k in range(count))
    return Polygons(ids, xy.reshape(-1, 2), np.arange(0, 5 * count + 1, 5), np.arange(count))


def _perturb_edges(graph: SpatialGraph, fraction: float, rng: np.random.Generator) -> SpatialGraph:
    """Drop random edges, skipping any removal that would disconnect the graph.

    Edges are tried in a random order, each dropped (until target are) iff
    the graph without it still joins its ends. That is reverse-delete, which
    keeps the spanning forest Kruskal builds from the end of the order: an
    edge is dropped iff the edges after it join its ends, and stopping at the
    target changes no earlier decision. So one union-find pass over the
    reversed order finds the droppable edges, and the first target of them go.
    """
    target = int(math.floor(fraction * graph.m + 0.5))
    parent = list(range(graph.n))
    src, dst = graph.src.tolist(), graph.dst.tolist()

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    droppable = []
    for idx in rng.permutation(graph.m)[::-1].tolist():
        u, v = root(src[idx]), root(dst[idx])
        if u == v:
            droppable.append(idx)
        else:
            parent[u] = v
    kept = np.ones(graph.m, dtype=bool)
    kept[droppable[::-1][:target]] = False
    return SpatialGraph(graph.nodes, graph.src[kept], graph.dst[kept])


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
    thresholds = np.zeros(n)
    thresholds[~seed_mask] = rng.uniform(spec.threshold_low, spec.threshold_high,
                                         int((~seed_mask).sum()))

    weeks = run_diffusion(graph, thresholds)
    # a node's first recovered week; one that never recovers gets the horizon
    first_week = np.minimum(DEFAULT_HORIZON_WEEKS + 1 - weeks, DEFAULT_HORIZON_WEEKS)
    durations = np.where(seed_mask, SEED_DURATION_WEEKS, first_week.astype(np.float64))

    attributes = _coupled_attributes(graph, thresholds, spec.attribute_coupling, rng)
    return SyntheticInstance(
        graph=graph,
        thresholds=thresholds,
        seed_mask=seed_mask,
        durations=durations,
        attributes=attributes,
        weeks=weeks,
    )


def _coupled_attributes(
    graph: SpatialGraph,
    thresholds: np.ndarray,
    coupling: float,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Income attributes with (approximately) the requested rank correlation
    to the thresholds, exact at coupling +/-1; minority share mirrors income."""
    n = graph.n
    weight = abs(coupling)
    direction = 1.0 if coupling >= 0 else -1.0
    tau_score = (_rank_positions(thresholds) + 0.5) / n
    noise = rng.random(n)
    score = direction * weight * tau_score + math.sqrt(1.0 - weight * weight) * noise

    # monotone transforms of the score keep rank correlations intact
    position = _rank_positions(score) / max(n - 1, 1)
    per_capita = 15_000.0 + 55_000.0 * position
    household = per_capita * (2.2 + 0.6 * position)
    minority = 10.0 + 80.0 * (1.0 - position)
    flood = rng.uniform(0.0, 3.0, n)

    return dict(zip(io.ATTRIBUTE_NAMES, (per_capita, household, minority, flood)))


def write_instance(instance: SyntheticInstance, spec: SynthSpec, directory: str | Path) -> None:
    """Persist an instance in the formats the pipeline consumes, plus a
    record of the generating recipe (instance.json)."""
    directory = Path(directory)
    io.write_edge_list(instance.graph, directory / "edges.csv")
    io.write_durations(instance.graph.nodes, instance.durations, directory / "durations.csv")
    io.write_attributes(instance.graph.nodes, instance.attributes, directory / "attributes.csv")
    io.write_thresholds(instance.graph.nodes, instance.thresholds, instance.seed_mask,
                        directory / "planted_thresholds.csv")
    io.write_trajectory(
        instance.graph.nodes, instance.weeks, DEFAULT_HORIZON_WEEKS, directory / "trajectory.csv"
    )
    io.write_json(vars(spec), directory / "instance.json")
