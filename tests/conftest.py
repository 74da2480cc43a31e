from __future__ import annotations

import numpy as np
import pytest

from recovnet import DiffusionKernel, DiffusionSchedule, Polygons, SpatialGraph, ThresholdVector


def square(unit_id: str, x: float, y: float, size: float = 1.0) -> tuple[str, list]:
    """A unit square as (id, rings), the form tests/oracles.py reads."""
    ring = [(x, y), (x + size, y), (x + size, y + size), (x, y + size), (x, y)]
    return unit_id, [ring]


def square_grid(rows: int, cols: int) -> list[tuple[str, list]]:
    return [
        square(f"c{r}{c}", float(c), float(r))
        for r in range(rows)
        for c in range(cols)
    ]


def graph_of(nodes, edges) -> SpatialGraph:
    """The SpatialGraph of (id, id) edge pairs, each end put through str()."""
    node_list = [str(n) for n in nodes]
    index = {n: i for i, n in enumerate(node_list)}
    codes = np.array([[index[str(end)] for end in pair] for pair in edges],
                     np.int64).reshape(-1, 2)
    return SpatialGraph(node_list, codes[:, 0], codes[:, 1])


def forced_weeks(g, tau, initial, schedule=DiffusionSchedule()) -> np.ndarray:
    """Recovered weeks (node order) of tau's run from the given week-0 state
    (node order, nonzero = recovered), through DiffusionKernel.weeks_recovered."""
    kernel = DiffusionKernel(g, schedule)
    rows = kernel.order[:, None]
    initial = np.asarray(initial).astype(bool)[rows]
    return kernel.weeks_recovered(kernel.need(tau.values[rows]), initial)[kernel.rank, 0]


def polygons(units) -> Polygons:
    """The package's table of (id, rings) units, named as if read from a
    file units.geojson."""
    return Polygons.from_coordinates([u for u, _ in units], [rings for _, rings in units],
                                     "units.geojson")


@pytest.fixture
def grid3x3():
    return square_grid(3, 3)


@pytest.fixture
def path_graph():
    return graph_of(["A", "B", "C"], [("A", "B"), ("B", "C")])


@pytest.fixture
def path_tau(path_graph):
    return ThresholdVector(
        node_ids=path_graph.nodes,
        values=np.array([0.0, 0.5, 1.0]),
        seed_mask=np.array([True, False, False]),
    )


def random_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.25):
    nodes = [f"n{i}" for i in range(n)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return graph_of(nodes, edges)
