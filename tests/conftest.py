from __future__ import annotations

import numpy as np
import pytest

from recovnet import SpatialGraph, SpatialUnit, ThresholdVector


def square(unit_id: str, x: float, y: float, size: float = 1.0) -> SpatialUnit:
    ring = (
        (x, y),
        (x + size, y),
        (x + size, y + size),
        (x, y + size),
        (x, y),
    )
    return SpatialUnit(id=unit_id, geometry=(ring,))


def square_grid(rows: int, cols: int) -> list[SpatialUnit]:
    return [
        square(f"c{r}{c}", float(c), float(r))
        for r in range(rows)
        for c in range(cols)
    ]


@pytest.fixture
def grid3x3():
    return square_grid(3, 3)


@pytest.fixture
def path_graph():
    return SpatialGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])


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
    return SpatialGraph(nodes, edges)
