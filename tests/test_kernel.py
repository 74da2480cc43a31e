"""The batched diffusion kernel against the dict-based oracle.

Graphs have isolates, thresholds sit on the count/deg grid (exact ties)
or one float step off it, and the kernel runs up to ~70 columns in chunks
small enough that every run crosses chunk boundaries.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recovnet import DiffusionSchedule, build_fit_problem, diffusion, load_edge_list

HORIZON = 14
FIRST_UPDATE = 3


@st.composite
def instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 12))
    isolates = draw(st.integers(0, n))  # the last `isolates` nodes get no edges
    nodes = [f"n{i:02d}" for i in range(n)]
    linked = n - isolates
    edge_prob = draw(st.sampled_from([0.2, 0.4, 0.8]))
    edges = [
        (nodes[i], nodes[j])
        for i in range(linked)
        for j in range(i + 1, linked)
        if rng.random() < edge_prob
    ]
    columns = draw(st.integers(1, 70))
    chunk = draw(st.integers(1, 16))
    return load_edge_list(nodes, edges), columns, chunk, rng


def grid_thresholds(graph, rng, columns):
    """n x P thresholds: count/deg exactly, one float step either side of it,
    or uniform; isolates get 0 or a positive value."""
    deg = np.maximum(graph.degrees, 1)[:, None]
    counts = rng.integers(0, deg + 1, size=(graph.n, columns))
    values = counts / deg
    kind = rng.integers(0, 4, size=values.shape)
    values = np.where(kind == 1, np.nextafter(values, 2.0), values)
    values = np.where(kind == 2, np.nextafter(values, -1.0), values)
    values = np.where(kind == 3, rng.random(values.shape), values)
    return np.clip(values, 0.0, 1.0)


def neighbor_lists(graph):
    return {u: sorted(graph.neighbors(u)) for u in graph.nodes}


def chunked(graph, chunk):
    """Patch the chunk size so that the kernel runs `chunk` columns per call."""
    return mock.patch.object(diffusion, "CHUNK_CELLS", graph.n * chunk)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_kernel_trajectories_match_oracle(case):
    graph, columns, _, rng = case
    values = grid_thresholds(graph, rng, columns)
    initial = rng.random((graph.n, columns)) < 0.2
    kernel = diffusion.DiffusionKernel(graph, DiffusionSchedule(HORIZON, FIRST_UPDATE))
    weeks = kernel.weeks_recovered(kernel.need(values), initial)
    for p in range(columns):
        ref = oracles.naive_diffusion(
            neighbor_lists(graph),
            dict(zip(graph.nodes, values[:, p])),
            dict(zip(graph.nodes, initial[:, p].astype(int))),
            HORIZON,
            FIRST_UPDATE,
        )
        for i, node in enumerate(graph.nodes):
            recovered_weeks = sum(ref[t][node] for t in range(1, HORIZON + 1))
            assert weeks[i, p] == recovered_weeks, (node, p)


def naive_loss(durations, weeks, nodes):
    """Node-week cells, weeks 1..T, where observed and simulated states differ."""
    return sum(
        (durations[node] <= t) != bool(weeks[t][node])
        for t in range(1, len(weeks))
        for node in nodes
    )


@pytest.mark.filterwarnings("ignore::UserWarning")  # empty or off-schedule seed sets
@settings(max_examples=60, deadline=None)
@given(instances())
def test_chunked_fit_losses_match_naive_loss(case):
    graph, columns, chunk, rng = case
    choices = [2.5, 3.0, 3.5, 4.0, 5.0, 7.0, 10.0, 13.5, 14.0]
    durations = {node: float(rng.choice(choices)) for node in graph.nodes}
    problem = build_fit_problem(graph, durations)
    values = grid_thresholds(graph, rng, columns)
    values[problem.seed_mask] = 0.0
    with chunked(graph, chunk):
        losses = problem.losses(values[problem.free_indices].T)
    assert losses.shape == (columns,)
    for p in range(columns):
        ref = oracles.naive_diffusion(
            neighbor_lists(graph),
            dict(zip(graph.nodes, values[:, p])),
            {node: 0 for node in graph.nodes},
        )
        assert losses[p] == naive_loss(durations, ref, graph.nodes), p


def test_need_is_smallest_count_meeting_threshold():
    """From degree 25 up, ceil(t * deg) can overshoot the smallest count
    (7/25 rounds to a product above 7), so check every grid threshold and
    its float neighbours on stars of degree 1..60 against a linear scan."""
    for d in range(1, 61):
        leaves = [f"l{i}" for i in range(d)]
        graph = load_edge_list(["c", *leaves], [("c", leaf) for leaf in leaves])
        kernel = diffusion.DiffusionKernel(graph)
        grid = np.arange(d + 1) / d
        taus = np.clip(
            np.concatenate([grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0)]), 0.0, 1.0
        )
        values = np.zeros((d + 1, taus.size))
        values[0] = taus
        expected = [next(c for c in range(d + 1) if c / d >= t) for t in taus]
        assert kernel.need(values)[0].tolist() == expected, d
