"""The batched diffusion kernel against the dict-based oracle.

Graphs have isolates and sometimes a hub of degree 300 (past what a
uint8 count holds), thresholds sit on the count/deg grid (exact ties)
or one float step off it, and the kernel runs up to ~70 columns in chunks
small enough that every run crosses chunk boundaries.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import chunked, graph_of
from recovnet import (
    DiffusionSchedule,
    GaConfig,
    MultiplierProblem,
    build_fit_problem,
    diffusion,
    fit_thresholds,
    run_diffusion,
)

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
    hub_degree = draw(st.sampled_from([0, 0, 0, 300]))
    if hub_degree:  # a hub joined to every linked node and to fresh leaves
        leaves = [f"h{i:03d}" for i in range(hub_degree - linked)]
        edges += [("hub", node) for node in nodes[:linked] + leaves]
        nodes += ["hub", *leaves]
    columns = draw(st.integers(1, 70))
    chunk = draw(st.integers(1, 16))
    return graph_of(nodes, edges), columns, chunk, rng


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


@settings(max_examples=60, deadline=None)
@given(instances())
def test_kernel_trajectories_match_oracle(case):
    graph, columns, _, rng = case
    values = grid_thresholds(graph, rng, columns)
    initial = rng.random((graph.n, columns)) < 0.2
    kernel = diffusion.DiffusionKernel(graph, DiffusionSchedule(HORIZON, FIRST_UPDATE))
    order = kernel.order  # inputs and outputs are in kernel order
    weeks = kernel.weeks_recovered(kernel.need(values[order]), initial[order])[kernel.rank]
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


@settings(max_examples=60, deadline=None)
@given(instances())
def test_reduce_columns_is_one_call_in_chunks(case):
    """reduce_columns asks inputs for consecutive column ranges that cover
    0..columns in order, one per call of `chunk` columns (a remainder of
    under half a chunk joins the last call), and returns reduce of one
    unchunked weeks_recovered call; the need is per column or shared."""
    graph, columns, chunk, rng = case
    kernel = diffusion.DiffusionKernel(graph)
    shared = bool(rng.integers(2))
    need = kernel.need(grid_thresholds(graph, rng, 1 if shared else columns))
    initial = rng.random((graph.n, columns)) < 0.2
    asked = []

    def inputs(lo, hi):
        asked.append((lo, hi))
        return (need if shared else need[:, lo:hi]), initial[:, lo:hi]

    with chunked(chunk):
        got = kernel.reduce_columns(columns, inputs, lambda weeks: weeks.T)
    bounds = [lo for lo, _ in asked] + [columns]
    assert asked == list(zip(bounds, bounds[1:])) and bounds[0] == 0
    whole = diffusion.DiffusionKernel(graph).weeks_recovered(need, initial)
    assert np.array_equal(got, whole.T)
    widths = [chunk] * (columns // chunk) + [columns % chunk] * (columns % chunk > 0)
    if len(widths) > 1 and widths[-1] < chunk // 2:
        widths[-2:] = [widths[-2] + widths[-1]]
    assert [hi - lo for lo, hi in asked] == widths
    assert kernel.calls == Counter(widths)


def test_zero_columns_make_no_call():
    """Scoring no rows gives a length-0 array in the dtype of a scored row,
    through both problem types, with no kernel call."""
    graph = graph_of(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    fit = build_fit_problem(graph, ("a", "b", "c", "d"), [2.5, 5.0, 7.0, 14.0])
    multipliers = MultiplierProblem(graph, np.array([0.5, 0.5, 1.0, 0.0]))
    for problem, score, width, dtype in ((fit, fit.losses, fit.free_count, np.float64),
                                         (multipliers, multipliers.recovered, 2, np.int64)):
        calls = Counter(problem.kernel.calls)
        empty = score(np.zeros((0, width), dtype))
        assert empty.shape == (0,)
        assert problem.kernel.calls == calls
        assert empty.dtype == score(np.zeros((1, width), dtype)).dtype


def unforced_oracle_weeks(graph, values):
    """The oracle's recovered weeks (node order) from the all-affected start."""
    states = oracles.naive_diffusion(
        neighbor_lists(graph), dict(zip(graph.nodes, values)), dict.fromkeys(graph.nodes, 0)
    )
    weeks = oracles.recovered_weeks(states)
    return [weeks[node] for node in graph.nodes]


@pytest.mark.filterwarnings("ignore::UserWarning")  # empty or off-schedule seed sets
@settings(max_examples=40, deadline=None)
@given(instances())
def test_run_matches_oracle_and_every_whole_graph_run(case):
    """DiffusionKernel.run, one 1-column call from the all-affected start,
    against the oracle; run_diffusion, MultiplierProblem's unforced run and
    fit_thresholds' weeks of the winner are that run."""
    graph, _, _, rng = case
    values = grid_thresholds(graph, rng, 1)[:, 0]
    kernel = diffusion.DiffusionKernel(graph)
    weeks = kernel.run(values)
    assert kernel.calls == {1: 1}
    assert weeks.tolist() == unforced_oracle_weeks(graph, values)

    assert run_diffusion(graph, values).tolist() == weeks.tolist()
    problem = MultiplierProblem(graph, values)
    assert problem.unforced_weeks.tolist() == weeks.tolist()
    assert problem.kernel.calls == {1: 1}

    choices = [2.5, 3.0, 5.0, 10.0, 14.0]
    durations = {node: float(rng.choice(choices)) for node in graph.nodes}
    fit = fit_thresholds(build_fit_problem(graph, tuple(durations), list(durations.values())),
                         GaConfig(population_size=4, max_iterations=3, rng_seed=1))
    fitted = fit.thresholds
    assert fit.weeks.tolist() == diffusion.DiffusionKernel(graph).run(fitted).tolist()
    assert fit.weeks.tolist() == unforced_oracle_weeks(graph, fitted)


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
    problem = build_fit_problem(graph, tuple(durations), list(durations.values()))
    values = grid_thresholds(graph, rng, columns)
    values[problem.seed_mask] = 0.0
    with chunked(chunk):
        losses = problem.losses(values[problem.free_indices].T)
    assert losses.shape == (columns,)
    for p in range(columns):
        ref = oracles.naive_diffusion(
            neighbor_lists(graph),
            dict(zip(graph.nodes, values[:, p])),
            {node: 0 for node in graph.nodes},
        )
        assert losses[p] == naive_loss(durations, ref, graph.nodes), p


def linear_need(taus, degree):
    """Per threshold t, the first count c in 0..deg with c/deg >= t, else
    deg + 1; an isolate counts as degree 1 (its fraction is 0)."""
    degree = max(degree, 1)
    meets = np.arange(degree + 1) / degree >= np.asarray(taus)[:, None]
    return np.where(meets.any(axis=1), meets.argmax(axis=1), degree + 1).tolist()


def test_need_is_smallest_count_meeting_threshold():
    """need against a linear scan on a star of every degree 0..300 (0 is a
    lone isolate): every grid threshold c/deg, one float step either side
    of it, and 0, 1 and 1.5."""
    for d in range(301):
        leaves = [f"l{i}" for i in range(d)]
        graph = graph_of(["c", *leaves], [("c", leaf) for leaf in leaves])
        kernel = diffusion.DiffusionKernel(graph)
        grid = np.arange(d + 1) / max(d, 1)
        taus = np.concatenate(
            [grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0), [0.0, 1.0, 1.5]]
        )
        values = np.tile(taus, (graph.n, 1))
        need = kernel.need(values[kernel.order])[kernel.rank]
        for node, degree in ((0, d), (graph.n - 1, 1 if d else 0)):
            assert need[node].tolist() == linear_need(taus, degree), (d, node)


def test_star_of_degree_300_matches_oracle():
    """A hub of degree 300 counts past 255 recovered neighbours: hub
    thresholds on the c/300 grid on both sides of that limit, and one float
    step off each, through both problem types against the oracle."""
    degree = 300
    leaves = [f"l{i:03d}" for i in range(degree)]
    graph = graph_of(["c", *leaves], [("c", leaf) for leaf in leaves])
    grid = np.array([0, 1, 14, 15, 44, 45, 150, 255, 256, 257, 269, 270, 271, 299, 300]) / degree
    taus = np.unique(
        np.clip(np.concatenate([grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0)]), 0, 1)
    )

    def simulate(values, initial):
        return oracles.naive_diffusion(
            neighbor_lists(graph), dict(zip(graph.nodes, values)), dict(zip(graph.nodes, initial))
        )

    # fit: 270 leaves are seeds; the other leaves recover only after the hub
    durations = {leaf: 2.5 if i < 270 else 5.0 for i, leaf in enumerate(leaves)}
    durations["c"] = 4.0
    problem = build_fit_problem(graph, tuple(durations), list(durations.values()))
    values = np.ones((graph.n, taus.size))
    values[0] = taus
    values[problem.seed_mask] = 0.0
    losses = problem.losses(values[problem.free_indices].T)
    for p, tau in enumerate(taus):
        ref = simulate(values[:, p], np.zeros(graph.n, dtype=int))
        assert losses[p] == naive_loss(durations, ref, graph.nodes), tau

    # multipliers: no seeds, every leaf waits for the hub; force s leaves
    for tau in taus:
        thresholds = np.r_[tau, np.ones(degree)]
        multipliers = MultiplierProblem(graph, thresholds)
        for s in (14, 255, 256, 270, 300):
            initial = np.zeros(graph.n, dtype=int)
            initial[1 : s + 1] = 1
            ref = simulate(thresholds, initial)
            got = multipliers.recovered(np.arange(1, s + 1)[None, :])[0]
            assert got == sum(ref[-1].values()), (tau, s)
