from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_graph, square, square_grid
from recovnet import (
    ContiguityRule,
    DataError,
    SpatialGraph,
    SpatialUnit,
    build_contiguity_graph,
    graph_metrics,
)
from recovnet.errors import ConfigError


class TestSpatialUnit:
    def test_open_ring_rejected(self):
        with pytest.raises(DataError, match="not closed"):
            SpatialUnit(id="u", geometry=(((0, 0), (1, 0), (1, 1), (0, 1)),))

    def test_short_ring_rejected(self):
        with pytest.raises(DataError, match=">= 4"):
            SpatialUnit(id="u", geometry=(((0, 0), (1, 0), (0, 0)),))

    def test_geometry_optional(self):
        assert SpatialUnit(id="u").geometry is None


class TestContiguity:
    def test_grid3x3_queen(self, grid3x3):
        g = build_contiguity_graph(grid3x3, ContiguityRule("queen"))
        assert g.n == 9
        assert g.m == 20
        assert len(g.neighbors("c11")) == 8  # center touches everything

    def test_grid3x3_rook_and_bishop(self, grid3x3):
        rook = build_contiguity_graph(grid3x3, ContiguityRule("rook"))
        bishop = build_contiguity_graph(grid3x3, ContiguityRule("bishop"))
        assert rook.m == 12
        assert bishop.m == 8
        assert len(bishop.neighbors("c00")) == 1  # corners touch one diagonal
        assert len(bishop.neighbors("c11")) == 4

    def test_matches_pairwise_oracle(self, grid3x3):
        queen_o, rook_o, bishop_o = oracles.contiguity_edges(grid3x3)
        for kind, expected in (("queen", queen_o), ("rook", rook_o), ("bishop", bishop_o)):
            g = build_contiguity_graph(grid3x3, ContiguityRule(kind))
            assert set(g.edges) == expected

    @pytest.mark.parametrize("rows,cols", [(1, 4), (2, 5), (4, 4)])
    def test_oracle_agreement_other_grids(self, rows, cols):
        units = square_grid(rows, cols)
        queen_o, rook_o, bishop_o = oracles.contiguity_edges(units)
        assert set(build_contiguity_graph(units, ContiguityRule("queen")).edges) == queen_o
        assert set(build_contiguity_graph(units, ContiguityRule("rook")).edges) == rook_o
        assert set(build_contiguity_graph(units, ContiguityRule("bishop")).edges) == bishop_o

    def test_queen_is_rook_union_bishop(self, grid3x3):
        queen = set(build_contiguity_graph(grid3x3, ContiguityRule("queen")).edges)
        rook = set(build_contiguity_graph(grid3x3, ContiguityRule("rook")).edges)
        bishop = set(build_contiguity_graph(grid3x3, ContiguityRule("bishop")).edges)
        assert queen == rook | bishop
        assert not rook & bishop

    def test_single_polygon(self):
        g = build_contiguity_graph([square("only", 0, 0)], ContiguityRule("queen"))
        assert g.n == 1
        assert g.m == 0

    def test_permutation_invariant(self, grid3x3):
        forward = build_contiguity_graph(grid3x3, ContiguityRule("queen"))
        backward = build_contiguity_graph(list(reversed(grid3x3)), ContiguityRule("queen"))
        assert set(forward.edges) == set(backward.edges)

    def test_snapping_bridges_small_gaps(self):
        apart = [square("a", 0, 0), square("b", 1.001, 0)]
        exact = build_contiguity_graph(apart, ContiguityRule("queen"))
        assert exact.m == 0
        snapped = build_contiguity_graph(apart, ContiguityRule("queen", snap_tolerance=0.01))
        assert snapped.m == 1

    def test_shared_corners_without_segment_are_not_rook(self):
        # staircase polygons meeting at two separate corner points
        zig = SpatialUnit(
            id="zig",
            geometry=(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 0)),),
        )
        block = SpatialUnit(
            id="block",
            geometry=(((2, 1), (3, 1), (3, 3), (1, 3), (1, 2), (2, 2), (2, 1)),),
        )
        queen = build_contiguity_graph([zig, block], ContiguityRule("queen"))
        rook = build_contiguity_graph([zig, block], ContiguityRule("rook"))
        assert queen.m == 1
        assert rook.m == 0

    def test_missing_geometry_names_unit(self):
        units = [square("ok", 0, 0), SpatialUnit(id="bare")]
        with pytest.raises(DataError, match="bare"):
            build_contiguity_graph(units, ContiguityRule("queen"))

    def test_duplicate_id_rejected(self):
        units = [square("dup", 0, 0), square("dup", 5, 5)]
        with pytest.raises(DataError, match="dup"):
            build_contiguity_graph(units, ContiguityRule("queen"))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="snap_tolerance"):
            ContiguityRule("queen", snap_tolerance=-0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ContiguityRule("king")


class TestLoadEdgeList:
    def test_path(self):
        g = SpatialGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert [len(g.neighbors(n)) for n in g.nodes] == [1, 2, 1]

    def test_isolate(self):
        g = SpatialGraph(["A"], [])
        assert g.neighbors("A") == frozenset()
        assert g.m == 0

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            SpatialGraph(["A", "B"], [("A", "A")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match="duplicate edge"):
            SpatialGraph(["A", "B"], [("A", "B"), ("B", "A")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(DataError, match="unknown endpoint 'C'"):
            SpatialGraph(["A", "B"], [("A", "C")])

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 15)
        for u in g.nodes:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


EDGE_FAULTS = (
    "unknown_head", "unknown_tail", "unknown_both", "self_loop", "repeat", "reversed_repeat",
)


@st.composite
def edge_lists(draw):
    """Node ids in an unsorted order (some padded with spaces, some isolated)
    and a shuffled edge list in mixed orientations, an endpoint sometimes
    given as an int that str() turns into a node id; up to two planted
    faults (one or two unknown endpoints, a self-loop, a repeated edge in
    either orientation) at random positions, or a repeated node id."""
    pool = ["n0", "n1", "n2", "n10", " n1", "n1 ", "a", "B", "b", "3", "17", "é"]
    nodes = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    edges = [tuple(int(x) if x.isdigit() and draw(st.booleans()) else x for x in e) for e in edges]
    for fault in draw(st.lists(st.sampled_from(EDGE_FAULTS), max_size=2)):
        node = draw(st.sampled_from(nodes))
        if fault == "unknown_head":
            edge = ("zz", node)
        elif fault == "unknown_tail":
            edge = (node, " zz")
        elif fault == "unknown_both":
            edge = ("zz", "yy")
        elif fault == "self_loop":
            edge = (node, node)
        elif edges:
            u, v = draw(st.sampled_from(edges))
            edge = (v, u) if fault == "reversed_repeat" else (u, v)
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), edge)
    if draw(st.integers(0, 9)) == 0:
        nodes = nodes + [draw(st.sampled_from(nodes))]
    return nodes, edges


class TestGraphAgainstOracle:
    """The array build against the edge-at-a-time build with neighbour
    sets: the same graph, or the same error for the same first offender."""

    @given(edge_lists())
    @settings(max_examples=400, deadline=None)
    def test_matches_edge_at_a_time_build(self, case):
        nodes, edges = case
        try:
            expected = oracles.naive_spatial_graph(nodes, edges)
        except ValueError as exc:
            with pytest.raises(DataError) as raised:
                SpatialGraph(nodes, edges)
            assert str(raised.value) == str(exc)
            return
        g = SpatialGraph(nodes, iter(edges))
        assert g.nodes == expected["nodes"]
        assert g.edges == expected["edges"]
        assert g.indptr.tolist() == expected["indptr"]
        assert g.indices.tolist() == expected["indices"]
        assert g.degrees.tolist() == [len(expected["neighbors"][n]) for n in g.nodes]
        assert {n: g.neighbors(n) for n in g.nodes} == expected["neighbors"]

    def test_unknown_node_in_neighbors_rejected(self, path_graph):
        with pytest.raises(DataError, match="unknown node id 'Z'"):
            path_graph.neighbors("Z")


class TestGraphMetrics:
    def test_paper_sized_graph(self):
        rng = np.random.default_rng(42)
        nodes = [f"v{i}" for i in range(2010)]
        edges = set()
        while len(edges) < 6079:
            i, j = rng.integers(2010, size=2)
            if i != j:
                edges.add((nodes[min(i, j)], nodes[max(i, j)]))
        metrics = graph_metrics(SpatialGraph(nodes, sorted(edges)))
        assert metrics.avg_degree == pytest.approx(6.049, abs=1e-3)
        assert metrics.density == pytest.approx(0.00301, abs=1e-5)

    def test_triangle(self):
        g = SpatialGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        metrics = graph_metrics(g)
        assert metrics.avg_degree == 2.0
        assert metrics.density == 1.0

    def test_grid3x3_queen(self, grid3x3):
        metrics = graph_metrics(build_contiguity_graph(grid3x3, ContiguityRule("queen")))
        assert metrics.avg_degree == pytest.approx(40 / 9)
        assert metrics.density == pytest.approx(20 / 36)
        assert metrics.degree_histogram == {3: 4, 5: 4, 8: 1}

    def test_single_node_density_zero(self):
        metrics = graph_metrics(SpatialGraph(["A"], []))
        assert metrics.avg_degree == 0.0
        assert metrics.density == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            graph_metrics(SpatialGraph([], []))

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_formulas_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        metrics = graph_metrics(g)
        assert metrics.avg_degree == 2 * g.m / g.n
        assert metrics.density == 2 * g.m / (g.n * (g.n - 1))
        assert sum(metrics.degree_histogram.values()) == g.n
        assert metrics.n == g.n and metrics.m == g.m
