from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graph_of, polygons, random_graph, square, square_grid
from recovnet import (
    ContiguityRule,
    DataError,
    Polygons,
    SpatialGraph,
    build_contiguity_graph,
    graph_metrics,
)
from recovnet.errors import ConfigError


class TestPolygons:
    def test_open_ring_rejected(self):
        with pytest.raises(DataError, match="not closed"):
            Polygons.from_coordinates(["u"], [[[(0, 0), (1, 0), (1, 1), (0, 1)]]], "f")

    def test_short_ring_rejected(self):
        with pytest.raises(DataError, match=">= 4"):
            Polygons.from_coordinates(["u"], [[[(0, 0), (1, 0), (0, 0)]]], "f")

    def test_unit_without_rings_named(self):
        with pytest.raises(DataError, match=r"f: feature 1 \('u'\): no rings"):
            Polygons.from_coordinates(["ok", "u"], [square("ok", 0, 0)[1], []], "f")

    def test_columns(self):
        table = polygons([square("a", 0, 0), ("b", [[(5, 5), (6, 5), (5, 6), (5, 5)],
                                                   [(5.2, 5.2), (5.4, 5.2), (5.2, 5.4), (5.2, 5.2)]])])
        assert len(table) == 2 and table.ids == ("a", "b")
        assert table.xy.dtype == np.float64 and table.xy.shape == (13, 2)
        assert table.offsets.tolist() == [0, 5, 9, 13]
        assert table.ring_unit.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("rings", [
        [[("0", "0"), ("1", "0"), ("1", "1"), ("0", "0")]],  # strings
        [["10", "11", "01", "10"]],  # two-character strings, not pairs
        [[(True, False), (1, 0), (1, 1), (True, False)]],  # booleans
        [[(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)]],  # 3-D positions
        [[(0, 10**400), (1, 0), (1, 1), (0, 10**400)]],  # past the float range
        [(0, 0), (1, 0), (1, 1), (0, 0)],  # a ring where the rings go
    ])
    def test_positions_must_be_number_pairs(self, rings):
        with pytest.raises(DataError, match=r"f: feature 1 \('bad'\): coordinates must be rings of \[x, y\]"):
            Polygons.from_coordinates(["ok", "bad"], [square("ok", 0, 0)[1], rings], "f")


class TestContiguity:
    def test_grid3x3_queen(self, grid3x3):
        g = build_contiguity_graph(polygons(grid3x3), ContiguityRule("queen"))
        assert g.n == 9
        assert g.m == 20
        assert len(g.neighbors("c11")) == 8  # center touches everything

    def test_grid3x3_rook_and_bishop(self, grid3x3):
        rook = build_contiguity_graph(polygons(grid3x3), ContiguityRule("rook"))
        bishop = build_contiguity_graph(polygons(grid3x3), ContiguityRule("bishop"))
        assert rook.m == 12
        assert bishop.m == 8
        assert len(bishop.neighbors("c00")) == 1  # corners touch one diagonal
        assert len(bishop.neighbors("c11")) == 4

    def test_matches_pairwise_oracle(self, grid3x3):
        queen_o, rook_o, bishop_o = oracles.contiguity_edges(grid3x3)
        for kind, expected in (("queen", queen_o), ("rook", rook_o), ("bishop", bishop_o)):
            g = build_contiguity_graph(polygons(grid3x3), ContiguityRule(kind))
            assert set(g.edges) == expected

    @pytest.mark.parametrize("rows,cols", [(1, 4), (2, 5), (4, 4)])
    def test_oracle_agreement_other_grids(self, rows, cols):
        units = square_grid(rows, cols)
        queen_o, rook_o, bishop_o = oracles.contiguity_edges(units)
        assert set(build_contiguity_graph(polygons(units), ContiguityRule("queen")).edges) == queen_o
        assert set(build_contiguity_graph(polygons(units), ContiguityRule("rook")).edges) == rook_o
        assert set(build_contiguity_graph(polygons(units), ContiguityRule("bishop")).edges) == bishop_o

    def test_queen_is_rook_union_bishop(self, grid3x3):
        queen = set(build_contiguity_graph(polygons(grid3x3), ContiguityRule("queen")).edges)
        rook = set(build_contiguity_graph(polygons(grid3x3), ContiguityRule("rook")).edges)
        bishop = set(build_contiguity_graph(polygons(grid3x3), ContiguityRule("bishop")).edges)
        assert queen == rook | bishop
        assert not rook & bishop

    def test_single_polygon(self):
        g = build_contiguity_graph(polygons([square("only", 0, 0)]), ContiguityRule("queen"))
        assert g.n == 1
        assert g.m == 0

    def test_permutation_invariant(self, grid3x3):
        forward = build_contiguity_graph(polygons(grid3x3), ContiguityRule("queen"))
        backward = build_contiguity_graph(polygons(grid3x3[::-1]), ContiguityRule("queen"))
        assert set(forward.edges) == set(backward.edges)

    def test_snapping_bridges_small_gaps(self):
        apart = [square("a", 0, 0), square("b", 1.001, 0)]
        exact = build_contiguity_graph(polygons(apart), ContiguityRule("queen"))
        assert exact.m == 0
        snapped = build_contiguity_graph(polygons(apart), ContiguityRule("queen", snap_tolerance=0.01))
        assert snapped.m == 1

    def test_shared_corners_without_segment_are_not_rook(self):
        # staircase polygons meeting at two separate corner points
        zig = ("zig", [[(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 0)]])
        block = ("block", [[(2, 1), (3, 1), (3, 3), (1, 3), (1, 2), (2, 2), (2, 1)]])
        queen = build_contiguity_graph(polygons([zig, block]), ContiguityRule("queen"))
        rook = build_contiguity_graph(polygons([zig, block]), ContiguityRule("rook"))
        assert queen.m == 1
        assert rook.m == 0

    def test_missing_geometry_names_unit(self):
        units = [square("ok", 0, 0), ("bare", [])]
        with pytest.raises(DataError, match="bare"):
            build_contiguity_graph(polygons(units), ContiguityRule("queen"))

    def test_duplicate_id_rejected(self):
        units = [square("dup", 0, 0), square("dup", 5, 5)]
        with pytest.raises(DataError, match="dup"):
            build_contiguity_graph(polygons(units), ContiguityRule("queen"))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="snap_tolerance"):
            ContiguityRule("queen", snap_tolerance=-0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            ContiguityRule("king")


# coordinates that often coincide: halves and quarters (halves of the
# tolerances below, which round to even), a -0.0 beside 0.0, ints beside
# floats, and values a tolerance apart that snap to one key
COORDINATES = (0, 0.0, -0.0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 2.0, 2.5, 0.3, 1.7, 1.05)


@st.composite
def unit_collections(draw):
    """Up to 6 units on a few shared coordinates, in a random order: each an
    irregular outer ring of 4-12 positions and up to two holes. Repeated
    positions make segments that collapse, and shared single positions
    make units that touch at one vertex only."""
    position = st.tuples(st.sampled_from(COORDINATES), st.sampled_from(COORDINATES))
    units = []
    for k in range(draw(st.integers(1, 6))):
        rings = []
        for _ in range(draw(st.integers(1, 3))):
            ring = draw(st.lists(position, min_size=3, max_size=11))
            rings.append(ring + [ring[0]])
        units.append((f"u{k}", rings))
    return draw(st.permutations(units)), draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 0.25)))


class TestContiguityAgainstOracle:
    """The columnar build against the pairwise oracle, which snaps with
    round() itself and shares no code with the package."""

    @given(unit_collections())
    @settings(max_examples=300, deadline=None)
    def test_edges_match_pairwise_tests(self, case):
        units, tolerance = case
        expected = dict(zip(("queen", "rook", "bishop"),
                            oracles.contiguity_edges(units, tolerance)))
        table = polygons(units)
        for kind, edges in expected.items():
            g = build_contiguity_graph(table, ContiguityRule(kind, tolerance))
            assert g.nodes == tuple(u for u, _ in units)
            assert set(g.edges) == edges, kind
            assert g.edges == tuple(sorted(edges)), kind

    def test_zero_and_negative_zero_are_one_vertex(self):
        """np.unique(..., axis=0) over the bytes of the rows would keep
        (0.0, 0.0) and (-0.0, 0.0) apart."""
        left = ("left", [[(-1, 0), (-0.0, 0), (0, 1), (-1, 0)]])
        right = ("right", [[(0.0, 0), (1, 0), (0.0, 1), (0.0, 0)]])
        corner = ("corner", [[(-0.0, -0.0), (-1, -1), (0, -1), (-0.0, -0.0)]])
        for tolerance in (0.0, 1.0):
            g = build_contiguity_graph(polygons([left, right, corner]),
                                       ContiguityRule("queen", tolerance))
            assert g.edges == (("corner", "left"), ("corner", "right"), ("left", "right"))
            rook = build_contiguity_graph(polygons([left, right, corner]),
                                          ContiguityRule("rook", tolerance))
            assert rook.edges == (("left", "right"),)

    def test_snapping_rounds_halves_to_even(self):
        """At tolerance 1, 0.5 and -0.5 round to 0 and 1.5 and 2.5 to 2, as
        round() rounds them."""
        a = ("a", [[(0.5, 9), (1.5, 9), (1.5, 8), (0.5, 9)]])
        b = ("b", [[(-0.5, 9), (2.5, 9), (2.5, 7), (-0.5, 9)]])
        c = ("c", [[(3.5, 0), (4.5, 0), (4.5, 1), (3.5, 0)]])
        units = [a, b, c]
        rook = build_contiguity_graph(polygons(units), ContiguityRule("rook", 1.0))
        assert set(rook.edges) == oracles.contiguity_edges(units, 1.0)[1] == {("a", "b")}

    @pytest.mark.parametrize("tolerance", [1e-320, 5e-324])
    def test_tolerance_too_small_for_a_coordinate_named(self, tolerance):
        with pytest.raises(ConfigError, match="snap_tolerance .* too small: coordinate 1.0"):
            build_contiguity_graph(polygons([square("a", 0, 0)]),
                                   ContiguityRule("queen", tolerance))
        assert build_contiguity_graph(polygons([square("a", 0, 0)[:1] + ([[(0, 0)] * 4],)]),
                                      ContiguityRule("queen", tolerance)).m == 0

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.5])
    def test_tolerance_not_finite_rejected(self, tolerance):
        with pytest.raises(ConfigError, match="snap_tolerance must be finite and >= 0"):
            ContiguityRule("queen", tolerance)


class TestLoadEdgeList:
    def test_path(self):
        g = graph_of(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert [len(g.neighbors(n)) for n in g.nodes] == [1, 2, 1]

    def test_isolate(self):
        g = graph_of(["A"], [])
        assert g.neighbors("A") == frozenset()
        assert g.m == 0

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            graph_of(["A", "B"], [("A", "A")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match="duplicate edge"):
            graph_of(["A", "B"], [("A", "B"), ("B", "A")])

    def test_built_from_node_indices(self):
        g = SpatialGraph(["c", "a", "b"], np.array([0, 2, 1]), [1, 0, 2])
        assert g.edges == (("a", "b"), ("a", "c"), ("b", "c"))
        assert g.src.tolist() == [1, 1, 2] and g.dst.tolist() == [2, 0, 0]
        assert g.m == 3 and g.degrees.tolist() == [2, 2, 2]

    @pytest.mark.parametrize("heads,tails", [([0, 3], [1, 0]), ([-1], [0]), ([0, 1], [1])])
    def test_ends_that_are_not_node_indices_rejected(self, heads, tails):
        with pytest.raises(ValueError, match="node indices < 3"):
            SpatialGraph(["a", "b", "c"], heads, tails)

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 15)
        for u in g.nodes:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


EDGE_FAULTS = ("self_loop", "repeat", "reversed_repeat")


@st.composite
def edge_lists(draw):
    """Node ids in an unsorted order (some padded with spaces, some isolated)
    and a shuffled edge list in mixed orientations, an endpoint sometimes
    given as an int that str() turns into a node id; up to two planted
    faults (a self-loop, a repeated edge in either orientation) at random
    positions, or a repeated node id."""
    pool = ["n0", "n1", "n2", "n10", " n1", "n1 ", "a", "B", "b", "3", "17", "é"]
    nodes = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    edges = [tuple(int(x) if x.isdigit() and draw(st.booleans()) else x for x in e) for e in edges]
    for fault in draw(st.lists(st.sampled_from(EDGE_FAULTS), max_size=2)):
        node = draw(st.sampled_from(nodes))
        if fault == "self_loop":
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
                graph_of(nodes, edges)
            assert str(raised.value) == str(exc)
            return
        g = graph_of(nodes, iter(edges))
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
        metrics = graph_metrics(graph_of(nodes, sorted(edges)))
        assert metrics["avg_degree"] == pytest.approx(6.049, abs=1e-3)
        assert metrics["density"] == pytest.approx(0.00301, abs=1e-5)

    def test_triangle(self):
        g = graph_of(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        metrics = graph_metrics(g)
        assert metrics["avg_degree"] == 2.0
        assert metrics["density"] == 1.0

    def test_grid3x3_queen(self, grid3x3):
        metrics = graph_metrics(build_contiguity_graph(polygons(grid3x3), ContiguityRule("queen")))
        assert metrics["avg_degree"] == pytest.approx(40 / 9)
        assert metrics["density"] == pytest.approx(20 / 36)
        assert metrics["degree_histogram"] == {3: 4, 5: 4, 8: 1}

    def test_single_node_density_zero(self):
        metrics = graph_metrics(graph_of(["A"], []))
        assert metrics["avg_degree"] == 0.0
        assert metrics["density"] == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            graph_metrics(graph_of([], []))

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_formulas_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        metrics = graph_metrics(g)
        assert metrics["avg_degree"] == 2 * g.m / g.n
        assert metrics["density"] == 2 * g.m / (g.n * (g.n - 1))
        assert sum(metrics["degree_histogram"].values()) == g.n
        assert metrics["n"] == g.n and metrics["m"] == g.m
