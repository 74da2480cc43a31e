from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats as scipy_stats

from recovnet import (
    SynthSpec,
    build_fit_problem,
    durations_to_weeks,
    generate_instance,
    grid_units,
)
from recovnet.analysis import ATTRIBUTE_NAMES
from recovnet.errors import ConfigError
from recovnet.synthetic import SEED_DURATION_WEEKS


def durations_in_graph_order(instance):
    return [instance.durations[n] for n in instance.graph.nodes]


class TestSynthSpec:
    def test_zero_seed_fraction_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SynthSpec(node_count=50, seed_fraction=0.0)

    def test_threshold_low_must_be_positive(self):
        with pytest.raises(ConfigError, match="threshold_low"):
            SynthSpec(node_count=10, threshold_low=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="graph_kind"):
            SynthSpec(node_count=10, graph_kind="torus")

    def test_bad_coupling_rejected(self):
        with pytest.raises(ConfigError, match="coupling"):
            SynthSpec(node_count=10, attribute_coupling=2.0)


class TestGridUnits:
    def test_count_and_ids_unique(self):
        units = grid_units(13)
        assert len(units) == 13
        assert len(set(units.ids)) == 13

    def test_exact_square(self):
        units = grid_units(25)
        xs = set(units.xy[:, 0].tolist())
        assert max(xs) == 5.0

    @pytest.mark.parametrize("count", [1, 2, 13, 25, 40])
    def test_columns_equal_the_squares_one_at_a_time(self, count):
        """Row-major unit squares, each one closed ring from its lower left
        corner, counter-clockwise."""
        from recovnet import Polygons

        cols = max(1, int(round(count ** 0.5)))
        ids, rings = [], []
        for k in range(count):
            r, c = divmod(k, cols)
            x, y = float(c), float(r)
            ids.append(f"u{k:04d}")
            rings.append([[(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)]])
        expected = Polygons.from_coordinates(ids, rings, "grid")
        units = grid_units(count)
        assert units.ids == expected.ids
        assert units.xy.dtype == expected.xy.dtype
        for column in ("xy", "offsets", "ring_unit"):
            assert getattr(units, column).tolist() == getattr(expected, column).tolist()


class TestGenerateInstance:
    def test_round_trip_identity_when_fully_recovered(self):
        instance = generate_instance(
            SynthSpec(node_count=25, seed_fraction=0.2, threshold_low=0.1,
                      threshold_high=0.6, rng_seed=0)
        )
        assert instance.weeks.all()  # precondition: no capped nodes
        empirical = durations_to_weeks(durations_in_graph_order(instance))
        assert np.array_equal(empirical, instance.weeks)

    def test_planted_fit_loss_is_zero(self):
        instance = generate_instance(SynthSpec(node_count=36, rng_seed=1))
        assert instance.weeks.all()
        problem = build_fit_problem(instance.graph, instance.durations)
        planted = instance.thresholds[~instance.seed_mask]
        assert problem.losses(planted[None])[0] == 0

    def test_planted_loss_equals_capped_count(self):
        # high thresholds strand part of the grid; the cap shows up at week 14
        instance = generate_instance(
            SynthSpec(node_count=36, seed_fraction=0.06, threshold_low=0.55,
                      threshold_high=0.95, rng_seed=3)
        )
        capped = int(np.count_nonzero(instance.weeks == 0))
        assert capped > 0
        problem = build_fit_problem(instance.graph, instance.durations)
        planted = instance.thresholds[~instance.seed_mask]
        assert problem.losses(planted[None])[0] == capped

    def test_all_seeds_recover_at_first_update(self):
        instance = generate_instance(SynthSpec(node_count=9, seed_fraction=1.0, rng_seed=2))
        assert all(v == SEED_DURATION_WEEKS for v in instance.durations.values())
        assert np.all(instance.weeks == 12)  # recovered in weeks 3..14

    def test_durations_within_bounds_and_seed_convention(self):
        instance = generate_instance(SynthSpec(node_count=49, rng_seed=5))
        values = np.array(durations_in_graph_order(instance))
        assert np.all(values > 0) and np.all(values <= 14)
        seeds = instance.seed_mask
        assert np.all(values[seeds] == SEED_DURATION_WEEKS)
        assert np.all(values[seeds] < 3.0)
        assert np.all(values[~seeds] >= 4.0)

    def test_deterministic_per_seed(self):
        spec = SynthSpec(node_count=30, graph_kind="perturbed_grid", rng_seed=11)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert a.graph.edges == b.graph.edges
        assert a.durations == b.durations
        assert np.array_equal(a.thresholds, b.thresholds)
        assert a.attributes.keys() == b.attributes.keys()
        for name, column in a.attributes.items():
            assert column.shape == (a.graph.n,)
            assert np.array_equal(column, b.attributes[name])

    def test_different_seeds_differ(self):
        a = generate_instance(SynthSpec(node_count=30, rng_seed=0))
        b = generate_instance(SynthSpec(node_count=30, rng_seed=1))
        assert a.durations != b.durations


class TestAttributeCoupling:
    @staticmethod
    def free_arrays(instance, attribute):
        free = ~instance.seed_mask
        # attribute columns are in node order, as the thresholds are
        assert instance.thresholds.shape == free.shape == (instance.graph.n,)
        return instance.thresholds[free], instance.attributes[attribute][free]

    def test_perfect_negative_coupling(self):
        instance = generate_instance(
            SynthSpec(node_count=40, attribute_coupling=-1.0, rng_seed=4)
        )
        tau, income = self.free_arrays(instance, "per_capita_income")
        rho = scipy_stats.spearmanr(tau, income).statistic
        assert rho == pytest.approx(-1.0)
        # household income moves with per-capita, minority share mirrors it
        _, household = self.free_arrays(instance, "median_household_income")
        assert scipy_stats.spearmanr(tau, household).statistic == pytest.approx(-1.0)
        _, minority = self.free_arrays(instance, "minority_pct")
        assert scipy_stats.spearmanr(tau, minority).statistic == pytest.approx(1.0)

    def test_partial_coupling_is_directional(self):
        instance = generate_instance(
            SynthSpec(node_count=60, attribute_coupling=-0.8, rng_seed=6)
        )
        tau, income = self.free_arrays(instance, "per_capita_income")
        assert scipy_stats.spearmanr(tau, income).statistic < -0.4

    def test_zero_coupling_is_weak(self):
        instance = generate_instance(
            SynthSpec(node_count=60, attribute_coupling=0.0, rng_seed=7)
        )
        tau, income = self.free_arrays(instance, "per_capita_income")
        assert abs(scipy_stats.spearmanr(tau, income).statistic) < 0.5

    def test_minority_within_bounds(self):
        instance = generate_instance(SynthSpec(node_count=50, rng_seed=8))
        minority = instance.attributes["minority_pct"]
        assert minority.min() >= 0 and minority.max() <= 100


class TestWriteInstance:
    def test_files_round_trip(self, tmp_path):
        from recovnet import io
        from recovnet.synthetic import write_instance

        spec = SynthSpec(node_count=20, rng_seed=13)
        instance = generate_instance(spec)
        write_instance(instance, spec, tmp_path)

        graph = io.read_edge_list(tmp_path / "edges.csv")
        assert set(graph.edges) == set(instance.graph.edges)
        assert io.read_durations(tmp_path / "durations.csv") == instance.durations
        ids, values, seed_mask = io.read_thresholds(tmp_path / "planted_thresholds.csv")
        assert ids == instance.graph.nodes
        assert np.array_equal(values, instance.thresholds)
        assert np.array_equal(seed_mask, instance.seed_mask)
        ids, columns = io.read_attributes(tmp_path / "attributes.csv")
        assert ids == instance.graph.nodes
        assert list(columns) == list(ATTRIBUTE_NAMES)
        for name, column in columns.items():
            assert column.tolist() == instance.attributes[name].tolist()
        recipe = json.loads((tmp_path / "instance.json").read_text())
        assert recipe["node_count"] == 20 and recipe["rng_seed"] == 13


class TestPerturbedGrid:
    def test_connected_with_fewer_edges(self):
        base = generate_instance(SynthSpec(node_count=36, rng_seed=9))
        perturbed = generate_instance(
            SynthSpec(node_count=36, graph_kind="perturbed_grid",
                      edge_removal_fraction=0.2, rng_seed=9)
        )
        assert perturbed.graph.nodes == base.graph.nodes
        assert perturbed.graph.m < base.graph.m

        # still one connected component
        seen = {perturbed.graph.nodes[0]}
        stack = [perturbed.graph.nodes[0]]
        while stack:
            for nbr in perturbed.graph.neighbors(stack.pop()):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        assert len(seen) == perturbed.graph.n

    @pytest.mark.parametrize("node_count,rng_seed", [(40, 1), (40, 1009), (120, 5), (500, 1)])
    def test_removals_match_whole_graph_connectivity_loop(self, node_count, rng_seed):
        """Each removal is decided by a search from one endpoint to the other;
        a loop that re-checks the connectivity of the whole graph after
        every removal must drop exactly the same edges."""
        import math

        from recovnet.graph import ContiguityRule, build_contiguity_graph
        from recovnet.synthetic import _perturb_edges

        def reference(graph, fraction, rng):
            target = int(math.floor(fraction * graph.m + 0.5))
            adjacency = {n: set(graph.neighbors(n)) for n in graph.nodes}
            removed = 0
            for idx in rng.permutation(graph.m):
                if removed == target:
                    break
                u, v = graph.edges[idx]
                adjacency[u].discard(v)
                adjacency[v].discard(u)
                seen, stack = {graph.nodes[0]}, [graph.nodes[0]]
                while stack:
                    for nbr in adjacency[stack.pop()]:
                        if nbr not in seen:
                            seen.add(nbr)
                            stack.append(nbr)
                if len(seen) == graph.n:
                    removed += 1
                else:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
            return {(u, v) for u in graph.nodes for v in adjacency[u] if u < v}

        grid = build_contiguity_graph(grid_units(node_count), ContiguityRule("queen"))
        for fraction in (0.15, 0.6):
            fast = _perturb_edges(grid, fraction, np.random.default_rng(rng_seed))
            slow = reference(grid, fraction, np.random.default_rng(rng_seed))
            assert set(fast.edges) == slow

    @pytest.mark.parametrize("node_count", [1, 2, 4, 9, 25, 40, 101, 400])
    def test_union_find_pass_matches_breadth_first_removals(self, node_count):
        """One union-find pass over the reversed permutation drops exactly
        the edges that trying each in order, with a search between its
        ends, drops; and it draws the same permutation, so the stream
        after it is the same too."""
        import oracles
        from recovnet.graph import ContiguityRule, build_contiguity_graph
        from recovnet.synthetic import _perturb_edges

        grid = build_contiguity_graph(grid_units(node_count), ContiguityRule("queen"))
        for rng_seed in range(8):
            for fraction in (0.0, 0.15, 0.5, 0.9):
                fast_rng, slow_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
                fast = _perturb_edges(grid, fraction, fast_rng)
                assert fast.edges == oracles.bfs_perturb_edges(grid, fraction, slow_rng)
                assert fast_rng.random() == slow_rng.random()
