from __future__ import annotations

import numpy as np
import pytest

from recovnet import (
    GaConfig,
    MultiplierProblem,
    SynthSpec,
    ThresholdVector,
    brute_force_multipliers,
    generate_instance,
    increment_rate,
    multiplier_objective,
    natural_outcome,
    search_multipliers,
)
from recovnet.errors import ConfigError, DataError


@pytest.fixture
def path_problem(path_graph):
    tau = ThresholdVector(node_ids=path_graph.nodes, values=np.array([0.6, 0.5, 1.0]))
    return MultiplierProblem(graph=path_graph, thresholds=tau, size=1)


class TestMultiplierObjective:
    def test_forcing_the_end_cascades(self, path_problem):
        assert multiplier_objective(["A"], path_problem) == 3

    def test_nothing_recovers_without_forcing(self, path_problem):
        assert natural_outcome(path_problem) == 0

    def test_forcing_everything(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.ones(3))
        problem = MultiplierProblem(graph=path_graph, thresholds=tau, size=3)
        assert multiplier_objective(["A", "B", "C"], problem) == 3

    def test_wrong_size_rejected(self, path_problem):
        with pytest.raises(ValueError, match="exactly 1"):
            multiplier_objective(["A", "B"], path_problem)

    def test_out_of_pool_rejected(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.zeros(3))
        problem = MultiplierProblem(
            graph=path_graph, thresholds=tau, size=1, candidate_pool=("A", "B")
        )
        with pytest.raises(ValueError, match="pool"):
            multiplier_objective(["C"], problem)

    def test_bad_size_rejected(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.zeros(3))
        with pytest.raises(ConfigError, match="size"):
            MultiplierProblem(graph=path_graph, thresholds=tau, size=4)

    def test_unknown_pool_node_rejected(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.zeros(3))
        with pytest.raises(DataError, match="unknown"):
            MultiplierProblem(
                graph=path_graph, thresholds=tau, size=1, candidate_pool=("A", "Z")
            )


class TestIncrementRate:
    def test_no_gain_is_zero(self):
        assert increment_rate(1609, 1609) == 0.0

    def test_reported_low_end(self):
        assert increment_rate(1705, 1609) == pytest.approx(5.966, abs=5e-3)
        assert round(increment_rate(1705, 1609), 2) == 5.97

    def test_reported_high_end_inversion(self):
        recovered = 1609 * (1 + 15.27 / 100)
        assert recovered == pytest.approx(1854.69, abs=0.01)
        assert round(recovered) == 1855
        assert increment_rate(recovered, 1609) == pytest.approx(15.27)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="recovered_without"):
            increment_rate(5, 0)


class TestBruteForce:
    def test_singleton_tie_breaks_lexicographically(self, path_problem):
        result = brute_force_multipliers(path_problem)
        assert result.members == ("A",)
        assert result.recovered_with == 3

    def test_full_pool(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.ones(3))
        problem = MultiplierProblem(graph=path_graph, thresholds=tau, size=3)
        result = brute_force_multipliers(problem)
        assert result.members == ("A", "B", "C")
        assert result.recovered_with == 3

    def test_cap_enforced(self, path_problem):
        with pytest.raises(ConfigError, match="cap"):
            brute_force_multipliers(path_problem, enumeration_cap=2)

    def test_increment_rate_none_when_nothing_recovers_naturally(self, path_problem):
        result = brute_force_multipliers(path_problem)
        assert result.recovered_without == 0
        assert result.increment_rate is None


class TestSearchMultipliers:
    def test_matches_brute_force_on_ten_nodes(self):
        instance = generate_instance(
            SynthSpec(node_count=10, seed_fraction=0.1, threshold_low=0.3,
                      threshold_high=0.9, rng_seed=5)
        )
        problem = MultiplierProblem(
            graph=instance.graph, thresholds=instance.thresholds, size=2
        )
        exact = brute_force_multipliers(problem)
        config = GaConfig(population_size=10, max_iterations=2000, rng_seed=0)
        searched = search_multipliers(problem, config)
        assert searched.recovered_with == exact.recovered_with

    def test_respects_candidate_pool(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.array([0.6, 0.5, 1.0]))
        problem = MultiplierProblem(
            graph=path_graph, thresholds=tau, size=1, candidate_pool=("B", "C")
        )
        config = GaConfig(population_size=4, max_iterations=50, rng_seed=1)
        result = search_multipliers(problem, config)
        assert set(result.members) <= {"B", "C"}

    def test_beats_random_sets(self):
        instance = generate_instance(
            SynthSpec(node_count=25, seed_fraction=0.08, threshold_low=0.4,
                      threshold_high=0.95, rng_seed=9)
        )
        problem = MultiplierProblem(
            graph=instance.graph, thresholds=instance.thresholds, size=3
        )
        config = GaConfig(population_size=8, max_iterations=300, rng_seed=2)
        result = search_multipliers(problem, config)
        rng = np.random.default_rng(0)
        for _ in range(20):
            members = rng.choice(instance.graph.nodes, size=3, replace=False)
            assert multiplier_objective(members, problem) <= result.recovered_with

    def test_increment_rate_consistent(self):
        instance = generate_instance(SynthSpec(node_count=16, rng_seed=2))
        problem = MultiplierProblem(
            graph=instance.graph, thresholds=instance.thresholds, size=2
        )
        config = GaConfig(population_size=6, max_iterations=100, rng_seed=3)
        result = search_multipliers(problem, config)
        assert result.recovered_with >= result.recovered_without
        if result.recovered_without > 0:
            assert result.increment_rate == pytest.approx(
                increment_rate(result.recovered_with, result.recovered_without)
            )


class TestSeedDominance:
    def test_supersets_never_hurt(self):
        instance = generate_instance(
            SynthSpec(node_count=20, seed_fraction=0.1, threshold_low=0.3,
                      threshold_high=0.9, rng_seed=4)
        )
        graph, tau = instance.graph, instance.thresholds
        rng = np.random.default_rng(8)
        for _ in range(15):
            k = int(rng.integers(1, 5))
            base = set(rng.choice(graph.nodes, size=k, replace=False).tolist())
            extra = str(rng.choice([n for n in graph.nodes if n not in base]))
            small = MultiplierProblem(graph=graph, thresholds=tau, size=k)
            big = MultiplierProblem(graph=graph, thresholds=tau, size=k + 1)
            assert multiplier_objective(base | {extra}, big) >= multiplier_objective(
                base, small
            )


class TestBruteForceChunks:
    """Forcing n2 or n3 recovers both, as does forcing n6 or n7; every
    other node stays alone. Ties fall in different chunks for every chunk
    size, and the lexicographically first subset must win."""

    @pytest.fixture
    def tied_problem(self):
        from recovnet import load_edge_list

        nodes = [f"n{i}" for i in range(10)]
        graph = load_edge_list(nodes, [("n2", "n3"), ("n6", "n7")])
        tau = ThresholdVector(node_ids=graph.nodes, values=np.ones(10))
        return graph, tau

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7, 100])
    @pytest.mark.parametrize("size,expected,value", [
        (1, ("n2",), 2),
        (2, ("n2", "n6"), 4),
    ])
    def test_first_maximum_kept_across_chunks(self, tied_problem, chunk, size, expected, value):
        from unittest import mock

        from recovnet import diffusion

        graph, tau = tied_problem
        problem = MultiplierProblem(graph=graph, thresholds=tau, size=size)
        with mock.patch.object(diffusion, "CHUNK_CELLS", graph.n * chunk):
            result = brute_force_multipliers(problem)
        assert result.members == expected
        assert result.recovered_with == value
