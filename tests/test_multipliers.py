from __future__ import annotations

import numpy as np
import pytest

from conftest import chunked, graph_of
from recovnet import (
    GaConfig,
    MultiplierProblem,
    SynthSpec,
    brute_force_multipliers,
    generate_instance,
    increment_rate,
    run_diffusion,
    search_multipliers,
)
from recovnet.errors import ConfigError, DataError


@pytest.fixture
def path_problem(path_graph):
    return MultiplierProblem(graph=path_graph, thresholds=np.array([0.6, 0.5, 1.0]))


def _search(search, problem, size, pool):
    if search == "ga":
        [result] = search_multipliers(problem, [size], GaConfig(population_size=4,
                                                                max_iterations=5), pool)
        return result
    return brute_force_multipliers(problem, size, pool)


def recovered(problem, members):
    """Horizon recovered count with the named nodes forced at week 0."""
    indices = np.array([[problem.graph.index[n] for n in members]], dtype=np.int64)
    return problem.recovered(indices)[0]


class TestMultiplierObjective:
    def test_forcing_the_end_cascades(self, path_problem):
        assert recovered(path_problem, ["A"]) == 3

    def test_nothing_recovers_without_forcing(self, path_problem):
        assert recovered(path_problem, []) == 0

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_unforced_run_is_the_empty_set(self, seed):
        instance = generate_instance(SynthSpec(node_count=25, rng_seed=seed))
        problem = MultiplierProblem(graph=instance.graph, thresholds=instance.thresholds)
        assert problem.recovered_without == recovered(problem, [])
        assert problem.recovered_without > 0
        assert problem.unforced_weeks.tolist() == run_diffusion(
            instance.graph, instance.thresholds
        ).tolist()

    def test_forcing_everything(self, path_graph):
        problem = MultiplierProblem(graph=path_graph, thresholds=np.ones(3))
        assert recovered(problem, ["A", "B", "C"]) == 3

    def test_bad_size_rejected(self, path_graph):
        problem = MultiplierProblem(graph=path_graph, thresholds=np.zeros(3))
        for search in ("ga", "brute-force"):
            for size, pool in [(4, None), (0, None), (3, ("A", "B")), (1, ())]:
                with pytest.raises(ConfigError, match="size"):
                    _search(search, problem, size, pool)

    def test_unknown_pool_node_rejected(self, path_graph):
        problem = MultiplierProblem(graph=path_graph, thresholds=np.zeros(3))
        for search in ("ga", "brute-force"):
            with pytest.raises(DataError, match="unknown"):
                _search(search, problem, 1, ("A", "Z"))

    def test_duplicate_pool_node_rejected(self, path_graph):
        problem = MultiplierProblem(graph=path_graph, thresholds=np.zeros(3))
        for search in ("ga", "brute-force"):
            with pytest.raises(DataError, match="duplicate"):
                _search(search, problem, 1, ("A", "B", "A"))


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
        result = brute_force_multipliers(path_problem, 1)
        assert result.members == ("A",)
        assert result.recovered_with == 3

    def test_full_pool(self, path_graph):
        problem = MultiplierProblem(graph=path_graph, thresholds=np.ones(3))
        result = brute_force_multipliers(problem, 3)
        assert result.members == ("A", "B", "C")
        assert result.recovered_with == 3

    def test_small_graph_runs_wide_calls(self):
        """At n = 40 a call is CHUNK_CELLS // 40 = 1 638 columns: size 3's
        9 880 subsets take 6 calls, the last with the 52 left over, after
        the unforced run's one."""
        instance = generate_instance(SynthSpec(node_count=40, rng_seed=1))
        problem = MultiplierProblem(instance.graph, instance.thresholds)
        brute_force_multipliers(problem, 3)
        assert problem.kernel.calls == {1: 1, 1638: 5, 1690: 1}

    def test_cap_enforced(self, path_problem):
        with pytest.raises(ConfigError, match="cap"):
            brute_force_multipliers(path_problem, 1, enumeration_cap=2)

    def test_increment_rate_none_when_nothing_recovers_naturally(self, path_problem):
        result = brute_force_multipliers(path_problem, 1)
        assert result.recovered_without == 0
        assert result.increment_rate is None


class TestSearchMultipliers:
    def test_matches_brute_force_on_ten_nodes(self):
        instance = generate_instance(
            SynthSpec(node_count=10, seed_fraction=0.1, threshold_low=0.3,
                      threshold_high=0.9, rng_seed=5)
        )
        problem = MultiplierProblem(graph=instance.graph, thresholds=instance.thresholds)
        exact = brute_force_multipliers(problem, 2)
        config = GaConfig(population_size=10, max_iterations=2000, rng_seed=0)
        [searched] = search_multipliers(problem, [2], config)
        assert searched.recovered_with == exact.recovered_with

    def test_respects_candidate_pool(self, path_graph):
        problem = MultiplierProblem(graph=path_graph, thresholds=np.array([0.6, 0.5, 1.0]))
        config = GaConfig(population_size=4, max_iterations=50, rng_seed=1)
        [result] = search_multipliers(problem, [1], config, ("B", "C"))
        assert set(result.members) <= {"B", "C"}
        # B and C tie (each recovers all three): the pool's first in sorted order wins
        assert brute_force_multipliers(problem, 1, ("C", "B")).members == ("B",)

    def test_beats_random_sets(self):
        instance = generate_instance(
            SynthSpec(node_count=25, seed_fraction=0.08, threshold_low=0.4,
                      threshold_high=0.95, rng_seed=9)
        )
        problem = MultiplierProblem(graph=instance.graph, thresholds=instance.thresholds)
        config = GaConfig(population_size=8, max_iterations=300, rng_seed=2)
        [result] = search_multipliers(problem, [3], config)
        rng = np.random.default_rng(0)
        for _ in range(20):
            members = rng.choice(instance.graph.nodes, size=3, replace=False)
            assert recovered(problem, members) <= result.recovered_with

    def test_increment_rate_consistent(self):
        instance = generate_instance(SynthSpec(node_count=16, rng_seed=2))
        problem = MultiplierProblem(graph=instance.graph, thresholds=instance.thresholds)
        config = GaConfig(population_size=6, max_iterations=100, rng_seed=3)
        [result] = search_multipliers(problem, [2], config)
        assert result.recovered_with >= result.recovered_without
        if result.recovered_without > 0:
            assert result.increment_rate == pytest.approx(
                increment_rate(result.recovered_with, result.recovered_without)
            )


class TestLockstepSearch:
    """Several sizes searched in one call: each size's result is that of a
    search of its size alone with the same config."""

    @pytest.fixture
    def problem(self):
        instance = generate_instance(
            SynthSpec(node_count=20, seed_fraction=0.1, threshold_low=0.3,
                      threshold_high=0.9, rng_seed=4)
        )
        return MultiplierProblem(graph=instance.graph, thresholds=instance.thresholds)

    @pytest.mark.parametrize("sizes", [(1, 2, 3), (2, 5)])
    @pytest.mark.parametrize("pool", ["all", "unrecovered", "five"])
    def test_each_size_as_if_alone(self, problem, sizes, pool):
        unrecovered = tuple(n for n, w in zip(problem.graph.nodes, problem.unforced_weeks) if not w)
        # five: a pool as large as the largest size of (2, 5)
        pool = {"all": None, "unrecovered": unrecovered, "five": unrecovered[:5]}[pool]
        config = GaConfig(population_size=6, max_iterations=30, elitism_count=2, rng_seed=4)
        together = search_multipliers(problem, sizes, config, pool)
        assert [len(result.members) for result in together] == list(sizes)
        for result in together:
            [alone] = search_multipliers(problem, [len(result.members)], config, pool)
            assert result.members == alone.members
            assert result.recovered_with == alone.recovered_with
            assert result.ga_result.best_fitness == alone.ga_result.best_fitness
            assert np.array_equal(result.ga_result.history, alone.ga_result.history)
            assert result.ga_result.rows_scored == alone.ga_result.rows_scored == 6 + 29 * 4

    def test_one_recovered_call_per_generation(self, problem):
        """Sets of sizes 1, 2 and 3 share each kernel call; the unforced run
        made the first."""
        config = GaConfig(population_size=6, max_iterations=8, rng_seed=1)
        search_multipliers(problem, (1, 2, 3), config)
        assert problem.kernel.calls == {1: 1, 18: 1, 15: 7}

    def test_ragged_rows_score_as_separate_calls(self, problem):
        """Sets of sizes 0, 1 and 4 in calls of 1, 3 and 5 columns: calls
        split a matrix and join matrices of different sizes, and every count
        is that of its set alone."""
        rng = np.random.default_rng(3)
        sets = [np.array([np.sort(rng.permutation(problem.graph.n)[:k]) for _ in range(4)],
                         dtype=np.int64).reshape(4, k) for k in (0, 1, 4)]
        alone = [problem.recovered(row[None, :])[0] for rows in sets for row in rows]
        for chunk, calls in ((1, {1: 12}), (3, {3: 4}), (5, {5: 2, 2: 1})):
            before = problem.kernel.calls.copy()
            with chunked(chunk):
                together = problem.recovered(*sets)
            assert problem.kernel.calls - before == calls, chunk
            assert together.tolist() == alone, chunk


class TestSeedDominance:
    def test_supersets_never_hurt(self):
        instance = generate_instance(
            SynthSpec(node_count=20, seed_fraction=0.1, threshold_low=0.3,
                      threshold_high=0.9, rng_seed=4)
        )
        graph = instance.graph
        problem = MultiplierProblem(graph=graph, thresholds=instance.thresholds)
        rng = np.random.default_rng(8)
        for _ in range(15):
            k = int(rng.integers(1, 5))
            base = set(rng.choice(graph.nodes, size=k, replace=False).tolist())
            extra = str(rng.choice([n for n in graph.nodes if n not in base]))
            assert recovered(problem, base | {extra}) >= recovered(problem, base)


class TestBruteForceChunks:
    """Forcing n2 or n3 recovers both, as does forcing n6 or n7; every
    other node stays alone. Ties fall in different chunks for every chunk
    size, and the lexicographically first subset must win."""

    @pytest.fixture
    def tied_problem(self):
        nodes = [f"n{i}" for i in range(10)]
        graph = graph_of(nodes, [("n2", "n3"), ("n6", "n7")])
        return graph, np.ones(10)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7, 100])
    @pytest.mark.parametrize("size,expected,value", [
        (1, ("n2",), 2),
        (2, ("n2", "n6"), 4),
    ])
    def test_first_maximum_kept_across_chunks(self, tied_problem, chunk, size, expected, value):
        graph, thresholds = tied_problem
        problem = MultiplierProblem(graph=graph, thresholds=thresholds)
        with chunked(chunk):
            result = brute_force_multipliers(problem, size)
        assert result.members == expected
        assert result.recovered_with == value
