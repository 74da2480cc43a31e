from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovnet import (
    GaConfig,
    PerformanceRecord,
    RealVectorEncoding,
    SubsetEncoding,
    performance_index,
    run_ga,
)
from recovnet.errors import ConfigError
from recovnet.ga import FitnessEvaluationError


def sphere(x: np.ndarray) -> float:
    return float(np.sum(x))


class TestGaConfig:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError, match="max_iterations"):
            GaConfig(max_iterations=0)

    def test_tiny_population_rejected(self):
        with pytest.raises(ConfigError, match="population_size"):
            GaConfig(population_size=1)

    def test_elitism_below_population(self):
        with pytest.raises(ConfigError, match="elitism"):
            GaConfig(population_size=4, elitism_count=4)

    @pytest.mark.parametrize("prob", [-0.1, 1.1])
    def test_probabilities_bounded(self, prob):
        with pytest.raises(ConfigError):
            GaConfig(crossover_prob=prob)
        with pytest.raises(ConfigError):
            GaConfig(mutation_prob=prob)


class TestRealVectorGa:
    def test_sphere_minimization(self):
        config = GaConfig(population_size=10, max_iterations=200, rng_seed=0)
        result = run_ga(sphere, "minimize", RealVectorEncoding(5), config)
        assert result.best_fitness <= 0.05
        assert result.best_fitness == pytest.approx(sphere(result.best_chromosome))

    def test_maximize_direction(self):
        config = GaConfig(population_size=10, max_iterations=100, rng_seed=1)
        result = run_ga(sphere, "maximize", RealVectorEncoding(4), config)
        assert result.best_fitness >= 3.8

    def test_single_generation_is_best_of_random_population(self):
        config = GaConfig(population_size=10, max_iterations=1, rng_seed=42)
        result = run_ga(sphere, "minimize", RealVectorEncoding(6), config)
        # replay the generator: the initial population is drawn first
        rng = np.random.default_rng(42)
        population = [rng.random(6) for _ in range(10)]
        assert result.best_fitness == min(sphere(c) for c in population)
        assert len(result.history) == 1

    def test_reproducible(self):
        config = GaConfig(population_size=8, max_iterations=50, rng_seed=7)
        a = run_ga(sphere, "minimize", RealVectorEncoding(5), config)
        b = run_ga(sphere, "minimize", RealVectorEncoding(5), config)
        assert np.array_equal(a.best_chromosome, b.best_chromosome)
        assert [r.best_fitness for r in a.history] == [r.best_fitness for r in b.history]

    def test_elitism_keeps_population_best_monotone(self):
        config = GaConfig(population_size=10, max_iterations=120, rng_seed=3)
        result = run_ga(sphere, "minimize", RealVectorEncoding(5), config)
        best = [r.best_fitness for r in result.history]
        assert all(b <= a + 1e-12 for a, b in zip(best, best[1:]))

    def test_direction_validated(self):
        with pytest.raises(ConfigError, match="direction"):
            run_ga(sphere, "up", RealVectorEncoding(3), GaConfig())

    def test_fitness_error_carries_chromosome(self):
        def broken(x):
            raise RuntimeError("boom")

        with pytest.raises(FitnessEvaluationError) as info:
            run_ga(broken, "minimize", RealVectorEncoding(3), GaConfig(max_iterations=1))
        assert info.value.chromosome.shape == (3,)


class TestSubsetGa:
    def test_recovers_target_subset(self):
        target = {2, 9, 14}

        def overlap(chromosome: np.ndarray) -> float:
            return float(len(target & set(chromosome.tolist())))

        config = GaConfig(population_size=10, max_iterations=500, rng_seed=5)
        result = run_ga(overlap, "maximize", SubsetEncoding(20, 3), config)
        assert result.best_fitness == 3.0
        assert set(result.best_chromosome.tolist()) == target

    def test_full_pool_subset(self):
        config = GaConfig(population_size=4, max_iterations=2, rng_seed=0)
        result = run_ga(
            lambda c: float(c.sum()), "maximize", SubsetEncoding(4, 4), config
        )
        assert sorted(result.best_chromosome.tolist()) == [0, 1, 2, 3]


class TestOperators:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_real_genes_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        enc = RealVectorEncoding(8)
        a, b = enc.random(rng), enc.random(rng)
        c1, c2 = enc.crossover(a, b, rng)
        m = enc.mutate(c1, rng, 0.6)
        for vec in (c1, c2, m):
            assert np.all((vec >= 0.0) & (vec <= 1.0))
        # crossover only rearranges genes
        assert sorted(np.concatenate([c1, c2])) == pytest.approx(
            sorted(np.concatenate([a, b]))
        )

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_size_preserved(self, size, seed):
        rng = np.random.default_rng(seed)
        pool = size + int(rng.integers(0, 10))
        enc = SubsetEncoding(pool, size)
        a, b = enc.random(rng), enc.random(rng)
        c1, c2 = enc.crossover(a, b, rng)
        m = enc.mutate(c1, rng, 1.0)
        for chromosome in (a, b, c1, c2, m):
            values = chromosome.tolist()
            assert len(values) == size
            assert len(set(values)) == size
            assert all(0 <= v < pool for v in values)
            assert values == sorted(values)

    def test_subset_crossover_draws_from_union(self):
        rng = np.random.default_rng(2)
        enc = SubsetEncoding(30, 4)
        a, b = enc.random(rng), enc.random(rng)
        union = set(a.tolist()) | set(b.tolist())
        for _ in range(20):
            c1, c2 = enc.crossover(a, b, rng)
            assert set(c1.tolist()) <= union
            assert set(c2.tolist()) <= union

    def test_subset_mutation_swaps_one_member(self):
        rng = np.random.default_rng(9)
        enc = SubsetEncoding(25, 5)
        x = enc.random(rng)
        mutated = enc.mutate(x, rng, 1.0)
        assert len(set(x.tolist()) & set(mutated.tolist())) == 4


class TestPerformanceIndex:
    def test_no_descent_gives_zero(self):
        record = performance_index(100.0, 100.0, 50, 10.0)
        assert record.loss_descent_per_generation == 0.0
        assert record.index == 0.0

    def test_reported_run_arithmetic(self):
        # 6569.835 -> 2752 over 10,000 generations
        record = performance_index(6569.835, 2752.0, 10_000, 3600.0)
        assert record.loss_descent_per_generation == pytest.approx(0.3817835)

    def test_simple_ratio(self):
        record = performance_index(120.0, 100.0, 2, 4.0)
        assert record == PerformanceRecord(
            loss_descent_per_generation=10.0, seconds_per_generation=2.0, index=5.0
        )

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ConfigError, match="total_seconds"):
            performance_index(10.0, 5.0, 10, 0.0)

    def test_zero_generations_rejected(self):
        with pytest.raises(ConfigError, match="generations"):
            performance_index(10.0, 5.0, 0, 1.0)
