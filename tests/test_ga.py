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
    run_lockstep,
)
from recovnet.errors import ConfigError
from recovnet.ga import DIRECTIONS, FitnessEvaluationError


def sphere(population: np.ndarray) -> np.ndarray:
    return population.sum(axis=1)


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
        assert result.best_fitness == pytest.approx(sphere(result.best_chromosome[None])[0])

    def test_maximize_direction(self):
        config = GaConfig(population_size=10, max_iterations=100, rng_seed=1)
        result = run_ga(sphere, "maximize", RealVectorEncoding(4), config)
        assert result.best_fitness >= 3.8

    def test_single_generation_is_best_of_random_population(self):
        config = GaConfig(population_size=10, max_iterations=1, rng_seed=42)
        result = run_ga(sphere, "minimize", RealVectorEncoding(6), config)
        # replay the generator: the initial population is drawn first
        rng = np.random.default_rng(42)
        population = rng.random((10, 6))
        assert result.best_fitness == sphere(population).min()
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
        def broken(population):
            raise RuntimeError("boom")

        with pytest.raises(FitnessEvaluationError) as info:
            run_ga(broken, "minimize", RealVectorEncoding(3), GaConfig(max_iterations=1))
        assert info.value.chromosome.shape == (3,)

    def test_fitness_error_carries_population_when_rows_pass_alone(self):
        """Rows that fail only together: the error carries the population."""
        calls = []

        def crowded(population):
            calls.append(population.copy())
            if len(population) > 1:
                raise RuntimeError("too many rows")
            return sphere(population)

        with pytest.raises(FitnessEvaluationError) as info:
            run_ga(crowded, "minimize", RealVectorEncoding(3),
                   GaConfig(population_size=4, max_iterations=1))
        assert np.array_equal(info.value.chromosome, calls[0])


class TestFitnessContract:
    @pytest.mark.parametrize("encoding,k", [(RealVectorEncoding(4), 4), (SubsetEncoding(12, 3), 3)])
    def test_one_call_per_generation_with_whole_population(self, encoding, k):
        """With no elites kept, every generation is scored whole."""
        shapes = []

        def recording(population):
            shapes.append(population.shape)
            return population.sum(axis=1)

        config = GaConfig(population_size=7, max_iterations=25, elitism_count=0, rng_seed=11)
        result = run_ga(recording, "minimize", encoding, config)
        assert shapes == [(7, k)] * 25
        assert result.rows_scored == 7 * 25

    @pytest.mark.parametrize("encoding,k", [(RealVectorEncoding(4), 4), (SubsetEncoding(12, 3), 3)])
    @pytest.mark.parametrize("elites", [1, 3])
    def test_one_call_per_generation_with_children_after_the_first(self, encoding, k, elites):
        shapes = []

        def recording(population):
            shapes.append(population.shape)
            return population.sum(axis=1)

        config = GaConfig(population_size=7, max_iterations=25, elitism_count=elites, rng_seed=11)
        result = run_ga(recording, "minimize", encoding, config)
        assert shapes == [(7, k)] + [(7 - elites, k)] * 24
        assert result.rows_scored == 7 + 24 * (7 - elites)

    @pytest.mark.parametrize("encoding", [RealVectorEncoding(5), SubsetEncoding(15, 4)])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("elites", [1, 2])
    def test_kept_elite_values_equal_rescored_ones(self, encoding, direction, elites):
        """The history and the best equal those of a fitness wrapper that
        rebuilds each population (the previous one's elites, then the
        children) and re-scores the whole of it."""

        def fitness(population):
            # coarse values, so that ties between elites and children occur
            return np.round(np.sin(3.0 * population).sum(axis=1), 1)

        sign = 1.0 if direction == "minimize" else -1.0
        rescored = []  # per generation: the whole population and its values

        def rescoring(rows):
            population = rows
            if rescored:
                previous, fits = rescored[-1]
                kept = previous[np.argsort(sign * fits, kind="stable")[:elites]]
                population = np.concatenate([kept, rows])
            fits = fitness(population)
            rescored.append((population, fits))
            return fits[len(population) - len(rows):]

        config = GaConfig(population_size=8, max_iterations=40, elitism_count=elites,
                          rng_seed=5)
        result = run_ga(rescoring, direction, encoding, config)
        best = [sign * (sign * fits).min() for _, fits in rescored]
        assert [rec.best_fitness for rec in result.history] == best
        assert result.best_fitness == sign * min(sign * b for b in best)
        assert fitness(result.best_chromosome[None])[0] == result.best_fitness

    @pytest.mark.parametrize("encoding", [RealVectorEncoding(4), SubsetEncoding(12, 3)])
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("elites", [0, 1])
    def test_constant_fitness_keeps_row_zero_of_generation_zero(self, encoding, direction, elites):
        """Every tie goes to the lower row, and a later equal never replaces
        the best; generation 0 is the generator's first draw."""
        config = GaConfig(population_size=6, max_iterations=30, elitism_count=elites, rng_seed=8)
        result = run_ga(lambda population: np.ones(len(population)), direction, encoding, config)
        first = encoding.random(np.random.default_rng(8), 6)
        assert np.array_equal(result.best_chromosome, first[0])

    def test_error_names_the_first_offending_row(self):
        populations = []

        def picky(population):
            if population.shape[0] > 1:
                populations.append(population.copy())
            if (population > 0.9).any():
                raise ValueError("gene above 0.9")
            return sphere(population)

        config = GaConfig(population_size=10, max_iterations=50, rng_seed=6)
        with pytest.raises(FitnessEvaluationError) as info:
            run_ga(picky, "minimize", RealVectorEncoding(3), config)
        failing = populations[-1]
        offending = [row for row in failing if (row > 0.9).any()]
        assert offending
        assert np.array_equal(info.value.chromosome, offending[0])


class TestLockstep:
    RUNS = [
        (RealVectorEncoding(4), GaConfig(population_size=6, max_iterations=20, rng_seed=1)),
        (SubsetEncoding(12, 3), GaConfig(population_size=5, max_iterations=35, elitism_count=2,
                                         rng_seed=2)),
        (SubsetEncoding(12, 5), GaConfig(population_size=8, max_iterations=10, rng_seed=3)),
    ]

    @staticmethod
    def fitness(population):
        return np.round(np.sin(population).sum(axis=1), 2)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_runs_equal_single_runs(self, direction):
        """Each run's result is run_ga's; a finished run drops out of the
        calls."""
        live = []

        def batched(populations):
            live.append([rows.shape for rows in populations])
            return [self.fitness(rows) for rows in populations]

        together = run_lockstep(batched, direction, self.RUNS)
        assert live[0] == [(6, 4), (5, 3), (8, 5)]
        assert live[1:] == ([[(5, 4), (3, 3), (7, 5)]] * 9 + [[(5, 4), (3, 3)]] * 10
                            + [[(3, 3)]] * 15)
        for (encoding, config), result in zip(self.RUNS, together):
            alone = run_ga(self.fitness, direction, encoding, config)
            assert np.array_equal(result.best_chromosome, alone.best_chromosome)
            assert result.best_fitness == alone.best_fitness
            assert ([rec.best_fitness for rec in result.history]
                    == [rec.best_fitness for rec in alone.history])
            assert result.rows_scored == alone.rows_scored

    def test_one_value_sequence_per_run_required(self):
        with pytest.raises(ValueError):
            run_lockstep(lambda populations: [self.fitness(populations[0])], "minimize",
                         self.RUNS)

    def test_error_names_a_failing_row_of_its_run(self):
        """Member 7 fails in sets of three only: the error carries such a
        set, though sets of two and four hold 7 too."""

        def picky(populations):
            if any(rows.shape[1] == 3 and (rows == 7).any() for rows in populations):
                raise ValueError("7 in a set of three")
            return [rows.sum(axis=1) for rows in populations]

        runs = [(SubsetEncoding(12, k), GaConfig(population_size=6, max_iterations=50, rng_seed=k))
                for k in (2, 3, 4)]
        with pytest.raises(FitnessEvaluationError) as info:
            run_lockstep(picky, "minimize", runs)
        assert info.value.chromosome.shape == (3,) and 7 in info.value.chromosome


class TestSubsetGa:
    def test_recovers_target_subset(self):
        target = {2, 9, 14}

        def overlap(population: np.ndarray) -> list[float]:
            return [float(len(target & set(row.tolist()))) for row in population]

        config = GaConfig(population_size=10, max_iterations=500, rng_seed=5)
        result = run_ga(overlap, "maximize", SubsetEncoding(20, 3), config)
        assert result.best_fitness == 3.0
        assert set(result.best_chromosome.tolist()) == target

    def test_elitism_keeps_population_best_monotone(self):
        weights = np.random.default_rng(0).integers(0, 100, size=40)
        config = GaConfig(population_size=10, max_iterations=150, rng_seed=3)
        result = run_ga(
            lambda population: weights[population].sum(axis=1), "maximize",
            SubsetEncoding(40, 5), config,
        )
        best = [r.best_fitness for r in result.history]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_full_pool_subset(self):
        config = GaConfig(population_size=4, max_iterations=2, rng_seed=0)
        result = run_ga(
            lambda population: population.sum(axis=1), "maximize", SubsetEncoding(4, 4), config
        )
        assert sorted(result.best_chromosome.tolist()) == [0, 1, 2, 3]


class TestOperators:
    """Operators take and return row matrices; each property holds row by row."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_real_genes_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        enc = RealVectorEncoding(8)
        a, b = enc.random(rng, 6), enc.random(rng, 6)
        c1, c2 = enc.crossover(a, b, rng)
        m = enc.mutate(c1, rng, 0.6)
        for rows in (a, b, c1, c2, m):
            assert rows.shape == (6, 8)
            assert np.all((rows >= 0.0) & (rows <= 1.0))
        # crossover only exchanges genes between the two rows of a pair, in place
        assert np.array_equal(np.sort([c1, c2], axis=0), np.sort([a, b], axis=0))

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_size_preserved(self, size, seed):
        rng = np.random.default_rng(seed)
        pool = size + int(rng.integers(0, 10))
        enc = SubsetEncoding(pool, size)
        a, b = enc.random(rng, 7), enc.random(rng, 7)
        b[0] = a[0]  # a pair whose union is exactly one subset
        c1, c2 = enc.crossover(a, b, rng)
        m = enc.mutate(c1, rng, 1.0)
        for rows in (a, b, c1, c2, m):
            assert rows.shape == (7, size)
            for values in rows.tolist():
                assert len(set(values)) == size
                assert all(0 <= v < pool for v in values)
                assert values == sorted(values)
        assert np.array_equal(c1[0], a[0]) and np.array_equal(c2[0], a[0])

    def test_subset_crossover_draws_from_union(self):
        """Each child row is a subset of its own pair's union."""
        rng = np.random.default_rng(2)
        enc = SubsetEncoding(30, 4)
        a, b = enc.random(rng, 50), enc.random(rng, 50)
        for _ in range(20):
            c1, c2 = enc.crossover(a, b, rng)
            for i in range(50):
                union = set(a[i].tolist()) | set(b[i].tolist())
                assert set(c1[i].tolist()) <= union
                assert set(c2[i].tolist()) <= union

    def test_subset_crossover_child_is_uniform_over_union(self):
        """A member both parents hold is drawn no more often than any other."""
        rng = np.random.default_rng(5)
        enc = SubsetEncoding(10, 3)
        rows = 3000
        a = np.repeat([[0, 1, 2]], rows, axis=0)
        b = np.repeat([[1, 2, 3]], rows, axis=0)
        children = np.concatenate(enc.crossover(a, b, rng))
        subsets, counts = np.unique(children, axis=0, return_counts=True)
        assert len(subsets) == 4  # the 3-subsets of {0, 1, 2, 3}
        assert np.all(np.abs(counts - 2 * rows / 4) < 0.1 * 2 * rows / 4)

    def test_subset_mutation_swaps_one_member(self):
        rng = np.random.default_rng(9)
        enc = SubsetEncoding(25, 5)
        x = enc.random(rng, 200)
        mutated = enc.mutate(x, rng, 1.0)
        for before, after in zip(x.tolist(), mutated.tolist()):
            assert len(set(before) & set(after)) == 4
        assert np.array_equal(enc.mutate(x, rng, 0.0), x)

    def test_subset_mutation_reaches_every_outsider(self):
        rng = np.random.default_rng(4)
        pool = 15
        for size in range(1, pool):
            enc = SubsetEncoding(pool, size)
            row = enc.random(rng, 1)[0].tolist()
            mutated = enc.mutate(np.repeat([row], 800, axis=0), rng, 1.0)
            newcomers = {v for after in mutated.tolist() for v in after if v not in row}
            assert sorted(newcomers) == [v for v in range(pool) if v not in row]


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
