"""Classic generational genetic algorithm with elitism and two encodings:
real vectors in [0, 1]^k and fixed-size index subsets.

All random decisions come from one seeded generator, and fitness
evaluation draws nothing from it, so runs are reproducible however a
population is evaluated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, RecovnetError

DIRECTIONS = ("minimize", "maximize")


class FitnessEvaluationError(RecovnetError):
    """A fitness evaluator raised; carries the offending chromosome."""

    def __init__(self, chromosome):
        super().__init__(f"fitness evaluation failed for chromosome {chromosome!r}")
        self.chromosome = chromosome


class PopulationFitness:
    """A fitness that scores a whole population in one call.

    score maps a P x k matrix of chromosomes to P fitness values; calling
    the object on one chromosome scores a population of one.
    """

    def __init__(self, score: Callable[[np.ndarray], Sequence[float]]):
        self.score = score

    def __call__(self, chromosome: np.ndarray) -> float:
        return self.score(np.asarray(chromosome)[None, :])[0]


@dataclass(frozen=True)
class GaConfig:
    """Population size, iteration budget, and operator settings.

    mutation_prob of None uses the encoding default: per-gene probability
    1/k for real vectors, a guaranteed single swap for subsets.
    """

    population_size: int = 10
    max_iterations: int = 1000
    crossover_prob: float = 0.9
    mutation_prob: Optional[float] = None
    tournament_size: int = 2
    elitism_count: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError(f"crossover_prob must be in [0, 1], got {self.crossover_prob}")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError(f"mutation_prob must be in [0, 1], got {self.mutation_prob}")
        if self.tournament_size < 2:
            raise ConfigError(f"tournament_size must be >= 2, got {self.tournament_size}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ConfigError(
                f"elitism_count must be in [0, population_size), got {self.elitism_count}"
            )


@dataclass(frozen=True)
class GenerationRecord:
    """Best fitness and wall-clock seconds for one generation."""

    generation: int
    best_fitness: float
    seconds: float


@dataclass(eq=False)
class GaResult:
    """Best-ever chromosome with its fitness and the per-generation history."""

    best_chromosome: np.ndarray
    best_fitness: float
    history: list[GenerationRecord] = field(default_factory=list)

    @property
    def generations(self) -> int:
        return len(self.history)

    @property
    def total_seconds(self) -> float:
        return sum(rec.seconds for rec in self.history)


@dataclass(frozen=True)
class PerformanceRecord:
    """Loss descent per generation, seconds per generation, and their ratio."""

    loss_descent_per_generation: float
    seconds_per_generation: float
    index: float


class RealVectorEncoding:
    """Chromosomes are length-k float vectors with every gene in [0, 1].

    Mutation perturbs a hit gene with clipped gaussian creep most of the
    time and occasionally resamples it uniformly, so the search can both
    polish a good solution and escape a plateau.
    """

    def __init__(self, length: int, creep_sigma: float = 0.1, resample_prob: float = 0.2):
        if length < 1:
            raise ConfigError(f"real-vector length must be >= 1, got {length}")
        if creep_sigma <= 0:
            raise ConfigError(f"creep_sigma must be > 0, got {creep_sigma}")
        if not 0.0 <= resample_prob <= 1.0:
            raise ConfigError(f"resample_prob must be in [0, 1], got {resample_prob}")
        self.length = length
        self.creep_sigma = creep_sigma
        self.resample_prob = resample_prob

    def default_mutation_prob(self) -> float:
        return 1.0 / self.length

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.length)

    def crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform crossover: each gene swaps between the children with p = 1/2."""
        swap = rng.random(self.length) < 0.5
        c1, c2 = a.copy(), b.copy()
        c1[swap], c2[swap] = b[swap], a[swap]
        return c1, c2

    def mutate(self, x: np.ndarray, rng: np.random.Generator, prob: float) -> np.ndarray:
        """Per-gene mutation: gaussian creep clipped to [0, 1], or a uniform
        resample with probability resample_prob."""
        hit = rng.random(self.length) < prob
        out = x.copy()
        count = int(hit.sum())
        if count:
            fresh = rng.random(count)
            crept = np.clip(out[hit] + rng.normal(0.0, self.creep_sigma, count), 0.0, 1.0)
            out[hit] = np.where(rng.random(count) < self.resample_prob, fresh, crept)
        return out


class SubsetEncoding:
    """Chromosomes are sorted arrays of exactly subset_size distinct indices
    drawn from 0..pool_size-1."""

    def __init__(self, pool_size: int, subset_size: int):
        if not 1 <= subset_size <= pool_size:
            raise ConfigError(
                f"subset_size must be in [1, pool_size={pool_size}], got {subset_size}"
            )
        self.pool_size = pool_size
        self.subset_size = subset_size

    def default_mutation_prob(self) -> float:
        return 1.0

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return np.sort(rng.choice(self.pool_size, size=self.subset_size, replace=False))

    def crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pool the parents' members and subsample each child back to size."""
        union = np.union1d(a, b)
        c1 = np.sort(rng.choice(union, size=self.subset_size, replace=False))
        c2 = np.sort(rng.choice(union, size=self.subset_size, replace=False))
        return c1, c2

    def mutate(self, x: np.ndarray, rng: np.random.Generator, prob: float) -> np.ndarray:
        """With the given probability, swap one member for a random non-member."""
        out = x.copy()
        if self.subset_size == self.pool_size or rng.random() >= prob:
            return out
        drop = rng.integers(self.subset_size)
        # draw a non-member by rank among the pool_size - subset_size outsiders:
        # walking the members upwards, each one at or below it shifts it by one
        candidate = int(rng.integers(self.pool_size - self.subset_size))
        for member in sorted(out.tolist()):
            if member > candidate:
                break
            candidate += 1
        out[drop] = candidate
        return np.sort(out)


def run_ga(
    fitness: Callable[[np.ndarray], float],
    direction: str,
    encoding,
    config: GaConfig,
) -> GaResult:
    """Run the generational loop and return the best chromosome ever seen.

    Generation 0 is the random initial population; each later generation is
    built from tournament-selected parents via crossover and mutation, with
    the elitism_count best carried over unchanged. max_iterations counts
    generations including the initial one, so a budget of 1 returns the best
    of the random population.

    Each generation is scored in one call: by fitness.score for a
    PopulationFitness, else by calling fitness on each chromosome in turn.
    """
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    minimize = direction == "minimize"
    rng = np.random.default_rng(config.rng_seed)
    mutation_prob = (
        config.mutation_prob
        if config.mutation_prob is not None
        else encoding.default_mutation_prob()
    )

    if isinstance(fitness, PopulationFitness):
        score = fitness.score
    else:
        def score(population):
            return [fitness(chromosome) for chromosome in population]

    def evaluate(population: list[np.ndarray]) -> list[float]:
        try:
            return list(score(np.stack(population)))
        except Exception as exc:
            raise FitnessEvaluationError(_first_failing(fitness, population)) from exc

    def key(value: float) -> float:
        return value if minimize else -value

    def tournament(fits: list[float]) -> int:
        contenders = rng.integers(config.population_size, size=config.tournament_size)
        return min(contenders.tolist(), key=lambda i: (key(fits[i]), i))

    population = [encoding.random(rng) for _ in range(config.population_size)]
    history: list[GenerationRecord] = []
    best_chromosome: Optional[np.ndarray] = None
    best_fitness = 0.0

    tick = time.perf_counter()
    fits = evaluate(population)
    for generation in range(config.max_iterations):
        if generation > 0:
            order = sorted(
                range(config.population_size), key=lambda i: (key(fits[i]), i)
            )
            children = [population[i].copy() for i in order[: config.elitism_count]]
            while len(children) < config.population_size:
                p1 = population[tournament(fits)]
                p2 = population[tournament(fits)]
                if rng.random() < config.crossover_prob:
                    c1, c2 = encoding.crossover(p1, p2, rng)
                else:
                    c1, c2 = p1.copy(), p2.copy()
                for child in (c1, c2):
                    if len(children) < config.population_size:
                        children.append(encoding.mutate(child, rng, mutation_prob))
            population = children
            fits = evaluate(population)

        gen_best = min(range(config.population_size), key=lambda i: (key(fits[i]), i))
        if best_chromosome is None or key(fits[gen_best]) < key(best_fitness):
            best_chromosome = population[gen_best].copy()
            best_fitness = fits[gen_best]
        tock = time.perf_counter()
        history.append(
            GenerationRecord(
                generation=generation,
                best_fitness=fits[gen_best],
                seconds=tock - tick,
            )
        )
        tick = tock

    assert best_chromosome is not None
    return GaResult(
        best_chromosome=best_chromosome, best_fitness=best_fitness, history=history
    )


def _first_failing(fitness: Callable[[np.ndarray], float], population: list[np.ndarray]):
    """The first chromosome whose own evaluation raises (the whole
    population when each one alone succeeds)."""
    for chromosome in population:
        try:
            fitness(chromosome)
        except Exception:
            return chromosome
    return np.stack(population)


def performance_index(
    initial_best_loss: float,
    final_best_loss: float,
    generations: int,
    total_seconds: float,
) -> PerformanceRecord:
    """Loss descent per generation divided by runtime per generation; the
    figure of merit used to pick a population size."""
    if generations < 1:
        raise ConfigError(f"generations must be >= 1, got {generations}")
    if total_seconds <= 0:
        raise ConfigError(f"total_seconds must be > 0, got {total_seconds}")
    descent = (initial_best_loss - final_best_loss) / generations
    seconds = total_seconds / generations
    return PerformanceRecord(
        loss_descent_per_generation=descent,
        seconds_per_generation=seconds,
        index=descent / seconds,
    )
