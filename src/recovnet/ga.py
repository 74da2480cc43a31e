"""Classic generational genetic algorithm with elitism and two encodings:
real vectors in [0, 1]^k and fixed-size index subsets.

The population is one P x k array and every operator works on all rows at
once. All random decisions come from one seeded generator, and fitness
evaluation draws nothing from it, so runs are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, RecovnetError

DIRECTIONS = ("minimize", "maximize")

# real-vector mutation: the creep step's standard deviation, and the share
# of hit genes resampled uniformly instead
CREEP_SIGMA = 0.1
RESAMPLE_PROB = 0.2


class FitnessEvaluationError(RecovnetError):
    """A fitness evaluator raised; carries the offending chromosome."""

    def __init__(self, chromosome):
        super().__init__(f"fitness evaluation failed for chromosome {chromosome!r}")
        self.chromosome = chromosome


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
    rows_scored: int = 0  # chromosomes passed to the fitness function

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

    Mutation perturbs a hit gene with clipped gaussian creep (standard
    deviation CREEP_SIGMA) most of the time and resamples it uniformly with
    probability RESAMPLE_PROB, so the search can both polish a good
    solution and escape a plateau.
    """

    def __init__(self, length: int):
        if length < 1:
            raise ConfigError(f"real-vector length must be >= 1, got {length}")
        self.length = length

    def default_mutation_prob(self) -> float:
        return 1.0 / self.length

    def random(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random((count, self.length))

    def crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform crossover of each row pair: each gene swaps between the
        two children with p = 1/2."""
        swap = rng.random(a.shape) < 0.5
        return np.where(swap, b, a), np.where(swap, a, b)

    def mutate(self, x: np.ndarray, rng: np.random.Generator, prob: float) -> np.ndarray:
        """Per-gene mutation of every row: gaussian creep clipped to [0, 1],
        or a uniform resample with probability RESAMPLE_PROB."""
        hit = rng.random(x.shape) < prob
        count = int(hit.sum())
        out = x.copy()
        fresh = rng.random(count)
        crept = np.clip(out[hit] + rng.normal(0.0, CREEP_SIGMA, count), 0.0, 1.0)
        out[hit] = np.where(rng.random(count) < RESAMPLE_PROB, fresh, crept)
        return out


class SubsetEncoding:
    """Chromosomes are sorted rows of exactly subset_size distinct indices
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

    def random(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Per row, the subset_size smallest of pool_size uniform keys."""
        keys = rng.random((count, self.pool_size))
        return np.sort(np.argpartition(keys, self.subset_size - 1)[:, : self.subset_size])

    def crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each child of a row pair is a uniform subset_size-subset of the
        pair's pooled members: random keys over the pair's sorted
        concatenation, where a repeated member's key is out of reach."""
        pooled = np.sort(np.concatenate([a, b], axis=1), axis=1)
        repeat = np.zeros(pooled.shape, dtype=bool)
        repeat[:, 1:] = pooled[:, 1:] == pooled[:, :-1]
        keys = np.where(repeat, 2.0, rng.random((2, *pooled.shape)))
        picks = np.argpartition(keys, self.subset_size - 1)[..., : self.subset_size]
        c1, c2 = np.sort(pooled[np.arange(len(pooled))[:, None], picks])
        return c1, c2

    def mutate(self, x: np.ndarray, rng: np.random.Generator, prob: float) -> np.ndarray:
        """Each row, with the given probability, swaps one member for a
        uniformly drawn non-member."""
        rows, size = x.shape
        if size == self.pool_size:
            return x.copy()
        hit = np.flatnonzero(rng.random(rows) < prob)
        # outsider number c is c + #{j : m_j - j <= c} over the sorted members
        # m_j, since m_j - j outsiders lie below member j
        c = rng.integers(self.pool_size - size, size=hit.size)
        fresh = c + np.count_nonzero(x[hit] - np.arange(size) <= c[:, None], axis=1)
        out = x.copy()
        out[hit, rng.integers(size, size=hit.size)] = fresh
        return np.sort(out)


def run_ga(
    fitness: Callable[[np.ndarray], Sequence[float]],
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

    fitness maps rows (a chromosome each) to one value per row, and must be
    deterministic: it scores the P rows of generation 0, then only the P -
    elitism_count children of each generation, as the elites keep their
    values. Ties in fitness go to the lower row: in tournaments, among the
    elites and for the best chromosome.
    """
    [result] = _lockstep(lambda populations: [fitness(populations[0])], direction,
                         [(encoding, config)])
    return result


def run_lockstep(
    fitness: Callable[[list[np.ndarray]], Sequence[Sequence[float]]],
    direction: str,
    runs: Sequence[tuple],
) -> list[GaResult]:
    """Advance several GA runs, given as (encoding, config) pairs, one
    generation at a time, and return one result per run.

    Each run draws from its own config's generator, so its result is that
    of run_ga with the same encoding and config, apart from the seconds.
    fitness is called once per generation with the rows to score of every
    run still going, one matrix per run in run order, and returns one value
    sequence per matrix; a run drops out after its max_iterations
    generations.

    The runs share the wall clock: a generation's seconds, in the history
    of every run still going, span the whole lockstep generation (the one
    fitness call and every run's operators). Summing seconds over runs
    counts that time once per run.
    """
    return _lockstep(fitness, direction, runs)


def _lockstep(fitness, direction: str, runs: Sequence[tuple]) -> list[GaResult]:
    """The loop of run_lockstep. run_ga calls it directly, so that a tracer
    that wraps both public functions sees a single run's fitness calls
    directly under run_ga."""
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    sign = 1.0 if direction == "minimize" else -1.0
    generations = [_generations(encoding, config, sign) for encoding, config in runs]
    results: list[Optional[GaResult]] = [None] * len(runs)
    rows = {i: next(gen) for i, gen in enumerate(generations)}
    while rows:
        populations = list(rows.values())
        try:
            values = [np.asarray(fits) for fits in fitness(populations)]
        except Exception as exc:
            raise FitnessEvaluationError(_first_failing(fitness, populations)) from exc
        for i, fits in zip(list(rows), values, strict=True):
            try:
                rows[i] = generations[i].send(fits)
            except StopIteration as done:
                results[i] = done.value
                del rows[i]
    return results


def _generations(encoding, config: GaConfig, sign: float):
    """One run as a generator: it yields each generation's rows to score,
    is sent their fitness values, and returns the GaResult. sign is 1 to
    minimize, -1 to maximize."""
    rng = np.random.default_rng(config.rng_seed)
    mutation_prob = (
        config.mutation_prob
        if config.mutation_prob is not None
        else encoding.default_mutation_prob()
    )
    size, elites = config.population_size, config.elitism_count
    pairs = (size - elites + 1) // 2

    population = encoding.random(rng, size)
    history: list[GenerationRecord] = []
    best_chromosome: Optional[np.ndarray] = None
    best_fitness = best_key = 0.0

    tick = time.perf_counter()
    fits = yield population
    # float keys where lower is better
    key = sign * fits.astype(np.float64)
    for generation in range(config.max_iterations):
        if generation > 0:
            # sorted contenders, so argmin gives a tie to the lower row
            contenders = np.sort(
                rng.integers(size, size=(2 * pairs, config.tournament_size)), axis=1
            )
            winners = contenders[np.arange(2 * pairs), key[contenders].argmin(axis=1)]
            p1, p2 = population[winners[:pairs]], population[winners[pairs:]]
            crossed = rng.random(pairs) < config.crossover_prob
            p1[crossed], p2[crossed] = encoding.crossover(p1[crossed], p2[crossed], rng)
            children = encoding.mutate(np.concatenate([p1, p2])[: size - elites], rng, mutation_prob)
            kept = np.argsort(key, kind="stable")[:elites]
            child_fits = yield children
            population = np.concatenate([population[kept], children])
            fits = np.concatenate([fits[kept], child_fits])
            key = np.concatenate([key[kept], sign * child_fits.astype(np.float64)])

        gen_best = int(key.argmin())
        if best_chromosome is None or key[gen_best] < best_key:
            best_chromosome = population[gen_best].copy()
            best_fitness, best_key = fits[gen_best].item(), key[gen_best]
        tock = time.perf_counter()
        history.append(
            GenerationRecord(
                generation=generation,
                best_fitness=fits[gen_best].item(),
                seconds=tock - tick,
            )
        )
        tick = tock

    assert best_chromosome is not None
    return GaResult(
        best_chromosome=best_chromosome, best_fitness=best_fitness, history=history,
        rows_scored=size + (config.max_iterations - 1) * (size - elites),
    )


def _first_failing(fitness, populations: list[np.ndarray]):
    """The first row whose own evaluation, as the only population of one
    row, raises. When each row alone succeeds: the population of a single
    run, or the list of populations of several."""
    for population in populations:
        for chromosome in population:
            try:
                fitness([chromosome[None, :]])
            except Exception:
                return chromosome
    return populations[0] if len(populations) == 1 else populations


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
