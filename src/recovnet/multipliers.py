"""Stage-2 optimization: find the fixed-size node set whose forced recovery
at week 0 maximizes the number of recovered nodes at the horizon.

Includes an exhaustive enumerator usable as an exact oracle whenever the
candidate space is small enough.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .diffusion import (
    DEFAULT_ENUMERATION_CAP,
    DiffusionKernel,
    DiffusionSchedule,
    ThresholdVector,
    check_aligned,
    chunk_columns,
    map_column_chunks,
)
from .errors import ConfigError, DataError
from .ga import GaConfig, GaResult, SubsetEncoding, run_lockstep
from .graph import SpatialGraph


@dataclass
class MultiplierProblem:
    """Fitted thresholds on a graph, prepared once for seed sets of any size:
    the kernel, the recovery needs and the unforced run.

    unforced_weeks holds each node's recovered weeks (node order) with
    nothing forced; recovered_without counts the nodes that run recovers.
    The set sizes and the candidate pool are arguments of search_multipliers
    and brute_force_multipliers, so one problem serves every size.
    kernel.calls counts the kernel calls made so far, the unforced run's
    included.
    """

    graph: SpatialGraph
    thresholds: ThresholdVector
    schedule: DiffusionSchedule = DiffusionSchedule()
    kernel: DiffusionKernel = field(init=False, repr=False)
    unforced_weeks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_aligned(self.graph, self.thresholds)
        self.kernel = DiffusionKernel(self.graph, self.schedule)
        self._need = self.kernel.need(self.thresholds.values[self.kernel.order, None])
        self.unforced_weeks = self.kernel.run(self.thresholds.values)

    @property
    def recovered_without(self) -> int:
        return int(np.count_nonzero(self.unforced_weeks))

    def recovered(self, *seed_sets: np.ndarray) -> np.ndarray:
        """Horizon recovered count for each row of node indices forced
        recovered at week 0, over the rows of every given matrix in turn
        (P_i x k_i, k_i >= 0). Matrices of different set sizes share each
        kernel call: one initial-state matrix is filled from (column, node)
        pairs, chunk_columns(n) columns at a time."""
        widths = np.concatenate([np.full(len(rows), rows.shape[1]) for rows in seed_sets])
        column = np.repeat(np.arange(widths.size), widths)
        node = self.kernel.rank[np.concatenate([rows.ravel() for rows in seed_sets])]

        def chunk(columns: np.ndarray) -> np.ndarray:
            lo, hi = np.searchsorted(column, [columns[0], columns[-1] + 1])
            initial = np.zeros((self.graph.n, columns.size), dtype=bool)
            initial[node[lo:hi], column[lo:hi] - columns[0]] = True
            return np.count_nonzero(self.kernel.weeks_recovered(self._need, initial), axis=0)

        return map_column_chunks(chunk, np.arange(widths.size), self.graph.n)


@dataclass
class MultiplierResult:
    """The selected set and its effect against the unforced simulation.

    increment_rate is None when nothing recovers without forcing (the
    percentage gain is undefined).
    """

    members: tuple[str, ...]
    recovered_with: int
    recovered_without: int
    increment_rate: Optional[float]
    ga_result: Optional[GaResult] = None


def increment_rate(recovered_with: int, recovered_without: int) -> float:
    """Percent gain of the forced over the unforced recovered count."""
    if recovered_without <= 0:
        raise ValueError(
            f"recovered_without must be > 0, got {recovered_without}"
        )
    return 100.0 * (recovered_with - recovered_without) / recovered_without


def _pool(problem: MultiplierProblem, sizes: Sequence[int],
          pool: Optional[Sequence[str]]) -> tuple[str, ...]:
    """The candidate pool (every node when None), checked against the graph
    and the set sizes."""
    if pool is None:
        pool = problem.graph.nodes
    else:
        pool = tuple(pool)
        unknown = [n for n in pool if n not in problem.graph.index]
        if unknown:
            raise DataError(f"candidate pool contains unknown nodes: {unknown[:10]}")
        if len(set(pool)) != len(pool):
            raise DataError("candidate pool contains duplicate nodes")
    for size in sizes:
        if not 1 <= size <= len(pool):
            raise ConfigError(f"size must be in [1, {len(pool)}], got {size}")
    return pool


def check_enumeration_cap(pool_size: int, size: int, enumeration_cap: int) -> None:
    """Reject enumerating more than enumeration_cap size-subsets of the pool."""
    total = math.comb(pool_size, size)
    if total > enumeration_cap:
        raise ConfigError(f"{total} candidate subsets exceed the enumeration cap {enumeration_cap}")


def _finish(problem: MultiplierProblem, members: tuple[str, ...], recovered_with: int,
            ga_result: Optional[GaResult]) -> MultiplierResult:
    without = problem.recovered_without
    rate = increment_rate(recovered_with, without) if without > 0 else None
    return MultiplierResult(members, recovered_with, without, rate, ga_result)


def _size_seed(rng_seed: int, size: int) -> int:
    """The generator seed of one size's search: its own stream for every
    (rng_seed, size) pair."""
    return int(np.random.SeedSequence([rng_seed, size]).generate_state(1)[0])


def search_multipliers(
    problem: MultiplierProblem, sizes: Sequence[int], config: GaConfig,
    pool: Optional[Sequence[str]] = None,
) -> list[MultiplierResult]:
    """For each size, maximize the horizon recovered count over the
    size-node subsets of the candidate pool (every node by default) with
    the GA; one result per size, in order.

    Each size's run takes config with rng_seed replaced by
    _size_seed(config.rng_seed, size), so its result is that of a search of
    its size alone. The runs advance in lockstep: one recovered call scores
    the rows of every run's generation."""
    pool = _pool(problem, sizes, pool)
    indices = np.array([problem.graph.index[n] for n in pool], dtype=np.int64)
    runs = [(SubsetEncoding(len(pool), size),
             replace(config, rng_seed=_size_seed(config.rng_seed, size))) for size in sizes]

    def fitness(populations: list[np.ndarray]) -> list[np.ndarray]:
        counts = problem.recovered(*(indices[rows] for rows in populations))
        return np.split(counts, np.cumsum([len(rows) for rows in populations[:-1]]))

    return [
        # the fitness is deterministic, so the best row's value is its count
        _finish(problem, tuple(sorted(pool[i] for i in result.best_chromosome)),
                int(result.best_fitness), result)
        for result in run_lockstep(fitness, "maximize", runs)
    ]


def brute_force_multipliers(
    problem: MultiplierProblem, size: int, pool: Optional[Sequence[str]] = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> MultiplierResult:
    """Exact maximizer over the size-node subsets of the candidate pool
    (every node by default) by exhaustive enumeration, ties broken by taking
    the lexicographically first subset of the sorted pool.

    Subsets are simulated in chunks in enumeration order; a chunk's best
    replaces the running best only when strictly better, so the first
    maximum is kept across chunk boundaries."""
    pool_sorted = sorted(_pool(problem, (size,), pool))
    check_enumeration_cap(len(pool_sorted), size, enumeration_cap)
    indices = np.array([problem.graph.index[n] for n in pool_sorted], dtype=np.int64)
    combos = itertools.combinations(range(len(pool_sorted)), size)
    step = chunk_columns(problem.graph.n)
    best_combo: Optional[np.ndarray] = None
    best_value = -1
    while True:
        chunk = np.array(list(itertools.islice(combos, step)), dtype=np.int64)
        if chunk.size == 0:
            break
        values = problem.recovered(indices[chunk])
        first_best = int(np.argmax(values))
        if values[first_best] > best_value:
            best_combo, best_value = chunk[first_best], int(values[first_best])
    assert best_combo is not None
    members = tuple(pool_sorted[i] for i in best_combo)
    return _finish(problem, members, best_value, None)
