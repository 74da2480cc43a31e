"""Stage-2 optimization: find the fixed-size node set whose forced recovery
at week 0 maximizes the number of recovered nodes at the horizon.

Includes an exhaustive enumerator usable as an exact oracle whenever the
candidate space is small enough.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diffusion import (
    DiffusionKernel,
    DiffusionSchedule,
    ThresholdVector,
    check_aligned,
    chunk_columns,
    map_column_chunks,
)
from .errors import ConfigError, DataError
from .ga import GaConfig, GaResult, SubsetEncoding, run_ga
from .graph import SpatialGraph

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass
class MultiplierProblem:
    """Fitted thresholds plus the size and candidate pool of the seed set."""

    graph: SpatialGraph
    thresholds: ThresholdVector
    size: int
    schedule: DiffusionSchedule = DiffusionSchedule()
    candidate_pool: Optional[tuple[str, ...]] = None
    kernel: DiffusionKernel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_aligned(self.graph, self.thresholds)
        if self.candidate_pool is None:
            self.candidate_pool = self.graph.nodes
        else:
            self.candidate_pool = tuple(self.candidate_pool)
            unknown = [n for n in self.candidate_pool if n not in self.graph.index]
            if unknown:
                raise DataError(f"candidate pool contains unknown nodes: {unknown[:10]}")
            if len(set(self.candidate_pool)) != len(self.candidate_pool):
                raise DataError("candidate pool contains duplicate nodes")
        if not 1 <= self.size <= len(self.candidate_pool):
            raise ConfigError(
                f"size must be in [1, {len(self.candidate_pool)}], got {self.size}"
            )
        self.kernel = DiffusionKernel(self.graph, self.schedule)
        self._need = self.kernel.need(self.thresholds.values[self.kernel.order, None])

    @property
    def pool_indices(self) -> np.ndarray:
        return np.array([self.graph.index[n] for n in self.candidate_pool], dtype=np.int64)

    def recovered(self, seed_sets: np.ndarray) -> np.ndarray:
        """Horizon recovered count for each row of node indices (P x k,
        k >= 0) forced recovered at week 0."""

        def chunk(rows: np.ndarray) -> np.ndarray:
            initial = np.zeros((self.graph.n, rows.shape[0]), dtype=bool)
            initial[self.kernel.rank[rows], np.arange(rows.shape[0])[:, None]] = True
            weeks = self.kernel.weeks_recovered(self._need, initial)
            return np.count_nonzero(weeks, axis=0)

        return map_column_chunks(chunk, seed_sets, self.graph.n)


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


def _finish(problem: MultiplierProblem, members: tuple[str, ...], recovered_with: int,
            ga_result: Optional[GaResult]) -> MultiplierResult:
    recovered_without = int(problem.recovered(np.empty((1, 0), dtype=np.int64))[0])
    rate = (
        increment_rate(recovered_with, recovered_without)
        if recovered_without > 0
        else None
    )
    return MultiplierResult(
        members=members,
        recovered_with=recovered_with,
        recovered_without=recovered_without,
        increment_rate=rate,
        ga_result=ga_result,
    )


def search_multipliers(problem: MultiplierProblem, config: GaConfig) -> MultiplierResult:
    """Maximize the horizon recovered count over size-N subsets with the GA."""
    pool_indices = problem.pool_indices
    encoding = SubsetEncoding(len(problem.candidate_pool), problem.size)
    result = run_ga(
        lambda population: problem.recovered(pool_indices[population]),
        direction="maximize",
        encoding=encoding,
        config=config,
    )
    members = tuple(sorted(problem.candidate_pool[i] for i in result.best_chromosome))
    recovered_with = int(problem.recovered(pool_indices[result.best_chromosome][None, :])[0])
    return _finish(problem, members, recovered_with, result)


def brute_force_multipliers(
    problem: MultiplierProblem, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> MultiplierResult:
    """Exact maximizer by exhaustive enumeration, ties broken by taking the
    lexicographically first subset of the sorted candidate pool.

    Subsets are simulated in chunks in enumeration order; a chunk's best
    replaces the running best only when strictly better, so the first
    maximum is kept across chunk boundaries."""
    total = math.comb(len(problem.candidate_pool), problem.size)
    if total > enumeration_cap:
        raise ConfigError(
            f"{total} candidate subsets exceed the enumeration cap {enumeration_cap}"
        )
    pool_sorted = sorted(problem.candidate_pool)
    pool_indices = np.array([problem.graph.index[n] for n in pool_sorted], dtype=np.int64)
    combos = itertools.combinations(range(len(pool_sorted)), problem.size)
    step = chunk_columns(problem.graph.n)
    best_combo: Optional[np.ndarray] = None
    best_value = -1
    while True:
        chunk = np.array(list(itertools.islice(combos, step)), dtype=np.int64)
        if chunk.size == 0:
            break
        values = problem.recovered(pool_indices[chunk])
        first_best = int(np.argmax(values))
        if values[first_best] > best_value:
            best_combo, best_value = chunk[first_best], int(values[first_best])
    assert best_combo is not None
    members = tuple(pool_sorted[i] for i in best_combo)
    return _finish(problem, members, best_value, None)
