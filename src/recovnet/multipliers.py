"""Stage-2 optimization: find the fixed-size node set whose forced recovery
at week 0 maximizes the number of recovered nodes at the horizon.

Both searches, the GA and an exhaustive enumerator (an exact oracle while
every size's subset count fits the enumeration cap), take (problem, sizes,
..., pool) and give one result per size. Nodes are positions in graph node
order throughout: the pool, and each result's members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .diffusion import DEFAULT_ENUMERATION_CAP, DiffusionKernel, DiffusionSchedule
from .errors import ConfigError
from .ga import GaConfig, GaResult, SubsetEncoding, run_lockstep
from .graph import SpatialGraph


@dataclass
class MultiplierProblem:
    """Fitted thresholds (node order) on a graph, prepared once for seed sets
    of any size: the kernel, the recovery needs and the unforced run, which
    checks the thresholds.

    unforced_weeks holds each node's recovered weeks (node order) with
    nothing forced; recovered_without counts the nodes that run recovers.
    The set sizes and the candidate pool are arguments of search_multipliers
    and brute_force_multipliers, so one problem serves every size.
    kernel.calls counts the kernel calls made so far, the unforced run's
    included.
    """

    graph: SpatialGraph
    thresholds: np.ndarray
    schedule: DiffusionSchedule = DiffusionSchedule()
    kernel: DiffusionKernel = field(init=False, repr=False)
    unforced_weeks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.kernel = DiffusionKernel(self.graph, self.schedule)
        self.unforced_weeks = self.kernel.run(self.thresholds)
        self._need = self.kernel.need(np.asarray(self.thresholds)[self.kernel.order, None])

    @property
    def recovered_without(self) -> int:
        return int(np.count_nonzero(self.unforced_weeks))

    def recovered(self, *seed_sets: np.ndarray) -> np.ndarray:
        """Horizon recovered count for each row of node indices forced
        recovered at week 0, over the rows of every given matrix in turn
        (P_i x k_i, k_i >= 0). Matrices of different set sizes share each
        kernel call: a call's initial states come from the (column, node)
        pairs of its columns. No matrix, like no row, makes no kernel call."""
        if not seed_sets:
            seed_sets = (np.zeros((0, 0), np.int64),)
        widths = np.concatenate([np.full(len(rows), rows.shape[1]) for rows in seed_sets])
        column = np.repeat(np.arange(widths.size), widths)
        node = np.concatenate([rows.ravel() for rows in seed_sets])

        def inputs(lo: int, hi: int) -> tuple:
            start, stop = np.searchsorted(column, [lo, hi])
            return self._forced(node[start:stop], column[start:stop] - lo, hi - lo)

        return self.kernel.reduce_columns(widths.size, inputs, _horizon_counts)

    def _forced(self, node: np.ndarray, column: np.ndarray, columns: int) -> tuple:
        """The shared need and `columns` columns of initial states with each
        (node index, column) pair, broadcast together, forced recovered."""
        initial = np.zeros((self.graph.n, columns), dtype=bool)
        initial[self.kernel.rank[node], column] = True
        return self._need, initial


def _horizon_counts(weeks: np.ndarray) -> np.ndarray:
    return np.count_nonzero(weeks, axis=0)


@dataclass(eq=False)
class MultiplierResult:
    """The selected set, as ascending node positions, and its effect against
    the unforced simulation.

    increment_rate is None when nothing recovers without forcing (the
    percentage gain is undefined).
    """

    members: np.ndarray
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
          pool: Optional[Sequence[int]]) -> np.ndarray:
    """The candidate pool as node positions (every node when None), checked
    against the set sizes."""
    pool = np.arange(problem.graph.n) if pool is None else np.asarray(pool, dtype=np.int64)
    for size in sizes:
        if not 1 <= size <= len(pool):
            raise ConfigError(f"size must be in [1, {len(pool)}], got {size}")
    return pool


def _finish(problem: MultiplierProblem, members: np.ndarray, recovered_with: int,
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
    pool: Optional[Sequence[int]] = None,
) -> list[MultiplierResult]:
    """For each size, maximize the horizon recovered count over the
    size-node subsets of the candidate pool (node positions; every node by
    default) with the GA; one result per size, in order.

    Each size's run takes config with rng_seed replaced by
    _size_seed(config.rng_seed, size), so its result is that of a search of
    its size alone. The runs advance in lockstep: one recovered call scores
    the rows of every run's generation."""
    pool = _pool(problem, sizes, pool)
    runs = [(SubsetEncoding(len(pool), size),
             replace(config, rng_seed=_size_seed(config.rng_seed, size))) for size in sizes]

    def fitness(populations: list[np.ndarray]) -> list[np.ndarray]:
        counts = problem.recovered(*(pool[rows] for rows in populations))
        return np.split(counts, np.cumsum([len(rows) for rows in populations[:-1]]))

    return [
        # the fitness is deterministic, so the best row's value is its count
        _finish(problem, np.sort(pool[result.best_chromosome]), int(result.best_fitness), result)
        for result in run_lockstep(fitness, "maximize", runs)
    ]


def brute_force_multipliers(
    problem: MultiplierProblem, sizes: Sequence[int], pool: Optional[Sequence[int]] = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[MultiplierResult]:
    """For each size in turn, the exact maximizer over the size-node subsets
    of the candidate pool (node positions; every node by default), ties
    broken by taking the lexicographically first subset of the pool sorted
    by id. Every size's subset count is checked against enumeration_cap
    before any is enumerated."""
    pool_sorted = sorted(_pool(problem, sizes, pool).tolist(),
                         key=problem.graph.nodes.__getitem__)
    for size in sizes:
        total = math.comb(len(pool_sorted), size)
        if total > enumeration_cap:
            raise ConfigError(f"{total} candidate subsets exceed the enumeration cap "
                              f"{enumeration_cap}")
    return [_enumerate(problem, pool_sorted, size) for size in sizes]


def _enumerate(problem: MultiplierProblem, pool_sorted: list[int], size: int) -> MultiplierResult:
    """The best size-subset of the pool (sorted by id), by exhaustive
    enumeration: each subset is one kernel column, in enumeration order,
    taken from the enumeration as the kernel asks for it; argmax keeps the
    first maximum."""
    combos = itertools.combinations(pool_sorted, size)

    def inputs(lo: int, hi: int) -> tuple:
        subsets = np.array(list(itertools.islice(combos, hi - lo)), dtype=np.int64)
        return problem._forced(subsets, np.arange(hi - lo)[:, None], hi - lo)

    counts = problem.kernel.reduce_columns(math.comb(len(pool_sorted), size), inputs,
                                           _horizon_counts)
    best = int(np.argmax(counts))
    members = next(itertools.islice(itertools.combinations(pool_sorted, size), best, None))
    return _finish(problem, np.sort(members), int(counts[best]), None)
