"""Stage-1 optimization: estimate per-node thresholds from observed
recovery durations by minimizing the 0-1 loss between the simulated and
empirical trajectories, both held as each node's recovered weeks.

Nodes recovering faster than the seed cutoff are pinned at threshold zero
and excluded from the chromosome; the GA optimizes only the free nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .diffusion import DEFAULT_SEED_CUTOFF_WEEKS, DiffusionKernel, DiffusionSchedule
from .empirical import align_durations, durations_to_weeks, zero_one_loss
from .errors import ConfigError
from .graph import SpatialGraph

if TYPE_CHECKING:  # only fit_thresholds runs the GA, and it imports it
    from .ga import GaConfig, GaResult


@dataclass(eq=False)
class FitProblem:
    """A graph, the empirical recovered weeks, and the seed/free node split."""

    graph: SpatialGraph
    empirical: np.ndarray
    seed_mask: np.ndarray
    schedule: DiffusionSchedule
    kernel: DiffusionKernel = field(init=False, repr=False)
    free_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.kernel = DiffusionKernel(self.graph, self.schedule)
        self.free_indices = np.flatnonzero(~self.seed_mask)
        self._free_rows = self.kernel.rank[self.free_indices]
        self._empirical = self.empirical[self.kernel.order].astype(self.kernel.weeks_dtype)

    @property
    def free_count(self) -> int:
        return int(self.free_indices.size)

    def losses(self, chromosomes: np.ndarray) -> np.ndarray:
        """0-1 loss of each row's free-node thresholds (rows: P x free_count),
        each simulated from the all-affected start."""
        return self.kernel.reduce_columns(
            len(chromosomes), lambda lo, hi: self._inputs(chromosomes[lo:hi]), self._loss)

    def _inputs(self, chromosomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The need of each row's thresholds and the all-affected start."""
        values = np.zeros((self.graph.n, chromosomes.shape[0]))
        values[self._free_rows] = chromosomes.T
        need = self.kernel.need(values)
        return need, np.zeros(need.shape, bool)

    def _loss(self, weeks: np.ndarray) -> np.ndarray:
        return zero_one_loss(self._empirical, weeks)


@dataclass
class FitResult:
    """Fitted thresholds and their simulated weeks (both node order; the
    problem's seed_mask marks the seeds), their loss, and the GA trace."""

    thresholds: np.ndarray
    final_loss: int
    ga_result: GaResult
    weeks: np.ndarray


@dataclass(frozen=True, eq=False)
class BaselineStats:
    """Loss of repeated uniform-random threshold draws."""

    mean: float
    std: float
    runs: int
    losses: np.ndarray


def build_fit_problem(
    graph: SpatialGraph,
    durations: Mapping[str, float],
    seed_cutoff_weeks: float = DEFAULT_SEED_CUTOFF_WEEKS,
    schedule: DiffusionSchedule = DiffusionSchedule(),
    source: str = "durations",
) -> FitProblem:
    """Split nodes into seeds (duration below the cutoff) and free nodes,
    and take the empirical recovered weeks from the duration table (errors
    name source, its file).

    Warns when the seed set is empty (nothing can ever recover from an
    all-affected start) and when a seed's empirical recovery week differs
    from the schedule's first update week (irreducible loss).
    """
    if seed_cutoff_weeks <= 0:
        raise ConfigError(f"seed_cutoff must be > 0, got {seed_cutoff_weeks}")
    values = align_durations(durations, graph.nodes, schedule.horizon, source)
    empirical = durations_to_weeks(values, schedule.horizon)
    seed_mask = values < seed_cutoff_weeks

    if not seed_mask.any():
        warnings.warn(
            "no node recovers faster than the seed cutoff; with an all-affected "
            "start the simulation can never recover any node",
            stacklevel=2,
        )
    seed_weeks = np.ceil(values[seed_mask])
    off_schedule = int(np.sum(seed_weeks != schedule.first_update_week))
    if off_schedule:
        warnings.warn(
            f"{off_schedule} seed node(s) recover empirically in a week other than "
            f"week {schedule.first_update_week}; that loss cannot be fitted away",
            stacklevel=2,
        )
    return FitProblem(graph=graph, empirical=empirical, seed_mask=seed_mask, schedule=schedule)


def fit_thresholds(problem: FitProblem, config: GaConfig) -> FitResult:
    """Minimize the 0-1 loss over free-node thresholds with the GA.

    A problem with no free nodes (every node a seed) has nothing to
    optimize; the all-zero threshold vector is returned directly with a
    history of one generation that took no time.
    """
    from .ga import GaResult, RealVectorEncoding, run_ga
    if problem.free_count == 0:
        losses = problem.losses(np.empty((1, 0)))
        result = GaResult(best_chromosome=np.empty(0), best_fitness=losses[0].item(),
                          history=losses, seconds=np.zeros(1))
    else:
        encoding = RealVectorEncoding(problem.free_count)
        result = run_ga(problem.losses, direction="minimize", encoding=encoding, config=config)
    thresholds = np.zeros(problem.graph.n)
    thresholds[problem.free_indices] = result.best_chromosome
    # re-simulate rather than trust the GA bookkeeping
    weeks = problem.kernel.run(thresholds)
    final_loss = zero_one_loss(problem.empirical, weeks)
    return FitResult(thresholds=thresholds, final_loss=final_loss, ga_result=result, weeks=weeks)


def random_baseline(problem: FitProblem, runs: int, rng_seed: int = 0) -> BaselineStats:
    """Loss distribution of uniform-random thresholds on the free nodes,
    drawn and simulated one kernel call at a time."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    rng = np.random.default_rng(rng_seed)
    # the generator's doubles come in sequence, so the calls' draws are the
    # rows of one runs x free_count draw
    arr = problem.kernel.reduce_columns(
        runs, lambda lo, hi: problem._inputs(rng.random((hi - lo, problem.free_count))),
        problem._loss,
    ).astype(np.float64)
    std = float(arr.std(ddof=1)) if runs > 1 else 0.0
    return BaselineStats(mean=float(arr.mean()), std=std, runs=runs, losses=arr)
