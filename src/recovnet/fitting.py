"""Stage-1 optimization: estimate per-node thresholds from observed
recovery durations by minimizing the 0-1 loss between the simulated and
empirical trajectories.

Nodes recovering faster than the seed cutoff are pinned at threshold zero
and excluded from the chromosome; the GA optimizes only the free nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .diffusion import (
    DiffusionKernel,
    DiffusionSchedule,
    ThresholdVector,
    all_affected,
    map_column_chunks,
    run_diffusion,
)
from .empirical import align_durations, durations_to_trajectory, validate_durations, zero_one_loss
from .errors import ConfigError
from .ga import GaConfig, GaResult, GenerationRecord, PopulationFitness, RealVectorEncoding, run_ga
from .graph import SpatialGraph

DEFAULT_SEED_CUTOFF_WEEKS = 3.0


@dataclass(eq=False)
class FitProblem:
    """A graph, the empirical trajectory, and the seed/free node split.

    The empirical trajectory must be monotone (as built from durations):
    the loss is then the per-node gap between recovered-week counts.
    """

    graph: SpatialGraph
    empirical: np.ndarray
    seed_mask: np.ndarray
    schedule: DiffusionSchedule
    kernel: DiffusionKernel = field(init=False, repr=False)
    free_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.kernel = DiffusionKernel(self.graph, self.schedule)
        self.free_indices = np.flatnonzero(~self.seed_mask)
        self._empirical_weeks = (
            np.asarray(self.empirical)[1:].sum(axis=0).astype(self.kernel.dtype)[:, None]
        )

    @property
    def free_count(self) -> int:
        return int(self.free_indices.size)

    def losses(self, chromosomes: np.ndarray) -> np.ndarray:
        """0-1 loss of each row's free-node thresholds (rows: P x free_count)."""

        def chunk(rows: np.ndarray) -> np.ndarray:
            values = np.zeros((self.graph.n, rows.shape[0]))
            values[self.free_indices] = rows.T
            affected = np.zeros(values.shape, dtype=bool)
            weeks = self.kernel.weeks_recovered(self.kernel.need(values), affected)
            return np.abs(weeks - self._empirical_weeks).sum(axis=0, dtype=np.int64)

        return map_column_chunks(chunk, chromosomes, self.graph.n)


@dataclass
class FitResult:
    """Fitted thresholds, the loss of their simulation, and the GA trace."""

    thresholds: ThresholdVector
    final_loss: int
    ga_result: GaResult


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
) -> FitProblem:
    """Split nodes into seeds (duration below the cutoff) and free nodes,
    and build the empirical trajectory from the duration table.

    Warns when the seed set is empty (nothing can ever recover from an
    all-affected start) and when a seed's empirical recovery week differs
    from the schedule's first update week (irreducible loss).
    """
    if seed_cutoff_weeks <= 0:
        raise ConfigError(f"seed_cutoff_weeks must be > 0, got {seed_cutoff_weeks}")
    values = align_durations(durations, graph.nodes)
    validate_durations(values, schedule.horizon)
    seed_mask = values < seed_cutoff_weeks
    empirical = durations_to_trajectory(values, schedule.horizon)

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


def fit_fitness(free_values: np.ndarray, problem: FitProblem) -> int:
    """0-1 loss of the diffusion run under the chromosome's thresholds."""
    free_values = np.asarray(free_values, dtype=np.float64)
    if free_values.shape != (problem.free_count,):
        raise ValueError(
            f"chromosome has shape {free_values.shape}, expected ({problem.free_count},)"
        )
    if not np.all((free_values >= 0.0) & (free_values <= 1.0)):
        raise ValueError("threshold values must be finite and lie in [0, 1]")
    return int(problem.losses(free_values[None, :])[0])


def fit_thresholds(problem: FitProblem, config: GaConfig) -> FitResult:
    """Minimize the 0-1 loss over free-node thresholds with the GA.

    A problem with no free nodes (every node a seed) has nothing to
    optimize; the all-zero threshold vector is returned directly with a
    single synthetic generation record.
    """
    if problem.free_count == 0:
        loss = fit_fitness(np.empty(0), problem)
        tau = ThresholdVector.assemble(problem.graph.nodes, problem.seed_mask, np.empty(0))
        trivial = GaResult(
            best_chromosome=np.empty(0),
            best_fitness=loss,
            history=[GenerationRecord(generation=0, best_fitness=loss, seconds=0.0)],
        )
        return FitResult(thresholds=tau, final_loss=loss, ga_result=trivial)

    encoding = RealVectorEncoding(problem.free_count)
    result = run_ga(
        PopulationFitness(lambda population: problem.losses(population).tolist()),
        direction="minimize",
        encoding=encoding,
        config=config,
    )
    tau = ThresholdVector.assemble(
        problem.graph.nodes, problem.seed_mask, result.best_chromosome
    )
    # re-simulate rather than trust the GA bookkeeping
    simulated = run_diffusion(problem.graph, tau, all_affected(problem.graph.n), problem.schedule)
    final_loss = zero_one_loss(problem.empirical, simulated)
    return FitResult(thresholds=tau, final_loss=final_loss, ga_result=result)


def random_baseline(problem: FitProblem, runs: int, rng_seed: int = 0) -> BaselineStats:
    """Loss distribution of uniform-random thresholds on the free nodes,
    simulated in column chunks."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    rng = np.random.default_rng(rng_seed)
    chromosomes = rng.random((runs, problem.free_count))
    arr = problem.losses(chromosomes).astype(np.float64)
    std = float(arr.std(ddof=1)) if runs > 1 else 0.0
    return BaselineStats(mean=float(arr.mean()), std=std, runs=runs, losses=arr)
