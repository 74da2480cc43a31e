"""Observed recovery: durations from visit series, empirical recovered
weeks, and the 0-1 loss against simulated recovered weeks.

A unit counts as recovered on the first day its smoothed visit count holds
at or above a fraction of its pre-event baseline for a run of consecutive
days; the duration is that day expressed in weeks, capped at 14.
Recovery never reverts, so a node's weekly states are fixed by the number
of weeks 1..T it spends recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

CAP_WEEKS = 14
CAP_DAYS = CAP_WEEKS * 7


@dataclass(frozen=True, eq=False)
class VisitSeries:
    """Daily visit counts for one unit, with the baseline window and the
    first day on which recovery is assessed (all indices into `visits`).

    The baseline window is inclusive and must precede recovery_start; the
    series must extend at least 98 days (14 weeks) past recovery_start.
    """

    visits: np.ndarray
    baseline_start: int
    baseline_end: int
    recovery_start: int

    def __post_init__(self) -> None:
        visits = np.asarray(self.visits, dtype=np.float64)
        object.__setattr__(self, "visits", visits)
        if visits.ndim != 1:
            raise DataError("visit series must be one-dimensional")
        if np.any(visits < 0):
            raise DataError("visit counts must be nonnegative")
        if not 0 <= self.baseline_start <= self.baseline_end:
            raise DataError(
                f"invalid baseline window [{self.baseline_start}, {self.baseline_end}]"
            )
        if self.baseline_end >= self.recovery_start:
            raise DataError("baseline window must precede recovery start")
        if self.baseline_end >= visits.shape[0]:
            raise DataError("baseline window extends past the series")
        if visits.shape[0] - self.recovery_start < CAP_DAYS:
            raise DataError(
                f"series too short: need >= {CAP_DAYS} days after recovery start, "
                f"got {visits.shape[0] - self.recovery_start}"
            )


def moving_average(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Centered moving average; the window shrinks at the series edges."""
    values = np.asarray(values, dtype=np.float64)
    if halfwidth == 0:
        return values.copy()
    n = values.shape[0]
    cumsum = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(n)
    lo = np.maximum(idx - halfwidth, 0)
    hi = np.minimum(idx + halfwidth, n - 1)
    return (cumsum[hi + 1] - cumsum[lo]) / (hi - lo + 1)


def compute_recovery_duration(
    series: VisitSeries,
    ratio: float = 0.9,
    persistence_days: int = 3,
    ma_halfwidth: int = 3,
) -> float:
    """Weeks until smoothed visits persist at >= ratio x baseline, capped at 14.

    The baseline is the mean over the baseline window; the smoothed series is
    a centered moving average (halfwidth days each side). Recovery is the
    first day d (1-based from recovery_start) such that the smoothed value
    meets the criterion on d and the persistence_days-1 following days; the
    duration is d/7 weeks. No qualifying day within 98 days gives 14 weeks.
    A persistence run that would extend past the end of the series cannot
    qualify (the criterion is never assumed on unseen days).
    """
    if not 0 < ratio <= 1:
        raise ConfigError(f"ratio must be in (0, 1], got {ratio}")
    if persistence_days < 1:
        raise ConfigError(f"persistence_days must be >= 1, got {persistence_days}")
    if ma_halfwidth < 0:
        raise ConfigError(f"ma_halfwidth must be >= 0, got {ma_halfwidth}")

    baseline = float(
        np.mean(series.visits[series.baseline_start : series.baseline_end + 1])
    )
    smoothed = moving_average(series.visits, ma_halfwidth)
    threshold = ratio * baseline

    # days 1..CAP_DAYS and the runs that follow them, cut at the series end
    # so that a run needing unseen days has no window
    start = series.recovery_start
    meets = smoothed[start : start + CAP_DAYS + persistence_days - 1] >= threshold
    if meets.size >= persistence_days:
        held = sliding_window_view(meets, persistence_days).all(axis=1)
        days = np.flatnonzero(held)
        if days.size:
            return (days[0] + 1) / 7.0
    return float(CAP_WEEKS)


def validate_durations(durations: Sequence[float], horizon: int = CAP_WEEKS) -> np.ndarray:
    arr = np.asarray(durations, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("durations must be finite")
    if np.any(arr <= 0):
        raise DataError("durations must be strictly positive")
    if np.any(arr > horizon):
        raise DataError(
            f"durations must be capped at {horizon} weeks; max is {arr.max():g}"
        )
    return arr


def durations_to_weeks(durations: Sequence[float], horizon: int = CAP_WEEKS) -> np.ndarray:
    """Empirical recovered weeks: a node with duration d is recovered at
    week t iff d <= t, so for weeks 1..horizon it spends horizon + 1 -
    ceil(d) of them recovered. Durations must already be capped at the
    horizon."""
    arr = validate_durations(durations, horizon)
    return (horizon + 1 - np.ceil(arr)).astype(np.int64)


def zero_one_loss(empirical: np.ndarray, simulated: np.ndarray) -> int | np.ndarray:
    """Count of node-week cells, weeks 1..T, where two trajectories given as
    recovered weeks disagree: |empirical - simulated| summed over nodes.

    A simulated n x P matrix gives one loss per column (against an n-vector
    or an n x P empirical matrix); two n-vectors give one integer.
    """
    s = np.asarray(empirical, dtype=np.int64)
    s_hat = np.asarray(simulated, dtype=np.int64)
    if s.shape != s_hat.shape and not (s.ndim == 1 and s_hat.shape[:1] == s.shape):
        raise ValueError(f"week count shapes differ: {s.shape} vs {s_hat.shape}")
    if s.ndim < s_hat.ndim:
        s = s[:, None]
    loss = np.abs(s - s_hat).sum(axis=0)
    return int(loss) if loss.ndim == 0 else loss


def _first_ten(ids: Sequence[str]) -> str:
    return ", ".join(map(str, ids[:10])) + (" ..." if len(ids) > 10 else "")


def align_durations(
    durations: Mapping[str, float], node_ids: Sequence[str]
) -> np.ndarray:
    """Duration table values in the given node order; nodes missing a
    duration and durations of nodes outside node_ids are both named."""
    missing = [n for n in node_ids if n not in durations]
    if missing:
        raise DataError(f"nodes missing a duration: {_first_ten(missing)}")
    extra = sorted(set(durations) - set(node_ids))
    if extra:
        raise DataError(
            f"durations for nodes absent from the graph: {_first_ten(extra)}; an edge list "
            "cannot hold isolated units, a graph built from --geometry can"
        )
    return np.array([float(durations[n]) for n in node_ids], dtype=np.float64)
