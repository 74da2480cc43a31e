"""Observed recovery: durations from visit series, empirical recovered
weeks, and the 0-1 loss against simulated recovered weeks.

A unit counts as recovered on the first day its smoothed visit count holds
at or above a fraction of its pre-event baseline for a run of consecutive
days; the duration is that day expressed in weeks, capped at 14.
Recovery never reverts, so a node's weekly states are fixed by the number
of weeks 1..T it spends recovered.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .graph import align_rows

CAP_WEEKS = 14
CAP_DAYS = CAP_WEEKS * 7


class VisitRowError(DataError):
    """A row of a visit matrix that breaks a series rule; row is its index."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


def _check_visit_matrix(
    visits: np.ndarray, baseline_start: int, baseline_end: int, recovery_start: int
) -> None:
    """The series rules for a units x days matrix whose rows share one
    window: counts are nonnegative, the inclusive baseline window lies in the
    series and precedes recovery_start, and 98 days (14 weeks) follow
    recovery_start. The window and length are checked once; the error names
    the first row that breaks a rule, a row's counts checked before the
    shared window."""
    negative = np.flatnonzero((visits < 0).any(axis=1))
    length = visits.shape[1]
    problem = None
    if not 0 <= baseline_start <= baseline_end:
        problem = f"invalid baseline window [{baseline_start}, {baseline_end}]"
    elif baseline_end >= recovery_start:
        problem = "baseline window must precede recovery start"
    elif baseline_end >= length:
        problem = "baseline window extends past the series"
    elif length - recovery_start < CAP_DAYS:
        problem = (
            f"series too short: need >= {CAP_DAYS} days after recovery start, "
            f"got {length - recovery_start}"
        )
    if negative.size and (problem is None or negative[0] == 0):
        raise VisitRowError("visit counts must be nonnegative", int(negative[0]))
    if problem is not None:
        raise VisitRowError(problem, 0)


def moving_average(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Centered moving average along the last axis; the window shrinks at
    the series edges."""
    values = np.asarray(values, dtype=np.float64)
    if halfwidth == 0:
        return values.copy()
    n = values.shape[-1]
    cumsum = np.zeros(values.shape[:-1] + (n + 1,))
    np.cumsum(values, axis=-1, out=cumsum[..., 1:])
    idx = np.arange(n)
    lo = np.maximum(idx - halfwidth, 0)
    hi = np.minimum(idx + halfwidth, n - 1)
    return (cumsum[..., hi + 1] - cumsum[..., lo]) / (hi - lo + 1)


def compute_recovery_durations(
    visits: np.ndarray,
    baseline_start: int,
    baseline_end: int,
    recovery_start: int,
    ratio: float = 0.9,
    persistence_days: int = 3,
    ma_halfwidth: int = 3,
) -> np.ndarray:
    """Weeks until smoothed visits persist at >= ratio x baseline, capped at
    14, for every row of a units x days matrix whose rows share the window
    (indices into a row). Counts must be nonnegative, the inclusive baseline
    window must lie in the series and precede recovery_start, and the series
    must extend 98 days (14 weeks) past recovery_start; a VisitRowError
    names the first row that breaks a rule.

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
    visits = np.asarray(visits, dtype=np.float64)
    if visits.ndim != 2:
        raise DataError("visit matrix must be two-dimensional")
    _check_visit_matrix(visits, baseline_start, baseline_end, recovery_start)

    baseline = visits[:, baseline_start : baseline_end + 1].mean(axis=1)
    smoothed = moving_average(visits, ma_halfwidth)
    threshold = ratio * baseline

    # days 1..CAP_DAYS and the runs that follow them, cut at the series end
    # so that a run needing unseen days has no window
    scanned = smoothed[:, recovery_start : recovery_start + CAP_DAYS + persistence_days - 1]
    meets = scanned >= threshold[:, None]
    durations = np.full(visits.shape[0], float(CAP_WEEKS))
    if meets.shape[1] >= persistence_days:
        held = sliding_window_view(meets, persistence_days, axis=1).all(axis=2)
        recovered = held.any(axis=1)
        durations[recovered] = (np.argmax(held[recovered], axis=1) + 1) / 7.0
    return durations


def validate_durations(
    durations: Sequence[float],
    horizon: int = CAP_WEEKS,
    node_ids: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Durations as float64, each finite, positive and at most horizon weeks;
    a DataError names the first entry that is not, by its id in node_ids
    when given, else by its index."""
    arr = np.asarray(durations, dtype=np.float64)
    bad = ~np.isfinite(arr) | (arr <= 0) | (arr > horizon)
    if bad.any():
        i = int(np.argmax(bad))
        value = arr[i]
        rule = (
            "must be finite" if not np.isfinite(value)
            else "must be strictly positive" if value <= 0
            else f"must be capped at {horizon} weeks"
        )
        entry = f"node {node_ids[i]!r}" if node_ids is not None else f"entry {i}"
        raise DataError(f"durations {rule}; {entry} has {value:g}")
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
    or an n x P empirical matrix); two n-vectors give one integer. Both
    operands lie in 0..horizon, so signed integer operands are subtracted in
    their common type (the kernel's narrow weeks type, say) and summed into
    int64; other operands are taken as int64.
    """
    s, s_hat = np.asarray(empirical), np.asarray(simulated)
    if s.shape != s_hat.shape and not (s.ndim == 1 and s_hat.shape[:1] == s.shape):
        raise ValueError(f"week count shapes differ: {s.shape} vs {s_hat.shape}")
    if s.ndim < s_hat.ndim:
        s = s[:, None]
    dtype = np.result_type(s, s_hat, np.int8)
    diff = np.subtract(s, s_hat, dtype=dtype if dtype.kind == "i" else np.int64, casting="unsafe")
    loss = np.abs(diff).sum(axis=0, dtype=np.int64)
    return int(loss) if loss.ndim == 0 else loss


def align_durations(
    durations: Mapping[str, float],
    node_ids: Sequence[str],
    horizon: int = CAP_WEEKS,
    source: str = "durations",
) -> np.ndarray:
    """Duration table values in the given node order, checked by
    validate_durations; errors name source (the table's file)."""
    rows = align_rows(
        tuple(durations), node_ids, source,
        hint="an edge list cannot hold isolated units, a graph built from --geometry can",
    )
    values = np.fromiter(durations.values(), np.float64, len(durations))[rows]
    try:
        return validate_durations(values, horizon, node_ids)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None
