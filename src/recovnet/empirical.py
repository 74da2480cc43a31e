"""Observed recovery: durations from visit series, empirical recovered
weeks, and the 0-1 loss against simulated recovered weeks.

A unit counts as recovered on the first day its smoothed visit count holds
at or above a fraction of its pre-event baseline for a run of consecutive
days; the duration is that day expressed in weeks, capped at 14. One call
scores a whole visits table: its units that share a first day and a series
length share a window, and each such group is scored as one matrix.
align_durations, the one range check of a duration table, puts it in node
order. Recovery never reverts, so a node's weekly states are fixed by the
number of weeks 1..T it spends recovered.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .graph import align_rows

CAP_WEEKS = 14
CAP_DAYS = CAP_WEEKS * 7


def _window_rule(start: int, end: int, recovery: int, length: int) -> Optional[str]:
    """The window rule a series of length days breaks, else None: the
    inclusive baseline window start..end lies in the series and precedes
    recovery, and 98 days (14 weeks) follow recovery (days index the series)."""
    if not 0 <= start <= end:
        return f"invalid baseline window [{start}, {end}]"
    if end >= recovery:
        return "baseline window must precede recovery start"
    if end >= length:
        return "baseline window extends past the series"
    if length - recovery < CAP_DAYS:
        return (f"series too short: need >= {CAP_DAYS} days after recovery start, "
                f"got {length - recovery}")
    return None


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
    series: Mapping[str, tuple[int, np.ndarray]],
    baseline_start: int,
    baseline_end: int,
    recovery_start: int,
    ratio: float = 0.9,
    persistence_days: int = 3,
    ma_halfwidth: int = 3,
    source: str = "visits",
) -> np.ndarray:
    """Weeks until smoothed visits persist at >= ratio x baseline, capped at
    14, for each unit of series (id -> (first day, daily visits), as
    io.read_visit_series returns it), in mapping order. The three days are
    absolute, as the series' first days are.

    Counts must be nonnegative, the inclusive baseline window must lie in a
    unit's series and precede recovery_start, and the series must extend 98
    days (14 weeks) past recovery_start. A DataError names source (the
    file) and the first unit in mapping order that breaks a rule, its counts
    checked before its window; no group is scored once a fault is found.

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
    units = list(series.values())
    # units sharing a first day and a length share a window: one matrix each
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (first_day, visits) in enumerate(units):
        groups.setdefault((first_day, len(visits)), []).append(i)
    durations = np.empty(len(units))
    first, fault = len(units), None  # the first faulty unit and the rule it breaks
    for (first_day, length), rows in groups.items():
        visits = np.stack([units[i][1] for i in rows]).astype(np.float64, copy=False)
        days = (baseline_start - first_day, baseline_end - first_day, recovery_start - first_day)
        negative = (visits < 0).any(axis=1)
        window = _window_rule(*days, length)
        faulty = np.flatnonzero(negative | (window is not None))
        if faulty.size and rows[faulty[0]] < first:
            k = faulty[0]
            first, fault = rows[k], "visit counts must be nonnegative" if negative[k] else window
        elif fault is None and not faulty.size:
            durations[rows] = _scan(visits, *days, ratio, persistence_days, ma_halfwidth)
    if fault is not None:
        raise DataError(f"{source}: unit {list(series)[first]!r}: {fault}")
    return durations


def _scan(visits: np.ndarray, start: int, end: int, recovery: int, ratio: float,
          persistence_days: int, ma_halfwidth: int) -> np.ndarray:
    """The durations of a units x days matrix's rows, which share a window
    that keeps its rules (days index a row)."""
    threshold = ratio * visits[:, start : end + 1].mean(axis=1)
    smoothed = moving_average(visits, ma_halfwidth)
    # days 1..CAP_DAYS and the runs that follow them, cut at the series end
    # so that a run needing unseen days has no window
    scanned = smoothed[:, recovery : recovery + CAP_DAYS + persistence_days - 1]
    meets = scanned >= threshold[:, None]
    durations = np.full(visits.shape[0], float(CAP_WEEKS))
    if meets.shape[1] >= persistence_days:
        held = sliding_window_view(meets, persistence_days, axis=1).all(axis=2)
        recovered = held.any(axis=1)
        durations[recovered] = (np.argmax(held[recovered], axis=1) + 1) / 7.0
    return durations


def durations_to_weeks(durations: Sequence[float], horizon: int = CAP_WEEKS) -> np.ndarray:
    """Empirical recovered weeks: a node with duration d is recovered at
    week t iff d <= t, so for weeks 1..horizon it spends horizon + 1 -
    ceil(d) of them recovered. The durations are taken as align_durations
    checked them: finite, positive and at most horizon."""
    return (horizon + 1 - np.ceil(np.asarray(durations, dtype=np.float64))).astype(np.int64)


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


def align_durations(ids: Sequence[str], values: Sequence[float], nodes: Sequence[str],
                    horizon: int = CAP_WEEKS, source: str = "durations") -> np.ndarray:
    """A duration table's values (the rows of ids) as float64 in the given
    node order, each finite, positive and at most horizon weeks. A DataError
    names source (the table's file) and, for a value out of range, the first
    such node in node order."""
    rows = align_rows(ids, nodes, source, hint="an edge list cannot hold isolated units, "
                      "a graph built from --geometry can")
    aligned = np.asarray(values, dtype=np.float64)[rows]
    bad = ~np.isfinite(aligned) | (aligned <= 0) | (aligned > horizon)
    if bad.any():
        i = int(np.argmax(bad))
        value = aligned[i]
        rule = (
            "must be finite" if not np.isfinite(value)
            else "must be strictly positive" if value <= 0
            else f"must be capped at {horizon} weeks"
        )
        raise DataError(f"{source}: durations {rule}; node {nodes[i]!r} has {value:g}")
    return aligned
