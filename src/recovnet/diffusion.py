"""Progressive two-state threshold diffusion over a weekly schedule.

A node flips from affected (0) to recovered (1) once the fraction of its
neighbors already recovered reaches its threshold; recovered nodes never
revert. Updates are synchronous from the previous week's state, start at a
configurable week, and stop at the horizon.

A run is therefore described in full by each node's recovered weeks w in
0..horizon (the node recovers at week horizon + 1 - w; w = 0 means never),
which is what simulations return.

Thresholds are plain float64 arrays in the graph's node order (graph.align_rows
puts a table's rows there); where seeds matter, a boolean seed_mask beside them
marks the nodes pinned at 0. DiffusionKernel.run, which every whole-vector
simulation goes through, is where a vector is checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .graph import SpatialGraph

DEFAULT_HORIZON_WEEKS = 14
DEFAULT_FIRST_UPDATE_WEEK = 3
# stage 1 pins nodes that recover within this many weeks at threshold 0
DEFAULT_SEED_CUTOFF_WEEKS = 3.0
# the most seed sets an exhaustive stage-2 search simulates
DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class DiffusionSchedule:
    """Weekly horizon and the first week at which states are updated.

    Weeks 1 .. first_update_week-1 freeze the initial state, so nodes with
    threshold zero recover exactly at the end of first_update_week.
    """

    horizon: int = DEFAULT_HORIZON_WEEKS
    first_update_week: int = DEFAULT_FIRST_UPDATE_WEEK

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not 1 <= self.first_update_week <= self.horizon:
            raise ConfigError(
                f"first_update_week must be in [1, {self.horizon}], "
                f"got {self.first_update_week}"
            )


# cells (nodes x columns) per kernel call, but never fewer columns than
# CHUNK_MIN_COLUMNS, the widest row take copies on its fast path (see
# weeks_recovered): 32 columns at n = 2010 and above, 1 638 at n = 40
CHUNK_CELLS = 1 << 16
CHUNK_MIN_COLUMNS = 32


class DiffusionKernel:
    """One graph and schedule, prepared once and simulated for many columns.

    A column is one threshold vector with one initial state. The states of
    all columns form an n x P matrix that advances one week per neighbour
    count, until no column changes. Thresholds enter as recovery needs:
    the smallest recovered-neighbor count whose float64 fraction count/deg
    meets the threshold, so each week is one count and one comparison and
    the tie rule (a fraction equal to the threshold recovers) holds
    exactly.

    Rows are in kernel order, by descending degree: row r is node order[r]
    and node i is row rank[i]. need and weeks_recovered take and return
    matrices in that order, so callers map their rows once; run maps one
    node-order column in and out. Every caller that scores many columns goes
    through reduce_columns, which runs weeks_recovered in calls of
    chunk_columns() columns and reduces each call's weeks. calls counts the
    weeks_recovered calls made so far by their column count.

    Counts use a jagged-diagonal layout: slot k holds the row of the k-th
    neighbour of every node of degree above k, which is a prefix of the
    rows. A week gathers the state rows of each slot and adds them into that
    prefix of the counts; a need counts the fractions c/deg below the
    threshold over the same prefixes. So memory is O(edges) even with a hub.
    States, needs and counts use the smallest unsigned integer type that
    holds the largest degree + 1, recovered weeks the signed type of that
    width (wider if the horizon needs it), so that a 0/1 state adds to the
    weeks as a view.
    """

    def __init__(self, g: SpatialGraph, schedule: DiffusionSchedule = DiffusionSchedule()):
        self.schedule = schedule
        max_degree = int(g.degrees.max(initial=0))
        size = max(np.min_scalar_type(max_degree + 1).itemsize,
                   np.min_scalar_type(-schedule.horizon - 1).itemsize)
        self.dtype, self.weeks_dtype = np.dtype(f"u{size}"), np.dtype(f"i{size}")
        self.order = np.argsort(-g.degrees, kind="stable")
        self.rank = np.empty(g.n, dtype=np.intp)
        self.rank[self.order] = np.arange(g.n)
        self.calls: Counter = Counter()
        starts = g.indptr[self.order]
        descending = -g.degrees[self.order]
        self._slots = [
            self.rank[g.indices[starts[: np.searchsorted(descending, -k)] + k]]
            for k in range(max_degree)
        ]
        # c / deg for c = 0..deg over the rows of degree >= c; an isolate's
        # fraction is 0, which is what count/1 gives it
        degrees = np.maximum(-descending, 1).astype(np.float64)
        self._fractions = [
            (c / degrees[: np.count_nonzero(degrees >= c)])[:, None]
            for c in range(max(max_degree, 1) + 1)
        ]

    def need(self, values: np.ndarray) -> np.ndarray:
        """Recovery needs for an n x P matrix of thresholds in kernel order.

        Threshold t needs the smallest c in 0..deg with c/deg >= t in
        float64, which is the number of c in 0..deg with c/deg < t: deg + 1
        (never met) when there is none, as for t > 1 or an isolate with t > 0.
        """
        values = np.asarray(values, dtype=np.float64)
        need = np.zeros(values.shape, dtype=self.dtype)
        below = np.empty(values.shape, dtype=bool)
        for fractions in self._fractions:
            rows = fractions.shape[0]
            np.less(fractions, values[:rows], out=below[:rows])
            need[:rows] += below[:rows].view(np.uint8)
        return need

    def run(self, values: np.ndarray) -> np.ndarray:
        """Recovered weeks, in node order, of one threshold vector in node
        order from the all-affected start: one 1-column call. The vector
        must have one value in [0, 1] per node (so no NaN): every
        whole-vector simulation comes here, and this is its one check."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.rank.shape:
            raise ValueError(f"threshold vector has shape {values.shape}, graph has "
                             f"{self.rank.size} nodes")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("threshold values must lie in [0, 1]")
        need = self.need(values[self.order, None])
        return self.weeks_recovered(need, np.zeros(need.shape, bool))[self.rank, 0]

    def chunk_columns(self) -> int:
        """Columns per reduce_columns call: CHUNK_CELLS // n, and at least
        CHUNK_MIN_COLUMNS. A call's matrices stay cache-sized, and a large
        graph's calls still copy the widest fast rows."""
        return max(CHUNK_MIN_COLUMNS, CHUNK_CELLS // max(self.order.size, 1))

    def reduce_columns(self, columns: int, inputs: Callable[[int, int], tuple],
                       reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """reduce of each call's recovered weeks, concatenated over columns
        0..columns-1 in calls of chunk_columns() columns, in column order:
        inputs(lo, hi) gives columns lo..hi-1's need (or the shared n x 1
        need) and initial states, as weeks_recovered takes them. A last
        call of fewer than half as many columns joins the one before it: a
        week costs a 4-column call about two thirds of a 32-column one."""
        size = self.chunk_columns()
        bounds = list(range(0, columns, size))
        if len(bounds) > 1 and columns - bounds[-1] < size // 2:
            del bounds[-1]
        bounds.append(columns)
        return np.concatenate([reduce(self.weeks_recovered(*inputs(lo, hi)))
                               for lo, hi in zip(bounds, bounds[1:])])

    def _count(self, state: np.ndarray, counts: np.ndarray, gathered: np.ndarray) -> None:
        """Recovered neighbours of every row, written into counts (rows past
        the first slot, the isolates, stay zero)."""
        if not self._slots:
            return
        head = self._slots[0]
        state.take(head, axis=0, out=counts[: head.size], mode="clip")
        for slot in self._slots[1:]:
            part = gathered[: slot.size]
            state.take(slot, axis=0, out=part, mode="clip")
            counts[: slot.size] += part

    def weeks_recovered(self, need: np.ndarray, initial: np.ndarray) -> np.ndarray:
        """Weeks 1..horizon that each node spends recovered, per column.

        need is n x P (or n x 1, shared by every column) and initial an
        n x P boolean matrix of week-0 states, both in kernel order, as is
        the result. Since states never revert, a node with w recovered weeks
        recovers at week horizon + 1 - w; the count fixes the whole
        trajectory, the final state (w > 0) and the 0-1 loss against any
        other monotone trajectory.
        """
        horizon, first = self.schedule.horizon, self.schedule.first_update_week
        columns = initial.shape[1]
        self.calls[columns] += 1
        # take copies rows of 1, 2, 4, 8, 16 or 32 bytes far faster than
        # others: pad to such a width with columns whose need is never met
        width = 1 << (columns - 1).bit_length() if columns <= 32 else columns
        state = np.zeros((initial.shape[0], width), dtype=self.dtype)
        state[:, :columns] = initial
        if need.shape[1] > 1 and width > columns:
            never = np.full((need.shape[0], width - columns), np.iinfo(self.dtype).max, self.dtype)
            need = np.concatenate([need, never], axis=1)
        as_weeks = state.view(self.weeks_dtype)
        weeks = as_weeks * self.weeks_dtype.type(first - 1)
        recovered = np.count_nonzero(state)
        counts = np.zeros(state.shape, dtype=self.dtype)
        gathered = np.empty(state.shape, dtype=self.dtype)
        ready = np.empty(state.shape, dtype=bool)
        for t in range(first, horizon + 1):
            self._count(state, counts, gathered)
            np.greater_equal(counts, need, out=ready)
            np.bitwise_or(state, ready.view(np.uint8), out=state)
            now = np.count_nonzero(state)
            if now == recovered:  # fixed point: weeks t..horizon repeat this state
                weeks += as_weeks * self.weeks_dtype.type(horizon + 1 - t)
                break
            weeks += as_weeks
            recovered = now
        return weeks[:, :columns]


def run_diffusion(
    g: SpatialGraph, thresholds: np.ndarray, schedule: DiffusionSchedule = DiffusionSchedule()
) -> np.ndarray:
    """Simulate weeks 1..horizon from the all-affected start; returns each
    node's recovered weeks (0 = never recovered) in node order, as
    DiffusionKernel.run, which checks the node-order thresholds. A forced
    start is DiffusionKernel.weeks_recovered's.
    """
    return DiffusionKernel(g, schedule).run(thresholds)


def recovered_counts(weeks: np.ndarray, horizon: int) -> np.ndarray:
    """Number of recovered nodes at the end of each week t = 0..horizon, for
    nodes with the given recovered weeks; week 0 is the all-affected start."""
    first_recovered = horizon + 1 - np.asarray(weeks, dtype=np.int64)
    return np.bincount(first_recovered, minlength=horizon + 2)[: horizon + 1].cumsum()
