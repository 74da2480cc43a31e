"""Progressive two-state threshold diffusion over a weekly schedule.

A node flips from affected (0) to recovered (1) once the fraction of its
neighbors already recovered reaches its threshold; recovered nodes never
revert. Updates are synchronous from the previous week's state, start at a
configurable week, and stop at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .graph import SpatialGraph

DEFAULT_HORIZON_WEEKS = 14
DEFAULT_FIRST_UPDATE_WEEK = 3


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


@dataclass(frozen=True, eq=False)
class ThresholdVector:
    """Per-node thresholds in [0, 1] with a seed subset frozen at zero.

    Aligned to a graph's node order; seed_mask marks nodes whose threshold
    is pinned to 0 (the first group to recover).
    """

    node_ids: tuple[str, ...]
    values: np.ndarray
    seed_mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        seed_mask = self.seed_mask
        if seed_mask is None:
            seed_mask = np.zeros(values.shape, dtype=bool)
        seed_mask = np.asarray(seed_mask, dtype=bool)
        object.__setattr__(self, "seed_mask", seed_mask)
        object.__setattr__(self, "node_ids", tuple(str(n) for n in self.node_ids))

        if values.ndim != 1 or len(self.node_ids) != values.shape[0]:
            raise ValueError(
                f"{len(self.node_ids)} node ids but {values.shape} threshold values"
            )
        if seed_mask.shape != values.shape:
            raise ValueError("seed_mask shape does not match values")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("threshold values must be finite and lie in [0, 1]")
        if np.any(values[seed_mask] != 0.0):
            raise ValueError("seed nodes must have threshold 0")

    @classmethod
    def assemble(
        cls, node_ids: tuple[str, ...], seed_mask: np.ndarray, free_values: np.ndarray
    ) -> "ThresholdVector":
        """Zeros on seed nodes, the given values (in node order) elsewhere."""
        seed_mask = np.asarray(seed_mask, dtype=bool)
        values = np.zeros(len(node_ids), dtype=np.float64)
        values[~seed_mask] = np.asarray(free_values, dtype=np.float64)
        return cls(node_ids=tuple(node_ids), values=values, seed_mask=seed_mask)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _as_state(state: np.ndarray, n: int, what: str) -> np.ndarray:
    arr = np.asarray(state)
    if arr.shape != (n,):
        raise ValueError(f"{what} has shape {arr.shape}, expected ({n},)")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{what} must be binary (0/1)")
    return arr.astype(bool)


def recovered_neighbor_fraction(g: SpatialGraph, state: np.ndarray) -> np.ndarray:
    """Per-node fraction of neighbors recovered in `state`; 0 for isolates."""
    counts = g.adjacency_matrix @ state.astype(np.int64)
    safe_deg = np.where(g.degrees > 0, g.degrees, 1)
    frac = counts / safe_deg
    return np.where(g.degrees > 0, frac, 0.0)


def diffusion_step(g: SpatialGraph, prev: np.ndarray, tau: ThresholdVector) -> np.ndarray:
    """One synchronous update: recovered iff already recovered or the
    recovered-neighbor fraction meets the node's threshold (ties recover)."""
    prev = _as_state(prev, g.n, "prev state")
    if tau.n != g.n:
        raise ValueError(f"threshold vector has {tau.n} entries, graph has {g.n} nodes")
    return prev | (recovered_neighbor_fraction(g, prev) >= tau.values)


def check_aligned(g: SpatialGraph, tau: ThresholdVector) -> None:
    """Reject a threshold vector that is not in the graph's node order."""
    if tau.n != g.n:
        raise ValueError(f"threshold vector has {tau.n} entries, graph has {g.n} nodes")
    if tau.node_ids != g.nodes:
        raise ValueError("threshold vector node ids do not match graph node order")


# cells (nodes x columns) per kernel call: about 64 columns at n = 2010
CHUNK_CELLS = 1 << 17


def chunk_columns(n: int) -> int:
    """Columns per kernel call for an n-node graph."""
    return max(1, CHUNK_CELLS // max(n, 1))


def map_column_chunks(
    fn: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, n: int
) -> np.ndarray:
    """Apply fn to consecutive blocks of chunk_columns(n) rows (one kernel
    column per row) and concatenate the results."""
    size = chunk_columns(n)
    return np.concatenate([fn(rows[i : i + size]) for i in range(0, len(rows), size)])


class DiffusionKernel:
    """One graph and schedule, prepared once and simulated for many columns.

    A column is one threshold vector with one initial state. The states of
    all columns form an n x P matrix that advances one week per sparse
    product, until no column changes. Thresholds enter as recovery needs:
    the smallest recovered-neighbor count whose float64 fraction count/deg
    meets the threshold, so each week is one product and one comparison
    and the tie rule of recovered_neighbor_fraction holds exactly.
    """

    def __init__(self, g: SpatialGraph, schedule: DiffusionSchedule = DiffusionSchedule()):
        self.schedule = schedule
        # counts and week totals are integers below 2**24, exact in float32
        exact = max(g.n, schedule.horizon + 1) <= 1 << 24
        self.dtype = np.float32 if exact else np.float64
        self.adjacency = g.adjacency_matrix.astype(self.dtype)
        # an isolate's fraction is 0, which is what count/1 gives it
        self._degrees = np.maximum(g.degrees, 1).astype(np.float64)[:, None]

    def need(self, values: np.ndarray) -> np.ndarray:
        """Recovery needs for an n x P matrix (or n-vector) of thresholds.

        Threshold t needs the smallest c in 0..deg with c/deg >= t in
        float64; deg + 1 (never met) when no such c exists, as for t > 1
        or an isolate with t > 0. Rounding in ceil(t * deg) can miss the
        smallest c by a step either way, which the two loops correct.
        """
        values = np.asarray(values, dtype=np.float64)
        deg = self._degrees if values.ndim == 2 else self._degrees[:, 0]
        need = np.clip(np.ceil(values * deg), 0.0, deg + 1.0)
        while True:
            lower = (need > 0) & ((need - 1) / deg >= values)
            if not lower.any():
                break
            need -= lower
        while True:
            higher = (need <= deg) & (need / deg < values)
            if not higher.any():
                break
            need += higher
        return need.astype(self.dtype)

    def weeks_recovered(self, need: np.ndarray, initial: np.ndarray) -> np.ndarray:
        """Weeks 1..horizon that each node spends recovered, per column.

        need is n x P (or n x 1, shared by every column) and initial an
        n x P boolean matrix of week-0 states. Since states never revert,
        a node with w recovered weeks recovers at week horizon + 1 - w;
        the count fixes the whole trajectory, the final state (w > 0) and
        the 0-1 loss against any other monotone trajectory.
        """
        horizon, first = self.schedule.horizon, self.schedule.first_update_week
        state = initial.astype(self.dtype)
        weeks = state * float(first - 1)
        recovered = np.count_nonzero(state)
        ready = np.empty(state.shape, dtype=bool)
        for t in range(first, horizon + 1):
            np.greater_equal(self.adjacency @ state, need, out=ready)
            np.maximum(state, ready, out=state)
            now = np.count_nonzero(state)
            if now == recovered:  # fixed point: weeks t..horizon repeat this state
                weeks += state * float(horizon + 1 - t)
                break
            weeks += state
            recovered = now
        return weeks


def run_diffusion(
    g: SpatialGraph,
    tau: ThresholdVector,
    initial: np.ndarray,
    schedule: DiffusionSchedule = DiffusionSchedule(),
) -> np.ndarray:
    """Simulate weeks 0..horizon; returns a (horizon+1, n) boolean trajectory.

    Week 0 is the initial state; weeks before first_update_week copy it;
    every later week applies one synchronous threshold update. Once a week
    repeats its predecessor the remaining weeks are filled with copies (the
    update rule is at a fixed point).
    """
    check_aligned(g, tau)
    state = _as_state(initial, g.n, "initial state")
    kernel = DiffusionKernel(g, schedule)
    weeks = kernel.weeks_recovered(kernel.need(tau.values[:, None]), state[:, None])[:, 0]
    first_recovered = schedule.horizon + 1 - weeks
    states = np.arange(schedule.horizon + 1)[:, None] >= first_recovered[None, :]
    states[0] = state
    return states


def recovered_counts(trajectory: np.ndarray) -> np.ndarray:
    """Number of recovered nodes at the end of each week, t = 0..horizon."""
    traj = np.asarray(trajectory)
    if traj.ndim != 2:
        raise ValueError(f"trajectory must be 2-D (weeks x nodes), got {traj.shape}")
    return traj.astype(np.int64).sum(axis=1)


def all_affected(n: int) -> np.ndarray:
    """The canonical initial state: every node affected."""
    return np.zeros(n, dtype=bool)
