"""Independent references for the output checks.

Nothing here imports recovnet. The diffusion and recovery-duration oracles
come from the repository's ``tests/oracles.py`` (plain loops that share no
code with the package); the brute-force optimum is a dense NumPy enumeration
written here; the grid edges are derived analytically from the layout the
benchmark itself wrote. Tables are read with the ``csv`` module, not with
the package's readers.
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np

HORIZON = 14
FIRST_UPDATE_WEEK = 3


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_table(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if rows[0][: len(header)] != header:
        raise AssertionError(f"{path.name}: header {rows[0]} is not {header}")
    return rows[1:]


def read_json(path: Path):
    def reject(token):
        raise AssertionError(f"{path.name} holds {token}")

    with open(path, encoding="utf-8") as handle:
        return json.load(handle, parse_constant=reject)


def read_neighbors(path: Path) -> dict[str, set[str]]:
    neighbors: dict[str, set[str]] = {}
    for src, dst in read_table(path, ["src", "dst"]):
        neighbors.setdefault(src, set()).add(dst)
        neighbors.setdefault(dst, set()).add(src)
    return neighbors


def read_edges(path: Path) -> set[tuple[str, str]]:
    return {tuple(sorted((src, dst))) for src, dst in read_table(path, ["src", "dst"])}


def read_durations(path: Path) -> dict[str, float]:
    return {node: float(value) for node, value in read_table(path, ["id", "duration_weeks"])}


def read_thresholds(path: Path) -> tuple[dict[str, float], set[str]]:
    rows = read_table(path, ["id", "threshold", "is_seed"])
    return {node: float(value) for node, value, _ in rows}, {n for n, _, s in rows if s == "1"}


def read_selected(path: Path) -> set[str]:
    return {node for node, flag in read_table(path, ["id", "selected"]) if flag == "1"}


def simulate(oracles, neighbors, thresholds, forced=()) -> list[dict[str, int]]:
    """Weekly states, weeks 0..HORIZON, with `forced` recovered at week 0."""
    forced = set(forced)
    initial = {node: int(node in forced) for node in neighbors}
    return oracles.naive_diffusion(
        neighbors, thresholds, initial, horizon=HORIZON, first_update_week=FIRST_UPDATE_WEEK
    )


def recovered_at_horizon(weeks) -> int:
    return sum(weeks[-1].values())


def zero_one_loss(durations: dict[str, float], weeks) -> int:
    """Cells (node, week 1..HORIZON) where `recovered iff duration <= week`
    disagrees with the simulated state."""
    return sum(
        int(durations[node] <= t) != state
        for t in range(1, HORIZON + 1)
        for node, state in weeks[t].items()
    )


def grid_queen_edges(ids: list[list[str]]) -> set[tuple[str, str]]:
    """Queen edges of unit squares laid out as ids[row][col]: the eight
    surrounding cells of every cell."""
    rows, cols = len(ids), len(ids[0])
    edges = set()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.add(tuple(sorted((ids[r][c], ids[rr][cc]))))
    return edges


def is_connected(neighbors: dict[str, set[str]]) -> bool:
    start = next(iter(neighbors))
    seen, stack = {start}, [start]
    while stack:
        for other in neighbors[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(neighbors)


def exact_multipliers(neighbors, thresholds, size: int) -> tuple[int, tuple[str, ...]]:
    """Best horizon recovered count over every size-`size` forced set, and
    the lexicographically first set (over the sorted node ids) reaching it.

    All subsets are simulated at once as columns of a dense boolean matrix;
    weeks before the first update copy the initial state, so only the update
    weeks are applied.
    """
    nodes = sorted(neighbors)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    adjacency = np.zeros((n, n), dtype=np.int64)
    for node, others in neighbors.items():
        for other in others:
            adjacency[index[node], index[other]] = 1
    degree = adjacency.sum(axis=1)
    tau = np.array([thresholds[node] for node in nodes])
    combos = np.array(list(itertools.combinations(range(n), size)), dtype=np.int64)
    if len(combos) != math.comb(n, size):
        raise AssertionError("enumeration is incomplete")
    state = np.zeros((n, len(combos)), dtype=bool)
    state[combos, np.arange(len(combos))[:, None]] = True
    for _ in range(FIRST_UPDATE_WEEK, HORIZON + 1):
        counts = adjacency @ state.astype(np.int64)
        fraction = np.where(degree[:, None] > 0, counts / np.maximum(degree, 1)[:, None], 0.0)
        state = state | (fraction >= tau[:, None])
    values = state.sum(axis=0)
    best = int(np.argmax(values))
    return int(values[best]), tuple(nodes[i] for i in combos[best])


def scan_for_nan(directory: Path) -> list[str]:
    """Files under `directory` holding a NaN or infinite value."""
    bad = []
    for path in sorted(directory.rglob("*")):
        if path.suffix == ".json":
            try:
                read_json(path)
            except AssertionError:
                bad.append(path.name)
        elif path.suffix == ".csv":
            with open(path, encoding="utf-8", newline="") as handle:
                for row in csv.reader(handle):
                    if any(_non_finite(field) for field in row):
                        bad.append(path.name)
                        break
    return bad


def _non_finite(field: str) -> bool:
    try:
        return not math.isfinite(float(field))
    except ValueError:
        return False
