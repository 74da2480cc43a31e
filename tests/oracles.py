"""Independent brute-force oracles used to check the production code.

These deliberately reimplement the definitions with plain loops and set
operations, sharing no code path with the package.
"""

from __future__ import annotations

import collections
import csv
import datetime
import itertools
import math


def ring_coords(unit):
    coords = set()
    for ring in unit.geometry:
        coords.update(ring)
    return coords


def ring_segments(unit):
    segments = set()
    for ring in unit.geometry:
        for a, b in zip(ring, ring[1:]):
            if a != b:
                segments.add(frozenset((a, b)))
    return segments


def classify_pair(unit_a, unit_b):
    """Return 'rook', 'bishop', or None for a pair of units (exact matching)."""
    shared = ring_coords(unit_a) & ring_coords(unit_b)
    if not shared:
        return None
    if ring_segments(unit_a) & ring_segments(unit_b):
        return "rook"
    return "bishop"


def contiguity_edges(units):
    """All queen/rook/bishop edges of a unit collection by pairwise tests."""
    queen, rook, bishop = set(), set(), set()
    for a, b in itertools.combinations(units, 2):
        kind = classify_pair(a, b)
        if kind is None:
            continue
        pair = tuple(sorted((a.id, b.id)))
        queen.add(pair)
        (rook if kind == "rook" else bishop).add(pair)
    return queen, rook, bishop


def naive_recovery_duration(
    visits, baseline_start, baseline_end, recovery_start,
    ratio=0.9, persistence_days=3, ma_halfwidth=3,
):
    """Literal scan of the recovery definition with plain Python loops."""
    visits = [float(v) for v in visits]
    n = len(visits)
    baseline = sum(visits[baseline_start : baseline_end + 1]) / (
        baseline_end - baseline_start + 1
    )
    smoothed = []
    for i in range(n):
        lo, hi = max(0, i - ma_halfwidth), min(n - 1, i + ma_halfwidth)
        window = visits[lo : hi + 1]
        smoothed.append(sum(window) / len(window))
    for day in range(1, 98 + 1):
        start = recovery_start + day - 1
        if start + persistence_days > n:
            break
        if all(smoothed[start + j] >= ratio * baseline for j in range(persistence_days)):
            return day / 7.0
    return 14.0


def naive_read_visit_series(path):
    """The row-by-row visit reader: rows in file order, then per node in
    order of first appearance. Raises ValueError with the message the
    package's reader gives for the same file."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        expected = ["id", "day", "visits"]
        if [h.strip() for h in header[:3]] != expected:
            raise ValueError(
                f"{path}: expected header {','.join(expected)!r}, got {','.join(header)!r}"
            )
        rows = [row for row in reader if row]

    def day_of(text):
        text = text.strip()
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return datetime.date.fromisoformat(text).toordinal()
        except ValueError:
            raise ValueError(f"cannot parse day value {text!r}") from None

    def value_of(text, row):
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}: non-numeric value {text!r} in row {row!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: non-finite value {text!r} in row {row!r}")
        return value

    per_node = {}
    for row in rows:
        if len(row) < 3:
            raise ValueError(f"{path}: malformed visit row {row!r}")
        node = row[0].strip()
        try:
            day = day_of(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} in row {row!r}") from None
        per_node.setdefault(node, []).append((day, value_of(row[2], row)))
    out = {}
    for node, pairs in per_node.items():
        pairs.sort()
        days = [d for d, _ in pairs]
        if len(set(days)) != len(days):
            raise ValueError(f"{path}: duplicate day for node {node!r}")
        if days[-1] - days[0] + 1 != len(days):
            raise ValueError(f"{path}: gaps in the day series for node {node!r}")
        out[node] = (days[0], [v for _, v in pairs])
    return out


def naive_spatial_graph(nodes, edges):
    """The edge-at-a-time graph build with per-node neighbour sets: node
    ids, sorted edges, CSR lists and neighbour sets in a dict. Raises
    ValueError with the message the package's SpatialGraph gives."""
    node_list = [str(n) for n in nodes]
    seen = set()
    for node in node_list:
        if node in seen:
            raise ValueError(f"duplicate node id {node!r}")
        seen.add(node)
    index = {n: i for i, n in enumerate(node_list)}

    pair_set = set()
    adjacency = {n: set() for n in node_list}
    for u, v in edges:
        u, v = str(u), str(v)
        if u not in index:
            raise ValueError(f"edge ({u!r}, {v!r}): unknown endpoint {u!r}")
        if v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}): unknown endpoint {v!r}")
        if u == v:
            raise ValueError(f"self-loop on node {u!r}")
        pair = (u, v) if u < v else (v, u)
        if pair in pair_set:
            raise ValueError(f"duplicate edge ({pair[0]!r}, {pair[1]!r})")
        pair_set.add(pair)
        adjacency[u].add(v)
        adjacency[v].add(u)

    indptr, indices = [0], []
    for node in node_list:
        indices.extend(sorted(index[other] for other in adjacency[node]))
        indptr.append(len(indices))
    return {
        "nodes": tuple(node_list),
        "edges": tuple(sorted(pair_set)),
        "indptr": indptr,
        "indices": indices,
        "neighbors": {n: frozenset(nbrs) for n, nbrs in adjacency.items()},
    }


def naive_diffusion(neighbors, thresholds, initial, horizon=14, first_update_week=3):
    """Dict-based reference simulation of the weekly threshold process."""
    state = dict(initial)
    weeks = [dict(state)]
    for week in range(1, horizon + 1):
        if week < first_update_week:
            weeks.append(dict(state))
            continue
        new_state = {}
        for node, nbrs in neighbors.items():
            if state[node] == 1:
                new_state[node] = 1
                continue
            fraction = (
                sum(state[v] for v in nbrs) / len(nbrs) if nbrs else 0.0
            )
            new_state[node] = 1 if fraction >= thresholds[node] else 0
        state = new_state
        weeks.append(dict(state))
    return weeks


def recovered_weeks(weeks):
    """Weeks 1..horizon that each node spends recovered in a naive_diffusion
    run (its list of weekly states)."""
    return {node: sum(state[node] for state in weeks[1:]) for node in weeks[0]}


def _reachable(adjacency, source, target):
    """Breadth-first search from source that stops once it reaches target."""
    seen = {source}
    frontier = collections.deque([source])
    while frontier:
        for nbr in adjacency[frontier.popleft()]:
            if nbr == target:
                return True
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return False


def bfs_perturb_edges(graph, fraction, rng):
    """Drop random edges, skipping any removal that would disconnect the graph.

    The grid starts connected and every accepted removal keeps it so; a
    removal then disconnects it exactly when its endpoints no longer reach
    each other. Returns the kept edges as sorted id pairs.
    """
    target = int(math.floor(fraction * graph.m + 0.5))
    adjacency = {n: set(graph.neighbors(n)) for n in graph.nodes}
    order = rng.permutation(graph.m)
    removed = 0
    for idx in order:
        if removed == target:
            break
        u, v = graph.edges[idx]
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        if _reachable(adjacency, u, v):
            removed += 1
        else:
            adjacency[u].add(v)
            adjacency[v].add(u)
    edges = sorted(
        (u, v) for u in graph.nodes for v in adjacency[u] if u < v
    )
    return tuple(edges)
