"""Independent brute-force oracles used to check the production code.

These deliberately reimplement the definitions with plain loops and set
operations, sharing no code path with the package.
"""

from __future__ import annotations

import collections
import csv
import datetime
import itertools
import json
import math


def snapped(coord, tolerance):
    """A coordinate pair, or with tolerance > 0 the pair of round(c / tolerance)."""
    x, y = coord
    return (round(x / tolerance), round(y / tolerance)) if tolerance else (x, y)


def ring_coords(rings, tolerance=0.0):
    return {snapped(c, tolerance) for ring in rings for c in ring}


def ring_segments(rings, tolerance=0.0):
    segments = set()
    for ring in rings:
        keys = [snapped(c, tolerance) for c in ring]
        for a, b in zip(keys, keys[1:]):
            if a != b:
                segments.add(frozenset((a, b)))
    return segments


def classify_pair(rings_a, rings_b, tolerance=0.0):
    """Return 'rook', 'bishop', or None for the rings of two units."""
    shared = ring_coords(rings_a, tolerance) & ring_coords(rings_b, tolerance)
    if not shared:
        return None
    if ring_segments(rings_a, tolerance) & ring_segments(rings_b, tolerance):
        return "rook"
    return "bishop"


def contiguity_edges(units, tolerance=0.0):
    """All queen/rook/bishop edges of (id, rings) units by pairwise tests;
    a ring is a sequence of (x, y) pairs."""
    queen, rook, bishop = set(), set(), set()
    for (id_a, rings_a), (id_b, rings_b) in itertools.combinations(units, 2):
        kind = classify_pair(rings_a, rings_b, tolerance)
        if kind is None:
            continue
        pair = tuple(sorted((id_a, id_b)))
        queen.add(pair)
        (rook if kind == "rook" else bishop).add(pair)
    return queen, rook, bishop


def naive_read_feature_collection(path):
    """The feature-at-a-time GeoJSON reader: (id, rings) per feature, a ring
    being a list of (x, y) float pairs. The first feature at fault in file
    order raises ValueError with the message the package gives."""
    with open(path, encoding="utf-8") as handle:
        features = json.load(handle)["features"]

    def number(value):
        if type(value) not in (int, float):  # bool and str are not numbers
            raise TypeError(value)
        return float(value)  # OverflowError past the float range

    units = []
    for k, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise ValueError(f"{path}: feature {k} is not an object: {feature!r}")
        props = feature.get("properties") or {}
        unit_id = props.get("id") if isinstance(props, dict) else None
        if not isinstance(unit_id, str):
            raise ValueError(f"{path}: feature {k} lacks a string property 'id'")
        name = f"{path}: feature {k} ({unit_id!r})"
        geometry = feature.get("geometry") or {}
        kind = geometry.get("type") if isinstance(geometry, dict) else None
        if kind != "Polygon":
            raise ValueError(f"{name} has geometry type {kind!r}, only Polygon is supported")
        rings = []
        try:
            coordinates = geometry.get("coordinates", [])
            if not isinstance(coordinates, list):
                raise TypeError(coordinates)
            for ring in coordinates:
                if not isinstance(ring, list):
                    raise TypeError(ring)
                points = []
                for position in ring:
                    if not isinstance(position, list) or len(position) != 2:
                        raise TypeError(position)
                    points.append((number(position[0]), number(position[1])))
                rings.append(points)
        except (TypeError, OverflowError):
            raise ValueError(f"{name}: coordinates must be rings of [x, y] number pairs") from None
        if not rings:
            raise ValueError(f"{name}: no rings")
        if not all(math.isfinite(v) for ring in rings for point in ring for v in point):
            raise ValueError(f"{name}: non-finite coordinate")
        for j, ring in enumerate(rings):
            if len(ring) < 4:
                raise ValueError(f"{name}: ring {j} has {len(ring)} coordinates, need >= 4")
            if ring[0] != ring[-1]:
                raise ValueError(f"{name}: ring {j} is not closed")
        units.append((unit_id, rings))
    return units


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
