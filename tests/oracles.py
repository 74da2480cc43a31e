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
        if not unit_id.strip():
            raise ValueError(f"{path}: feature {k} has an empty id {unit_id!r}")
        unit_id = unit_id.strip()
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


def naive_csv_rows(path, expected, optional=None):
    """The non-blank rows after a checked header, read one at a time up to
    the first short row (fewer cells than expected), and that row (None if
    there is none). Raises ValueError with the package's message for a
    bad header."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        cells = [h.strip() for h in header[: len(expected) + 1]]
        if cells[: len(expected)] != expected:
            raise ValueError(
                f"{path}: expected header {','.join(expected)!r}, got {','.join(header)!r}"
            )
        if optional is not None and cells[len(expected):] not in ([], [""], [optional]):
            raise ValueError(f"{path}: column {len(cells)} must be {optional!r} or unnamed, "
                             f"got header {','.join(header)!r}")
        rows = []
        for row in reader:
            if len(row) >= len(expected):
                rows.append(row)
            elif row:
                return rows, row
    return rows, None


def naive_number(path, row, k):
    """Cell k of a row as a finite float, or ValueError with the package's
    message."""
    try:
        value = float(row[k])
    except ValueError:
        raise ValueError(f"{path}: non-numeric value {row[k]!r} in row {row!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: non-finite value {row[k]!r} in row {row!r}")
    return value


def naive_node(path, row, k=0):
    """Cell k of a row stripped, as an id; ValueError if it is empty."""
    node = row[k].strip()
    if not node:
        raise ValueError(f"{path}: empty id in row {row!r}")
    return node


def naive_flag(path, row, k, name):
    flag = row[k].strip()
    if flag not in ("0", "1"):
        raise ValueError(f"{path}: {name} must be 0 or 1, got {flag!r} in row {row!r}")
    return flag == "1"


def naive_short_row(path, short, what):
    if short is not None:
        raise ValueError(f"{path}: malformed {what} row {short!r}")


def naive_read_edge_list(path):
    """The row-by-row edge-list reader: naive_spatial_graph of the sorted
    endpoint union and the edges in file order."""
    rows, short = naive_csv_rows(path, ["src", "dst"])
    edges = [(naive_node(path, row, 0), naive_node(path, row, 1)) for row in rows]
    naive_short_row(path, short, "edge")
    return naive_spatial_graph(sorted({node for edge in edges for node in edge}), edges)


def naive_read_durations(path):
    rows, short = naive_csv_rows(path, ["id", "duration_weeks"])
    durations = {}
    for row in rows:
        node = naive_node(path, row)
        if node in durations:
            raise ValueError(f"{path}: duplicate duration for node {node!r}")
        durations[node] = naive_number(path, row, 1)
    naive_short_row(path, short, "duration")
    return durations


def naive_read_thresholds(path):
    """(id, threshold, is_seed) per row, in file order."""
    rows, short = naive_csv_rows(path, ["id", "threshold", "is_seed"])
    out, seen = [], set()
    for row in rows:
        node = naive_node(path, row)
        if node in seen:
            raise ValueError(f"{path}: a second threshold row for its node in row {row!r}")
        seen.add(node)
        value = naive_number(path, row, 1)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{path}: threshold outside [0, 1] in row {row!r}")
        seed = naive_flag(path, row, 2, "is_seed")
        if seed and value != 0.0:
            raise ValueError(f"{path}: seed with a non-zero threshold in row {row!r}")
        out.append((node, value, seed))
    naive_short_row(path, short, "threshold")
    return out


def naive_read_attributes(path):
    """The ids in file order and each attribute column as a list; the
    flood_extent column only if every row gives it."""
    names = ["per_capita_income", "median_household_income", "minority_pct"]
    rows, short = naive_csv_rows(path, ["id", *names], optional="flood_extent")
    given_anywhere = any(len(row) > 4 and row[4].strip() for row in rows)
    ids, values, seen = [], [], set()
    for row in rows:
        node = naive_node(path, row)
        numbers = [naive_number(path, row, k) for k in (1, 2, 3)]
        given = len(row) > 4 and row[4].strip() != ""
        flood = naive_number(path, row, 4) if given else None
        if node in seen:
            raise ValueError(f"{path}: a second attribute row for its node in row {row!r}")
        seen.add(node)
        if not 0 <= numbers[2] <= 100:
            raise ValueError(f"{path}: minority_pct outside [0, 100] in row {row!r}")
        if given and flood < 0:
            raise ValueError(f"{path}: negative flood_extent in row {row!r}")
        if given_anywhere and not given:
            raise ValueError(f"{path}: no flood_extent where other rows give one (give it in "
                             f"every row or in none) in row {row!r}")
        ids.append(node)
        values.append(numbers + [flood])
    naive_short_row(path, short, "attribute")
    columns = {name: [v[k] for v in values] for k, name in enumerate(names)}
    if values and given_anywhere:
        columns["flood_extent"] = [v[3] for v in values]
    return ids, columns


def naive_read_multiplier_set(path):
    """The ids and selected flags of a multiplier set file, in file order."""
    rows, short = naive_csv_rows(path, ["id", "selected"])
    out, seen = [], set()
    for row in rows:
        node = naive_node(path, row)
        if node in seen:
            raise ValueError(f"{path}: a second multiplier row for its node in row {row!r}")
        seen.add(node)
        out.append((node, naive_flag(path, row, 1, "selected")))
    naive_short_row(path, short, "multiplier")
    return out


def naive_read_visit_series(path):
    """The row-by-row visit reader: rows in file order, then per node in
    order of first appearance. Raises ValueError with the message the
    package's reader gives for the same file."""
    rows, short = naive_csv_rows(path, ["id", "day", "visits"])

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

    per_node = {}
    for row in rows:
        node = naive_node(path, row)
        try:
            day = day_of(row[1])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} in row {row!r}") from None
        per_node.setdefault(node, []).append((day, naive_number(path, row, 2)))
    naive_short_row(path, short, "visit")
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
