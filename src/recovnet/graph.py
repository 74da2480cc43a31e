"""Spatial contiguity networks over polygonal units.

Units become graph nodes; two units are neighbors when their boundaries
share coordinates (queen), a whole edge segment (rook), or a vertex only
(bishop). Coordinates are matched exactly by default, or after snapping
to a tolerance grid.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

CONTIGUITY_KINDS = ("queen", "rook", "bishop")
GRAPH_KINDS = ("grid", "perturbed_grid")  # of synthetic instances
NUMBER_PAIRS = "coordinates must be rings of [x, y] number pairs"


def _members(items: list) -> list:
    """The elements of every item, each of which must be a list or tuple."""
    if not set(map(type, items)) <= {list, tuple}:
        raise ValueError(NUMBER_PAIRS)
    return list(itertools.chain.from_iterable(items))


def _ring_columns(coordinates: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xy, ring offsets and ring units of Polygon coordinate arrays, one per
    unit; each check covers every unit at once (a level's types as one set),
    and a ValueError names the first check that fails."""
    rings = _members(coordinates)
    positions = _members(rings)
    values = _members(positions)
    # bool and str are not numbers
    if not (set(map(len, positions)) <= {2} and set(map(type, values)) <= {int, float}):
        raise ValueError(NUMBER_PAIRS)
    try:
        xy = np.fromiter(values, np.float64, len(values)).reshape(-1, 2)
    except OverflowError:  # an integer past the float range
        raise ValueError(NUMBER_PAIRS) from None
    counts = np.fromiter(map(len, coordinates), np.intp, len(coordinates))
    if not counts.all():
        raise ValueError("no rings")
    if not np.isfinite(xy).all():
        raise ValueError("non-finite coordinate")
    sizes = np.fromiter(map(len, rings), np.intp, len(rings))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    bad = sizes < 4
    whole = np.flatnonzero(~bad)
    bad[whole] = (xy[offsets[whole]] != xy[offsets[whole + 1] - 1]).any(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"ring {j} has {sizes[j]} coordinates, need >= 4" if sizes[j] < 4
                         else f"ring {j} is not closed")
    return xy, offsets, np.repeat(np.arange(counts.size), counts)


@dataclass(frozen=True, eq=False)
class Polygons:
    """Polygon units as columns. Unit u is ids[u]; ring r holds the vertices
    xy[offsets[r]:offsets[r + 1]] and belongs to unit ring_unit[r]. A unit's
    outer ring comes first and its holes after it; every ring is closed
    (first vertex equals last) and holds at least 4 vertices."""

    ids: tuple[str, ...]
    xy: np.ndarray  # (vertices, 2) float64
    offsets: np.ndarray  # (rings + 1,)
    ring_unit: np.ndarray  # (rings,)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_coordinates(cls, ids: Sequence[str], coordinates: Sequence,
                         source: str) -> Polygons:
        """Units with the given ids and one GeoJSON Polygon coordinate array
        each: rings of [x, y] positions (lists or tuples). Positions must be
        pairs of finite numbers (int or float; not bool or str), each unit
        needs a ring, and each ring must be closed and hold at least 4
        positions. All units are checked at once; on a fault, unit by unit,
        and a DataError names the first unit at fault as feature k of the
        file source."""
        try:
            return cls(tuple(ids), *_ring_columns(coordinates))
        except ValueError:
            for k, unit in enumerate(coordinates):
                try:
                    _ring_columns([unit])
                except ValueError as fault:
                    raise DataError(f"{source}: feature {k} ({ids[k]!r}): {fault}") from None
            raise


@dataclass(frozen=True)
class ContiguityRule:
    """Which boundary-sharing relation defines adjacency, plus vertex snapping.

    snap_tolerance > 0 matches coordinates after rounding them to a grid of
    that spacing; 0 requires exact coordinate equality.
    """

    kind: str = "queen"
    snap_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CONTIGUITY_KINDS:
            raise ConfigError(
                f"unknown contiguity kind {self.kind!r}, expected one of {CONTIGUITY_KINDS}"
            )
        if not 0 <= self.snap_tolerance < math.inf:
            raise ConfigError(f"snap_tolerance must be finite and >= 0, got {self.snap_tolerance}")


class SpatialGraph:
    """Undirected graph over unit ids with symmetric adjacency.

    Node order is preserved from construction and defines the index used by
    every array-valued quantity downstream (states, thresholds). Edge k
    joins node indices heads[k] and tails[k]; edges are stored sorted as id
    pairs, src[k] and dst[k] holding the lower id's index and the other.

    Neighbour lists are also kept as two CSR arrays over node indices: the
    neighbours of node i are indices[indptr[i]:indptr[i + 1]], in ascending
    order, so indptr has n + 1 entries and indices 2m.

    Rejects duplicate node ids, self-loops, and duplicate edges (in either
    orientation), naming the first offender in input order.
    """

    def __init__(self, nodes: Sequence[str], heads, tails):
        node_list = [str(n) for n in nodes]
        self.index: dict[str, int] = {n: i for i, n in enumerate(node_list)}
        if len(self.index) < len(node_list):
            # index keeps the last position of an id: the first one it disowns is repeated
            repeated = next(n for i, n in enumerate(node_list) if self.index[n] != i)
            raise DataError(f"duplicate node id {repeated!r}")
        self.nodes: tuple[str, ...] = tuple(node_list)

        u, v = np.asarray(heads, np.int64), np.asarray(tails, np.int64)
        n = self.n
        if u.shape != v.shape or u.ndim != 1 or ((u < 0) | (u >= n) | (v < 0) | (v >= n)).any():
            raise ValueError(f"edge ends must be two equal-length arrays of node indices < {n}")
        # rank: position in sorted id order, so rank pairs sort as id pairs
        rank = np.empty(n, np.int64)
        rank[sorted(range(n), key=node_list.__getitem__)] = np.arange(n)
        swap = rank[u] > rank[v]
        lo, hi = np.where(swap, v, u), np.where(swap, u, v)
        # first: each distinct pair's first edge, in the sorted order of the pairs
        _, first = np.unique(rank[lo] * n + rank[hi], return_index=True)
        repeat = np.ones(u.size, dtype=bool)
        repeat[first] = False
        faulty = (u == v) | repeat
        if faulty.any():
            k = int(np.argmax(faulty))
            a, b = self.nodes[lo[k]], self.nodes[hi[k]]
            if a == b:
                raise DataError(f"self-loop on node {a!r}")
            raise DataError(f"duplicate edge ({a!r}, {b!r})")

        self.src: np.ndarray = lo[first]
        self.dst: np.ndarray = hi[first]
        # both orientations of every edge, sorted by (row, column) as one key
        key = np.sort(np.concatenate([self.src * n + self.dst, self.dst * n + self.src]))
        self.indptr: np.ndarray = np.searchsorted(key, np.arange(n + 1) * n)
        self.indices: np.ndarray = key % n
        self.degrees: np.ndarray = np.diff(self.indptr)

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        names = np.array(self.nodes, dtype=object)
        return tuple(zip(names[self.src].tolist(), names[self.dst].tolist()))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return self.src.size

    def neighbors(self, node_id: str) -> frozenset[str]:
        try:
            i = self.index[node_id]
        except KeyError:
            raise DataError(f"unknown node id {node_id!r}") from None
        row = self.indices[self.indptr[i] : self.indptr[i + 1]]
        return frozenset(map(self.nodes.__getitem__, row.tolist()))

    def __repr__(self) -> str:
        return f"SpatialGraph(n={self.n}, m={self.m})"


def _pair_codes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From one sort: a code per entry, the rank of (a[i], b[i]) among the
    distinct pairs (compared as numbers, so 0.0 == -0.0), and one entry of
    each distinct pair in rank order."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    codes = np.empty(order.size, np.intp)
    codes[order] = np.cumsum(new) - 1
    return codes, order[new]


def _shared_pairs(keys: np.ndarray, owners: np.ndarray, n: int) -> np.ndarray:
    """The pairs i < j of the n units that own a key in common, as sorted
    codes i * n + j; unit owners[k] owns keys[k]."""
    _, first = _pair_codes(keys, owners)
    key, owner = keys[first], owners[first]  # grouped by key, owners ascending in a group
    # each entry pairs with the entries after it in its key's group
    later = np.searchsorted(key, key, side="right") - np.arange(key.size) - 1
    left = np.repeat(np.arange(key.size), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    lo, hi = owner[left], owner[right]
    return (lo * n + hi)[_pair_codes(lo, hi)[1]]


def build_contiguity_graph(
    polygons: Polygons, rule: ContiguityRule = ContiguityRule()
) -> SpatialGraph:
    """Construct the contiguity graph of polygon units under a rule.

    Every vertex gets a code from one sort of its coordinates: two vertices
    share a code iff their coordinates are equal as floats (0.0 == -0.0)
    after rounding them to multiples of rule.snap_tolerance, when that is >
    0 (np.rint rounds halves to even, as round() does). Two units are
    queen-adjacent iff they share a vertex code, rook-adjacent iff they
    share a segment code (the two vertex codes of a ring edge that snapping
    did not collapse, the lower first), and bishop-adjacent iff queen- but
    not rook-adjacent. A border split at different vertices on its two
    sides (a T-junction) shares no segment, so rook misses it.
    """
    n, xy, tolerance = len(polygons), polygons.xy, rule.snap_tolerance
    if tolerance:
        with np.errstate(over="ignore"):
            xy = xy / tolerance
        if not np.isfinite(xy).all():
            value = float(polygons.xy[~np.isfinite(xy)][0])
            raise ConfigError(f"snap_tolerance {tolerance!r} is too small: coordinate "
                              f"{value!r} divided by it is not a finite number")
        xy = np.rint(xy)
    codes, _ = _pair_codes(xy[:, 0], xy[:, 1])
    unit = np.repeat(polygons.ring_unit, np.diff(polygons.offsets))
    chosen = queen = _shared_pairs(codes, unit, n) if rule.kind != "rook" else None
    if rule.kind != "queen":
        # segment k joins vertices k and k + 1 of one ring
        inside = np.ones(max(codes.size - 1, 0), dtype=bool)
        inside[polygons.offsets[1:-1] - 1] = False
        a, b = codes[:-1][inside], codes[1:][inside]
        kept = a != b
        segments, _ = _pair_codes(np.minimum(a, b)[kept], np.maximum(a, b)[kept])
        chosen = rook = _shared_pairs(segments, unit[:-1][inside][kept], n)
        if rule.kind == "bishop":
            chosen = np.setdiff1d(queen, rook, assume_unique=True)
    src, dst = np.divmod(chosen, n)
    return SpatialGraph(polygons.ids, src, dst)


def graph_metrics(g: SpatialGraph) -> dict:
    """n, m, average degree k = 2m/n, density d = 2m/(n(n-1)), and the
    count of nodes of each degree, in ascending degree order."""
    if g.n < 1:
        raise DataError("graph has no nodes")
    return {
        "n": g.n,
        "m": g.m,
        "avg_degree": 2.0 * g.m / g.n,
        "density": 0.0 if g.n == 1 else 2.0 * g.m / (g.n * (g.n - 1)),
        "degree_histogram": dict(sorted(Counter(int(d) for d in g.degrees).items())),
    }


def _first_ten(ids: Sequence[str]) -> str:
    return ", ".join(map(str, ids[:10])) + (" ..." if len(ids) > 10 else "")


def align_rows(ids: Sequence[str], nodes: Sequence[str], source, hint: str = "") -> np.ndarray:
    """Row positions that put a per-node table in node order: row rows[i] of
    the table (whose rows have the given ids) holds nodes[i].

    The table must hold one row per node and no other: otherwise a DataError
    names source, the first ten nodes without a row and the first ten ids
    that are not nodes, and ends with hint when there are such ids.
    """
    row_of = {node: i for i, node in enumerate(ids)}
    if len(row_of) < len(ids):
        # row_of keeps the last row of an id: the first row it disowns is repeated
        repeated = next(node for i, node in enumerate(ids) if row_of[node] != i)
        raise DataError(f"{source}: more than one row for node {repeated!r}")
    missing = [node for node in nodes if node not in row_of]
    known = set(nodes)
    extra = [node for node in ids if node not in known]
    problems = []
    if missing:
        problems.append(f"no row for {len(missing)} of the {len(nodes)} nodes: "
                        f"{_first_ten(missing)}")
    if extra:
        problems.append(
            f"{len(extra)} row(s) for ids not among the {len(nodes)} nodes: {_first_ten(extra)}"
            + (f"; {hint}" if hint else "")
        )
    if problems:
        raise DataError(f"{source}: " + "; ".join(problems))
    return np.fromiter(map(row_of.__getitem__, nodes), np.intp, len(nodes))
