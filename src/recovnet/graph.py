"""Spatial contiguity networks over polygonal units.

Units become graph nodes; two units are neighbors when their boundaries
share coordinates (queen), a whole edge segment (rook), or a vertex only
(bishop). Coordinates are matched exactly by default, or after snapping
to a tolerance grid.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError

Coordinate = tuple[float, float]
Ring = tuple[Coordinate, ...]

CONTIGUITY_KINDS = ("queen", "rook", "bishop")


@dataclass(frozen=True)
class SpatialUnit:
    """One spatial unit: an opaque id plus optional polygon geometry.

    Geometry is a sequence of rings (outer ring first, holes after it),
    each ring an ordered sequence of (x, y) pairs. Rings must be closed
    (first coordinate equals last) and carry at least 4 entries.
    """

    id: str
    geometry: Optional[tuple[Ring, ...]] = None

    def __post_init__(self) -> None:
        if self.geometry is None:
            return
        rings = tuple(
            tuple((float(x), float(y)) for x, y in ring) for ring in self.geometry
        )
        for k, ring in enumerate(rings):
            if len(ring) < 4:
                raise DataError(
                    f"unit {self.id!r}: ring {k} has {len(ring)} coordinates, need >= 4"
                )
            if ring[0] != ring[-1]:
                raise DataError(f"unit {self.id!r}: ring {k} is not closed")
        object.__setattr__(self, "geometry", rings)


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
        if self.snap_tolerance < 0:
            raise ConfigError(f"snap_tolerance must be >= 0, got {self.snap_tolerance}")


class SpatialGraph:
    """Undirected graph over unit ids with symmetric adjacency.

    Node order is preserved from construction and defines the index used by
    every array-valued quantity downstream (states, thresholds). Edges are
    stored as lexicographically sorted id pairs.

    Neighbour lists are also kept as two CSR arrays over node indices: the
    neighbours of node i are indices[indptr[i]:indptr[i + 1]], in ascending
    order, so indptr has n + 1 entries and indices 2m.

    Rejects duplicate node ids, unknown endpoints, self-loops, and duplicate
    edges (in either orientation), naming the first offender in input order.
    The endpoints are coded to node indices once; the faults, the sorted
    edges and the CSR arrays all come from those codes.
    """

    def __init__(self, nodes: Sequence[str], edges: Iterable[tuple[str, str]]):
        node_list = [str(n) for n in nodes]
        self.index: dict[str, int] = {n: i for i, n in enumerate(node_list)}
        if len(self.index) < len(node_list):
            # index keeps the last position of an id: the first one it disowns is repeated
            repeated = next(n for i, n in enumerate(node_list) if self.index[n] != i)
            raise DataError(f"duplicate node id {repeated!r}")
        self.nodes: tuple[str, ...] = tuple(node_list)

        heads: list[str] = []
        tails: list[str] = []
        for head, tail in edges:
            heads.append(str(head))
            tails.append(str(tail))
        m, n = len(heads), self.n
        codes = np.fromiter(map(self.index.get, heads + tails, itertools.repeat(-1)), np.int64, 2 * m)
        u, v = codes[:m], codes[m:]
        # rank: position in sorted id order, so rank pairs sort as id pairs; an
        # unknown endpoint (-1) reads the extra last slot
        rank = np.arange(n + 1)
        rank[sorted(range(n), key=node_list.__getitem__)] = np.arange(n)
        swap = rank[u] > rank[v]
        lo, hi = np.where(swap, v, u), np.where(swap, u, v)
        # first: each distinct pair's first edge, in the sorted order of the pairs
        _, first = np.unique(rank[lo] * (n + 1) + rank[hi], return_index=True)
        repeat = np.ones(m, dtype=bool)
        repeat[first] = False
        faulty = (u < 0) | (v < 0) | (u == v) | repeat
        if faulty.any():
            self._raise_edge_fault(heads, tails, int(np.argmax(faulty)))

        lo, hi = lo[first], hi[first]
        names = np.array(node_list, dtype=object)
        self.edges: tuple[tuple[str, str], ...] = tuple(zip(names[lo].tolist(), names[hi].tolist()))
        # both orientations of every edge, sorted by (row, column) as one key
        key = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
        self.indptr: np.ndarray = np.searchsorted(key, np.arange(n + 1) * n)
        self.indices: np.ndarray = key % n
        self.degrees: np.ndarray = np.diff(self.indptr)

    def _raise_edge_fault(self, heads: list[str], tails: list[str], first: int) -> None:
        """The error for the first faulty edge, as a one-edge-at-a-time check
        names it: an unknown endpoint, a self-loop, or a repeat of an earlier
        edge in either orientation."""
        u, v = heads[first], tails[first]
        for end in (u, v):
            if end not in self.index:
                raise DataError(f"edge ({u!r}, {v!r}): unknown endpoint {end!r}")
        if u == v:
            raise DataError(f"self-loop on node {u!r}")
        pair = (u, v) if u < v else (v, u)
        raise DataError(f"duplicate edge ({pair[0]!r}, {pair[1]!r})")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, node_id: str) -> frozenset[str]:
        try:
            i = self.index[node_id]
        except KeyError:
            raise DataError(f"unknown node id {node_id!r}") from None
        row = self.indices[self.indptr[i] : self.indptr[i + 1]]
        return frozenset(map(self.nodes.__getitem__, row.tolist()))

    def __repr__(self) -> str:
        return f"SpatialGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class GraphMetrics:
    """Size, average degree, density, and the degree histogram of a graph."""

    n: int
    m: int
    avg_degree: float
    density: float
    degree_histogram: dict[int, int]


def _snap_key(coord: Coordinate, tolerance: float) -> tuple:
    if tolerance == 0:
        return coord
    return (round(coord[0] / tolerance), round(coord[1] / tolerance))


def _boundary_keys(unit: SpatialUnit, tolerance: float) -> tuple[set, set]:
    """Snapped vertex keys and snapped edge-segment keys of a unit's boundary."""
    vertices: set = set()
    segments: set = set()
    for ring in unit.geometry or ():
        keys = [_snap_key(c, tolerance) for c in ring]
        vertices.update(keys)
        for a, b in zip(keys, keys[1:]):
            if a == b:  # segment collapsed by snapping
                continue
            segments.add((a, b) if a <= b else (b, a))
    return vertices, segments


def build_contiguity_graph(
    units: Iterable[SpatialUnit], rule: ContiguityRule = ContiguityRule()
) -> SpatialGraph:
    """Construct the contiguity graph of a unit collection under a rule.

    Two units are queen-adjacent iff they share at least one boundary
    coordinate (after snapping), rook-adjacent iff they share a whole edge
    segment, and bishop-adjacent iff queen- but not rook-adjacent. A border
    split at different vertices on its two sides (a T-junction) shares no
    segment, so rook misses it.
    """
    unit_list = list(units)
    seen: set[str] = set()
    for unit in unit_list:
        if unit.id in seen:
            raise DataError(f"duplicate unit id {unit.id!r}")
        seen.add(unit.id)
        if unit.geometry is None:
            raise DataError(f"unit {unit.id!r} has no geometry")

    vertex_owners: dict[tuple, list[int]] = {}
    segment_owners: dict[tuple, list[int]] = {}
    for i, unit in enumerate(unit_list):
        vertices, segments = _boundary_keys(unit, rule.snap_tolerance)
        for key in vertices:
            vertex_owners.setdefault(key, []).append(i)
        for key in segments:
            segment_owners.setdefault(key, []).append(i)

    def shared_pairs(owners: dict[tuple, list[int]]) -> set[tuple[int, int]]:
        pairs: set[tuple[int, int]] = set()
        for members in owners.values():
            if len(members) > 1:
                pairs.update(itertools.combinations(sorted(members), 2))
        return pairs

    queen = shared_pairs(vertex_owners)
    rook = shared_pairs(segment_owners)
    if rule.kind == "queen":
        chosen = queen
    elif rule.kind == "rook":
        chosen = rook
    else:
        chosen = queen - rook

    ids = [u.id for u in unit_list]
    return SpatialGraph(ids, ((ids[i], ids[j]) for i, j in sorted(chosen)))


def graph_metrics(g: SpatialGraph) -> GraphMetrics:
    """Average degree k = 2m/n, density d = 2m/(n(n-1)), and degree counts."""
    if g.n < 1:
        raise DataError("graph has no nodes")
    avg_degree = 2.0 * g.m / g.n
    density = 0.0 if g.n == 1 else 2.0 * g.m / (g.n * (g.n - 1))
    histogram = dict(sorted(Counter(int(d) for d in g.degrees).items()))
    return GraphMetrics(
        n=g.n, m=g.m, avg_degree=avg_degree, density=density, degree_histogram=histogram
    )


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
