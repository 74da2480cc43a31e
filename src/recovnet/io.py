"""Readers and writers for every file format the pipeline consumes or
produces: GeoJSON feature collections, edge lists, duration / attribute /
threshold tables, trajectories, per-generation GA statistics, and the
multiplier sets and summary of a multipliers run.

All writers go through an atomic write-then-rename so a failed run never
leaves a truncated table behind.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from contextlib import contextmanager
from datetime import date
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .analysis import AttributeRow, AttributeTable
from .diffusion import ThresholdVector
from .errors import DataError
from .ga import GenerationRecord
from .graph import GraphMetrics, SpatialGraph, SpatialUnit
from .multipliers import MultiplierResult


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Write to a sibling temp file and rename over the target on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV table: the header line, then one line per row."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(obj, path: str | Path) -> None:
    with atomic_write(path) as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def read_feature_collection(path: str | Path) -> list[SpatialUnit]:
    """Load polygon features (with a string property "id") as spatial units.

    Positions must be [x, y] pairs of finite numbers; anything else names
    the file and the feature (by index, and by id once it is known).
    """
    try:
        doc = read_json(path)
    except ValueError as exc:  # JSONDecodeError, or bad UTF-8
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise DataError(f"{path}: expected a FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise DataError(f"{path}: 'features' must be a list")
    units = []
    for k, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise DataError(f"{path}: feature {k} is not an object: {feature!r}")
        props = feature.get("properties") or {}
        unit_id = props.get("id") if isinstance(props, dict) else None
        if not isinstance(unit_id, str):
            raise DataError(f"{path}: feature {k} lacks a string property 'id'")
        name = f"feature {k} ({unit_id!r})"
        geometry = feature.get("geometry") or {}
        kind = geometry.get("type") if isinstance(geometry, dict) else None
        if kind != "Polygon":
            raise DataError(
                f"{path}: {name} has geometry type {kind!r}, only Polygon is supported"
            )
        try:
            rings = tuple(
                tuple((float(x), float(y)) for x, y in ring)
                for ring in geometry.get("coordinates", [])
            )
        except (TypeError, ValueError, OverflowError):
            raise DataError(
                f"{path}: {name}: coordinates must be rings of [x, y] number pairs"
            ) from None
        if not rings:
            raise DataError(f"{path}: {name} has no rings")
        if not all(math.isfinite(v) for ring in rings for xy in ring for v in xy):
            raise DataError(f"{path}: {name} has a non-finite coordinate")
        units.append(SpatialUnit(id=unit_id, geometry=rings))
    return units


def annotate_feature_collection(
    src: str | Path, selected: set[str], dest: str | Path
) -> None:
    """Copy a feature collection adding a boolean "multiplier" property."""
    doc = read_json(src)
    for feature in doc.get("features", []):
        props = feature.setdefault("properties", {})
        props["multiplier"] = props.get("id") in selected
    write_json(doc, dest)


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _open_csv(path: str | Path, expected_header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header[: len(expected_header)]] != expected_header:
            raise DataError(
                f"{path}: expected header {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}"
            )
        return [row for row in reader if row]


def read_edge_list(path: str | Path) -> SpatialGraph:
    """Edge-list CSV (header src,dst); nodes are the sorted endpoint union."""
    rows = _open_csv(path, ["src", "dst"])
    edges = []
    nodes = set()
    for row in rows:
        if len(row) < 2:
            raise DataError(f"{path}: malformed edge row {row!r}")
        u, v = row[0].strip(), row[1].strip()
        edges.append((u, v))
        nodes.update((u, v))
    return SpatialGraph(sorted(nodes), edges)


def write_edge_list(graph: SpatialGraph, path: str | Path) -> None:
    write_table(path, ["src", "dst"], graph.edges)


def metrics_line(metrics: GraphMetrics) -> str:
    return (
        f"n={metrics.n} m={metrics.m} "
        f"k={metrics.avg_degree:.3f} d={metrics.density:.5f}"
    )


def write_metrics(metrics: GraphMetrics, path: str | Path) -> None:
    write_json(
        {
            "summary": metrics_line(metrics),
            "n": metrics.n,
            "m": metrics.m,
            "avg_degree": metrics.avg_degree,
            "density": metrics.density,
            "degree_histogram": {str(k): v for k, v in metrics.degree_histogram.items()},
        },
        path,
    )


def _parse_int(text: str, path, row) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{path}: non-integer value {text!r} in row {row!r}") from None


def _parse_float(text: str, path, row) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{path}: non-numeric value {text!r} in row {row!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: non-finite value {text!r} in row {row!r}")
    return value


def read_durations(path: str | Path) -> dict[str, float]:
    rows = _open_csv(path, ["id", "duration_weeks"])
    durations: dict[str, float] = {}
    for row in rows:
        if len(row) < 2:
            raise DataError(f"{path}: malformed duration row {row!r}")
        node = row[0].strip()
        if node in durations:
            raise DataError(f"{path}: duplicate duration for node {node!r}")
        durations[node] = _parse_float(row[1], path, row)
    return durations


def write_durations(durations: Mapping[str, float], path: str | Path) -> None:
    write_table(
        path, ["id", "duration_weeks"],
        ([node, repr(float(value))] for node, value in durations.items()),
    )


def parse_day(text: str) -> int:
    """A day column entry: integer index or ISO date (mapped to its ordinal)."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        raise DataError(f"cannot parse day value {text!r}") from None


def read_visit_series(path: str | Path) -> dict[str, tuple[int, np.ndarray]]:
    """Visit CSV (header id,day,visits) grouped per node.

    Each node's days must be consecutive once sorted; the result maps the
    node id to (first day, daily visit array).
    """
    rows = _open_csv(path, ["id", "day", "visits"])
    per_node: dict[str, list[tuple[int, float]]] = {}
    for row in rows:
        if len(row) < 3:
            raise DataError(f"{path}: malformed visit row {row!r}")
        node = row[0].strip()
        try:
            day = parse_day(row[1])
        except DataError as exc:
            raise DataError(f"{path}: {exc} in row {row!r}") from None
        per_node.setdefault(node, []).append((day, _parse_float(row[2], path, row)))
    out: dict[str, tuple[int, np.ndarray]] = {}
    for node, pairs in per_node.items():
        pairs.sort()
        days = [d for d, _ in pairs]
        if len(set(days)) != len(days):
            raise DataError(f"{path}: duplicate day for node {node!r}")
        if days[-1] - days[0] + 1 != len(days):
            raise DataError(f"{path}: gaps in the day series for node {node!r}")
        out[node] = (days[0], np.array([v for _, v in pairs], dtype=np.float64))
    return out


ATTRIBUTE_HEADER = ["id", "per_capita_income", "median_household_income", "minority_pct"]


def read_attributes(path: str | Path) -> AttributeTable:
    rows = _open_csv(path, ATTRIBUTE_HEADER)
    table: dict[str, AttributeRow] = {}
    for row in rows:
        if len(row) < 4:
            raise DataError(f"{path}: malformed attribute row {row!r}")
        node = row[0].strip()
        if node in table:
            raise DataError(f"{path}: duplicate attribute row for node {node!r}")
        flood: Optional[float] = None
        if len(row) >= 5 and row[4].strip() != "":
            flood = _parse_float(row[4], path, row)
        table[node] = AttributeRow(
            per_capita_income=_parse_float(row[1], path, row),
            median_household_income=_parse_float(row[2], path, row),
            minority_pct=_parse_float(row[3], path, row),
            flood_extent=flood,
        )
    return AttributeTable(table)


def write_attributes(attrs: AttributeTable, path: str | Path) -> None:
    write_table(path, ATTRIBUTE_HEADER + ["flood_extent"], (
        [
            node,
            repr(row.per_capita_income),
            repr(row.median_household_income),
            repr(row.minority_pct),
            "" if row.flood_extent is None else repr(row.flood_extent),
        ]
        for node, row in attrs.rows.items()
    ))


def read_thresholds(path: str | Path) -> ThresholdVector:
    rows = _open_csv(path, ["id", "threshold", "is_seed"])
    ids, values, seeds = [], [], []
    for row in rows:
        if len(row) < 3:
            raise DataError(f"{path}: malformed threshold row {row!r}")
        value = _parse_float(row[1], path, row)
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{path}: threshold outside [0, 1] in row {row!r}")
        flag = row[2].strip()
        if flag not in ("0", "1"):
            raise DataError(f"{path}: is_seed must be 0 or 1, got {flag!r}")
        if flag == "1" and value != 0.0:
            raise DataError(f"{path}: seed with a non-zero threshold in row {row!r}")
        ids.append(row[0].strip())
        values.append(value)
        seeds.append(flag == "1")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate node ids")
    return ThresholdVector(
        node_ids=tuple(ids),
        values=np.array(values, dtype=np.float64),
        seed_mask=np.array(seeds, dtype=bool),
    )


def write_thresholds(tau: ThresholdVector, path: str | Path) -> None:
    write_table(path, ["id", "threshold", "is_seed"], (
        [node, repr(float(value)), "1" if seed else "0"]
        for node, value, seed in zip(tau.node_ids, tau.values, tau.seed_mask)
    ))


def write_trajectory(
    node_ids: Sequence[str], weeks: np.ndarray, horizon: int, path: str | Path
) -> None:
    """Long-form trajectory export, one row per (id, week) for weeks
    0..horizon: a node with w recovered weeks is recovered from week
    horizon + 1 - w on."""
    first = horizon + 1 - np.asarray(weeks, dtype=np.int64)
    if first.shape != (len(node_ids),):
        raise ValueError(f"{first.shape} recovered-week counts for {len(node_ids)} nodes")
    write_table(path, ["id", "week", "state"], (
        [node, week, int(week >= start)]
        for node, start in zip(node_ids, first.tolist())
        for week in range(horizon + 1)
    ))


def write_generation_stats(
    history: Iterable[GenerationRecord], path: str | Path, include_seconds: bool = True
) -> None:
    """Per-generation GA statistics; seconds can be dropped so repeated runs
    with one seed produce byte-identical files."""
    header = ["generation", "best_fitness"] + (["seconds"] if include_seconds else [])
    write_table(path, header, (
        [rec.generation, repr(float(rec.best_fitness))]
        + ([repr(rec.seconds)] if include_seconds else [])
        for rec in history
    ))


def write_multiplier_set(
    node_ids: Sequence[str], selected: set[str], path: str | Path
) -> None:
    write_table(
        path, ["id", "selected"], ([node, "1" if node in selected else "0"] for node in node_ids)
    )


def read_multiplier_set(path: str | Path) -> tuple[str, ...]:
    members = []
    for row in _open_csv(path, ["id", "selected"]):
        if len(row) < 2:
            raise DataError(f"{path}: malformed multiplier row {row!r}")
        if row[1].strip() == "1":
            members.append(row[0].strip())
    return tuple(members)


MULTIPLIER_SUMMARY_HEADER = [
    "size", "method", "recovered_with", "recovered_without", "increment_rate_pct",
]


def write_multiplier_summary(
    results: Iterable[tuple[str, MultiplierResult]], path: str | Path
) -> None:
    """One row per (method, result), its size being the set's size."""
    write_table(path, MULTIPLIER_SUMMARY_HEADER, (
        [len(result.members), method, result.recovered_with, result.recovered_without,
         "" if result.increment_rate is None else repr(result.increment_rate)]
        for method, result in results
    ))


def read_multiplier_results(directory: str | Path) -> list[MultiplierResult]:
    """The results of a multipliers run: each multipliers_summary.csv row
    with the members of its multipliers_N<size>.csv set."""
    directory = Path(directory)
    path = directory / "multipliers_summary.csv"
    results = []
    for row in _open_csv(path, MULTIPLIER_SUMMARY_HEADER):
        if len(row) < 5:
            raise DataError(f"{path}: malformed summary row {row!r}")
        size, recovered_with, recovered_without = (
            _parse_int(text, path, row) for text in (row[0], row[2], row[3])
        )
        set_path = directory / f"multipliers_N{size}.csv"
        members = read_multiplier_set(set_path)
        if len(members) != size:
            raise DataError(f"{set_path}: {len(members)} nodes selected, row {row!r} says {size}")
        rate = row[4].strip()
        results.append(
            MultiplierResult(
                members=members,
                recovered_with=recovered_with,
                recovered_without=recovered_without,
                increment_rate=_parse_float(rate, path, row) if rate else None,
            )
        )
    return results
