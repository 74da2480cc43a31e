"""Readers and writers for every file format the pipeline consumes or
produces: GeoJSON feature collections, edge lists, duration / attribute /
threshold tables, trajectories, per-generation GA statistics, and the
multiplier sets and summary of a multipliers run.

All writers go through an atomic write-then-rename so a failed run never
leaves a truncated table behind.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict
from datetime import date
from operator import itemgetter
from pathlib import Path
from sys import intern
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .errors import DataError
from .graph import GraphMetrics, Polygons, SpatialGraph, align_rows

if TYPE_CHECKING:  # at run time, a function that needs a stage module imports it
    from .analysis import AttributeTable
    from .diffusion import ThresholdVector
    from .ga import GenerationRecord
    from .multipliers import MultiplierResult


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Write to a sibling temp file and rename over the target on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # mode 0666 less the umask, as open() gives a new file
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
        handle.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def read_feature_collection(path: str | Path) -> Polygons:
    """Load polygon features (with a string property "id") as a Polygons
    table, one unit per feature, checked as Polygons.from_coordinates checks
    them. A fault names the file and the first feature at fault in file
    order (by index, and by id once it is known).
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
    ids, coordinates = [], []
    try:
        for k, feature in enumerate(features):
            if not isinstance(feature, dict):
                raise DataError(f"{path}: feature {k} is not an object: {feature!r}")
            props = feature.get("properties") or {}
            unit_id = props.get("id") if isinstance(props, dict) else None
            if not isinstance(unit_id, str):
                raise DataError(f"{path}: feature {k} lacks a string property 'id'")
            geometry = feature.get("geometry") or {}
            kind = geometry.get("type") if isinstance(geometry, dict) else None
            if kind != "Polygon":
                raise DataError(f"{path}: feature {k} ({unit_id!r}) has geometry type "
                                f"{kind!r}, only Polygon is supported")
            ids.append(unit_id)
            coordinates.append(geometry.get("coordinates", []))
    except DataError:
        Polygons.from_coordinates(ids, coordinates, str(path))  # an earlier feature's fault first
        raise
    return Polygons.from_coordinates(ids, coordinates, str(path))


def annotate_feature_collection(
    src: str | Path, selections: Mapping[str | Path, set[str]]
) -> None:
    """Copy a feature collection (parsed once) to each destination, adding a
    boolean "multiplier" property that marks that destination's selected ids.
    The copies are compact JSON: json encodes indent=2 in pure Python only."""
    doc = read_json(src)
    for dest, selected in selections.items():
        for feature in doc.get("features", []):
            props = feature.setdefault("properties", {})
            props["multiplier"] = props.get("id") in selected
        with atomic_write(dest) as handle:
            handle.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _check_header(
    path: str | Path, reader, expected_header: list[str], optional: Optional[str] = None
) -> None:
    """The header must start with expected_header; the column after it, if
    named, must be named optional."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    cells = [h.strip() for h in header[: len(expected_header) + 1]]
    if cells[: len(expected_header)] != expected_header:
        raise DataError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"got {','.join(header)!r}"
        )
    if optional is not None and cells[len(expected_header):] not in ([], [""], [optional]):
        raise DataError(
            f"{path}: column {len(cells)} must be {optional!r} or unnamed, "
            f"got header {','.join(header)!r}"
        )


def _check_utf8(path, data: bytes) -> None:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from None


@contextmanager
def _csv_reader(path: str | Path) -> Iterator:
    """csv.reader over a text file. A byte that is not UTF-8 is a DataError
    naming the file and the byte's offset, a line csv rejects (a field past
    csv.field_size_limit(), say) one naming the file and the line."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            yield reader
    except UnicodeDecodeError:
        # the decoder counts from the chunk it was given; decode the whole
        # file again for the offset within it
        _check_utf8(path, Path(path).read_bytes())
        raise
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _open_csv(
    path: str | Path, header: list[str], what: str, optional: Optional[str] = None
) -> Iterator[list[str]]:
    """The non-blank rows after the header. A row with fewer cells than the
    header is a DataError, raised once the rows before it are taken."""
    with _csv_reader(path) as reader:
        _check_header(path, reader, header, optional)
        for row in filter(None, reader):
            if len(row) < len(header):
                raise DataError(f"{path}: malformed {what} row {row!r}")
            yield row


def read_edge_list(path: str | Path) -> SpatialGraph:
    """Edge-list CSV (header src,dst); nodes are the sorted endpoint union."""
    rows = list(_open_csv(path, ["src", "dst"], "edge"))
    ends = list(map(str.strip, map(itemgetter(0), rows))) \
        + list(map(str.strip, map(itemgetter(1), rows)))
    nodes = sorted(set(ends))
    index = dict(zip(nodes, range(len(nodes))))
    codes = np.fromiter(map(index.__getitem__, ends), np.int64, len(ends))
    return SpatialGraph(nodes, codes[:len(rows)], codes[len(rows):])


def write_edge_list(graph: SpatialGraph, path: str | Path) -> None:
    write_table(path, ["src", "dst"], graph.edges)


def metrics_line(metrics: GraphMetrics) -> str:
    return (
        f"n={metrics.n} m={metrics.m} "
        f"k={metrics.avg_degree:.3f} d={metrics.density:.5f}"
    )


def write_metrics(metrics: GraphMetrics, path: str | Path) -> None:
    histogram = {str(k): v for k, v in metrics.degree_histogram.items()}
    write_json({**asdict(metrics), "summary": metrics_line(metrics),
                "degree_histogram": histogram}, path)


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
    durations: dict[str, float] = {}
    for row in _open_csv(path, ["id", "duration_weeks"], "duration"):
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


# day indices stay within this bound, so that a difference of two fits int64
_DAY_LIMIT = 2**62


def _visit_day(text: str) -> int:
    day = parse_day(text)
    if not -_DAY_LIMIT < day < _DAY_LIMIT:
        raise DataError(f"day value {text.strip()!r} is out of range")
    return day


def _check_visit_row(path, row: list[str]) -> None:
    """Raise the error of a visit row whose day or value cell is bad."""
    try:
        _visit_day(row[1])
    except DataError as exc:
        raise DataError(f"{path}: {exc} in row {row!r}") from None
    _parse_float(row[2], path, row)


def _data_row(path, index: int) -> list[str]:
    """The index-th non-blank row after the header, read again to quote it."""
    with _csv_reader(path) as reader:
        next(reader)
        return next(itertools.islice(filter(None, reader), index, None))


# A column: its distinct cell texts, and per row the index of its text.
Column = tuple[list[str], np.ndarray]

VISIT_HEADER = ["id", "day", "visits"]
# rows tokenized at a time: the key arrays of one block stay small next to
# the columns of the whole file
_BLOCK_ROWS = 16_384


def _line_bounds(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the start and end of each line's text, split as a file
    opened with newline="" splits them: at \\n, \\r\\n and a lone \\r. A
    last line without a terminator is a line; nothing after a final
    terminator is."""
    buf = np.frombuffer(data, np.uint8)
    if b"\r" in data:
        cr = buf == 13
        ends = buf == 10
        ends[1:] &= ~cr[:-1]  # the \n of a \r\n ends no second line
        ends |= cr
        del cr
        ends = np.flatnonzero(ends)
        starts = ends + 1
        # a \r that ends the file is compared with itself, so it ends no \r\n
        crlf = buf[ends] == 13
        crlf[crlf] = buf[np.minimum(starts[crlf], buf.size - 1)] == 10
        starts += crlf
    else:
        ends = np.flatnonzero(buf == 10)
        starts = ends + 1
    starts = np.concatenate(([0], starts))
    if starts[-1] == buf.size:
        return starts[:-1], ends
    return starts, np.append(ends, buf.size)


# _LOW_BYTES[k] keeps the low k bytes of a 64-bit word
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _field_words(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Each field buf[start:stop] as a row of 64-bit words: its bytes,
    zero-padded, and its length, so that two rows are equal iff the fields
    are. The length is the top byte of the last word, a byte past every
    field, when every field is shorter than 256 bytes, else a word of its
    own."""
    lengths = stops - starts
    longest = int(lengths.max())
    count = longest // 8 + 1
    lo, hi = int(starts.min()), int(stops.max())
    words = np.zeros((hi - lo) // 8 + count + 1, np.uint64)
    words.view(np.uint8)[: hi - lo] = buf[lo:hi]
    index = (starts - lo) >> 3
    shift = ((starts - lo) & 7).astype(np.uint64) * 8
    keys = np.empty((starts.size, count + (longest > 255)), np.uint64)
    for j in range(count):
        # the 8 bytes from the field's start + 8j, which straddle two words
        word = (words[index + j] >> shift) | ((words[index + j + 1] << 1) << (63 - shift))
        keys[:, j] = word & _LOW_BYTES[np.clip(lengths - 8 * j, 0, 8)]
    if longest > 255:
        keys[:, count] = lengths
    else:
        keys[:, count - 1] |= lengths.astype(np.uint64) << 56
    return keys


def _field_codes(
    data: bytes, buf: np.ndarray, starts: np.ndarray, stops: np.ndarray, table: dict
) -> np.ndarray:
    """The code in table of each field data[start:stop]; a field not yet in
    table gets the next code. Fields are told apart by their integer keys
    (_field_words), so that only distinct fields become Python objects."""
    if not starts.size:
        return np.zeros(0, np.intp)
    inverse = None
    for column in _field_words(buf, starts, stops).T:
        _, codes = np.unique(column, return_inverse=True)
        if inverse is not None:
            # both are codes below the row count: their pair fits one int64
            _, codes = np.unique(inverse * (codes.max() + 1) + codes, return_inverse=True)
        inverse = codes.reshape(-1)
    sample = np.empty(int(inverse.max()) + 1, np.intp)
    sample[inverse] = np.arange(inverse.size)
    local = np.fromiter(
        (table.setdefault(data[a:b], len(table))
         for a, b in zip(starts[sample].tolist(), stops[sample].tolist())),
        np.intp, sample.size,
    )
    return local[inverse]


def _byte_columns(
    data: bytes, starts: np.ndarray, ends: np.ndarray
) -> tuple[list[Column], Optional[list[str]]]:
    """The id, day and value columns of unquoted visit lines (the text of
    line i is data[starts[i]:ends[i]]), read up to the first short row, and
    that row's cells (None if there is none). Blank lines are skipped."""
    buf = np.frombuffer(data, np.uint8)
    tables: list[dict] = [{}, {}, {}]
    codes = [np.empty(starts.size, np.intp) for _ in tables]
    n = 0
    short = None
    for lo in range(0, starts.size, _BLOCK_ROWS):
        s, e = starts[lo:lo + _BLOCK_ROWS], ends[lo:lo + _BLOCK_ROWS]
        filled = e > s
        s, e = s[filled], e[filled]
        if not s.size:
            continue
        commas = np.flatnonzero(buf[s[0]:e[-1]] == 44) + s[0]
        first = np.searchsorted(commas, s)
        count = np.searchsorted(commas, e) - first
        if (count < 2).any():
            cut = int(np.argmax(count < 2))
            short = next(csv.reader([data[s[cut]:e[cut]].decode("utf-8")]))
            s, e, first, count = s[:cut], e[:cut], first[:cut], count[:cut]
        c1, c2 = commas[first], commas[first + 1]
        c3 = np.where(count > 2, commas[np.minimum(first + 2, commas.size - 1)], e)
        for table, out, (a, b) in zip(tables, codes, ((s, c1), (c1 + 1, c2), (c2 + 1, c3))):
            out[n:n + s.size] = _field_codes(data, buf, a, b, table)
        n += s.size
        if short is not None:
            break
    columns = [([raw.decode("utf-8") for raw in table], out[:n])
               for table, out in zip(tables, codes)]
    return columns, short


def _csv_columns(path) -> tuple[list[Column], Optional[list[str]]]:
    """The id, day and value columns read by csv.reader, up to the first
    short row, and that row (None if there is none)."""
    cells: list[list[str]] = [[], [], []]
    short = None
    with _csv_reader(path) as reader:
        _check_header(path, reader, VISIT_HEADER)
        add_id, add_day, add_value = (column.append for column in cells)
        # cells repeat (ids per day, days and counts per unit): interned,
        # each distinct text is one object, and later lookups hash it once
        for row in reader:
            if len(row) >= 3:
                add_id(intern(row[0]))
                add_day(intern(row[1]))
                add_value(intern(row[2]))
            elif row:
                short = row
                break
    columns = []
    for column in cells:
        code = {text: k for k, text in enumerate(dict.fromkeys(column))}
        columns.append((list(code), np.fromiter(map(code.__getitem__, column), np.intp,
                                                len(column))))
    return columns, short


def _parsed(column: Column, parse, dtype) -> tuple[np.ndarray, Optional[int]]:
    """Each row's cell through parse, called once per distinct text, and the
    index of the first row whose text parse rejects (None if none is)."""
    texts, codes = column
    table = np.zeros(len(texts), dtype)
    bad = np.zeros(len(texts), bool)
    for k, text in enumerate(texts):
        try:
            table[k] = parse(text)
        except DataError:
            bad[k] = True
    first_bad = int(np.argmax(bad[codes])) if bad.any() else None
    return table[codes], first_bad


def read_visit_series(path: str | Path) -> dict[str, tuple[int, np.ndarray]]:
    """Visit CSV (header id,day,visits) grouped per node, in sorted id order.

    Each node's days must be consecutive once sorted; the result maps the
    node id to (first day, daily visit array).

    The file is read as bytes and checked to be UTF-8. A file with no '"'
    is tokenized with NumPy: lines end at \\n, \\r\\n or a lone \\r, blank
    lines are skipped, and cells are split at commas, as csv.reader would
    split them. The rows are taken in blocks of _BLOCK_ROWS; each field is
    packed with its length into integer keys, the distinct keys are found
    with one sort per column and block, and only the distinct texts are
    decoded. A file with a '"' (or a line longer than csv's field size
    limit) is read by csv.reader instead, the only reader that splits quoted
    fields exactly. Either way, each distinct day or value text is parsed
    once, and the rows are sorted by (node, day) at once; every series is a
    view into one sorted array.

    A bad row, a duplicate day or a gap is named as a row-by-row reader
    would name it: the first bad row in file order (rows after the first
    short row are not read), else the first short row, else the first node
    in order of appearance.
    """
    data = Path(path).read_bytes()
    _check_utf8(path, data)
    starts, ends = _line_bounds(data)
    if b'"' in data or np.any(ends - starts > csv.field_size_limit()):
        del data, starts, ends  # the csv.reader path reads the file again
        columns, short = _csv_columns(path)
    else:
        header = [data[starts[0]:ends[0]].decode("utf-8")] if starts.size else []
        _check_header(path, csv.reader(header), VISIT_HEADER)
        columns, short = _byte_columns(data, starts[1:], ends[1:])
        del data, starts, ends
    # each column is dropped once it is used, to keep the peak memory low
    (id_texts, id_codes), days, values = columns
    del columns
    day, bad_day = _parsed(days, _visit_day, np.int64)
    visits, bad_value = _parsed(values, lambda text: _parse_float(text, path, None), np.float64)
    del days, values
    bad_rows = [i for i in (bad_day, bad_value) if i is not None]
    if bad_rows:
        _check_visit_row(path, _data_row(path, min(bad_rows)))
    if short is not None:
        raise DataError(f"{path}: malformed visit row {short!r}")
    n = day.size
    if not n:
        return {}

    node_of = [text.strip() for text in id_texts]
    nodes = sorted(set(node_of))
    index = {node: code for code, node in enumerate(nodes)}
    codes = np.array([index[node] for node in node_of], np.int64)[id_codes]
    del id_codes
    order = np.lexsort((day, codes))
    codes = codes[order]
    day = day[order]
    visits = visits[order]

    same_node = codes[1:] == codes[:-1]
    step = np.diff(day)
    duplicate = same_node & (step == 0)
    gap = same_node & (step > 1)
    if duplicate.any() or gap.any():
        duplicated = set(codes[1:][duplicate].tolist())
        bad = duplicated | set(codes[1:][gap].tolist())
        first_row = np.full(len(nodes), n)
        np.minimum.at(first_row, codes, order)
        code = min(bad, key=first_row.__getitem__)
        problem = "duplicate day" if code in duplicated else "gaps in the day series"
        raise DataError(f"{path}: {problem} for node {nodes[code]!r}")

    starts = np.flatnonzero(np.concatenate(([True], ~same_node))).tolist()
    ends = starts[1:] + [n]
    first_days = day[starts].tolist()
    return {
        node: (first_day, visits[a:b])
        for node, first_day, a, b in zip(nodes, first_days, starts, ends)
    }


def read_attributes(path: str | Path) -> AttributeTable:
    """Attributes CSV (header id,per_capita_income,median_household_income,
    minority_pct, then optionally flood_extent) as columns.

    Values must be finite; ids distinct, minority_pct in [0, 100] and
    flood_extent >= 0, given in every row or in none (then the table has no
    flood_extent column). The columns are checked at once and an error names
    the file and the first row that breaks a rule.
    """
    from .analysis import ATTRIBUTE_NAMES, AttributeTable
    rows = list(_open_csv(path, ["id", *ATTRIBUTE_NAMES[:3]], "attribute",
                          optional=ATTRIBUTE_NAMES[3]))
    ids = [row[0].strip() for row in rows]
    income, household, minority = np.array(
        [[_parse_float(text, path, row) for text in row[1:4]] for row in rows], dtype=np.float64
    ).reshape(-1, 3).T.copy()
    given = np.array([len(row) > 4 and row[4].strip() != "" for row in rows], dtype=bool)
    flood = np.array(
        [_parse_float(row[4], path, row) if has else 0.0 for row, has in zip(rows, given)],
        dtype=np.float64,
    )
    first_row: dict[str, int] = {}
    repeated = [first_row.setdefault(node, i) != i for i, node in enumerate(ids)]
    faults = (
        (repeated, "a second attribute row for its node"),
        ((minority < 0) | (minority > 100), "minority_pct outside [0, 100]"),
        (flood < 0, "negative flood_extent"),
        (~given & given.any(), "no flood_extent where other rows give one (give it in every "
                               "row or in none)"),
    )
    bad = np.array([mask for mask, _ in faults], dtype=bool)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        problem = next(message for mask, message in faults if mask[i])
        raise DataError(f"{path}: {problem} in row {rows[i]!r}")
    columns = dict(zip(ATTRIBUTE_NAMES, (income, household, minority)))
    if given.size and given.all():
        columns["flood_extent"] = flood
    return AttributeTable(ids=tuple(ids), columns=columns)


def write_attributes(attrs: AttributeTable, path: str | Path) -> None:
    """Every attribute column; flood_extent cells stay empty when the table
    has none."""
    from .analysis import ATTRIBUTE_NAMES
    cells = [
        list(map(repr, attrs.columns[name].tolist())) if name in attrs.columns
        else [""] * len(attrs)
        for name in ATTRIBUTE_NAMES
    ]
    write_table(path, ["id", *ATTRIBUTE_NAMES], zip(attrs.ids, *cells))


def read_thresholds(path: str | Path) -> ThresholdVector:
    from .diffusion import ThresholdVector
    ids, values, seeds = [], [], []
    seen = set()
    for row in _open_csv(path, ["id", "threshold", "is_seed"], "threshold"):
        node = row[0].strip()
        if node in seen:
            raise DataError(f"{path}: a second threshold row for its node in row {row!r}")
        seen.add(node)
        value = _parse_float(row[1], path, row)
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{path}: threshold outside [0, 1] in row {row!r}")
        flag = row[2].strip()
        if flag not in ("0", "1"):
            raise DataError(f"{path}: is_seed must be 0 or 1, got {flag!r}")
        if flag == "1" and value != 0.0:
            raise DataError(f"{path}: seed with a non-zero threshold in row {row!r}")
        ids.append(node)
        values.append(value)
        seeds.append(flag == "1")
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
    # the ",week,state" lines of each start week, joined with each id as
    # csv.writer quotes it (writerow returns what the file's write returns)
    tails = [[""] + [f",{week},{int(week >= start)}\r\n" for week in range(horizon + 1)]
             for start in range(horizon + 2)]
    line = csv.writer(SimpleNamespace(write=str)).writerow
    starts = np.clip(first, 0, horizon + 1).tolist()
    with atomic_write(path) as handle:
        handle.write(line(["id", "week", "state"]) + "".join(
            line((node, ""))[:-3].join(tails[start]) for node, start in zip(node_ids, starts)))


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


def read_multiplier_set(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of a multiplier set file and which are selected, in file order."""
    ids, selected = [], []
    for row in _open_csv(path, ["id", "selected"], "multiplier"):
        ids.append(row[0].strip())
        selected.append(row[1].strip() == "1")
    return tuple(ids), np.array(selected, dtype=bool)


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


def read_multiplier_results(
    directory: str | Path, nodes: Sequence[str]
) -> list[tuple[SimpleNamespace, np.ndarray]]:
    """The results of a multipliers run over the given nodes: each
    multipliers_summary.csv row as a record of MultiplierResult's fields
    members, recovered_with, recovered_without and increment_rate, the
    members read from its multipliers_N<size>.csv set, with their positions
    in node order. Members keep the set file's order; the set file must
    list every node once and no other id."""
    directory = Path(directory)
    path = directory / "multipliers_summary.csv"
    results = []
    for row in _open_csv(path, MULTIPLIER_SUMMARY_HEADER, "summary"):
        size, recovered_with, recovered_without = (
            _parse_int(text, path, row) for text in (row[0], row[2], row[3])
        )
        set_path = directory / f"multipliers_N{size}.csv"
        ids, selected = read_multiplier_set(set_path)
        members = tuple(node for node, chosen in zip(ids, selected) if chosen)
        if len(members) != size:
            raise DataError(f"{set_path}: {len(members)} nodes selected, row {row!r} says {size}")
        # align_rows maps node order to file rows; its inverse maps file rows to nodes
        positions = np.argsort(align_rows(ids, nodes, set_path))[selected]
        rate = row[4].strip()
        result = SimpleNamespace(
            members=members,
            recovered_with=recovered_with,
            recovered_without=recovered_without,
            increment_rate=_parse_float(rate, path, row) if rate else None,
        )
        results.append((result, positions))
    return results
