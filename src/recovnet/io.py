"""Readers and writers for every file format the pipeline consumes or
produces: GeoJSON feature collections, edge lists, duration / attribute /
threshold tables, trajectories, per-generation GA statistics, and the
multiplier sets and summary of a multipliers run.

Every CSV table is read column by column by _read_columns, with no Python
step per row. The file is read as bytes and checked to be UTF-8, then its
header is checked. Every \r\n and lone \r becomes \n, so lines end as
csv.reader ends them. A file with no '"', no line past csv's field limit
and no cell over 255 bytes among the columns a reader keys (the cells past
them are never looked at) is tokenized with NumPy: blank lines are skipped
and cells are split at commas, as csv.reader splits them; each block of
_BLOCK_ROWS rows finds each column's distinct cells, and only those are
decoded. A column whose cells in the block are all canonical integers of a
few digits (a day index, a visit count) is coded by value through a
presence table. Any other packs every cell's bytes and length into
integer keys, and one sort over the heads of its runs of equal cells on
consecutive rows (an id repeated day after day) finds the distinct cells.
Any other file is read by csv.reader, the only reader that splits quoted
cells exactly. Each distinct cell text is parsed once.

Rows are read up to the first short row (fewer cells than the header). A
fault is named as a row-by-row reader would name it: the first row in file
order that breaks a rule, by the first rule it breaks in the reader's order;
else the short row; else a fault of the whole table (a duplicate edge, a gap
in a visit series). A visits table becomes one array, cut per unit by indptr.

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
from datetime import date
from pathlib import Path
from sys import intern
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .errors import DataError
from .graph import Polygons, SpatialGraph, align_rows

if TYPE_CHECKING:  # at run time, a function that needs a stage module imports it
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
    """Load polygon features (with a string property "id", stripped as the
    CSV readers strip ids) as a Polygons table, one unit per feature, checked
    as Polygons.from_coordinates checks them. A fault names the file and the
    first feature at fault in file order (by index, and by id once it is
    known).
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
            if not unit_id.strip():
                raise DataError(f"{path}: feature {k} has an empty id {unit_id!r}")
            unit_id = unit_id.strip()
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
    """Copy a feature collection that read_feature_collection accepts (parsed
    once) to each destination, adding a boolean "multiplier" property that
    marks that destination's selected ids, matched as that reader strips them.
    The copies are compact JSON: json encodes indent=2 in pure Python only."""
    doc = read_json(src)
    for dest, selected in selections.items():
        for feature in doc.get("features", []):
            props = feature["properties"]
            props["multiplier"] = props["id"].strip() in selected
        with atomic_write(dest) as handle:
            handle.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------

def _check_header(
    path, header: Optional[list[str]], expected_header: list[str], optional: Optional[str]
) -> None:
    """The header row (None for an empty file) must start with
    expected_header; the column after it, if named, must be named optional."""
    if header is None:
        raise DataError(f"{path}: empty file")
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


def _data_row(path, index: int) -> list[str]:
    """The index-th non-blank row after the (non-blank) header, read again
    to quote it."""
    with open(path, encoding="utf-8", newline="") as handle:
        return next(itertools.islice(filter(None, csv.reader(handle)), index + 1, None))


# A column: its distinct cell texts, and per row the index of its text.
Column = tuple[list[str], np.ndarray]

# rows tokenized at a time: the key arrays of one block stay small next to
# the columns of the whole file
_BLOCK_ROWS = 16_384


def _line_bounds(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the start and end of each line's text, the lines of data
    ending at \\n. A last line without a terminator is a line; nothing
    after a final terminator is."""
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends + 1))
    if starts[-1] == buf.size:
        return starts[:-1], ends
    return starts, np.append(ends, buf.size)


# _LOW_BYTES[k] keeps the low k bytes of a 64-bit word
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)


def _field_words(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Each field buf[start:stop], shorter than 256 bytes, as a row of 64-bit
    words: its bytes, zero-padded, with its length in the top byte of the
    last word, a byte past every field, so that two rows are equal iff the
    fields are."""
    lengths = stops - starts
    count = int(lengths.max()) // 8 + 1
    lo, hi = int(starts.min()), int(stops.max())
    words = np.zeros((hi - lo) // 8 + count + 1, np.uint64)
    words.view(np.uint8)[: hi - lo] = buf[lo:hi]
    index = (starts - lo) >> 3
    shift = ((starts - lo) & 7).astype(np.uint64) * 8
    keys = np.empty((starts.size, count), np.uint64)
    for j in range(count):
        # the 8 bytes from the field's start + 8j, which straddle two words
        word = (words[index + j] >> shift) | ((words[index + j + 1] << 1) << (63 - shift))
        keys[:, j] = word & _LOW_BYTES[np.clip(lengths - 8 * j, 0, 8)]
    keys[:, -1] |= lengths.astype(np.uint64) << 56
    return keys


# fields of at most this many digits may be coded by value (_integer_fields),
# through a presence table of at most 10**_VALUE_DIGITS entries
_VALUE_DIGITS = 4


def _integer_fields(
    buf: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> Optional[np.ndarray]:
    """The value of each field buf[start:stop] if every one is a canonical
    integer of at most _VALUE_DIGITS digits (digits only, and no leading
    zero unless the field is 0), so that str(value) is its exact text; else
    None."""
    lengths = stops - starts
    if lengths.min() < 1 or lengths.max() > _VALUE_DIGITS:
        return None
    values = np.zeros(starts.size, np.int64)
    for j in range(int(lengths.max())):
        live = lengths > j
        digits = buf.take(starts + j, mode="clip") - np.uint8(48)  # a non-digit wraps past 9
        if (live & (digits > 9)).any() or (j == 0 and ((digits == 0) & (lengths > 1)).any()):
            return None
        values = np.where(live, values * 10 + digits, values)
    return values


def _field_codes(
    data: bytes, buf: np.ndarray, starts: np.ndarray, stops: np.ndarray, table: dict
) -> np.ndarray:
    """The code in table of each field data[start:stop]; a field not yet in
    table gets the next code. Only distinct fields become Python objects:
    canonical small integers are told apart by value, other fields by their
    integer keys (_field_words), sorted once per run of equal fields on
    consecutive rows."""
    if not starts.size:
        return np.zeros(0, np.intp)
    values = _integer_fields(buf, starts, stops)
    if values is not None:
        present = np.zeros(int(values.max()) + 1, bool)
        present[values] = True
        distinct = np.flatnonzero(present)
        local = np.zeros(present.size, np.intp)
        local[distinct] = [table.setdefault(b"%d" % v, len(table)) for v in distinct.tolist()]
        return local[values]
    keys = _field_words(buf, starts, stops)
    head = np.zeros(starts.size, bool)  # the first row of a run of equal fields
    head[0] = True
    for word in keys.T:
        head[1:] |= word[1:] != word[:-1]
    heads = np.flatnonzero(head)
    runs = heads.size < starts.size
    inverse = None
    for column in (keys[heads] if runs else keys).T:
        _, codes = np.unique(column, return_inverse=True)
        if inverse is not None:
            # both are codes below the row count: their pair fits one int64
            _, codes = np.unique(inverse * (codes.max() + 1) + codes, return_inverse=True)
        inverse = codes.reshape(-1)
    sample = np.empty(int(inverse.max()) + 1, np.intp)
    sample[inverse] = heads
    local = np.fromiter(
        (table.setdefault(data[a:b], len(table))
         for a, b in zip(starts[sample].tolist(), stops[sample].tolist())),
        np.intp, sample.size,
    )[inverse]
    return local[np.cumsum(head) - 1] if runs else local


def _byte_columns(
    data: bytes, starts: np.ndarray, ends: np.ndarray, required: int, width: int
) -> tuple[list[Column], Optional[int]]:
    """The first width columns of unquoted lines (the text of line i is
    data[starts[i]:ends[i]]), read up to the first short row (one of fewer
    than required cells), and that row's data-row index (None if there is
    none). A cell past a row's last is empty. Blank lines are skipped."""
    buf = np.frombuffer(data, np.uint8)
    tables: list[dict] = [{} for _ in range(width)]
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
        if (count < required - 1).any():
            cut = int(np.argmax(count < required - 1))
            short = n + cut
            s, e, first, count = s[:cut], e[:cut], first[:cut], count[:cut]
        # cell j ends at the row's j-th comma, or at the row's end past its last
        stop = s - 1
        for j, (table, out) in enumerate(zip(tables, codes)):
            start = np.minimum(stop + 1, e)
            stop = np.where(count > j, commas[np.minimum(first + j, commas.size - 1)], e)
            out[n:n + s.size] = _field_codes(data, buf, start, stop, table)
        n += s.size
        if short is not None:
            break
    return [([raw.decode("utf-8") for raw in table], out[:n])
            for table, out in zip(tables, codes)], short


def _csv_columns(
    path, header: list[str], optional: Optional[str]
) -> tuple[list[Column], Optional[int]]:
    """The columns _byte_columns gives, read by csv.reader. A line csv
    rejects (a field past csv.field_size_limit(), say) is a DataError naming
    the file and the line."""
    width = len(header) + (optional is not None)
    cells: list[list[str]] = [[] for _ in range(width)]
    short = None
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        adds = [column.append for column in cells]
        try:
            _check_header(path, next(reader, None), header, optional)
            # cells repeat (ids per day, days and counts per unit): interned,
            # each distinct text is one object, and later lookups hash it once
            for row in reader:
                if len(row) >= len(header):
                    for add, cell in zip(adds, row + [""] * (width - len(row))):
                        add(intern(cell))
                elif row:
                    short = len(cells[0])
                    break
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    codes = [{text: k for k, text in enumerate(dict.fromkeys(column))} for column in cells]
    return [(list(code), np.fromiter(map(code.__getitem__, column), np.intp, len(column)))
            for code, column in zip(codes, cells)], short


def _read_columns(
    path: str | Path, header: list[str], optional: Optional[str] = None
) -> tuple[list[Column], Optional[int]]:
    """The columns of a CSV table whose header starts with header, then,
    if named, the optional column: one per header cell, and the optional
    one, "" in a row without it. They hold the rows up to the first short
    row, whose data-row index (as _data_row takes it) is returned too (None
    if there is none). The file's content alone picks the tokenizer, as the
    module docstring says."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    starts, ends = _line_bounds(data)
    width = len(header) + (optional is not None)
    if b'"' in data or not _keyed_cells_fit(data, starts, ends, width):
        del data, starts, ends  # the csv.reader path reads the file again
        return _csv_columns(path, header, optional)
    first = next(csv.reader([data[starts[0]:ends[0]].decode("utf-8")])) if starts.size else None
    _check_header(path, first, header, optional)
    return _byte_columns(data, starts[1:], ends[1:], len(header), width)


def _keyed_cells_fit(data: bytes, starts: np.ndarray, ends: np.ndarray, width: int) -> bool:
    """Whether the first width cells of every line, the ones a reader keys,
    are at most 255 bytes long, so that one key byte holds each length
    (_field_words), and no line is longer than csv.field_size_limit(), so
    that a field csv.reader rejects is never read. Only lines of more than
    255 bytes are split."""
    limit, long = csv.field_size_limit(), ends - starts > 255
    for a, b in zip(starts[long].tolist(), ends[long].tolist()):
        if b - a > limit or max(map(len, data[a:b].split(b",", width)[:width])) > 255:
            return False
    return True


def _parsed(column: Column, parse, dtype, k: int) -> tuple[np.ndarray, tuple]:
    """Each row's cell through parse, called once per distinct text, and
    the fault (as _raise_first takes it) of a row whose cell, its k-th,
    parse rejects: the DataError parse raises, said of the row."""
    texts, codes = column
    table = np.zeros(len(texts), dtype)
    bad = np.zeros(len(texts), bool)
    rejected = {}
    for j, text in enumerate(texts):
        try:
            table[j] = parse(text)
        except DataError as exc:
            bad[j], rejected[text] = True, exc
    return table[codes], (bad[codes] if bad.any() else None,
                          lambda row: f"{rejected[row[k]]} in row {row!r}")


def _node_codes(*columns: Column) -> tuple[list[str], list[np.ndarray], tuple]:
    """The sorted distinct ids of id columns (cells stripped), each column's
    rows as indices into them, and the fault of a row with an empty id (""
    sorts first)."""
    names = [[text.strip() for text in texts] for texts, _ in columns]
    nodes = sorted(set().union(*names))
    index = dict(zip(nodes, range(len(nodes))))
    codes = [np.fromiter(map(index.__getitem__, column), np.int64, len(column))[rows]
             for column, (_, rows) in zip(names, columns)]
    empty = None if nodes[:1] != [""] else np.logical_or.reduce([c == 0 for c in codes])
    return nodes, codes, (empty, "empty id")


def _repeated(codes: np.ndarray) -> np.ndarray:
    """The rows whose id (an index into the sorted distinct ids) an earlier
    row has."""
    first = np.unique(codes, return_index=True)[1]
    return first[codes] != np.arange(codes.size)


def _raise_first(path, what: str, faults: list[tuple], short: Optional[int]) -> None:
    """Raise for the first row in file order that a fault finds, with the
    first of its faults in the order listed; else for the short row (given
    by its data-row index), if there is one. The row is quoted as csv.reader
    reads it. A fault is the mask of the rows it finds (None if none) and
    its problem: a text, said "in row" of the row, or a function of the
    row's cells giving the message. Every row a fault finds is before the
    short row."""
    firsts = [int(np.argmax(rows)) if rows is not None and rows.any() else None
              for rows, _ in faults]
    at = min((i for i in firsts if i is not None), default=short)
    if at is None:
        return
    row = _data_row(path, at)
    if at == short:
        raise DataError(f"{path}: malformed {what} row {row!r}")
    problem = next(problem for i, (_, problem) in zip(firsts, faults) if i == at)
    raise DataError(f"{path}: " + (problem(row) if callable(problem)
                                   else f"{problem} in row {row!r}"))


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"non-integer value {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r}")
    return value


def _flag(text: str, name: str) -> bool:
    """A cell of the 0/1 column name: whether it is 1, once stripped."""
    flag = text.strip()
    if flag not in ("0", "1"):
        raise DataError(f"{name} must be 0 or 1, got {flag!r}")
    return flag == "1"


def read_edge_list(path: str | Path) -> SpatialGraph:
    """Edge-list CSV (header src,dst); nodes are the sorted endpoint union."""
    (src, dst), short = _read_columns(path, ["src", "dst"])
    nodes, (heads, tails), empty = _node_codes(src, dst)
    _raise_first(path, "edge", [empty], short)
    return SpatialGraph(nodes, heads, tails)


def write_edge_list(graph: SpatialGraph, path: str | Path) -> None:
    write_table(path, ["src", "dst"], graph.edges)


def metrics_line(metrics: Mapping) -> str:
    """The one-line summary of graph.graph_metrics' dict."""
    return (
        f"n={metrics['n']} m={metrics['m']} "
        f"k={metrics['avg_degree']:.3f} d={metrics['density']:.5f}"
    )


def write_metrics(metrics: Mapping, path: str | Path) -> None:
    """graph.graph_metrics' dict, with its one-line summary, as JSON; the
    degree histogram's keys become text, in degree order."""
    write_json({**metrics, "summary": metrics_line(metrics)}, path)


def read_durations(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Durations CSV (header id,duration_weeks): the distinct ids and their
    finite durations in weeks, in file order."""
    (ids, weeks), short = _read_columns(path, ["id", "duration_weeks"])
    nodes, (codes,), empty = _node_codes(ids)
    durations, bad_duration = _parsed(weeks, _parse_float, np.float64, 1)
    _raise_first(path, "duration", [
        empty,
        (_repeated(codes), lambda row: f"duplicate duration for node {row[0].strip()!r}"),
        bad_duration,
    ], short)
    return tuple(map(nodes.__getitem__, codes.tolist())), durations


def write_durations(ids: Sequence[str], values: np.ndarray, path: str | Path) -> None:
    """One row per id, with its duration, as read_durations reads them."""
    write_table(path, ["id", "duration_weeks"],
                ([node, repr(float(value))] for node, value in zip(ids, values)))


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


VISIT_HEADER = ["id", "day", "visits"]


def read_visit_series(path: str | Path) -> tuple:
    """Visit CSV (header id,day,visits) as one panel (ids, first_days,
    indptr, visits), its units in sorted id order.

    Each unit's days must be consecutive once sorted. first_days (int64)
    holds each unit's first day, and unit i's daily visits (float64) are
    visits[indptr[i]:indptr[i + 1]]. The rows are sorted by (unit, day) at
    once, unless they already are in that order. A duplicate day or a gap
    is named for the first unit at fault in order of appearance.
    """
    columns, short = _read_columns(path, VISIT_HEADER)
    # each column is dropped once it is used, to keep the peak memory low
    ids, days, values = columns
    del columns
    day, bad_day = _parsed(days, _visit_day, np.int64, 1)
    visits, bad_value = _parsed(values, _parse_float, np.float64, 2)
    del days, values
    nodes, (codes,), empty = _node_codes(ids)
    del ids
    _raise_first(path, "visit", [empty, bad_day, bad_value], short)

    same_node = codes[1:] == codes[:-1]
    step = np.diff(day)
    order = None  # rows already in (node, day) order are not sorted again
    if not ((codes[1:] > codes[:-1]) | (same_node & (step >= 0))).all():
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
        first_row = np.full(len(nodes), day.size)
        np.minimum.at(first_row, codes, np.arange(day.size) if order is None else order)
        code = min(bad, key=first_row.__getitem__)
        problem = "duplicate day" if code in duplicated else "gaps in the day series"
        raise DataError(f"{path}: {problem} for node {nodes[code]!r}")

    indptr = np.flatnonzero(np.diff(codes, prepend=-1, append=len(nodes)))
    return tuple(nodes), day[indptr[:-1]], indptr, visits


# the attributes table's header after its id column, in order; flood_extent
# is optional and is the last
ATTRIBUTE_NAMES = (
    "per_capita_income",
    "median_household_income",
    "minority_pct",
    "flood_extent",
)


def read_attributes(path: str | Path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """Attributes CSV (header id,per_capita_income,median_household_income,
    minority_pct, then optionally flood_extent): the ids in file order, and
    one float64 column per attribute, keyed in ATTRIBUTE_NAMES order.

    Values must be finite; ids distinct, minority_pct in [0, 100] and
    flood_extent >= 0, given in every row or in none (then the table has no
    flood_extent column).
    """
    (ids, *numbers, floods), short = _read_columns(
        path, ["id", *ATTRIBUTE_NAMES[:3]], optional=ATTRIBUTE_NAMES[3])
    nodes, (codes,), empty = _node_codes(ids)
    (income, bad_income), (household, bad_household), (minority, bad_minority) = (
        _parsed(column, _parse_float, np.float64, k) for k, column in enumerate(numbers, 1))
    # NaN marks a blank cell: _parse_float rejects every NaN text
    flood, bad_flood = _parsed(
        floods, lambda text: _parse_float(text) if text.strip() else math.nan, np.float64, 4)
    given = ~np.isnan(flood)
    _raise_first(path, "attribute", [
        empty, bad_income, bad_household, bad_minority, bad_flood,
        (_repeated(codes), "a second attribute row for its node"),
        ((minority < 0) | (minority > 100), "minority_pct outside [0, 100]"),
        (flood < 0, "negative flood_extent"),
        (~given & given.any(), "no flood_extent where other rows give one (give it in every "
                               "row or in none)"),
    ], short)
    columns = dict(zip(ATTRIBUTE_NAMES, (income, household, minority)))
    if given.size and given.all():
        columns["flood_extent"] = flood
    return tuple(map(nodes.__getitem__, codes.tolist())), columns


def write_attributes(
    ids: Sequence[str], columns: Mapping[str, np.ndarray], path: str | Path
) -> None:
    """One row per id, with its cell of every attribute column (keyed as
    read_attributes keys them); flood_extent cells stay empty when columns
    has none."""
    # each cell is formatted as its row is written, so no column of texts
    # is held; repr of a Python float is the shortest text that reads back
    cells = [
        map(repr, map(float, columns[name])) if name in columns
        else itertools.repeat("", len(ids))
        for name in ATTRIBUTE_NAMES
    ]
    write_table(path, ["id", *ATTRIBUTE_NAMES], zip(ids, *cells))


def read_thresholds(path: str | Path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Thresholds CSV (header id,threshold,is_seed): the distinct ids, the
    thresholds in [0, 1] and the seed mask (a seed's threshold is 0), in file order."""
    (ids, thresholds, flags), short = _read_columns(path, ["id", "threshold", "is_seed"])
    nodes, (codes,), empty = _node_codes(ids)
    values, bad_value = _parsed(thresholds, _parse_float, np.float64, 1)
    seeds, bad_flag = _parsed(flags, lambda text: _flag(text, "is_seed"), bool, 2)
    _raise_first(path, "threshold", [
        empty,
        (_repeated(codes), "a second threshold row for its node"),
        bad_value,
        ((values < 0) | (values > 1), "threshold outside [0, 1]"),
        bad_flag,
        (seeds & (values != 0), "seed with a non-zero threshold"),
    ], short)
    return tuple(map(nodes.__getitem__, codes.tolist())), values, seeds


def write_thresholds(
    ids: Sequence[str], values: np.ndarray, seed_mask: np.ndarray, path: str | Path
) -> None:
    """One row per id, with its threshold and is_seed flag, as read_thresholds reads them."""
    write_table(path, ["id", "threshold", "is_seed"], (
        [node, repr(float(value)), "1" if seed else "0"]
        for node, value, seed in zip(ids, values, seed_mask)
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
    # csv.writer quotes it (writerow returns what the file's write returns);
    # each node's lines go to the file as they are made
    tails = [[""] + [f",{week},{int(week >= start)}\r\n" for week in range(horizon + 1)]
             for start in range(horizon + 2)]
    line = csv.writer(SimpleNamespace(write=str)).writerow
    starts = np.clip(first, 0, horizon + 1).tolist()
    with atomic_write(path) as handle:
        handle.write(line(["id", "week", "state"]))
        handle.writelines(
            line((node, ""))[:-3].join(tails[start]) for node, start in zip(node_ids, starts))


def write_generation_stats(
    history: np.ndarray, path: str | Path, seconds: Optional[np.ndarray] = None
) -> None:
    """Per-generation GA statistics: each generation's best fitness, and its
    wall-clock seconds when given; without them, repeated runs with one seed
    produce byte-identical files."""
    header = ["generation", "best_fitness"]
    columns = [range(history.size), map(repr, history.astype(np.float64).tolist())]
    if seconds is not None:
        header.append("seconds")
        columns.append(map(repr, seconds.tolist()))
    write_table(path, header, zip(*columns))


def write_multiplier_set(
    node_ids: Sequence[str], selected: set[str], path: str | Path
) -> None:
    write_table(
        path, ["id", "selected"], ([node, "1" if node in selected else "0"] for node in node_ids)
    )


def read_multiplier_set(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of a multiplier set file and which are selected, in file order."""
    (ids, flags), short = _read_columns(path, ["id", "selected"])
    nodes, (codes,), empty = _node_codes(ids)
    selected, bad_flag = _parsed(flags, lambda text: _flag(text, "selected"), bool, 1)
    _raise_first(path, "multiplier", [
        empty, (_repeated(codes), "a second multiplier row for its node"), bad_flag], short)
    return tuple(map(nodes.__getitem__, codes.tolist())), selected


MULTIPLIER_SUMMARY_HEADER = [
    "size", "method", "recovered_with", "recovered_without", "increment_rate_pct",
]


def _rate_cell(rate: Optional[float]) -> str:
    """The rate cell of both multiplier summaries: blank when undefined."""
    return "" if rate is None else repr(rate)


def write_multiplier_summary(
    method: str, results: Iterable[MultiplierResult], path: str | Path
) -> None:
    """One row per result of the search method, its size the set's size."""
    write_table(path, MULTIPLIER_SUMMARY_HEADER, (
        [len(result.members), method, result.recovered_with, result.recovered_without,
         _rate_cell(result.increment_rate)]
        for result in results
    ))


def read_multiplier_results(
    directory: str | Path, nodes: Sequence[str]
) -> list[tuple[tuple, np.ndarray]]:
    """The results of a multipliers run over the given nodes: each
    multipliers_summary.csv row as the cells increment_rates.csv holds
    (size, recovered_with, recovered_without and the rate cell), with the
    positions in node order of the nodes its multipliers_N<size>.csv set
    selects, in the set file's order. The set file must list every node
    once and no other id, and select size nodes. The summary's cells are
    checked before any set file is read."""
    directory = Path(directory)
    path = directory / "multipliers_summary.csv"
    columns, short = _read_columns(path, MULTIPLIER_SUMMARY_HEADER)
    parsed = [_parsed(columns[k], _parse_int, object, k) for k in (0, 2, 3)] + [_parsed(
        columns[4], lambda text: _rate_cell(_parse_float(text.strip()) if text.strip() else None),
        object, 4)]
    _raise_first(path, "summary", [fault for _, fault in parsed], short)
    results = []
    for i, (size, *counts) in enumerate(zip(*(values.tolist() for values, _ in parsed))):
        set_path = directory / f"multipliers_N{size}.csv"
        ids, selected = read_multiplier_set(set_path)
        count = np.count_nonzero(selected)
        if count != size:
            raise DataError(f"{set_path}: {count} nodes selected, "
                            f"row {_data_row(path, i)!r} says {size}")
        # align_rows maps node order to file rows; its inverse maps file rows to nodes
        results.append(((size, *counts), np.argsort(align_rows(ids, nodes, set_path))[selected]))
    return results
