from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import tracemalloc
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import graph_of
from recovnet import (
    ContiguityRule,
    DataError,
    build_contiguity_graph,
    graph_metrics,
)
from recovnet import io
from recovnet.io import ATTRIBUTE_NAMES


@pytest.fixture
def tmp_graph():
    return graph_of(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


class TestEdgeListCsv:
    def test_round_trip(self, tmp_path, tmp_graph):
        path = tmp_path / "edges.csv"
        io.write_edge_list(tmp_graph, path)
        loaded = io.read_edge_list(path)
        assert loaded.edges == tmp_graph.edges
        assert loaded.nodes == tmp_graph.nodes

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to\na,b\n")
        with pytest.raises(DataError, match="header"):
            io.read_edge_list(path)

    def test_endpoints_stripped_and_nodes_sorted(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n b , a\n\nc,b,extra\n")
        g = io.read_edge_list(path)
        assert g.nodes == ("a", "b", "c")
        assert g.edges == (("a", "b"), ("b", "c"))

    def test_short_row_named_before_a_later_bad_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\na,b\nlonely\nb,c\n" + "x" * (csv.field_size_limit() + 1)
                        + ",d\n")
        with pytest.raises(DataError, match=r"malformed edge row \['lonely'\]"):
            io.read_edge_list(path)
        path.write_text("src,dst\na,b\n" + "x" * (csv.field_size_limit() + 1) + ",d\nlonely\n")
        with pytest.raises(DataError, match="line 3"):
            io.read_edge_list(path)

    def test_duplicate_edge_propagates(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\na,b\nb,a\n")
        with pytest.raises(DataError, match="duplicate"):
            io.read_edge_list(path)


class TestDurationsCsv:
    def test_round_trip(self, tmp_path):
        """Ids and durations come back in file order, as float64."""
        ids, durations = ("c", "a", "b"), np.array([14.0, 2.5, 10 / 7])
        path = tmp_path / "durations.csv"
        io.write_durations(ids, durations, path)
        read_ids, read = io.read_durations(path)
        assert read_ids == ids
        assert read.dtype == np.float64
        assert read.tolist() == durations.tolist()

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "durations.csv"
        path.write_text("id,duration_weeks\na,2.5\na,3.5\n")
        with pytest.raises(DataError, match="duplicate"):
            io.read_durations(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "durations.csv"
        path.write_text("id,duration_weeks\na,soon\n")
        with pytest.raises(DataError, match="non-numeric"):
            io.read_durations(path)

    def test_one_long_id_costs_no_more_memory_than_its_file(self, tmp_path):
        """A 32 000-byte id in the first of 20 001 rows: csv.reader reads
        the file, so no key of the other rows in its block is sized to it."""
        ids = ("L" * 32_000, *(f"u{k:05d}" for k in range(20_000)))
        durations = np.array([2.5, *(float(k % 15) for k in range(20_000))])
        path = tmp_path / "durations.csv"
        io.write_durations(ids, durations, path)
        tracemalloc.start()
        try:
            read = io.read_durations(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read[0] == ids
        assert read[1].tolist() == durations.tolist()
        assert peak < 16 * 2**20


class TestThresholdsCsv:
    def test_round_trip(self, tmp_path):
        ids = ("a", "b", "c")
        values, seed_mask = np.array([0.0, 0.25, 1.0]), np.array([True, False, False])
        path = tmp_path / "thresholds.csv"
        io.write_thresholds(ids, values, seed_mask, path)
        loaded_ids, loaded_values, loaded_mask = io.read_thresholds(path)
        assert loaded_ids == ids
        assert loaded_values.dtype == np.float64 and np.array_equal(loaded_values, values)
        assert loaded_mask.dtype == bool and np.array_equal(loaded_mask, seed_mask)

    def test_bad_seed_flag_rejected(self, tmp_path):
        path = tmp_path / "thresholds.csv"
        path.write_text("id,threshold,is_seed\na,0.5,maybe\n")
        with pytest.raises(DataError) as raised:
            io.read_thresholds(path)
        assert str(raised.value) == (
            f"{path}: is_seed must be 0 or 1, got 'maybe' in row ['a', '0.5', 'maybe']"
        )

    @pytest.mark.parametrize("flags", [["01"], ["1", "01"], ["0", "00", "1"]])
    def test_seed_flag_with_leading_zero_named_as_written(self, tmp_path, flags):
        """A flag 01 is not the flag 1, alone or next to canonical flags."""
        rows = [f"n{k},0,{flag}" for k, flag in enumerate(flags)]
        path = tmp_path / "thresholds.csv"
        path.write_text("\n".join(["id,threshold,is_seed", *rows]) + "\n")
        bad = next(k for k, flag in enumerate(flags) if len(flag) > 1)
        with pytest.raises(DataError) as raised:
            io.read_thresholds(path)
        assert str(raised.value) == (
            f"{path}: is_seed must be 0 or 1, got {flags[bad]!r} "
            f"in row ['n{bad}', '0', {flags[bad]!r}]"
        )

    def test_repeated_id_names_second_row(self, tmp_path):
        path = tmp_path / "thresholds.csv"
        path.write_text("id,threshold,is_seed\na,0.0,1\nb,0.5,0\n a,0.25,0\nc,0.5,0\n")
        with pytest.raises(DataError) as raised:
            io.read_thresholds(path)
        assert str(raised.value) == (
            f"{path}: a second threshold row for its node in row [' a', '0.25', '0']"
        )


def assert_same_panel(panel, expected):
    """The reader's panel holds the oracle's series (id -> (first day,
    visits)) in sorted id order: int64 first days, float64 visits."""
    ids, first_days, indptr, values = panel
    want = oracles.visit_panel({node: expected[node] for node in sorted(expected)})
    assert ids == want[0]
    assert first_days.dtype == np.int64 and first_days.tolist() == want[1].tolist()
    assert indptr.tolist() == want[2].tolist()
    assert values.dtype == np.float64 and values.tolist() == want[3].tolist()


class TestVisitSeriesCsv:
    def test_integer_days(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\nu,3,5\nu,1,3\nu,2,4\n")
        ids, first_days, indptr, values = io.read_visit_series(path)
        assert ids == ("u",) and indptr.tolist() == [0, 3]
        assert first_days.tolist() == [1]
        assert values.tolist() == [3.0, 4.0, 5.0]

    def test_iso_dates(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text(
            "id,day,visits\nu,2017-08-01,10\nu,2017-08-02,11\nu,2017-08-03,12\n"
        )
        _, (first,), _, values = io.read_visit_series(path)
        assert first == io.parse_day("2017-08-01")
        assert values.tolist() == [10.0, 11.0, 12.0]

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\nu,1,3\nu,3,4\n")
        with pytest.raises(DataError, match="gaps"):
            io.read_visit_series(path)

    def test_duplicate_day_rejected(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\nu,1,3\nu,1,4\n")
        with pytest.raises(DataError, match="duplicate"):
            io.read_visit_series(path)

    def test_bad_day_rejected(self):
        with pytest.raises(DataError, match="day"):
            io.parse_day("next tuesday")

    @pytest.mark.parametrize("rows", [["z,2,1", " a ,7,4", "z,1,0", "a,6,3"],
                                      [" a ,6,3", "a,7,4", "z,1,0", "z,2,1"]],
                             ids=["shuffled", "ordered"])
    def test_sorted_into_one_array(self, tmp_path, rows):
        path = tmp_path / "visits.csv"
        path.write_text("\n".join(["id,day,visits", *rows]) + "\n")
        ids, first_days, indptr, values = io.read_visit_series(path)
        assert ids == ("a", "z")
        assert first_days.dtype == np.int64 and first_days.tolist() == [6, 1]
        assert indptr.tolist() == [0, 2, 4]
        assert values.tolist() == [3.0, 4.0, 0.0, 1.0]

    @pytest.mark.parametrize("rows,named", [
        # z comes first in the file, a first in id order
        (["z,1,0", "a,1,0", "a,1,1", "z,3,0"], "gaps in the day series for node 'z'"),
        (["a,1,0", "z,1,0", "a,1,1", "z,3,0"], "duplicate day for node 'a'"),
        # one node with both: the duplicate is named
        (["a,1,0", "a,3,0", "a,3,1"], "duplicate day for node 'a'"),
    ])
    def test_series_error_names_first_node_in_file(self, tmp_path, rows, named):
        path = tmp_path / "visits.csv"
        path.write_text("\n".join(["id,day,visits", *rows]) + "\n")
        with pytest.raises(DataError) as raised:
            io.read_visit_series(path)
        assert str(raised.value) == f"{path}: {named}"
        with pytest.raises(ValueError) as reference:
            oracles.naive_read_visit_series(path)
        assert str(reference.value) == str(raised.value)

    def test_day_beyond_int64_range_named(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\nu,1,3\nu,99999999999999999999,4\n")
        with pytest.raises(DataError) as raised:
            io.read_visit_series(path)
        assert str(raised.value) == (
            f"{path}: day value '99999999999999999999' is out of range "
            "in row ['u', '99999999999999999999', '4']"
        )

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\n\n")
        ids, first_days, indptr, values = io.read_visit_series(path)
        assert ids == () and indptr.tolist() == [0]
        assert first_days.shape == values.shape == (0,)

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_line_ends_split_as_csv_reader_splits_them(self, tmp_path, quote):
        """\\n, \\r\\n and a lone \\r end a line, a \\r\\n after a lone \\r
        ends a blank one, and the last line needs no terminator."""
        path = tmp_path / "visits.csv"
        path.write_bytes(f"id,day,visits\r{quote}u{quote},1,3\r\nu,2,4\ru,3,5\r\r\n"
                         "\nu,4,6\rv,9,1".encode())
        expected = oracles.naive_read_visit_series(path)
        assert expected == {"u": (1, [3.0, 4.0, 5.0, 6.0]), "v": (9, [1.0])}
        assert_same_panel(io.read_visit_series(path), expected)

    @pytest.mark.parametrize("block_rows", [1, 2, io._BLOCK_ROWS])
    @pytest.mark.parametrize("ids", [
        ["g480201234567", "g480201234568", "n", "n\x00",
         "M" * 254, "M" * 254 + "\x00", "W" * 254 + "0", "W" * 254 + "1"],
        ["L" * 300, "L" * 300 + "\x00"],
    ], ids=["byte_tokenizer", "csv_reader"])
    def test_fields_alike_in_their_leading_bytes_stay_apart(self, tmp_path, block_rows, ids):
        """Ids and days that share their first 8 bytes, or differ only by a
        trailing NUL byte or by their last byte, are distinct cells; each
        pair of ids is in one block of 2 rows. The longest ids are 255
        bytes, the longest keyed cell the byte tokenizer reads, in lines
        longer than that; the 300-byte ids are longer, so csv.reader reads
        them."""
        rows = [f"{node},2018-07-0{day},100.00000000{k}"
                for day in (1, 2) for k, node in enumerate(ids)]
        lines = [line + "\n" for line in ["id,day,visits", *rows]]
        path = tmp_path / "visits.csv"
        path.write_text("".join(lines), encoding="utf-8")
        with tokenizer_watched(lines, block_rows):
            series = io.read_visit_series(path)
        expected = oracles.naive_read_visit_series(path)
        assert sorted(expected) == sorted(ids)
        assert_same_panel(series, expected)

    def test_long_unkeyed_cell_keeps_the_byte_tokenizer(self, tmp_path, monkeypatch):
        """A 300-byte fourth cell on one row of a 40-unit visits file: no
        reader keys that column, so csv.reader never reads the file, and the
        series are the row-by-row reader's."""
        rows = [f"g{unit:02d},{day},{(unit * day) % 97}" for unit in range(40) for day in range(20)]
        rows[123] += "," + "Z" * 300
        path = tmp_path / "visits.csv"
        path.write_text("\n".join(["id,day,visits", *rows]) + "\n")
        monkeypatch.setattr(io, "_csv_columns", lambda *args: pytest.fail("csv.reader ran"))
        assert_same_panel(io.read_visit_series(path), oracles.naive_read_visit_series(path))

    @pytest.mark.parametrize("block_rows", [1, 2, io._BLOCK_ROWS])
    @pytest.mark.parametrize("quote", ["", '"'])
    @pytest.mark.parametrize("rows,named", [
        (["u,1,3", "u", "u,xx,4"], "malformed visit row ['u']"),
        (["u,1,3", "u,xx,4", "u"], "cannot parse day value 'xx' in row ['u', 'xx', '4']"),
        (["u,1,3", "u,2", "u,3,abc", "u,4,inf"], "malformed visit row ['u', '2']"),
    ])
    def test_bad_cells_after_a_short_row_are_not_read(self, tmp_path, monkeypatch, block_rows,
                                                      quote, rows, named):
        """A bad cell is named only before the first short row, which is
        named otherwise, with either tokenizer and whichever block holds
        the short row."""
        monkeypatch.setattr(io, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "visits.csv"
        path.write_text("\n".join(["id,day,visits", *rows]).replace("u", quote + "u" + quote))
        with pytest.raises(DataError) as raised:
            io.read_visit_series(path)
        assert str(raised.value) == f"{path}: {named}"


BASE_DAY = 736_900  # near 2018-07, so a day may be written as an index or a date
# first days of series written as day indices: of 1-3 digits, and of 4-5
# digits, across the most the byte tokenizer codes by value
INDEX_DAYS = [0, 95, 9_995]
# a day index written as other than its canonical text: a leading zero, a sign
DAY_SPELLINGS = ["0{}", "+{}"]
ROW_FAULTS = ("short", "bad_day", "non_numeric", "non_finite", "empty_id")
# ids longer than a 64-bit word that differ only past it, non-ASCII ids, and
# ids that differ only by a trailing NUL byte; short ones, ones within the
# 255 bytes the byte tokenizer keys, and ones past it; digit ids, two of them
# texts of one integer
NODE_IDS = ["u0", "u1", "b", "a10", "g480201234567", "g480201234568", "é", "日本",
            "n", "n\x00", "M" * 229, "M" * 229 + "\x00", "W" * 229 + "0", "W" * 229 + "1",
            "L" * 300, "L" * 300 + "\x00", "7", "07"]
# digit ids alone, pairs of them texts of one integer
DIGIT_IDS = ["0", "00", "7", "07", "12", "12345"]
LINE_ENDS = ["\n", "\r\n", "\r"]
NUMBER_TEXTS = ["0", "1", "2.5", " 7 ", "1e2", "-3", "4_0", "12.0", "100.000000001", "0100"]
# canonical integers, which the byte tokenizer may code by value, and integer
# texts it must not: a leading zero, a sign, or more digits than it takes
INTEGER_TEXTS = ["0", "7", "42", "101", "9999"]
NEAR_INTEGER_TEXTS = ["07", "00", "+7", "12345"]
BAD_NUMBERS = ["abc", "", "1,0", "inf", "-inf", "nan", "1e999"]


def csv_lines(draw, header: list[str], rows: list[list], extras_from: int = 0) -> list[str]:
    """The header and rows (cells as text; a day as an int, written as an
    index or an ISO date) as CSV lines, each with its terminator. About half
    the files quote some cells (read by csv.reader; the header's first cell
    is quoted, so that they have a quote); the rest have no quote (read by
    the byte tokenizer, unless a line is longer than 255 bytes). In about
    half the files cells may be padded with spaces. A row of at least
    extras_from cells may get extra cells, blank lines go in between, lines
    end at \\n, \\r\\n or a lone \\r, and the last one may have no
    terminator."""
    quoted, padded = draw(st.booleans()), draw(st.booleans())

    def cell(value):
        if isinstance(value, int) and draw(st.booleans()):
            value = date.fromordinal(value).isoformat()
        text = str(value)
        if padded and draw(st.booleans()):
            text = draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))
        if quoted and ("," in text or draw(st.booleans())):
            text = '"' + text + '"'
        return text

    lines = [",".join([f'"{header[0]}"' if quoted else header[0], *header[1:]])]
    for row in rows:
        extra = (draw(st.sampled_from([[], ["x"], ["", "y"], ["Z" * 300]]))
                 if len(row) >= extras_from else [])
        lines.append(",".join(cell(v) for v in row + extra))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return [line + end for line, end in zip(lines, ends)]


@st.composite
def visit_files(draw):
    """A visits CSV as lines (csv_lines): rows of a few units (with ids of
    any form, or digit ids alone) with different first days and lengths,
    shuffled or in (id, day) order, and extra columns and blank lines. Days
    are dates near BASE_DAY, or day indices from one of INDEX_DAYS, in some
    files spelled with a leading zero or a sign. Visit cells are numbers of
    any form, or integers of which some are canonical. A unit may have a
    duplicate day, a gap or both, and up to three bad rows (short rows, bad
    days or values, empty ids) go in at random places."""
    base = draw(st.sampled_from([BASE_DAY, *INDEX_DAYS]))
    units = draw(st.dictionaries(
        st.sampled_from(draw(st.sampled_from([NODE_IDS, DIGIT_IDS]))),
        st.tuples(st.integers(0, 4), st.integers(1, 5)), min_size=0, max_size=4,
    ))
    value_texts = st.sampled_from(draw(st.sampled_from(
        [NUMBER_TEXTS, INTEGER_TEXTS, INTEGER_TEXTS + NEAR_INTEGER_TEXTS])))
    rows = []
    for node, (offset, length) in units.items():
        for day in range(base + offset, base + offset + length):
            rows.append([node, day, draw(value_texts)])
    good = list(rows)

    def pick(candidates):
        return candidates[draw(st.integers(0, len(candidates) - 1))]

    for node, (_, length) in units.items():
        series = [r for r in good if r[0] == node]
        fault = draw(st.sampled_from([None, "duplicate", "gap", "both"]))
        if fault in ("gap", "both") and length >= 3:
            rows.remove(pick(series[1:-1]))
        if fault in ("duplicate", "both"):
            rows.append([node, pick(series)[1], draw(value_texts)])
    def faulty(fault):
        row = list(pick(good))
        if fault == "short":
            row = row[:draw(st.integers(1, 2))]
        elif fault == "bad_day":
            row[1] = draw(st.sampled_from(["xx", "2018-13-01", "3.5", ""]))
        elif fault == "non_numeric":
            row[2] = draw(st.sampled_from(["abc", "", "1,0"]))
        elif fault == "non_finite":
            row[2] = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
        else:
            row[0] = ""
        return row

    ordered = draw(st.booleans())
    if ordered:
        rows.sort(key=lambda row: row[:2])
    if good:
        for fault in draw(st.lists(st.sampled_from(ROW_FAULTS), max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), faulty(fault))
    if not ordered:
        rows = draw(st.permutations(rows))
    if good and draw(st.booleans()):
        # a short row next to a bad cell, in either order
        pair = [faulty("short"), faulty(draw(st.sampled_from(ROW_FAULTS[1:])))]
        at = draw(st.one_of(st.just(0), st.integers(0, len(rows))))
        rows[at:at] = draw(st.permutations(pair))
    if base != BASE_DAY:
        spellings = st.sampled_from(["{}", *DAY_SPELLINGS] if draw(st.booleans()) else ["{}"])
        rows = [[row[0], draw(spellings).format(row[1]), *row[2:]]
                if len(row) > 1 and isinstance(row[1], int) else row for row in rows]
    return csv_lines(draw, ["id", "day", "visits" + draw(st.sampled_from(["", ",note"]))], rows)


# per table: its header, with an optional column after a "|", and its
# faults beyond a short row and an empty id
TABLES = {
    "edges": ("src,dst", ("self_loop", "duplicate")),
    "durations": ("id,duration_weeks", ("duplicate", "bad_number")),
    "thresholds": ("id,threshold,is_seed",
                   ("duplicate", "bad_number", "out_of_range", "bad_flag", "seed_non_zero")),
    "attributes": ("id,per_capita_income,median_household_income,minority_pct|flood_extent",
                   ("duplicate", "bad_number", "out_of_range", "negative_flood",
                    "missing_flood")),
    "multiplier_set": ("id,selected", ("duplicate", "bad_flag")),
}


@st.composite
def table_files(draw, table: str):
    """A CSV file of one table as lines (csv_lines): a row per id of a few
    (a pair of them per edge), then up to three faulty rows at random
    places (a short row, an empty id, a repeated id or edge, a bad cell),
    and perhaps a short row next to a bad one."""
    header, faults = TABLES[table]
    header, _, optional = header.partition("|")
    header = header.split(",")

    def text(options):
        return draw(st.sampled_from(options))

    ids = draw(st.lists(st.sampled_from(NODE_IDS), unique=True, max_size=5))
    if table == "edges":
        pairs = [[a, b] for k, a in enumerate(ids) for b in ids[k + 1:]]
        rows = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=6)) if pairs else []
        rows = [row[::-1] if draw(st.booleans()) else row for row in rows]
    elif table == "durations":
        rows = [[node, text(NUMBER_TEXTS)] for node in ids]
    elif table == "thresholds":
        rows = [[node, value, text(["0", " 1"]) if float(value) == 0 else "0"]
                for node, value in ((node, text(["0", "0.0", "0.25", "1", " 0.5", "1e-1"]))
                                    for node in ids)]
    elif table == "attributes":
        flood = draw(st.booleans())
        rows = [[node, text(NUMBER_TEXTS), text(NUMBER_TEXTS), text(["0", "5", "100", "37.5"])]
                + ([text(["0", "1.5", " 2"])] if flood else []) for node in ids]
    else:
        rows = [[node, text(["0", "1", " 1"])] for node in ids]
    good = list(rows)

    def pick():
        return list(good[draw(st.integers(0, len(good) - 1))])

    def faulty(fault):
        row = pick()
        if fault == "short":
            row = row[:draw(st.integers(1, len(header) - 1))]
        elif fault == "empty_id":
            row[draw(st.integers(0, 1)) if table == "edges" else 0] = text(["", "  "])
        elif fault == "self_loop":
            row[1] = row[0]
        elif fault == "duplicate":
            row = row[::-1] if table == "edges" else row[:1] + pick()[1:]
        elif fault == "bad_number":
            row[draw(st.integers(1, len(row) - 1)) if table == "attributes" else 1] = \
                text(BAD_NUMBERS)
        elif fault == "out_of_range":
            row[1 if table == "thresholds" else 3] = text(["1.5", "-0.25", "150"])
        elif fault == "bad_flag":
            row[-1] = text(["2", "yes", "", "01"])
        elif fault == "seed_non_zero":
            row[1:] = ["0.5", "1"]
        elif fault == "negative_flood":
            row[4:] = ["-1"]
        elif fault == "missing_flood":
            row[4:] = text([[], [""]])
        return row

    if good:
        for fault in draw(st.lists(st.sampled_from(("short", "empty_id") + faults), max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), faulty(fault))
        if draw(st.booleans()):
            pair = [faulty("short"), faulty(text(("empty_id",) + faults))]
            at = draw(st.integers(0, len(rows)))
            rows[at:at] = draw(st.permutations(pair))
    if optional:
        header += draw(st.sampled_from([[], [optional], [""], [optional, "note"]]))
    else:
        header += draw(st.sampled_from([[], ["note"]]))
    return csv_lines(draw, header, rows, extras_from=5 if optional else 0)


@contextmanager
def tokenizer_watched(lines: list[str], block_rows: int):
    """io._BLOCK_ROWS is block_rows inside the block; on leaving it, checks
    that csv.reader read the file iff one of its lines has a quote, is
    longer than csv.field_size_limit(), or has a cell over 255 bytes among
    its first cells, as many as the reader keys (terminators aside)."""
    default, io._BLOCK_ROWS = io._BLOCK_ROWS, block_rows
    by_csv_reader, widths = [], []
    csv_columns, read_columns = io._csv_columns, io._read_columns
    io._csv_columns = lambda *args: by_csv_reader.append(True) or csv_columns(*args)

    def watched_read(path, header, optional=None):
        widths.append(len(header) + (optional is not None))
        return read_columns(path, header, optional)

    io._read_columns = watched_read
    try:
        yield
    finally:
        io._BLOCK_ROWS, io._csv_columns, io._read_columns = default, csv_columns, read_columns
    [width] = widths

    def too_long(line: str) -> bool:
        text = line.rstrip("\r\n")
        return (len(text.encode()) > csv.field_size_limit()
                or any(len(cell.encode()) > 255 for cell in text.split(",")[:width]))

    assert bool(by_csv_reader) == any('"' in line or too_long(line) for line in lines)


BLOCK_ROWS = st.one_of(st.just(io._BLOCK_ROWS), st.integers(1, 7))


@contextmanager
def sorts_counted():
    """Yields a list that gets an entry per np.lexsort call inside the block."""
    calls = []
    lexsort = np.lexsort
    np.lexsort = lambda *args, **kwargs: calls.append(True) or lexsort(*args, **kwargs)
    try:
        yield calls
    finally:
        np.lexsort = lexsort


def in_id_day_order(path) -> bool:
    """Whether the rows a visit reader reads (up to a short row) are in
    (stripped id, day) order; False if a day does not parse."""
    rows, _ = oracles.naive_csv_rows(path, io.VISIT_HEADER)
    try:
        keys = [(row[0].strip(), io.parse_day(row[1])) for row in rows]
    except DataError:
        return False
    return keys == sorted(keys)


def read_as_oracle_reads(read, naive, path):
    """read(path), or None once read raised the DataError whose message is
    that of the ValueError naive(path) raised; and naive(path)'s result."""
    try:
        expected = naive(path)
    except ValueError as exc:
        with pytest.raises(DataError) as raised:
            read(path)
        assert str(raised.value) == str(exc)
        return None, None
    return read(path), expected


class TestVisitReaderAgainstOracle:
    """The reader against the row-by-row reference, for both tokenizers and
    blocks of a few rows as well as the default: same series, or the same
    error naming the same row, node or file. Rows already in (id, day) order
    are not sorted."""

    @given(visit_files(), BLOCK_ROWS)
    @settings(max_examples=400, deadline=None)
    def test_matches_row_by_row_reader(self, lines, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "visits.csv"
            path.write_text("".join(lines), encoding="utf-8", newline="")
            with tokenizer_watched(lines, block_rows), sorts_counted() as sorts:
                series, expected = read_as_oracle_reads(
                    io.read_visit_series, oracles.naive_read_visit_series, path)
            assert not (sorts and in_id_day_order(path))
        if series is None:
            return
        assert_same_panel(series, expected)

    def test_line_past_csv_field_limit_read_by_csv_reader(self, tmp_path):
        """csv.reader rejects a field longer than its limit; such a file is
        not split by the byte tokenizer, so it fails the same way, as a
        DataError naming the file and the line."""
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\nu,1,3\n" + "x" * (csv.field_size_limit() + 1) + ",2,4\n")
        with pytest.raises(csv.Error) as expected:
            oracles.naive_read_visit_series(path)
        with pytest.raises(DataError) as raised:
            io.read_visit_series(path)
        assert str(raised.value) == f"{path}: line 3: {expected.value}"


def _attribute_rows(table):
    ids, columns = table
    return list(ids), {name: column.tolist() for name, column in columns.items()}


# per table: the package's reader, the row-by-row reference, and the
# package's result in the reference's form
TABLE_READERS = {
    "edges": (io.read_edge_list, oracles.naive_read_edge_list,
              lambda graph: {"nodes": graph.nodes, "edges": graph.edges}),
    "durations": (io.read_durations, oracles.naive_read_durations,
                  lambda read: dict(zip(read[0], read[1].tolist()))),
    "thresholds": (io.read_thresholds, oracles.naive_read_thresholds,
                   lambda read: list(zip(read[0], read[1].tolist(), read[2].tolist()))),
    "attributes": (io.read_attributes, oracles.naive_read_attributes, _attribute_rows),
    "multiplier_set": (io.read_multiplier_set, oracles.naive_read_multiplier_set,
                       lambda read: list(zip(read[0], read[1].tolist()))),
}


class TestTableReadersAgainstOracle:
    """Every other CSV reader against its row-by-row reference, for both
    tokenizers and blocks of a few rows as well as the default: the same
    table, or the same error naming the same row or file."""

    @pytest.mark.parametrize("table", list(TABLE_READERS))
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_row_by_row_reader(self, table, data):
        lines = data.draw(table_files(table), "lines")
        read, naive, as_reference = TABLE_READERS[table]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{table}.csv"
            path.write_text("".join(lines), encoding="utf-8", newline="")
            with tokenizer_watched(lines, data.draw(BLOCK_ROWS, "block_rows")):
                result, expected = read_as_oracle_reads(read, naive, path)
        if result is None:
            return
        result = as_reference(result)
        if table == "edges":
            expected = {key: expected[key] for key in result}
        assert result == expected
        assert repr(result) == repr(expected)  # the same types: floats stay floats


ATTRIBUTES_HEADER = "id,per_capita_income,median_household_income,minority_pct,flood_extent\n"


class TestAttributesCsv:
    def test_round_trip_with_flood(self, tmp_path):
        columns = {
            "per_capita_income": np.array([30_000.0, 50_000.0]),
            "median_household_income": np.array([60_000.0, 90_000.0]),
            "minority_pct": np.array([25.0, 10.0]),
            "flood_extent": np.array([1.5, 0.0]),
        }
        path = tmp_path / "attributes.csv"
        io.write_attributes(("a", "b"), columns, path)
        ids, loaded = io.read_attributes(path)
        assert ids == ("a", "b")
        assert list(loaded) == list(columns)
        for name, column in columns.items():
            assert loaded[name].tolist() == column.tolist()
        assert all(column.dtype == np.float64 for column in loaded.values())

    def test_missing_flood_cells(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(ATTRIBUTES_HEADER + "a,1000,2000,5.0,\nb,1000,2000,5.0,\n")
        ids, loaded = io.read_attributes(path)
        assert "flood_extent" not in loaded
        io.write_attributes(ids, loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text() == (
            ATTRIBUTES_HEADER + "a,1000.0,2000.0,5.0,\nb,1000.0,2000.0,5.0,\n"
        )

    def test_flood_column_optional(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(
            "id,per_capita_income,median_household_income,minority_pct\na,1,2,5\n"
        )
        ids, loaded = io.read_attributes(path)
        assert ids == ("a",) and loaded["minority_pct"].tolist() == [5.0]
        assert "flood_extent" not in loaded

    @pytest.mark.parametrize("rows,problem,row", [
        (["a,1,2,5,1", "b,1,2,5,", "c,1,2,5,"], "no flood_extent where other rows give one",
         "['b', '1', '2', '5', '']"),
        (["a,1,2,5,", "b,1,2,5", "c,1,2,5,0.5"], "no flood_extent where other rows give one",
         "['a', '1', '2', '5', '']"),
        (["a,1,2,5", "b,1,2,150", "a,1,2,5"], r"minority_pct outside \[0, 100\]",
         "['b', '1', '2', '150']"),
        (["a,1,2,5", "b,1,2,-0.5"], r"minority_pct outside \[0, 100\]",
         "['b', '1', '2', '-0.5']"),
        (["a,1,2,5,0", "b,1,2,5,-1"], "negative flood_extent", "['b', '1', '2', '5', '-1']"),
        (["a,1,2,5", " a,1,2,6"], "a second attribute row for its node",
         "[' a', '1', '2', '6']"),
        (["a,1,2,5", "b,1,x,5"], "non-numeric value 'x'", "['b', '1', 'x', '5']"),
    ])
    def test_bad_row_named(self, tmp_path, rows, problem, row):
        path = tmp_path / "attributes.csv"
        path.write_text(ATTRIBUTES_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=problem) as raised:
            io.read_attributes(path)
        assert str(raised.value).startswith(f"{path}: ")
        assert str(raised.value).endswith(f"in row {row}")

    @pytest.mark.parametrize("fifth", ["households", " flood", "minority_pct"])
    def test_fifth_column_other_than_flood_rejected(self, tmp_path, fifth):
        header = f"id,per_capita_income,median_household_income,minority_pct,{fifth}"
        path = tmp_path / "attributes.csv"
        path.write_text(header + "\na,1,2,5,400\nb,1,2,5,500\n")
        with pytest.raises(DataError) as raised:
            io.read_attributes(path)
        assert str(raised.value) == (
            f"{path}: column 5 must be 'flood_extent' or unnamed, got header {header!r}"
        )

    @pytest.mark.parametrize("fifth", ["", " flood_extent ", "flood_extent,notes"])
    def test_fifth_column_flood_or_unnamed_accepted(self, tmp_path, fifth):
        path = tmp_path / "attributes.csv"
        path.write_text(
            f"id,per_capita_income,median_household_income,minority_pct,{fifth}\na,1,2,5,4\n"
        )
        assert io.read_attributes(path)[1]["flood_extent"].tolist() == [4.0]

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(ATTRIBUTES_HEADER)
        ids, loaded = io.read_attributes(path)
        assert ids == () and list(loaded) == list(ATTRIBUTE_NAMES[:3])
        assert all(column.size == 0 for column in loaded.values())


class TestGeojson:
    def make_collection(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "left"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                    },
                },
                {
                    "type": "Feature",
                    "properties": {"id": "right"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[1, 0], [2, 0], [2, 1], [1, 1], [1, 0]]],
                    },
                },
            ],
        }
        path = tmp_path / "units.geojson"
        path.write_text(json.dumps(doc))
        return path

    def test_read_and_build(self, tmp_path):
        units = io.read_feature_collection(self.make_collection(tmp_path))
        assert list(units.ids) == ["left", "right"]
        g = build_contiguity_graph(units, ContiguityRule("rook"))
        assert g.m == 1

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(
            json.dumps(
                {
                    "type": "FeatureCollection",
                    "features": [
                        {"type": "Feature", "properties": {}, "geometry": {
                            "type": "Polygon",
                            "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}
                    ],
                }
            )
        )
        with pytest.raises(DataError, match="id"):
            io.read_feature_collection(path)

    def test_padded_ids_read_stripped(self, tmp_path):
        path = self.make_collection(tmp_path)
        doc = json.loads(path.read_text())
        doc["features"][0]["properties"]["id"] = " left"
        doc["features"][1]["properties"]["id"] = "right\t"
        path.write_text(json.dumps(doc))
        assert io.read_feature_collection(path).ids == ("left", "right")

    def test_id_repeated_once_stripped_rejected(self, tmp_path):
        path = self.make_collection(tmp_path)
        doc = json.loads(path.read_text())
        doc["features"][1]["properties"]["id"] = "left "
        path.write_text(json.dumps(doc))
        units = io.read_feature_collection(path)
        with pytest.raises(DataError, match="duplicate node id 'left'"):
            build_contiguity_graph(units, ContiguityRule("rook"))

    def test_annotation_marks_features_by_position(self, tmp_path):
        """Feature k is node k of the graph built from the file, whatever its
        id's blanks."""
        path = self.make_collection(tmp_path)
        doc = json.loads(path.read_text())
        doc["features"][0]["properties"]["id"] = " left"
        path.write_text(json.dumps(doc))
        dest = tmp_path / "annotated.geojson"
        io.annotate_feature_collection(path, {dest: np.array([0])})
        copied = json.loads(dest.read_text())["features"]
        assert [f["properties"] for f in copied] == [
            {"id": " left", "multiplier": True}, {"id": "right", "multiplier": False}]

    def test_multipolygon_rejected(self, tmp_path):
        path = tmp_path / "multi.geojson"
        path.write_text(
            json.dumps(
                {
                    "type": "FeatureCollection",
                    "features": [
                        {"type": "Feature", "properties": {"id": "m"},
                         "geometry": {"type": "MultiPolygon", "coordinates": []}}
                    ],
                }
            )
        )
        with pytest.raises(DataError, match="MultiPolygon"):
            io.read_feature_collection(path)

    def test_annotation(self, tmp_path):
        """Each copy is the source with its own multiplier flags, written as
        compact JSON on one line."""
        src = self.make_collection(tmp_path)
        dest, other = tmp_path / "annotated.geojson", tmp_path / "other.geojson"
        io.annotate_feature_collection(src, {dest: np.array([1]), other: np.array([0])})
        for path, selected in ((dest, "right"), (other, "left")):
            expected = json.loads(src.read_text())
            for feature in expected["features"]:
                feature["properties"]["multiplier"] = feature["properties"]["id"] == selected
            text = path.read_text()
            assert json.loads(text) == expected
            assert text.count("\n") == 1 and text.endswith("}\n") and ", " not in text


FEATURE_EDITS = (
    "not_object", "no_id", "not_polygon", "string", "two_char", "bool", "three_d", "nan",
    "inf", "big_int", "open", "short", "no_rings", "coordinates_not_list", "hole",
    "negative_zero", "duplicate", "padded",
)


@st.composite
def edited_collections(draw):
    """A 3 x 3 grid of unit squares as GeoJSON with up to three edits at
    random features: faults of every kind the reader names, a repeated id,
    and edits that are no fault (a hole, a -0.0, an id padded with blanks,
    which may repeat another once stripped)."""
    features = [
        {"type": "Feature", "properties": {"id": f"g{r}{c}"},
         "geometry": {"type": "Polygon", "coordinates": [[
             [c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]]}}
        for r in range(3) for c in range(3)
    ]
    for edit in draw(st.lists(st.sampled_from(FEATURE_EDITS), max_size=3)):
        k = draw(st.integers(0, len(features) - 1))
        feature = features[k]
        if not isinstance(feature, dict) or not isinstance(feature.get("geometry"), dict):
            continue
        ring = feature["geometry"]["coordinates"]
        ring = ring[0] if ring and isinstance(ring, list) and isinstance(ring[0], list) else None
        spot = draw(st.integers(1, 3))
        if edit == "not_object":
            features[k] = draw(st.sampled_from([5, "x", None, [1]]))
        elif edit == "no_id":
            feature["properties"] = draw(st.sampled_from(
                [{}, {"id": 7}, None, [], {"id": ""}, {"id": " "}]))
        elif edit == "not_polygon":
            feature["geometry"] = draw(st.sampled_from(
                [None, {"type": "MultiPolygon", "coordinates": []}]))
        elif edit == "coordinates_not_list":
            feature["geometry"]["coordinates"] = draw(st.sampled_from([5, {"a": 1}, "ab"]))
        elif edit == "no_rings":
            feature["geometry"]["coordinates"] = []
        elif edit == "hole" and isinstance(feature["geometry"]["coordinates"], list):
            feature["geometry"]["coordinates"].append([[0.2, 0.2], [0.4, 0.2], [0.3, 0.4],
                                                       [0.2, 0.2]])
        elif edit == "duplicate":
            feature["properties"] = {"id": f"g{draw(st.integers(0, 2))}0"}
        elif edit == "padded":
            before, after = draw(st.sampled_from([(" ", ""), ("", " "), ("\t", "\n"), (" ", " ")]))
            unit = draw(st.sampled_from(["g00", "g10", "g20", f"p{k}"]))  # p{k} repeats none
            feature["properties"] = {"id": before + unit + after}
        elif ring is None or len(ring) < 5:
            continue
        elif edit == "two_char":
            feature["geometry"]["coordinates"][0] = ["10", "11", "01", "10"]
        elif edit == "short":
            del ring[1:3]
        elif edit == "open":
            ring[-1] = [ring[-1][0] + 0.5, ring[-1][1]]
        else:
            value = {"string": "0", "bool": True, "nan": math.nan, "inf": math.inf,
                     "big_int": 10**400, "negative_zero": -0.0}.get(edit)
            ring[spot] = [ring[spot][0], 0, 0] if edit == "three_d" else [value, ring[spot][1]]
    return features


class TestFeatureReaderAgainstOracle:
    """The columnar reader against the feature-at-a-time reader: the same
    units, or the same message for the first feature at fault in file
    order; a repeated id is named once every feature passes."""

    @given(edited_collections())
    @settings(max_examples=300, deadline=None)
    def test_matches_feature_at_a_time_reader(self, features):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "units.geojson"
            path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
            try:
                expected = oracles.naive_read_feature_collection(path)
            except ValueError as exc:
                with pytest.raises(DataError) as raised:
                    io.read_feature_collection(path)
                assert str(raised.value) == str(exc)
                return
            table = io.read_feature_collection(path)
        assert table.ids == tuple(unit for unit, _ in expected)
        rings = [ring for _, unit_rings in expected for ring in unit_rings]
        assert table.xy.tolist() == [list(point) for ring in rings for point in ring]
        assert np.diff(table.offsets).tolist() == [len(ring) for ring in rings]
        assert table.ring_unit.tolist() == [
            k for k, (_, unit_rings) in enumerate(expected) for _ in unit_rings]
        if len(set(table.ids)) < len(table):
            with pytest.raises(DataError, match="duplicate node id"):
                build_contiguity_graph(table, ContiguityRule("queen"))
            return
        queen, rook, _ = oracles.contiguity_edges(expected)
        assert set(build_contiguity_graph(table, ContiguityRule("queen")).edges) == queen
        assert set(build_contiguity_graph(table, ContiguityRule("rook")).edges) == rook


class TestWriters:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_outputs_take_the_mode_the_umask_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            io.write_json({"a": 1}, tmp_path / "out.json")
            io.write_table(tmp_path / "out.csv", ["a"], [[1]])
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("x")
        finally:
            os.umask(old)
        for name in ("out.json", "out.csv", "plain.txt"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json", "plain.txt"]

    def test_atomic_write_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with io.atomic_write(target) as handle:
                handle.write("partial")
                raise RuntimeError("interrupted")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_trajectory_long_form(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        # a recovers from week 1 on (2 recovered weeks), b at week 2 (1 week)
        io.write_trajectory(["a", "b"], np.array([2, 1], dtype=np.int8), 2, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,week,state"
        assert lines[1:] == ["a,0,0", "a,1,1", "a,2,1", "b,0,0", "b,1,0", "b,2,1"]
        with pytest.raises(ValueError, match="2 nodes"):
            io.write_trajectory(["a", "b"], np.array([2, 1, 0]), 2, path)

    @pytest.mark.parametrize("table", ["trajectory", "attributes"])
    def test_writers_hold_no_whole_table(self, tmp_path, table):
        """At n = 20 000 the tables are 5.5 and 1.7 MB; each writer's
        Python-level peak stays under 1 MiB, as it holds no column of texts
        and no joined table."""
        n = 20_000
        rng = np.random.default_rng(0)
        ids = tuple(f"48201{i:07d}" for i in range(n))
        if table == "trajectory":
            weeks = rng.integers(0, 15, n)

            def write():
                io.write_trajectory(ids, weeks, 14, tmp_path / "trajectory.csv")
        else:
            columns = {name: rng.random(n) * 1e5 for name in ATTRIBUTE_NAMES}

            def write():
                io.write_attributes(ids, columns, tmp_path / "attributes.csv")
        write()  # the first call's imports and caches are not the writer's
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trajectory_bytes_equal_csv_writer_rows(self, tmp_path):
        """Ids that need quoting, and recovered weeks of every kind, against
        csv.writer writing one row per (id, week)."""
        import csv

        ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n", " lead", "trail ",
               "", "é ü", '"', ",", "x"]
        horizon = 5
        weeks = np.array([0, 1, 2, 3, 4, 5, 5, 0, 3, 1, 2, 4], dtype=np.int8)
        path = tmp_path / "trajectory.csv"
        io.write_trajectory(ids, weeks, horizon, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "week", "state"])
            for node, w in zip(ids, weeks.tolist()):
                for week in range(horizon + 1):
                    writer.writerow([node, week, int(week >= horizon + 1 - w)])
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("history", [np.array([12, 9]), np.array([12.0, 9.0])],
                             ids=["int", "float"])
    def test_generation_stats_layouts(self, tmp_path, history):
        """Integer and float fitness both print as floats; seconds, when
        given, add a column."""
        with_seconds = tmp_path / "full.csv"
        io.write_generation_stats(history, with_seconds, seconds=np.array([0.5, 0.4]))
        assert with_seconds.read_text().splitlines() == [
            "generation,best_fitness,seconds",
            "0,12.0,0.5",
            "1,9.0,0.4",
        ]
        without = tmp_path / "plain.csv"
        io.write_generation_stats(history, without)
        assert without.read_text().splitlines() == [
            "generation,best_fitness",
            "0,12.0",
            "1,9.0",
        ]

    def test_metrics_json(self, tmp_path):
        """The whole file, byte for byte: a hub of degree 10 puts the
        histogram's keys in degree order ("1", "2", "10"), not text order."""
        leaves = [f"l{i}" for i in range(10)]
        graph = graph_of(["h", *leaves], [("h", leaf) for leaf in leaves] + [("l0", "l1")])
        path = tmp_path / "metrics.json"
        io.write_metrics(graph_metrics(graph), path)
        assert path.read_bytes() == (
            b'{\n  "avg_degree": 2.0,\n  "degree_histogram": {\n    "1": 8,\n    "2": 2,\n'
            b'    "10": 1\n  },\n  "density": 0.2,\n  "m": 11,\n  "n": 11,\n'
            b'  "summary": "n=11 m=11 k=2.000 d=0.20000"\n}\n'
        )

    def test_multiplier_set_round_trip(self, tmp_path, tmp_graph):
        path = tmp_path / "multipliers.csv"
        io.write_multiplier_set(tmp_graph.nodes, np.array([1, 3]), path)  # b and d
        ids, selected = io.read_multiplier_set(path)
        assert ids == tmp_graph.nodes
        assert selected.tolist() == [False, True, False, True]

    @pytest.mark.parametrize("cell", ["yes", "", "2"])
    def test_multiplier_set_flag_other_than_0_or_1_named(self, tmp_path, cell):
        path = tmp_path / "multipliers.csv"
        path.write_text(f"id,selected\na,{cell}\nb,1\n")
        with pytest.raises(DataError) as raised:
            io.read_multiplier_set(path)
        assert str(raised.value) == (
            f"{path}: selected must be 0 or 1, got {cell!r} in row ['a', {cell!r}]"
        )

    def test_multiplier_results_in_another_node_order(self, tmp_path):
        io.write_multiplier_set(("a", "b", "c", "d"), np.array([1, 3]),  # b and d
                                tmp_path / "multipliers_N2.csv")
        (tmp_path / "multipliers_summary.csv").write_text(
            "size,method,recovered_with,recovered_without,increment_rate_pct\n2,ga,3,1,200.0\n"
        )
        nodes = ("d", "c", "a", "b")
        [(cells, positions)] = io.read_multiplier_results(tmp_path, nodes)
        assert cells == (2, 3, 1, "200.0")
        assert positions.tolist() == [3, 0]  # b and d, the set file's order
        with pytest.raises(DataError, match=r"multipliers_N2.csv: no row for 1 of the 5 nodes: e$"):
            io.read_multiplier_results(tmp_path, nodes + ("e",))


SUMMARY_HEADER = "size,method,recovered_with,recovered_without,increment_rate_pct\n"


class TestFaultPrecedence:
    """Every CSV reader names the first row in file order that breaks a
    rule, else the first short row; a byte that is not UTF-8, a bad header
    or a line csv rejects comes before both. Each case here was named
    otherwise, or (an empty id) not at all, when most tables were read one
    row at a time."""

    def test_attribute_bad_cell_before_a_short_row(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(ATTRIBUTES_HEADER + "a,1,x,5\nb\n")
        with pytest.raises(DataError) as raised:
            io.read_attributes(path)
        assert str(raised.value) == f"{path}: non-numeric value 'x' in row ['a', '1', 'x', '5']"

    def test_attribute_range_fault_before_a_later_bad_cell(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(ATTRIBUTES_HEADER + "a,1,2,150\nb,1,x,5\n")
        with pytest.raises(DataError) as raised:
            io.read_attributes(path)
        assert str(raised.value) == (
            f"{path}: minority_pct outside [0, 100] in row ['a', '1', '2', '150']"
        )

    @pytest.mark.parametrize("read,head", [
        (io.read_edge_list, "src,dst\nlonely\n"),
        (io.read_durations, "id,duration_weeks\na,soon\n"),
        (io.read_thresholds, "id,threshold,is_seed\na,2,0\n"),
        (io.read_multiplier_set, "id,selected\na\n"),
        (io.read_attributes, ATTRIBUTES_HEADER + "a,1,2\n"),
    ], ids=["edges", "durations", "thresholds", "multiplier_set", "attributes"])
    def test_byte_not_utf8_before_any_row_fault(self, tmp_path, read, head):
        """A fault in the first rows, and a byte that is not UTF-8 past the
        first 8 KiB that a text file decodes at once."""
        path = tmp_path / "table.csv"
        data = (head + "z,1,0,1\n" * 5000).encode()
        path.write_bytes(data[:-2] + b"\xff\n")
        with pytest.raises(DataError) as raised:
            read(path)
        assert str(raised.value) == f"{path}: not valid UTF-8 at byte {len(data) - 2}"

    @pytest.mark.parametrize("read,text", [
        (io.read_durations, "id,duration_weeks\na,soon\n"),
        (io.read_thresholds, "id,threshold,is_seed\na,0.5,maybe\n"),
        (lambda path: io.read_multiplier_results(path.parent, ()), SUMMARY_HEADER + "x,a,1,1,\n"),
    ], ids=["durations", "thresholds", "summary"])
    def test_line_past_csv_field_limit_before_an_earlier_bad_row(self, tmp_path, read, text):
        limit = csv.field_size_limit()
        path = tmp_path / "multipliers_summary.csv"
        path.write_text(text + "x" * (limit + 1) + ",1,1,1,1\n")
        with pytest.raises(DataError) as raised:
            read(path)
        assert str(raised.value) == f"{path}: line 3: field larger than field limit ({limit})"

    @pytest.mark.parametrize("second,named", [
        ("3,ga,1,1,fast", "non-numeric value 'fast' in row ['3', 'ga', '1', '1', 'fast']"),
        ("3,ga", "malformed summary row ['3', 'ga']"),
    ])
    def test_summary_cells_before_any_set_file(self, tmp_path, second, named):
        """The first row's set file is missing; the second row's fault is
        named before it is opened."""
        path = tmp_path / "multipliers_summary.csv"
        path.write_text(SUMMARY_HEADER + "2,ga,3,1,200.0\n" + second + "\n")
        with pytest.raises(DataError) as raised:
            io.read_multiplier_results(tmp_path, ("a", "b"))
        assert str(raised.value) == f"{path}: {named}"

    @pytest.mark.parametrize("read,text,row", [
        (io.read_edge_list, "src,dst\na,\nb,a\n", "['a', '']"),
        (io.read_durations, "id,duration_weeks\na,1\n ,2\n", "[' ', '2']"),
        (io.read_thresholds, "id,threshold,is_seed\n,0.5,0\n", "['', '0.5', '0']"),
        (io.read_attributes, ATTRIBUTES_HEADER + '"",1,2,5,\n', "['', '1', '2', '5', '']"),
        (io.read_multiplier_set, "id,selected\n\t,1\n", "['\\t', '1']"),
        (io.read_visit_series, "id,day,visits\nu,1,3\n,2,4\n", "['', '2', '4']"),
    ], ids=["edges", "durations", "thresholds", "attributes", "multiplier_set", "visits"])
    def test_empty_id_named(self, tmp_path, read, text, row):
        """An id cell that is empty once stripped is no node, before any
        later fault in its row."""
        path = tmp_path / "table.csv"
        path.write_text(text + "x\n")
        with pytest.raises(DataError) as raised:
            read(path)
        assert str(raised.value) == f"{path}: empty id in row {row}"
