from __future__ import annotations

import json

import numpy as np
import pytest

from recovnet import (
    AttributeRow,
    AttributeTable,
    ContiguityRule,
    DataError,
    SpatialGraph,
    ThresholdVector,
    build_contiguity_graph,
    graph_metrics,
)
from recovnet import io


@pytest.fixture
def tmp_graph():
    return SpatialGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


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

    def test_duplicate_edge_propagates(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\na,b\nb,a\n")
        with pytest.raises(DataError, match="duplicate"):
            io.read_edge_list(path)


class TestDurationsCsv:
    def test_round_trip(self, tmp_path):
        durations = {"a": 2.5, "b": 10 / 7, "c": 14.0}
        path = tmp_path / "durations.csv"
        io.write_durations(durations, path)
        assert io.read_durations(path) == durations

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


class TestThresholdsCsv:
    def test_round_trip(self, tmp_path):
        tau = ThresholdVector(
            node_ids=("a", "b", "c"),
            values=np.array([0.0, 0.25, 1.0]),
            seed_mask=np.array([True, False, False]),
        )
        path = tmp_path / "thresholds.csv"
        io.write_thresholds(tau, path)
        loaded = io.read_thresholds(path)
        assert loaded.node_ids == tau.node_ids
        assert np.array_equal(loaded.values, tau.values)
        assert np.array_equal(loaded.seed_mask, tau.seed_mask)

    def test_bad_seed_flag_rejected(self, tmp_path):
        path = tmp_path / "thresholds.csv"
        path.write_text("id,threshold,is_seed\na,0.5,maybe\n")
        with pytest.raises(DataError, match="is_seed"):
            io.read_thresholds(path)


class TestVisitSeriesCsv:
    def test_integer_days(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("id,day,visits\nu,3,5\nu,1,3\nu,2,4\n")
        series = io.read_visit_series(path)
        first, values = series["u"]
        assert first == 1
        assert values.tolist() == [3.0, 4.0, 5.0]

    def test_iso_dates(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text(
            "id,day,visits\nu,2017-08-01,10\nu,2017-08-02,11\nu,2017-08-03,12\n"
        )
        first, values = io.read_visit_series(path)["u"]
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


class TestAttributesCsv:
    def test_round_trip_with_flood(self, tmp_path):
        attrs = AttributeTable(
            {
                "a": AttributeRow(30_000.0, 60_000.0, 25.0, 1.5),
                "b": AttributeRow(50_000.0, 90_000.0, 10.0, 0.0),
            }
        )
        path = tmp_path / "attributes.csv"
        io.write_attributes(attrs, path)
        loaded = io.read_attributes(path)
        assert loaded.rows == attrs.rows
        assert loaded.has_flood_extent

    def test_missing_flood_cells(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(
            "id,per_capita_income,median_household_income,minority_pct,flood_extent\n"
            "a,1000,2000,5.0,\n"
        )
        loaded = io.read_attributes(path)
        assert loaded.rows["a"].flood_extent is None
        assert not loaded.has_flood_extent

    def test_flood_column_optional(self, tmp_path):
        path = tmp_path / "attributes.csv"
        path.write_text(
            "id,per_capita_income,median_household_income,minority_pct\na,1,2,5\n"
        )
        assert io.read_attributes(path).rows["a"].minority_pct == 5.0


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
        assert [u.id for u in units] == ["left", "right"]
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
        src = self.make_collection(tmp_path)
        dest = tmp_path / "annotated.geojson"
        io.annotate_feature_collection(src, {"right"}, dest)
        doc = json.loads(dest.read_text())
        flags = {f["properties"]["id"]: f["properties"]["multiplier"] for f in doc["features"]}
        assert flags == {"left": False, "right": True}


class TestWriters:
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

    def test_generation_stats_layouts(self, tmp_path):
        from recovnet import GenerationRecord

        history = [GenerationRecord(0, 12.0, 0.5), GenerationRecord(1, 9.0, 0.4)]
        with_seconds = tmp_path / "full.csv"
        io.write_generation_stats(history, with_seconds, include_seconds=True)
        assert with_seconds.read_text().splitlines()[0] == "generation,best_fitness,seconds"
        without = tmp_path / "plain.csv"
        io.write_generation_stats(history, without, include_seconds=False)
        assert without.read_text().splitlines() == [
            "generation,best_fitness",
            "0,12.0",
            "1,9.0",
        ]

    def test_metrics_json(self, tmp_path, tmp_graph):
        path = tmp_path / "metrics.json"
        io.write_metrics(graph_metrics(tmp_graph), path)
        doc = json.loads(path.read_text())
        assert doc["n"] == 4 and doc["m"] == 3
        assert "k=1.500" in doc["summary"]

    def test_multiplier_set_round_trip(self, tmp_path, tmp_graph):
        path = tmp_path / "multipliers.csv"
        io.write_multiplier_set(tmp_graph.nodes, {"b", "d"}, path)
        assert io.read_multiplier_set(path) == ("b", "d")
