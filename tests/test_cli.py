from __future__ import annotations

import json
from pathlib import Path

import pytest

from recovnet import io
from recovnet.cli import OPTIONS, default_multiplier_sizes, main


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "instance"
    assert run("synth", "--nodes", 16, "--rng-seed", 3, "--out", out) == 0
    return out


class TestSynth:
    def test_writes_instance_files(self, instance_dir):
        for name in (
            "edges.csv", "durations.csv", "attributes.csv",
            "planted_thresholds.csv", "trajectory.csv", "manifest.json",
        ):
            assert (instance_dir / name).exists(), name

    def test_manifest_records_settings(self, instance_dir):
        manifest = json.loads((instance_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["settings"]["node_count"] == 16
        assert manifest["versions"]["recovnet"]


class TestBuildGraph:
    def test_from_edge_list(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "graph"
        assert run("build-graph", "--edges", instance_dir / "edges.csv", "--out", out) == 0
        printed = capsys.readouterr().out
        assert "k=" in printed and "d=" in printed
        assert (out / "metrics.json").exists()

    def test_county_scale_metrics_printed(self, tmp_path, capsys):
        # circulant edge list at the county scale: 2,010 nodes, 6,079 edges
        rows = ["src,dst"]
        n, m = 2010, 6079
        count = 0
        step = 1
        while count < m:  # deterministic circulant edges
            for i in range(n):
                j = (i + step) % n
                if count == m:
                    break
                rows.append(f"v{i:04d},v{j:04d}")
                count += 1
            step += 1
        edges = tmp_path / "county_edges.csv"
        edges.write_text("\n".join(rows) + "\n")
        assert run("build-graph", "--edges", edges, "--out", tmp_path / "g") == 0
        printed = capsys.readouterr().out
        assert "k=6.049" in printed
        assert "d=0.00301" in printed

    def test_requires_exactly_one_source(self, tmp_path):
        assert run("build-graph", "--out", tmp_path / "g") == 2

    @pytest.mark.parametrize("rule,expected_m", [("queen", 20), ("rook", 12), ("bishop", 8)])
    def test_contiguity_rule_flag(self, tmp_path, rule, expected_m, capsys):
        features = []
        for r in range(3):
            for c in range(3):
                features.append({
                    "type": "Feature", "properties": {"id": f"g{r}{c}"},
                    "geometry": {"type": "Polygon", "coordinates": [[
                        [c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]]},
                })
        geometry = tmp_path / "grid.geojson"
        geometry.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        out = tmp_path / f"graph_{rule}"
        assert run("build-graph", "--geometry", geometry, "--rule", rule, "--out", out) == 0
        assert f"m={expected_m} " in capsys.readouterr().out


class TestFitAndMultipliers:
    @pytest.fixture
    def fit_dir(self, tmp_path, instance_dir):
        out = tmp_path / "fit"
        code = run(
            "fit",
            "--edges", instance_dir / "edges.csv",
            "--durations", instance_dir / "durations.csv",
            "--max-iterations", 60,
            "--rng-seed", 1,
            "--out", out,
        )
        assert code == 0
        return out

    def test_fit_outputs(self, fit_dir):
        for name in (
            "thresholds.csv", "generations.csv", "ga_timing.csv",
            "trajectory.csv", "fit_report.json", "manifest.json",
        ):
            assert (fit_dir / name).exists(), name
        report = json.loads((fit_dir / "fit_report.json").read_text())
        assert report["generations"] == 60
        assert report["final_loss"] <= report["initial_best_loss"]

    def test_generations_table_has_no_timing(self, fit_dir):
        header = (fit_dir / "generations.csv").read_text().splitlines()[0]
        assert header == "generation,best_fitness"

    def test_timing_confined_to_manifest(self, fit_dir):
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert manifest["timing"]["total_seconds"] > 0
        assert "performance_index" in manifest["timing"]
        report = json.loads((fit_dir / "fit_report.json").read_text())
        assert "timing" not in report

    def test_multipliers_ga_and_brute_force_agree(self, tmp_path, instance_dir, fit_dir):
        ga_out = tmp_path / "mult_ga"
        bf_out = tmp_path / "mult_bf"
        common = [
            "multipliers",
            "--edges", instance_dir / "edges.csv",
            "--thresholds", fit_dir / "thresholds.csv",
            "--sizes", "2",
        ]
        assert run(*common, "--max-iterations", 400, "--rng-seed", 0, "--out", ga_out) == 0
        assert run(*common, "--brute-force", "--out", bf_out) == 0

        def objective(path):
            rows = (path / "multipliers_summary.csv").read_text().splitlines()[1:]
            return int(rows[0].split(",")[2])

        assert objective(ga_out) == objective(bf_out)

    def test_analyze_pipeline(self, tmp_path, instance_dir, fit_dir):
        mult_out = tmp_path / "mult"
        assert run(
            "multipliers",
            "--edges", instance_dir / "edges.csv",
            "--thresholds", fit_dir / "thresholds.csv",
            "--sizes", "2,3",
            "--max-iterations", 50,
            "--out", mult_out,
        ) == 0
        out = tmp_path / "analysis"
        code = run(
            "analyze",
            "--thresholds", fit_dir / "thresholds.csv",
            "--attributes", instance_dir / "attributes.csv",
            "--edges", instance_dir / "edges.csv",
            "--durations", instance_dir / "durations.csv",
            "--multipliers-dir", mult_out,
            "--out", out,
        )
        assert code == 0
        for name in (
            "analysis_report.json", "tertile_attributes.csv", "tertile_members.csv",
            "recovery_curves.csv", "multiplier_attributes.csv", "increment_rates.csv",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "analysis_report.json").read_text())
        assert "per_capita_income" in report["correlations"]
        assert report["threshold_summary"]["count"] > 0

    def test_analyze_include_seeds(self, tmp_path, instance_dir, fit_dir):
        base = tmp_path / "without_seeds"
        with_seeds = tmp_path / "with_seeds"
        common = [
            "analyze",
            "--thresholds", fit_dir / "thresholds.csv",
            "--attributes", instance_dir / "attributes.csv",
        ]
        assert run(*common, "--out", base) == 0
        assert run(*common, "--include-seeds", "--out", with_seeds) == 0
        narrow = json.loads((base / "analysis_report.json").read_text())
        wide = json.loads((with_seeds / "analysis_report.json").read_text())
        assert wide["threshold_summary"]["count"] > narrow["threshold_summary"]["count"]
        assert not narrow["threshold_summary"]["includes_seeds"]
        assert wide["threshold_summary"]["includes_seeds"]

    @pytest.mark.parametrize("given,missing", [("edges", "durations"), ("durations", "edges")])
    def test_analyze_lone_curve_input_is_config(self, tmp_path, instance_dir, capsys,
                                                given, missing):
        inputs = {"edges": instance_dir / "edges.csv", "durations": instance_dir / "durations.csv"}
        out = tmp_path / "analysis"
        code = run(
            "analyze",
            "--thresholds", instance_dir / "planted_thresholds.csv",
            "--attributes", instance_dir / "attributes.csv",
            f"--{given}", inputs[given],
            "--out", out,
        )
        assert code == 2
        assert f"missing {missing!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_command(self, tmp_path, instance_dir):
        out = tmp_path / "baseline"
        assert run(
            "baseline",
            "--edges", instance_dir / "edges.csv",
            "--durations", instance_dir / "durations.csv",
            "--runs", 25,
            "--out", out,
        ) == 0
        doc = json.loads((out / "baseline.json").read_text())
        assert doc["runs"] == 25
        assert (out / "baseline_losses.csv").read_text().splitlines()[0] == "run,loss"


class TestPoolAndGeometry:
    def make_strip_geojson(self, tmp_path):
        # four unit squares in a row: s0..s3
        features = []
        for i in range(4):
            features.append({
                "type": "Feature",
                "properties": {"id": f"s{i}"},
                "geometry": {"type": "Polygon", "coordinates": [[
                    [i, 0], [i + 1, 0], [i + 1, 1], [i, 1], [i, 0],
                ]]},
            })
        path = tmp_path / "strip.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        return path

    def test_multipliers_annotate_geojson(self, tmp_path):
        geometry = self.make_strip_geojson(tmp_path)
        thresholds = tmp_path / "thresholds.csv"
        thresholds.write_text(
            "id,threshold,is_seed\ns0,1.0,0\ns1,1.0,0\ns2,1.0,0\ns3,1.0,0\n"
        )
        out = tmp_path / "mult"
        assert run(
            "multipliers", "--geometry", geometry, "--thresholds", thresholds,
            "--sizes", "1", "--brute-force", "--out", out,
        ) == 0
        doc = json.loads((out / "multipliers_N1.geojson").read_text())
        flags = [f["properties"]["multiplier"] for f in doc["features"]]
        assert sum(flags) == 1

    def test_thresholds_realigned_across_node_orders(self, tmp_path):
        geometry = self.make_strip_geojson(tmp_path)
        # same net, ids listed in a different order than the edge-list sort
        thresholds = tmp_path / "thresholds.csv"
        thresholds.write_text(
            "id,threshold,is_seed\ns3,1.0,0\ns2,1.0,0\ns0,0.0,1\ns1,0.5,0\n"
        )
        graph_out = tmp_path / "graph"
        assert run("build-graph", "--geometry", geometry, "--out", graph_out) == 0
        out = tmp_path / "mult"
        assert run(
            "multipliers", "--edges", graph_out / "edges.csv",
            "--thresholds", thresholds, "--sizes", "1", "--brute-force", "--out", out,
        ) == 0
        rows = (out / "multipliers_summary.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "2"  # s0 seeds s1 naturally

    def test_unrecovered_pool_restricts_candidates(self, tmp_path):
        geometry = self.make_strip_geojson(tmp_path)
        # s0 is a seed; s1 follows it; s2/s3 can never recover naturally
        thresholds = tmp_path / "thresholds.csv"
        thresholds.write_text(
            "id,threshold,is_seed\ns0,0.0,1\ns1,0.5,0\ns2,1.0,0\ns3,1.0,0\n"
        )
        out = tmp_path / "mult"
        assert run(
            "multipliers", "--geometry", geometry, "--thresholds", thresholds,
            "--sizes", "1", "--pool", "unrecovered", "--brute-force", "--out", out,
        ) == 0
        selected = io.read_multiplier_set(out / "multipliers_N1.csv")
        assert set(selected) <= {"s2", "s3"}


class TestDurationsCommand:
    def test_iso_dates(self, tmp_path):
        import datetime

        start = datetime.date(2017, 8, 1)
        rows = ["id,day,visits"]
        for day in range(131):
            value = 100.0 if day <= 20 else 95.0
            rows.append(f"u,{(start + datetime.timedelta(days=day)).isoformat()},{value}")
        visits = tmp_path / "visits.csv"
        visits.write_text("\n".join(rows) + "\n")
        out = tmp_path / "durations"
        assert run(
            "durations",
            "--visits", visits,
            "--baseline-start", "2017-08-01",
            "--baseline-end", "2017-08-21",
            "--recovery-start", "2017-08-28",
            "--out", out,
        ) == 0
        assert io.read_durations(out / "durations.csv")["u"] == pytest.approx(1 / 7)

    def test_computes_from_visits(self, tmp_path):
        rows = ["id,day,visits"]
        for node, post in (("fast", 95.0), ("slow", 10.0)):
            for day in range(131):
                value = 100.0 if day <= 20 else post
                rows.append(f"{node},{day},{value}")
        visits = tmp_path / "visits.csv"
        visits.write_text("\n".join(rows) + "\n")
        out = tmp_path / "durations"
        assert run(
            "durations",
            "--visits", visits,
            "--baseline-start", 0,
            "--baseline-end", 20,
            "--recovery-start", 27,
            "--out", out,
        ) == 0
        durations = io.read_durations(out / "durations.csv")
        assert durations["fast"] == pytest.approx(1 / 7)
        assert durations["slow"] == 14.0


class TestVisitInput:
    """durations errors name the unit, or the file and row, and exit 3."""

    def _durations(self, tmp_path, rows) -> int:
        visits = tmp_path / "visits.csv"
        visits.write_text("\n".join(["id,day,visits", *rows]) + "\n")
        return run(
            "durations", "--visits", visits, "--baseline-start", 0, "--baseline-end", 20,
            "--recovery-start", 27, "--out", tmp_path / "durations",
        )

    @staticmethod
    def _series(node, days=131, bad_day=None):
        return [
            f"{node},{day},{-1.0 if day == bad_day else 100.0}" for day in range(days)
        ]

    def test_negative_visit_names_unit(self, tmp_path, capsys):
        rows = self._series("good") + self._series("neg_unit", bad_day=40)
        assert self._durations(tmp_path, rows) == 3
        err = capsys.readouterr().err
        assert "neg_unit" in err and "nonnegative" in err

    def test_short_series_names_unit(self, tmp_path, capsys):
        rows = self._series("good") + self._series("short_unit", days=27 + 97)
        assert self._durations(tmp_path, rows) == 3
        err = capsys.readouterr().err
        assert "short_unit" in err and "too short" in err

    def test_bad_day_names_file_and_row(self, tmp_path, capsys):
        rows = self._series("good") + ["b,xx,100"]
        assert self._durations(tmp_path, rows) == 3
        err = capsys.readouterr().err
        assert "visits.csv" in err and "['b', 'xx', '100']" in err


class TestGeometryInput:
    """Malformed GeoJSON exits 3 and names the file and the feature."""

    @staticmethod
    def _write(tmp_path, text: str) -> Path:
        path = tmp_path / "units.geojson"
        path.write_text(text)
        return path

    def _build(self, tmp_path, geometry: Path) -> int:
        return run("build-graph", "--geometry", geometry, "--out", tmp_path / "g")

    @pytest.mark.parametrize("position,name", [
        ("[1, 1, 0]", "3-D position"),
        ('[1, "a"]', "non-numeric coordinate"),
        ("[1, 1e999]", "infinite coordinate"),
        ("[NaN, 1]", "NaN coordinate"),
    ])
    def test_bad_position_names_feature(self, tmp_path, capsys, position, name):
        path = _grid_geojson(tmp_path / "grid.geojson")
        text = path.read_text().replace("[1, 1]", position, 1)
        assert text != path.read_text(), name
        assert self._build(tmp_path, self._write(tmp_path, text)) == 3
        err = capsys.readouterr().err
        assert "units.geojson" in err and "feature 0 ('g00')" in err, name

    def test_not_json_names_file(self, tmp_path, capsys):
        assert self._build(tmp_path, self._write(tmp_path, "{not json")) == 3
        assert "units.geojson" in capsys.readouterr().err

    def test_bare_number_feature_names_index(self, tmp_path, capsys):
        doc = json.loads(_grid_geojson(tmp_path / "grid.geojson").read_text())
        doc["features"].insert(2, 5)
        assert self._build(tmp_path, self._write(tmp_path, json.dumps(doc))) == 3
        err = capsys.readouterr().err
        assert "units.geojson" in err and "feature 2" in err


class TestConfigMerging:
    def test_flags_override_config(self, tmp_path, instance_dir):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "edges": str(instance_dir / "edges.csv"),
            "durations": str(instance_dir / "durations.csv"),
            "stage1_max_iterations": 5,
            "rng_seed": 1,
        }))
        flag_out = tmp_path / "flag"
        assert run("fit", "--config", config, "--max-iterations", 8, "--out", flag_out) == 0
        report = json.loads((flag_out / "fit_report.json").read_text())
        assert report["generations"] == 8

        config_out = tmp_path / "cfg"
        assert run("fit", "--config", config, "--out", config_out) == 0
        report = json.loads((config_out / "fit_report.json").read_text())
        assert report["generations"] == 5

    def test_default_sizes_match_reported_percentages(self):
        assert default_multiplier_sizes(2010) == [20, 60, 101, 201]

    def test_bad_config_json(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run("fit", "--config", config, "--out", tmp_path / "x") == 2


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        assert run("frobnicate") == 1

    def test_no_subcommand_is_usage(self):
        assert run() == 1

    def test_missing_required_is_config(self, tmp_path):
        assert run("fit", "--out", tmp_path / "x") == 2

    def test_nonexistent_input_is_config(self, tmp_path):
        assert run(
            "fit", "--edges", tmp_path / "missing.csv",
            "--durations", tmp_path / "missing2.csv", "--out", tmp_path / "x",
        ) == 2

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "edges.csv"
        bad.write_text("src,dst\na,a\n")  # self-loop
        assert run(
            "build-graph", "--edges", bad, "--out", tmp_path / "g",
        ) == 3

    def test_version_and_help(self, capsys):
        assert run("--version") == 0
        assert "recovnet" in capsys.readouterr().out
        assert run("--help") == 0


def _rewrite_row(path: Path, row_index: int, column: int, value: str) -> str:
    """Set one cell of a data row (0-based, header excluded); returns the row's id."""
    lines = path.read_text().splitlines()
    cells = lines[row_index + 1].split(",")
    cells[column] = value
    lines[row_index + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return cells[0]


class TestBadInputRows:
    """Bad values exit 3 (data error) and name the offending row."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_duration(self, tmp_path, instance_dir, capsys, value):
        node = _rewrite_row(instance_dir / "durations.csv", 4, 1, value)
        assert run(
            "fit", "--edges", instance_dir / "edges.csv",
            "--durations", instance_dir / "durations.csv",
            "--max-iterations", 2, "--out", tmp_path / "fit",
        ) == 3
        assert node in capsys.readouterr().err

    def _multipliers(self, tmp_path, instance_dir, thresholds) -> int:
        return run(
            "multipliers", "--edges", instance_dir / "edges.csv",
            "--thresholds", thresholds, "--sizes", 1, "--max-iterations", 2,
            "--out", tmp_path / "mult",
        )

    @staticmethod
    def _row_where(path: Path, is_seed: bool) -> int:
        rows = path.read_text().splitlines()[1:]
        return next(i for i, row in enumerate(rows) if row.endswith(",1" if is_seed else ",0"))

    def test_non_finite_threshold(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "planted_thresholds.csv"
        node = _rewrite_row(path, self._row_where(path, is_seed=False), 1, "nan")
        assert self._multipliers(tmp_path, instance_dir, path) == 3
        assert node in capsys.readouterr().err

    def test_seed_with_non_zero_threshold(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "planted_thresholds.csv"
        node = _rewrite_row(path, self._row_where(path, is_seed=True), 1, "0.5")
        assert self._multipliers(tmp_path, instance_dir, path) == 3
        assert node in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "-0.25"])
    def test_threshold_outside_unit_interval(self, tmp_path, instance_dir, capsys, value):
        path = instance_dir / "planted_thresholds.csv"
        node = _rewrite_row(path, self._row_where(path, is_seed=False), 1, value)
        assert self._multipliers(tmp_path, instance_dir, path) == 3
        assert node in capsys.readouterr().err


class TestCliImports:
    """scipy.stats costs over a second of start-up and scipy.sparse and
    scipy.special about a third of one; only analyze may load scipy.special."""

    HEAVY = ("scipy.stats", "scipy.sparse", "scipy.special")

    @staticmethod
    def _loaded(code: str) -> list[str]:
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code += f"\nprint(','.join(m for m in {TestCliImports.HEAVY!r} if m in sys.modules))"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return [m for m in result.stdout.splitlines()[-1].split(",") if m]

    def test_scipy_stats_not_imported(self):
        assert self._loaded("import sys, recovnet.cli") == []

    def test_synth_then_fit_loads_no_heavy_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from recovnet.cli import main\n"
            f"assert main(['synth', '--nodes', '16', '--rng-seed', '3', '--out', r'{tmp_path}']) == 0\n"
            f"assert main(['fit', '--edges', r'{tmp_path / 'edges.csv'}', "
            f"'--durations', r'{tmp_path / 'durations.csv'}', '--max-iterations', '5', "
            f"'--out', r'{tmp_path / 'fit'}']) == 0"
        )
        assert self._loaded(code) == []
        assert (tmp_path / "fit" / "thresholds.csv").exists()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        def pipeline(root: Path):
            synth = root / "synth"
            fit = root / "fit"
            assert run("synth", "--nodes", 16, "--rng-seed", 5, "--out", synth) == 0
            assert run(
                "fit",
                "--edges", synth / "edges.csv",
                "--durations", synth / "durations.csv",
                "--max-iterations", 40,
                "--rng-seed", 2,
                "--out", fit,
            ) == 0
            return synth, fit

        a_synth, a_fit = pipeline(tmp_path / "a")
        b_synth, b_fit = pipeline(tmp_path / "b")

        skip = {"manifest.json", "ga_timing.csv"}
        for a_dir, b_dir in ((a_synth, b_synth), (a_fit, b_fit)):
            for a_file in sorted(a_dir.iterdir()):
                if a_file.name in skip:
                    continue
                assert a_file.read_bytes() == (b_dir / a_file.name).read_bytes(), a_file.name


def _grid_geojson(path: Path, size: int = 3) -> Path:
    features = [
        {
            "type": "Feature", "properties": {"id": f"g{r}{c}"},
            "geometry": {"type": "Polygon", "coordinates": [[
                [c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]]},
        }
        for r in range(size) for c in range(size)
    ]
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def _visits_csv(path: Path) -> Path:
    rows = ["id,day,visits"]
    for node, post in (("fast", 95.0), ("mid", 88.0), ("slow", 10.0)):
        for day in range(131):
            rows.append(f"{node},{day},{100.0 if day <= 20 else post}")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestOptionTable:
    """Every setting is one row of the option table: a config file holding
    a command's keys and the same values given as flags make the same run."""

    # the one graph source each command is run without (they exclude each other)
    UNUSED = {"build-graph": "edges", "fit": "geometry", "baseline": "geometry",
              "multipliers": "geometry"}

    @pytest.fixture
    def values(self, tmp_path, instance_dir):
        edges = str(instance_dir / "edges.csv")
        durations = str(instance_dir / "durations.csv")
        thresholds = str(instance_dir / "planted_thresholds.csv")
        graph = {"edges": edges, "rule": "rook", "snap_tolerance": 0.5}
        schedule = {"horizon": 14, "first_update_week": 3}
        ga = {"population_size": 6, "crossover_prob": 0.8, "mutation_prob": 0.2,
              "tournament_size": 3, "elitism_count": 2}
        mult_dir = tmp_path / "mult_input"
        assert run("multipliers", "--edges", edges, "--thresholds", thresholds,
                   "--sizes", "1,2", "--brute-force", "--out", mult_dir) == 0
        return {
            "build-graph": {"geometry": str(_grid_geojson(tmp_path / "grid.geojson")),
                            "rule": "rook", "snap_tolerance": 0.001},
            "durations": {"visits": str(_visits_csv(tmp_path / "visits.csv")),
                          "baseline_start": 0, "baseline_end": 20, "recovery_start": 27,
                          "ratio": 0.85, "persistence_days": 2, "ma_halfwidth": 2},
            "fit": {**graph, **schedule, **ga, "durations": durations, "seed_cutoff": 2.75,
                    "max_iterations": 15, "rng_seed": 4, "baseline_runs": 12},
            "baseline": {**graph, **schedule, "durations": durations, "seed_cutoff": 2.75,
                         "runs": 20, "rng_seed": 6},
            "multipliers": {**graph, **schedule, **ga, "thresholds": thresholds,
                            "max_iterations": 12, "rng_seed": 2, "sizes": [1, 2],
                            "pool": "all", "brute_force": False, "enumeration_cap": 500},
            "analyze": {**schedule, "thresholds": thresholds,
                        "attributes": str(instance_dir / "attributes.csv"),
                        "include_seeds": True, "edges": edges, "durations": durations,
                        "seed_cutoff": 2.75, "multipliers_dir": str(mult_dir)},
            "synth": {"nodes": 12, "kind": "perturbed_grid", "seed_fraction": 0.25,
                      "threshold_low": 0.2, "threshold_high": 0.7, "coupling": -0.5,
                      "edge_removal_fraction": 0.1, "rng_seed": 3},
        }

    @pytest.mark.parametrize("command", [
        "build-graph", "durations", "fit", "baseline", "multipliers", "analyze", "synth",
    ])
    def test_config_matches_flags(self, tmp_path, values, command):
        given = values[command]
        rows = {o.name: o for o in OPTIONS if command in o.commands}
        assert set(given) | {"out", self.UNUSED.get(command)} - {None} == set(rows)

        argv = [command]
        for name, value in given.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(value, bool):
                argv += [flag] if value else []
            else:
                argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else value]
        config = {rows[name].config_key(command): value for name, value in given.items()}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**config, "out": str(tmp_path / "by_config")}))

        assert run(*argv, "--out", tmp_path / "by_flags") == 0
        assert run(command, "--config", config_path) == 0

        def settings(out):
            doc = json.loads((tmp_path / out / "manifest.json").read_text())["settings"]
            return {key: value for key, value in doc.items() if key != "out"}

        assert settings("by_flags") == settings("by_config")
        tables = sorted(p.name for p in (tmp_path / "by_flags").iterdir())
        assert tables == sorted(p.name for p in (tmp_path / "by_config").iterdir())
        for name in set(tables) - {"manifest.json", "ga_timing.csv"}:
            flags_bytes = (tmp_path / "by_flags" / name).read_bytes()
            assert flags_bytes == (tmp_path / "by_config" / name).read_bytes(), name

    @pytest.mark.parametrize("command,config,named", [
        ("fit", {"stage1_max_iteration": 5}, "stage1_max_iteration"),
        ("fit", {"stage1_max_iterations": 2.7}, "stage1_max_iterations"),
        ("fit", {"rule": "hex"}, "rule"),
        ("fit", {"rng_seed": -1}, "rng_seed"),
        ("multipliers", {"brute_force": "false"}, "brute_force"),
        ("multipliers", {"pool": "some"}, "pool"),
        ("analyze", {"include_seeds": "no"}, "include_seeds"),
        ("synth", {"nodes": 9}, "node_count"),
        ("durations", {"baseline_start": "xx"}, "baseline_start"),
    ])
    def test_bad_config_value_names_key(
        self, tmp_path, instance_dir, capsys, command, config, named
    ):
        inputs = {
            "fit": ["--edges", instance_dir / "edges.csv",
                    "--durations", instance_dir / "durations.csv", "--max-iterations", 2],
            "multipliers": ["--edges", instance_dir / "edges.csv",
                            "--thresholds", instance_dir / "planted_thresholds.csv",
                            "--sizes", 1, "--max-iterations", 2],
            "analyze": ["--thresholds", instance_dir / "planted_thresholds.csv",
                        "--attributes", instance_dir / "attributes.csv"],
            "synth": [],
            "durations": ["--visits", _visits_csv(tmp_path / "visits.csv"),
                          "--baseline-end", 20, "--recovery-start", 27],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run(command, *inputs[command], "--config", path, "--out", tmp_path / "x") == 2
        assert named in capsys.readouterr().err

    def test_other_stage_key_accepted(self, tmp_path, instance_dir):
        """One config file can serve fit and multipliers."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"stage1_max_iterations": 4, "stage2_max_iterations": 3}))
        out = tmp_path / "fit"
        assert run("fit", "--edges", instance_dir / "edges.csv",
                   "--durations", instance_dir / "durations.csv",
                   "--config", path, "--out", out) == 0
        assert json.loads((out / "fit_report.json").read_text())["generations"] == 4

    @pytest.mark.parametrize("flags,named", [
        (["--sizes", "2,2"], "--sizes lists 2 more than once"),
        (["--sizes", "0,1"], "--sizes must be >= 1, got 0"),
        (["--rng-seed", "-1"], "--rng-seed must be >= 0, got -1"),
    ])
    def test_out_of_range_multipliers_flag(self, tmp_path, instance_dir, capsys, flags, named):
        out = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--max-iterations", 2, *flags, "--out", out) == 2
        assert named in capsys.readouterr().err
        assert not (out / "multipliers_summary.csv").exists()

    def test_bad_day_flag_named_like_bad_integer(self, tmp_path, capsys):
        visits = _visits_csv(tmp_path / "visits.csv")
        assert run("durations", "--visits", visits, "--baseline-start", "xx",
                   "--baseline-end", 20, "--recovery-start", 27, "--out", tmp_path / "d") == 1
        day_error = capsys.readouterr().err
        assert run("baseline", "--horizon", "abc", "--out", tmp_path / "b") == 1
        integer_error = capsys.readouterr().err
        assert day_error.startswith("usage error: argument --baseline-start: expected ")
        assert integer_error.startswith("usage error: argument --horizon: expected ")
        assert "'xx'" in day_error
        assert not (tmp_path / "d").exists()

    def test_negative_baseline_runs(self, tmp_path, instance_dir, capsys):
        assert run("fit", "--edges", instance_dir / "edges.csv",
                   "--durations", instance_dir / "durations.csv", "--max-iterations", 2,
                   "--baseline-runs", -4, "--out", tmp_path / "fit") == 2
        assert "--baseline-runs must be >= 0, got -4" in capsys.readouterr().err


class TestRunDirectoryInputs:
    @pytest.fixture
    def mult_dir(self, tmp_path, instance_dir):
        out = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--sizes", "1,2", "--brute-force", "--out", out) == 0
        return out

    def _analyze(self, tmp_path, instance_dir, mult_dir) -> int:
        return run("analyze", "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--attributes", instance_dir / "attributes.csv",
                   "--multipliers-dir", mult_dir, "--out", tmp_path / "analysis")

    def test_summary_without_size_column(self, tmp_path, instance_dir, mult_dir, capsys):
        summary = mult_dir / "multipliers_summary.csv"
        lines = summary.read_text().splitlines()
        summary.write_text("\n".join(line.split(",", 1)[1] for line in lines) + "\n")
        assert self._analyze(tmp_path, instance_dir, mult_dir) == 3
        assert "multipliers_summary.csv" in capsys.readouterr().err

    def test_summary_with_non_integer_size(self, tmp_path, instance_dir, mult_dir, capsys):
        _rewrite_row(mult_dir / "multipliers_summary.csv", 1, 0, "two")
        assert self._analyze(tmp_path, instance_dir, mult_dir) == 3
        err = capsys.readouterr().err
        assert "multipliers_summary.csv" in err and "'two'" in err

    def test_set_file_disagreeing_with_summary(self, tmp_path, instance_dir, mult_dir, capsys):
        set_file = mult_dir / "multipliers_N1.csv"
        set_file.write_text(set_file.read_text().replace(",0\n", ",1\n", 1))
        assert self._analyze(tmp_path, instance_dir, mult_dir) == 3
        assert "multipliers_N1.csv" in capsys.readouterr().err

    def test_summary_round_trip(self, tmp_path, instance_dir, mult_dir):
        results = io.read_multiplier_results(mult_dir)
        assert [len(r.members) for r in results] == [1, 2]
        io.write_multiplier_summary([("brute-force", r) for r in results],
                                    tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_bytes() == (
            mult_dir / "multipliers_summary.csv").read_bytes()

    def test_durations_for_absent_nodes(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "durations.csv"
        path.write_text(path.read_text() + "zz,5.0\n")
        assert run("baseline", "--edges", instance_dir / "edges.csv",
                   "--durations", path, "--runs", 5, "--out", tmp_path / "b") == 3
        err = capsys.readouterr().err
        assert "zz" in err and "--geometry" in err
