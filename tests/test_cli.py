from __future__ import annotations

import csv
import json
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recovnet import RecovnetError, cli, io
from recovnet.cli import OPTIONS, default_multiplier_sizes, main
from recovnet.io import ATTRIBUTE_NAMES


def run(*argv) -> int:
    return main([str(a) for a in argv])


@contextmanager
def counted_kernels():
    """In each module that builds a DiffusionKernel: every kernel built
    inside the block, in order; each counts its own calls."""
    from recovnet import diffusion, fitting, multipliers

    built = []

    class CountedKernel(diffusion.DiffusionKernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(diffusion, "DiffusionKernel", CountedKernel), \
            mock.patch.object(fitting, "DiffusionKernel", CountedKernel), \
            mock.patch.object(multipliers, "DiffusionKernel", CountedKernel):
        yield built


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
        assert set(manifest["versions"]) == {"recovnet", "python", "numpy"}
        assert manifest["versions"]["python"] == platform.python_version()

    @pytest.mark.parametrize("flags,named", [
        (["--nodes", 0], "node_count must be >= 1, got 0"),
        (["--nodes", 16, "--seed-fraction", 1.5], "seed_fraction must be in [0, 1], got 1.5"),
        (["--nodes", 16, "--edge-removal-fraction", 1],
         "edge_removal_fraction must be in [0, 1), got 1.0"),
    ])
    def test_spec_out_of_range_is_config(self, tmp_path, capsys, flags, named):
        capsys.readouterr()
        assert run("synth", *flags, "--out", tmp_path / "x") == 2
        assert named in capsys.readouterr().err


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
        from recovnet import performance_index
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert manifest["timing"]["total_seconds"] > 0
        assert set(manifest["timing"]) - {"total_seconds", "rows_scored"} == set(
            performance_index(1, 0, 1, 1.0))
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

    def test_analyze_constant_attribute_has_no_correlation(self, tmp_path, instance_dir):
        attributes = instance_dir / "attributes.csv"
        for row in range(16):
            _rewrite_row(attributes, row, 3, "50.0")
        out = tmp_path / "analysis"
        assert run("analyze", "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--attributes", attributes, "--out", out) == 0
        report = json.loads((out / "analysis_report.json").read_text())
        assert report["correlations"]["minority_pct"] == {
            "error": "degenerate sample: zero variance"}
        assert "r" in report["correlations"]["per_capita_income"]

    def test_analyze_set_of_every_node_leaves_no_non_multiplier(self, tmp_path, instance_dir):
        """Every node recovers unforced on this instance, so a set of all 16
        is a valid run; the non-multiplier group is empty, count 0."""
        mult = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--sizes", 16, "--brute-force", "--out", mult) == 0
        out = tmp_path / "analysis"
        assert run("analyze", "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--attributes", instance_dir / "attributes.csv",
                   "--multipliers-dir", mult, "--out", out) == 0
        rows = _rows(out / "multiplier_attributes.csv")
        assert [row[:4] for row in rows if row[1] == "multiplier"] == [
            ["16", "multiplier", name, "16"] for name in ATTRIBUTE_NAMES]
        assert [row for row in rows if row[1] == "non_multiplier"] == [
            ["16", "non_multiplier", name, "0", "", "", "", ""] for name in ATTRIBUTE_NAMES]

    def test_analyze_compares_each_set_with_every_other_node(self, tmp_path, instance_dir):
        """Each size's multiplier group is its set and its non-multiplier
        group every other one of the 16 nodes."""
        mult = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--sizes", "1,2", "--brute-force", "--out", mult) == 0
        out = tmp_path / "analysis"
        assert run("analyze", "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--attributes", instance_dir / "attributes.csv",
                   "--multipliers-dir", mult, "--out", out) == 0
        rows = _rows(out / "multiplier_attributes.csv")
        assert [row[:4] for row in rows] == [
            [str(size), group, name, str(size if group == "multiplier" else 16 - size)]
            for size in (1, 2) for group in ("multiplier", "non_multiplier")
            for name in ATTRIBUTE_NAMES]

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

    def test_fit_baseline_block_equals_baseline_command(self, tmp_path, instance_dir):
        """fit --baseline-runs R --rng-seed S reports the baseline that
        baseline --runs R --rng-seed S writes on the same inputs."""
        inputs = ["--edges", instance_dir / "edges.csv",
                  "--durations", instance_dir / "durations.csv", "--rng-seed", 2]
        assert run("fit", *inputs, "--max-iterations", 3, "--baseline-runs", 7,
                   "--out", tmp_path / "fit") == 0
        assert run("baseline", *inputs, "--runs", 7, "--out", tmp_path / "baseline") == 0
        report = json.loads((tmp_path / "fit" / "fit_report.json").read_text())
        baseline = json.loads((tmp_path / "baseline" / "baseline.json").read_text())
        assert report["baseline"] == baseline
        assert baseline["runs"] == 7 and baseline["std"] > 0

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
        ids, selected = io.read_multiplier_set(out / "multipliers_N1.csv")
        assert selected.sum() == 1 and ids[np.argmax(selected)] in {"s2", "s3"}

    def test_unrecovered_pool_with_every_node_recovered(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--sizes", 1, "--pool", "unrecovered", "--out", out) == 3
        assert capsys.readouterr().err == (
            "data error: cannot restrict pool to unrecovered nodes: none exist\n")
        assert not out.exists()

    @staticmethod
    def stuck_units(tmp_path, n, stuck=2):
        """A chain of n units, all seeds except the first stuck ones (u000
        and u001 by default), which each wait for all their neighbours: an
        unrecovered pool of stuck nodes."""
        nodes = [f"u{i:03d}" for i in range(n)]
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\n" + "".join(f"{a},{b}\n" for a, b in zip(nodes, nodes[1:])))
        thresholds = tmp_path / "thresholds.csv"
        thresholds.write_text("id,threshold,is_seed\n" + "".join(
            f"{node},1.0,0\n" if i < stuck else f"{node},0.0,1\n" for i, node in enumerate(nodes)
        ))
        return ["--edges", edges, "--thresholds", thresholds, "--pool", "unrecovered",
                "--max-iterations", 2]

    @pytest.mark.parametrize("flags", [[], ["--brute-force"]])
    @pytest.mark.parametrize("pool", ["all", "unrecovered"])
    def test_one_kernel_for_every_size(self, tmp_path, pool, flags):
        """One kernel, and so one set of recovery needs and one unforced
        run, serves the pool and every size."""
        inputs = self.stuck_units(tmp_path, 12, stuck=4)
        with counted_kernels() as built:
            assert run("multipliers", *inputs, "--pool", pool, "--sizes", "1,2,3", *flags,
                       "--out", tmp_path / "mult") == 0
        assert len(built) == 1
        summary = (tmp_path / "mult" / "multipliers_summary.csv").read_text().splitlines()
        assert [row.split(",")[3] for row in summary[1:]] == ["8"] * 3  # the 8 seeds

    @pytest.mark.parametrize("pool", ["all", "unrecovered"])
    def test_one_kernel_call_per_generation(self, tmp_path, pool):
        """The sizes' searches advance in lockstep: after the unforced run,
        one weeks_recovered call scores a generation of every size (10 rows
        each in generation 0, then 9 children), and the manifest's timing
        block says so. No other file holds the timing block."""
        inputs = self.stuck_units(tmp_path, 12, stuck=4)
        generations, out = 6, tmp_path / "mult"
        with counted_kernels() as built:
            assert run("multipliers", *inputs, "--pool", pool, "--sizes", "1,2,3",
                       "--max-iterations", generations, "--out", out) == 0
        [kernel] = built
        assert kernel.calls == {1: 1, 30: 1, 27: generations - 1}
        timing = json.loads((out / "manifest.json").read_text())["timing"]
        assert timing["kernel_calls"] == 1 + generations
        assert timing["columns_per_call"] == {"1": 1, "30": 1, "27": generations - 1}
        assert timing["rows_scored"] == {str(size): 10 + 9 * (generations - 1)
                                         for size in (1, 2, 3)}
        assert timing["search_seconds"] > 0
        for path in out.iterdir():
            if path.name != "manifest.json":
                assert "search_seconds" not in path.read_text(), path.name

    def test_brute_force_timing_counts_every_subset(self, tmp_path):
        out = tmp_path / "mult"
        assert run("multipliers", *self.stuck_units(tmp_path, 12), "--pool", "all",
                   "--sizes", "1,2,3", "--brute-force", "--out", out) == 0
        timing = json.loads((out / "manifest.json").read_text())["timing"]
        assert timing["rows_scored"] == {"1": 12, "2": 66, "3": 220}
        assert timing["columns_per_call"] == {"1": 1, "12": 1, "66": 1, "220": 1}

    def test_enumeration_cap_checked_for_every_size_first(self, tmp_path, capsys):
        """40 nodes: 40 sets of one fit a cap of 100, the 780 pairs do not,
        and no size is searched or written."""
        from recovnet.diffusion import DiffusionKernel

        synth = tmp_path / "synth"
        assert run("synth", "--nodes", 40, "--seed-fraction", 0.1, "--threshold-low", 0.3,
                   "--threshold-high", 0.9, "--rng-seed", 1, "--out", synth) == 0
        out = tmp_path / "bf"
        capsys.readouterr()
        with mock.patch.object(DiffusionKernel, "reduce_columns", autospec=True,
                               side_effect=DiffusionKernel.reduce_columns) as reduce_columns:
            assert run("multipliers", "--edges", synth / "edges.csv",
                       "--thresholds", synth / "planted_thresholds.csv", "--brute-force",
                       "--sizes", "1,2", "--enumeration-cap", 100, "--out", out) == 2
        reduce_columns.assert_not_called()
        assert "780 candidate subsets exceed the enumeration cap 100" in capsys.readouterr().err
        assert not out.exists()

    def test_geometry_parsed_once_for_every_size(self, tmp_path):
        """The source GeoJSON is read for the graph and once more for every
        size's copy; each copy marks its own set."""
        geometry = _grid_geojson(tmp_path / "grid.geojson")
        thresholds = tmp_path / "thresholds.csv"
        thresholds.write_text("id,threshold,is_seed\n" + "".join(
            f"g{r}{c},0.5,0\n" for r in range(3) for c in range(3)))
        out = tmp_path / "mult"
        with mock.patch.object(io, "read_json", wraps=io.read_json) as read_json:
            assert run("multipliers", "--geometry", geometry, "--thresholds", thresholds,
                       "--sizes", "1,2,3", "--max-iterations", 3, "--out", out) == 0
        assert read_json.call_count == 2
        for size in (1, 2, 3):
            ids, selected = io.read_multiplier_set(out / f"multipliers_N{size}.csv")
            members = {node for node, chosen in zip(ids, selected) if chosen}
            doc = json.loads((out / f"multipliers_N{size}.geojson").read_text())
            marked = {f["properties"]["id"] for f in doc["features"]
                      if f["properties"]["multiplier"]}
            assert len(members) == size and marked == members

    @pytest.mark.parametrize("sizes,named", [(["--sizes", "1,2,500"], "got 500")])
    def test_sizes_beyond_pool_fail_before_any_output(self, tmp_path, capsys, sizes, named):
        out = tmp_path / "mult"
        assert run("multipliers", *self.stuck_units(tmp_path, 25), *sizes,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert "sizes" in err and "'unrecovered' candidate pool's 2 nodes" in err and named in err
        assert not out.exists()

    def test_default_sizes_beyond_pool_dropped(self, tmp_path, capsys):
        # 25 nodes: default sizes 1 and 3, and 3 exceeds the pool
        out = tmp_path / "mult"
        assert run("multipliers", *self.stuck_units(tmp_path, 25), "--out", out) == 0
        assert capsys.readouterr().err == (
            "dropped default sizes 3, larger than the 'unrecovered' candidate pool's 2 nodes\n"
        )
        nodes = io.read_edge_list(tmp_path / "edges.csv").nodes
        assert [cells[0] for cells, _ in io.read_multiplier_results(out, nodes)] == [1]
        assert json.loads((out / "manifest.json").read_text())["settings"]["sizes"] == [1]
        assert not (out / "multipliers_N3.csv").exists()

    def test_no_default_size_fits_pool(self, tmp_path, capsys):
        # 250 nodes: the smallest default size is 3
        out = tmp_path / "mult"
        assert run("multipliers", *self.stuck_units(tmp_path, 250), "--out", out) == 2
        err = capsys.readouterr().err
        assert "dropped default sizes 3,8,13,25," in err
        assert "every default size exceeds the 'unrecovered' candidate pool's 2 nodes" in err
        assert not out.exists()


class TestKernelCount:
    @pytest.mark.parametrize("command,flags,kernels", [
        ("build-graph", [], 0),
        ("synth", ["--nodes", 16], 1),
        ("fit", ["--durations", "durations.csv", "--max-iterations", 3,
                 "--baseline-runs", 5], 1),
        ("baseline", ["--durations", "durations.csv", "--runs", 5], 1),
        ("analyze", ["--thresholds", "planted_thresholds.csv", "--attributes", "attributes.csv",
                     "--durations", "durations.csv"], 1),
    ])
    def test_at_most_one_kernel(self, tmp_path, instance_dir, command, flags, kernels):
        """A command prepares its graph for simulation at most once, however
        many runs it makes (multipliers: see TestPoolAndGeometry)."""
        inputs = [] if command == "synth" else ["--edges", instance_dir / "edges.csv"]
        flags = [instance_dir / f if str(f).endswith(".csv") else f for f in flags]
        with counted_kernels() as built:
            assert run(command, *inputs, *flags, "--out", tmp_path / "out") == 0
        assert len(built) == kernels


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
        ids, durations = io.read_durations(out / "durations.csv")
        assert ids == ("u",)
        assert durations.tolist() == [pytest.approx(1 / 7)]

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
        ids, durations = io.read_durations(out / "durations.csv")
        assert ids == ("fast", "slow")
        assert durations[0] == pytest.approx(1 / 7)
        assert durations[1] == 14.0


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

    def test_unit_shorter_than_baseline_window_names_unit(self, tmp_path, capsys):
        rows = self._series("u1") + self._series("u2", days=3)
        assert self._durations(tmp_path, rows) == 3
        assert capsys.readouterr().err == (
            f"data error: {tmp_path / 'visits.csv'}: unit 'u2': "
            "baseline window extends past the series\n")
        assert not (tmp_path / "durations").exists()

    def test_bad_day_names_file_and_row(self, tmp_path, capsys):
        rows = self._series("good") + ["b,xx,100"]
        assert self._durations(tmp_path, rows) == 3
        err = capsys.readouterr().err
        assert "visits.csv" in err and "['b', 'xx', '100']" in err

    def test_no_data_rows_names_file(self, tmp_path, capsys):
        assert self._durations(tmp_path, ["", ""]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path / 'visits.csv'}: no visit rows\n"
        assert not (tmp_path / "durations").exists()

    @pytest.mark.parametrize("flags,config,named", [
        (["--ratio", 5], {}, "ratio must be in (0, 1], got 5.0"),
        (["--ratio", 0], {}, "ratio must be in (0, 1], got 0.0"),
        ([], {"ratio": -0.5}, "ratio must be in (0, 1], got -0.5"),
        (["--persistence-days", 0], {}, "--persistence-days must be >= 1, got 0"),
        ([], {"persistence_days": 0}, "config key 'persistence_days' must be >= 1, got 0"),
        (["--ma-halfwidth", -1], {}, "--ma-halfwidth must be >= 0, got -1"),
        ([], {"ma_halfwidth": -2}, "config key 'ma_halfwidth' must be >= 0, got -2"),
    ])
    @pytest.mark.parametrize("rows", [[], ["b,xx,100"]], ids=["header_only", "bad_row"])
    def test_bad_setting_checked_before_data(self, tmp_path, capsys, rows, flags, config, named):
        visits = tmp_path / "visits.csv"
        visits.write_text("\n".join(["id,day,visits", *rows]) + "\n")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert run("durations", "--visits", visits, "--baseline-start", 0, "--baseline-end", 20,
                   "--recovery-start", 27, *flags, "--config", path,
                   "--out", tmp_path / "durations") == 2
        assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert not (tmp_path / "durations").exists()


    @pytest.mark.parametrize("days,named", [
        ((5, 2, 27), "--baseline-start 5 is after --baseline-end 2"),
        (("2017-08-05", "2017-08-02", "2017-09-01"),
         "--baseline-start 2017-08-05 is after --baseline-end 2017-08-02"),
        ((0, 27, 27), "--baseline-end 27 must be before --recovery-start 27"),
        ((0, 30, 27), "--baseline-end 30 must be before --recovery-start 27"),
    ])
    def test_window_flags_checked_before_data(self, tmp_path, capsys, days, named):
        """A unit's first day shifts the three days alike, so their order is
        a configuration fault whatever the file holds; the file, here with a
        bad row, is not read."""
        visits = tmp_path / "visits.csv"
        visits.write_text("id,day,visits\nb,xx,100\n")
        start, end, recovery = days
        assert run("durations", "--visits", visits, "--baseline-start", start,
                   "--baseline-end", end, "--recovery-start", recovery,
                   "--out", tmp_path / "durations") == 2
        assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert not (tmp_path / "durations").exists()


class TestDurationGroups:
    """Units with different first days and lengths are scored one matrix per
    (first day, length) group, each as the oracle scores it alone; a panel,
    whose units share both, is one group."""

    # id -> (first day, length); every window ends >= 98 days past day 27
    SHAPES = {"a0": (0, 125), "a1": (-3, 140), "a2": (0, 131), "a3": (-5, 135),
              "a4": (-3, 140), "a5": (0, 125), "a6": (0, 131), "a7": (-5, 132)}
    PANEL = dict.fromkeys(SHAPES, (0, 125))
    TWO_GROUPS = {node: (0, 125) if k % 3 else (-3, 140) for k, node in enumerate(SHAPES)}

    @staticmethod
    def _visits(rng, length, first_day):
        days = np.arange(first_day, first_day + length)
        recover = int(rng.integers(20, 130))
        visits = np.where(days < recover, rng.uniform(0, 80, length), rng.uniform(85, 120, length))
        visits[days <= 20] = rng.uniform(95, 105, int((days <= 20).sum()))
        return np.round(visits, 1)

    def _run(self, tmp_path, series, ordered=False) -> int:
        rows = ["id,day,visits"]
        for node, (first_day, visits) in sorted(series.items()):
            rows += [f"{node},{first_day + d},{v!r}" for d, v in enumerate(visits.tolist())]
        if not ordered:
            rows = [rows[0]] + rows[:0:-1]  # units and their days in reverse order
        visits_path = tmp_path / "visits.csv"
        visits_path.write_text("\n".join(rows) + "\n")
        return run("durations", "--visits", visits_path, "--baseline-start", 0,
                   "--baseline-end", 20, "--recovery-start", 27, "--out", tmp_path / "d")

    @pytest.mark.parametrize("shapes", ["SHAPES", "PANEL", "TWO_GROUPS"])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_durations_match_oracle(self, tmp_path, shapes, ordered):
        rng = np.random.default_rng(9)
        series = {node: (first, self._visits(rng, length, first))
                  for node, (first, length) in getattr(self, shapes).items()}
        assert self._run(tmp_path, series, ordered) == 0
        ids, written = io.read_durations(tmp_path / "d" / "durations.csv")
        assert list(ids) == sorted(self.SHAPES)
        for node, duration in zip(ids, written.tolist()):
            first, visits = series[node]
            expected = oracles.naive_recovery_duration(visits, -first, 20 - first, 27 - first)
            assert duration == expected, node
        assert len(set(written.tolist())) > 3

    @pytest.mark.parametrize("shapes,late_start,named", [
        ("SHAPES", False, "unit 'a1': visit counts must be nonnegative"),
        ("SHAPES", True, "unit 'a0': invalid baseline window [-4, 16]"),
        ("PANEL", False, "unit 'a1': visit counts must be nonnegative"),
        ("TWO_GROUPS", False, "unit 'a1': visit counts must be nonnegative"),
        ("TWO_GROUPS", True, "unit 'a0': invalid baseline window [-4, 16]"),
    ])
    def test_error_names_first_unit_in_id_order(self, tmp_path, capsys, shapes, late_start,
                                                named):
        """a1 and a5 fail, in different groups of SHAPES and in the one
        group of a panel; a per-unit loop in id order stops at a1, or at a0
        once its window starts too late."""
        rng = np.random.default_rng(3)
        series = {node: (first, self._visits(rng, length, first))
                  for node, (first, length) in getattr(self, shapes).items()}
        for node in ("a1", "a5"):
            series[node][1][60] = -1.0
        if late_start:
            series["a0"] = (4, series["a0"][1])
        assert self._run(tmp_path, series) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path / 'visits.csv'}: {named}\n"


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

    @pytest.mark.parametrize("ring,name", [
        ([["0", "0"], ["1", "0"], ["1", "1"], ["0", "0"]], "strings"),
        (["10", "11", "01", "10"], "two-character strings"),
        ([[True, False], [1, 0], [1, 1], [True, False]], "booleans"),
    ])
    def test_positions_that_are_not_numbers_name_feature(self, tmp_path, capsys, ring, name):
        doc = json.loads(_grid_geojson(tmp_path / "grid.geojson").read_text())
        doc["features"][4]["geometry"]["coordinates"] = [ring]
        assert self._build(tmp_path, self._write(tmp_path, json.dumps(doc))) == 3, name
        err = capsys.readouterr().err
        assert "units.geojson" in err and "feature 4 ('g11')" in err, name
        assert "[x, y] number pairs" in err, name
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("faults,named", [
        ({1: "string", 3: "no_id"}, "feature 1 ('g01')"),
        ({1: "no_id", 3: "string"}, "feature 1 lacks"),
        ({2: "duplicate", 5: "open"}, "feature 5 ('g12')"),
        ({6: "duplicate"}, "duplicate node id 'g00'"),
        ({6: "padded"}, "duplicate node id 'g00'"),
    ])
    def test_first_bad_feature_in_file_order_named(self, tmp_path, capsys, faults, named):
        doc = json.loads(_grid_geojson(tmp_path / "grid.geojson").read_text())
        for k, fault in faults.items():
            feature = doc["features"][k]
            if fault == "string":
                feature["geometry"]["coordinates"][0][1] = ["1", "0"]
            elif fault == "no_id":
                del feature["properties"]["id"]
            elif fault == "open":
                feature["geometry"]["coordinates"][0][-1] = [9, 9]
            else:
                feature["properties"]["id"] = " g00" if fault == "padded" else "g00"
        assert self._build(tmp_path, self._write(tmp_path, json.dumps(doc))) == 3
        assert named in capsys.readouterr().err

    def test_id_repeated_once_stripped_is_data_error(self, tmp_path, capsys):
        doc = json.loads(_grid_geojson(tmp_path / "grid.geojson").read_text())
        doc["features"] = doc["features"][:3]
        for feature, unit in zip(doc["features"], (" a", "b", "a")):
            feature["properties"]["id"] = unit
        assert self._build(tmp_path, self._write(tmp_path, json.dumps(doc))) == 3
        assert "duplicate node id 'a'" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_padded_ids_written_stripped(self, tmp_path):
        doc = json.loads(_grid_geojson(tmp_path / "grid.geojson").read_text())
        doc["features"] = doc["features"][:2]
        for feature, unit in zip(doc["features"], (" a", "b\t")):
            feature["properties"]["id"] = unit
        assert self._build(tmp_path, self._write(tmp_path, json.dumps(doc))) == 0
        assert (tmp_path / "g" / "edges.csv").read_text() == "src,dst\na,b\n"
        assert io.read_edge_list(tmp_path / "g" / "edges.csv").edges == (("a", "b"),)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_snap_tolerance_too_small_is_config(self, tmp_path, capsys, via):
        geometry = _grid_geojson(tmp_path / "grid.geojson")
        if via == "flag":
            code = run("build-graph", "--geometry", geometry, "--snap-tolerance", "1e-320",
                       "--out", tmp_path / "g")
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"geometry": str(geometry), "snap_tolerance": 1e-320}))
            code = run("build-graph", "--config", config, "--out", tmp_path / "g")
        assert code == 2
        err = capsys.readouterr().err
        assert "snap_tolerance 1e-320 is too small" in err
        assert not (tmp_path / "g").exists()

    def test_not_json_names_file(self, tmp_path, capsys):
        assert self._build(tmp_path, self._write(tmp_path, "{not json")) == 3
        assert "units.geojson" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,named", [
        ('{"type": "Feature"}', "expected a FeatureCollection"),
        ("[1, 2]", "expected a FeatureCollection"),
        ('{"type": "FeatureCollection", "features": {}}', "'features' must be a list"),
    ])
    def test_not_a_feature_collection_names_file(self, tmp_path, capsys, doc, named):
        path = self._write(tmp_path, doc)
        assert self._build(tmp_path, path) == 3
        assert capsys.readouterr().err == f"data error: {path}: {named}\n"
        assert not (tmp_path / "g").exists()

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

    def test_bad_config_json(self, tmp_path, capsys):
        """Text that does not parse, and bytes that are not UTF-8."""
        config = tmp_path / "broken.json"
        for data in (b"{not json", b'{"x": "\xff"}'):
            config.write_bytes(data)
            assert run("fit", "--config", config, "--out", tmp_path / "x") == 2
            assert capsys.readouterr().err.startswith(
                f"configuration error: config file {config} is not valid JSON: ")

    @pytest.mark.parametrize("text,named", [
        (None, "config file not found: {}"),
        ("[1]", "config file {} must hold a JSON object"),
        ("null", "config file {} must hold a JSON object"),
    ])
    def test_config_file_absent_or_not_an_object(self, tmp_path, capsys, text, named):
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        assert run("fit", "--config", config, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"configuration error: {named.format(config)}\n"


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

    def test_empty_csv_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        assert run("build-graph", "--edges", empty, "--out", tmp_path / "g") == 3
        assert capsys.readouterr().err == f"data error: {empty}: empty file\n"
        assert not (tmp_path / "g").exists()

    def test_package_error_of_no_kind_is_internal(self, tmp_path, capsys, monkeypatch):
        def broken(s):
            raise RecovnetError("handler broke")

        monkeypatch.setattr(cli, "cmd_build_graph", broken)
        assert run("build-graph", "--edges", tmp_path / "edges.csv", "--out", tmp_path / "g") == 4
        assert capsys.readouterr().err == "internal error: handler broke\n"

    def test_fitness_failure_is_internal_and_named(self, tmp_path, instance_dir, capsys,
                                                     monkeypatch):
        """An exception of no recovnet kind from the GA's fitness reaches
        main() unchanged, on a batch that each of its rows passes alone."""
        from recovnet import fitting

        losses = fitting.FitProblem.losses

        def crowded(problem, chromosomes):
            if len(chromosomes) > 1:
                raise MemoryError(f"{len(chromosomes)} rows")
            return losses(problem, chromosomes)

        monkeypatch.setattr(fitting.FitProblem, "losses", crowded)
        assert run("fit", "--edges", instance_dir / "edges.csv",
                   "--durations", instance_dir / "durations.csv",
                   "--max-iterations", 2, "--out", tmp_path / "fit") == 4
        assert capsys.readouterr().err == "internal error: MemoryError('10 rows')\n"

    def test_version_and_help(self, capsys):
        assert run("--version") == 0
        assert "recovnet" in capsys.readouterr().out
        assert run("--help") == 0

    def test_help_and_usage_errors_equal_the_full_parsers(self, capsys, monkeypatch):
        """A command named first gets a parser with only its own flags; its
        help, the top-level help and a usage error read as the full parser's."""
        monkeypatch.setenv("COLUMNS", "80")
        for command in cli.ALL:
            assert cli._parser(command).format_help() == cli._parser().format_help()
            with pytest.raises(SystemExit):
                cli._parser().parse_args([command, "--help"])
            expected = capsys.readouterr().out
            assert run(command, "--help") == 0
            assert capsys.readouterr().out == expected, command
            with pytest.raises(cli._UsageError) as raised:
                cli._parser().parse_args([command, "--nodes", "3", "--edges", "x"])
            assert run(command, "--nodes", "3", "--edges", "x") == 1
            assert capsys.readouterr().err == f"usage error: {raised.value}\n", command


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


def _run_on_damaged_input(tmp_path, instance_dir, command: str, target: str, damage):
    """Run command on the synth instance (and a 131-day visits file, quoted
    when target says so) after damage(path) rewrites the target file; the
    exit code, the target's path and damage's return value."""
    visits = tmp_path / "visits.csv"
    cell = '"u"' if target == "quoted visits" else "u"
    visits.write_text("id,day,visits\n" + "".join(f"{cell},{d},100\n" for d in range(131)))
    files = {
        "edges": instance_dir / "edges.csv",
        "durations": instance_dir / "durations.csv",
        "thresholds": instance_dir / "planted_thresholds.csv",
        "attributes": instance_dir / "attributes.csv",
        "visits": visits,
    }
    path = files[target.split()[-1]]
    damaged = damage(path)
    flags = {
        "build-graph": ["--edges", files["edges"]],
        "fit": ["--edges", files["edges"], "--durations", files["durations"],
                "--max-iterations", 2],
        "baseline": ["--edges", files["edges"], "--durations", files["durations"],
                     "--runs", 2],
        "multipliers": ["--edges", files["edges"], "--thresholds", files["thresholds"],
                        "--sizes", 1, "--max-iterations", 2],
        "analyze": ["--thresholds", files["thresholds"], "--attributes", files["attributes"]],
        "durations": ["--visits", files["visits"], "--baseline-start", 0,
                      "--baseline-end", 20, "--recovery-start", 27],
    }[command]
    return run(command, *flags, "--out", tmp_path / "out"), path, damaged


def _put_byte_ff(path: Path) -> int:
    """Put a \\xff byte inside the first data row; its offset."""
    data = path.read_bytes()
    offset = data.index(b"\n") + 2
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    return offset


class TestNotUtf8:
    """A CSV input with a byte that is not UTF-8 exits 3, names the file
    and the byte's offset, and leaves no output directory, whichever
    command reads it."""

    @pytest.mark.parametrize("command,target", [
        ("build-graph", "edges"), ("fit", "durations"), ("baseline", "durations"),
        ("multipliers", "thresholds"), ("analyze", "attributes"),
        ("durations", "visits"), ("durations", "quoted visits"),
    ])
    def test_exits_3_naming_the_byte(self, tmp_path, instance_dir, capsys, command, target):
        code, path, offset = _run_on_damaged_input(
            tmp_path, instance_dir, command, target, _put_byte_ff
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: not valid UTF-8 at byte {offset}\n"
        )
        assert not (tmp_path / "out").exists()


def _empty_first_id(path: Path) -> list[str]:
    """Blank the id cell of the first data row; that row's cells."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[0] = " " if cells[0].startswith('"') else ""
    lines[1] = ",".join(cells)
    path.write_text("".join(lines))
    return next(csv.reader([lines[1].rstrip("\n")]))


class TestEmptyId:
    """An id that is empty once stripped names no node: every input exits
    3 and names the row or feature that has one."""

    @pytest.mark.parametrize("command,target", [
        ("build-graph", "edges"), ("fit", "durations"), ("multipliers", "thresholds"),
        ("analyze", "attributes"), ("durations", "visits"), ("durations", "quoted visits"),
    ])
    def test_csv_row_named(self, tmp_path, instance_dir, capsys, command, target):
        code, path, row = _run_on_damaged_input(
            tmp_path, instance_dir, command, target, _empty_first_id
        )
        assert code == 3
        assert capsys.readouterr().err == f"data error: {path}: empty id in row {row!r}\n"
        assert not (tmp_path / "out").exists()

    def test_edge_list_of_the_example(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\na,\nb,a\n")
        assert run("build-graph", "--edges", path, "--out", tmp_path / "g") == 3
        assert capsys.readouterr().err == f"data error: {path}: empty id in row ['a', '']\n"
        assert not (tmp_path / "g").exists()

    def test_multiplier_set_row_named(self, tmp_path, instance_dir, capsys):
        mult = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--sizes", 1, "--max-iterations", 2, "--out", mult) == 0
        row = _empty_first_id(mult / "multipliers_N1.csv")
        assert run("analyze", "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--attributes", instance_dir / "attributes.csv",
                   "--multipliers-dir", mult, "--out", tmp_path / "analysis") == 3
        assert capsys.readouterr().err == (
            f"data error: {mult / 'multipliers_N1.csv'}: empty id in row {row!r}\n")

    @pytest.mark.parametrize("unit_id", ["", "  "])
    def test_geojson_feature_named(self, tmp_path, capsys, unit_id):
        doc = json.loads(_grid_geojson(tmp_path / "grid.geojson").read_text())
        doc["features"][2]["properties"]["id"] = unit_id
        path = tmp_path / "units.geojson"
        path.write_text(json.dumps(doc))
        assert run("build-graph", "--geometry", path, "--out", tmp_path / "g") == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: feature 2 has an empty id {unit_id!r}\n")
        assert not (tmp_path / "g").exists()


class TestUnreadableInput:
    """An input that fails to load exits 3, names the file and the line or
    row, and leaves no output directory behind."""

    @pytest.mark.parametrize("command,target,what", [
        ("build-graph", "edges", "edge"), ("fit", "durations", "duration"),
        ("baseline", "durations", "duration"), ("multipliers", "thresholds", "threshold"),
        ("analyze", "attributes", "attribute"),
    ])
    def test_short_row(self, tmp_path, instance_dir, capsys, command, target, what):
        code, path, _ = _run_on_damaged_input(
            tmp_path, instance_dir, command, target, lambda path: _append_row(path, "x")
        )
        assert code == 3
        assert capsys.readouterr().err == f"data error: {path}: malformed {what} row ['x']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,target", [
        ("build-graph", "edges"), ("fit", "durations"), ("multipliers", "thresholds"),
        ("analyze", "attributes"), ("durations", "visits"), ("durations", "quoted visits"),
    ])
    def test_field_past_csv_limit(self, tmp_path, instance_dir, capsys, command, target):
        """csv.reader rejects a field longer than its limit: the file's
        third line here, read by csv.reader in every case (an unquoted
        visits file included, as its line is past the limit)."""
        limit = csv.field_size_limit()

        def put_long_field(path: Path) -> None:
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:2]) + "x" * (limit + 1) + ",1,1,1\n"
                            + "".join(lines[2:]))

        code, path, _ = _run_on_damaged_input(
            tmp_path, instance_dir, command, target, put_long_field
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: line 3: field larger than field limit ({limit})\n"
        )
        assert not (tmp_path / "out").exists()


class TestEmptyNetwork:
    """An edge list with a header and no rows, or a feature collection with
    no features, exits 3 naming the file in every graph command, before any
    output is written."""

    @pytest.mark.parametrize("kind", ["edges", "geometry"])
    @pytest.mark.parametrize("command,inputs", [
        ("build-graph", {}),
        ("fit", {"durations": "id,duration_weeks\n"}),
        ("baseline", {"durations": "id,duration_weeks\n"}),
        ("multipliers", {"thresholds": "id,threshold,is_seed\n"}),
    ])
    def test_no_nodes(self, tmp_path, capsys, command, inputs, kind):
        graph = {"edges": ("edges.csv", "src,dst\n"),
                 "geometry": ("units.geojson", '{"type": "FeatureCollection", "features": []}')}
        files = {kind: graph[kind]}
        files.update((flag, (f"{flag}.csv", text)) for flag, text in inputs.items())
        argv = []
        for flag, (name, text) in files.items():
            (tmp_path / name).write_text(text)
            argv += [f"--{flag}", tmp_path / name]
        assert run(command, *argv, "--out", tmp_path / "out") == 3
        path = tmp_path / graph[kind][0]
        assert capsys.readouterr().err == f"data error: {path}: graph has no nodes\n"
        assert not (tmp_path / "out").exists()


class TestCliImports:
    """No command loads SciPy: it is a test dependency only. The correlation
    p-values use an in-package t tail, and the manifest records no SciPy
    version. Nor does any command load numpy.ma (np.quantile would, through
    np.unique), which costs each process tens of milliseconds.

    Each command loads only the recovnet modules it runs: the package loads
    none, the CLI the ones every command uses, and each handler its stages."""

    SCIPY_REPORT = ("print('loaded:', *(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                    " or m.split('.')[:2] == ['numpy', 'ma']))")
    RECOVNET_REPORT = ("print('loaded:', *sorted(m for m in sys.modules"
                       " if m.split('.')[0] == 'recovnet'))")
    CLI_MODULES = {"recovnet", "recovnet.cli", "recovnet.diffusion", "recovnet.errors",
                   "recovnet.graph", "recovnet.io"}
    # each command's stage modules beyond CLI_MODULES, in pipeline order
    COMMAND_MODULES = {
        "synth": {"synthetic"},
        "build-graph": set(),
        "durations": {"empirical"},
        "fit": {"empirical", "fitting", "ga"},
        "baseline": {"empirical", "fitting"},
        "multipliers": {"ga", "multipliers"},
        "analyze": {"analysis", "empirical"},
    }

    @staticmethod
    def _fresh(lines: list[str]) -> list[str]:
        """Run the lines in one fresh interpreter with `sys` imported; the
        lines of its output that start with 'loaded:'."""
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "\n".join(["import sys", *lines])
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return [line for line in result.stdout.splitlines() if line.startswith("loaded:")]

    @staticmethod
    def _commands(tmp_path) -> dict[str, list[str]]:
        """Every command's arguments, in COMMAND_MODULES order; each reads
        only the outputs of commands before it."""
        synth, fit, mult = tmp_path / "synth", tmp_path / "fit", tmp_path / "mult"
        commands = {
            "synth": ["--nodes", "16", "--rng-seed", "3", "--out", synth],
            "build-graph": ["--geometry", _grid_geojson(tmp_path / "grid.geojson"),
                            "--out", tmp_path / "graph"],
            "durations": ["--visits", _visits_csv(tmp_path / "visits.csv"),
                          "--baseline-start", "0", "--baseline-end", "20",
                          "--recovery-start", "27", "--out", tmp_path / "durations"],
            "fit": ["--edges", synth / "edges.csv", "--durations", synth / "durations.csv",
                    "--max-iterations", "5", "--out", fit],
            "baseline": ["--edges", synth / "edges.csv", "--durations",
                         synth / "durations.csv", "--runs", "20", "--out", tmp_path / "baseline"],
            "multipliers": ["--edges", synth / "edges.csv", "--thresholds",
                            fit / "thresholds.csv", "--sizes", "1,2", "--max-iterations", "3",
                            "--out", mult],
            "analyze": ["--thresholds", fit / "thresholds.csv",
                        "--attributes", synth / "attributes.csv", "--edges", synth / "edges.csv",
                        "--durations", synth / "durations.csv", "--multipliers-dir", mult,
                        "--out", tmp_path / "analysis"],
        }
        return {command: [command, *map(str, argv)] for command, argv in commands.items()}

    def test_import_loads_no_scipy(self):
        assert self._fresh(["from recovnet.cli import main", self.SCIPY_REPORT]) == ["loaded:"]

    def test_every_command_loads_no_scipy(self, tmp_path):
        steps = [f"assert main({argv!r}) == 0" for argv in self._commands(tmp_path).values()]
        lines = ["from recovnet.cli import main", self.SCIPY_REPORT]
        lines += [line for step in steps for line in (step, self.SCIPY_REPORT)]
        assert self._fresh(lines) == ["loaded:"] * (len(steps) + 1)
        assert (tmp_path / "analysis" / "analysis_report.json").exists()

    def test_package_import_loads_no_module(self):
        assert self._fresh(["import recovnet", self.RECOVNET_REPORT]) == ["loaded: recovnet"]

    def test_cli_imports_no_platform(self):
        """The manifest reads the Python version from sys.version. NumPy loads
        platform itself (numpy.lib._utils_impl), so the check starts after
        NumPy's import."""
        lines = ["import numpy", "sys.modules.pop('platform', None)", "import recovnet.cli",
                 "print('loaded:', *(m for m in ('platform',) if m in sys.modules))"]
        assert self._fresh(lines) == ["loaded:"]

    def test_cli_import_loads_no_stage(self):
        loaded = self._fresh(["import recovnet.cli", self.RECOVNET_REPORT])
        assert loaded == ["loaded: " + " ".join(sorted(self.CLI_MODULES))]

    def test_each_command_loads_only_its_modules(self, tmp_path):
        commands = self._commands(tmp_path)
        assert list(commands) == list(self.COMMAND_MODULES)
        for command, argv in commands.items():
            loaded = self._fresh(["from recovnet.cli import main",
                                  f"assert main({argv!r}) == 0", self.RECOVNET_REPORT])
            expected = self.CLI_MODULES | {f"recovnet.{m}" for m in self.COMMAND_MODULES[command]}
            assert loaded == ["loaded: " + " ".join(sorted(expected))], command
        assert (tmp_path / "analysis" / "multiplier_attributes.csv").exists()


class TestProcessEntry:
    """`python -m recovnet` ends its process from an atexit handler, without
    the interpreter's teardown. Each case runs in a fresh process and is
    compared with the plain entry `sys.exit(main())` or with main() run in
    this process."""

    PLAIN = "import sys; from recovnet.cli import main; sys.exit(main())"
    SRC = str(Path(__file__).resolve().parent.parent / "src")

    # runs the package's __main__ as perfbench/tracing.py does; argv[1] is a
    # file that the finally writes, the rest the command's arguments
    HARNESS = ("import runpy, sys\n"
               "marker = sys.argv[1]\n"
               "sys.argv = ['recovnet', *sys.argv[2:]]\n"
               "try:\n"
               "    runpy.run_module('recovnet', run_name='__main__', alter_sys=True)\n"
               "finally:\n"
               "    with open(marker, 'w') as handle:\n"
               "        handle.write('ran')\n")

    def _python(self, args, **streams) -> subprocess.CompletedProcess:
        """`python args` with this tree's package first on PYTHONPATH; stdout
        and stderr are captured unless streams route them."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
        return subprocess.run([sys.executable, *map(str, args)], env=env, text=True, **streams)

    def _spawn(self, argv, plain: bool = False, **streams) -> subprocess.CompletedProcess:
        """argv run by `python -m recovnet`, or by the plain entry."""
        return self._python([*(["-c", self.PLAIN] if plain else ["-m", "recovnet"]), *argv],
                            **streams)

    @staticmethod
    def _cases(tmp_path, label: str) -> dict:
        bad = tmp_path / "self_loop.csv"
        bad.write_text("src,dst\na,a\n")
        return {
            0: ["synth", "--nodes", 16, "--rng-seed", 3, "--out", tmp_path / label],
            1: ["frobnicate"],
            2: ["fit", "--out", tmp_path / f"{label}_fit"],
            3: ["build-graph", "--edges", bad, "--out", tmp_path / f"{label}_graph"],
        }

    def test_exit_codes_and_messages_unchanged(self, tmp_path):
        plain, entry = self._cases(tmp_path, "plain"), self._cases(tmp_path, "entry")
        for code in plain:
            expected, got = self._spawn(plain[code], plain=True), self._spawn(entry[code])
            assert expected.returncode == got.returncode == code
            assert (got.stdout, got.stderr) == (expected.stdout, expected.stderr), code
            assert got.stderr if code else got.stdout

    def test_stdout_equals_in_process_output(self, tmp_path, instance_dir, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help text's width, in both processes
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # buffered, a line can be lost

        def search(out: str) -> list:
            return ["multipliers", "--edges", instance_dir / "edges.csv", "--thresholds",
                    instance_dir / "planted_thresholds.csv", "--sizes", "1,2",
                    "--max-iterations", 3, "--out", tmp_path / out]

        for command in (lambda _: ["--help"], lambda _: ["fit", "--help"], search):
            assert run(*command("in_process")) == 0
            expected = capsys.readouterr().out.splitlines()
            assert len(expected) > 1
            assert self._spawn(command("piped")).stdout.splitlines() == expected
            with open(tmp_path / "stdout.txt", "w") as handle:
                assert self._spawn(command("to_file"), stdout=handle).returncode == 0
            assert (tmp_path / "stdout.txt").read_text().splitlines() == expected

    def test_fit_warning_reaches_stderr(self, tmp_path, instance_dir):
        argv = ["baseline", "--edges", instance_dir / "edges.csv", "--durations",
                instance_dir / "durations.csv", "--seed-cutoff", 0.01, "--runs", 5,
                "--out", tmp_path / "b"]
        result = self._spawn(argv)
        assert result.returncode == 0
        assert "UserWarning: no node recovers faster than the seed cutoff" in result.stderr

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("stdout", ["closed", "full", "broken_pipe"])
    def test_unwritable_stdout_exits_as_plain_entry(self, tmp_path, monkeypatch, stdout,
                                                    buffered):
        """With stdout closed (`>&-`), on /dev/full, or a pipe with no reader,
        the process exits as the plain entry's does. Buffered, a full or
        broken stdout fails only as the handler flushes it, which leaves the
        exit to Python to report."""
        if stdout == "full" and not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        if buffered:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        else:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        results = []
        for label in ("plain", "entry"):
            argv, plain = self._cases(tmp_path, label)[0], label == "plain"
            if stdout == "closed":
                results.append(self._spawn(argv, plain, stdout=None,
                                           preexec_fn=lambda: os.close(1)))
            elif stdout == "full":
                with open("/dev/full", "w") as full:
                    results.append(self._spawn(argv, plain, stdout=full))
            else:
                read, write = os.pipe()
                os.close(read)
                try:
                    results.append(self._spawn(argv, plain, stdout=write))
                finally:
                    os.close(write)
        expected, got = results
        assert (got.returncode, got.stderr) == (expected.returncode, expected.stderr)
        if stdout != "closed":
            assert got.returncode == (120 if buffered else 3), got.stderr

    @pytest.mark.parametrize("code", [0, 2])
    def test_harness_finally_runs(self, tmp_path, code):
        """A harness shaped like perfbench/tracing.py gets its finally run
        and exits with the command's code."""
        marker = tmp_path / "finally.txt"
        argv = self._cases(tmp_path, "entry")[code]
        result = self._python(["-c", self.HARNESS, marker, *argv])
        assert result.returncode == code, result.stderr
        assert marker.read_text() == "ran"

    def test_exception_after_the_entry_exits_as_python_reports_it(self, tmp_path):
        """An exception that reaches the top level after run() raised, here
        from the harness's finally, ends the process as Python reports it."""
        harness = self.HARNESS + "    raise RuntimeError('harness fault')\n"
        argv = self._cases(tmp_path, "entry")[0]
        result = self._python(["-c", harness, tmp_path / "finally.txt", *argv])
        assert result.returncode == 1
        assert result.stderr.rstrip().endswith("RuntimeError: harness fault")

    def test_interrupt_exits_as_python_reports_it(self):
        """A main() that does not return (a KeyboardInterrupt) leaves the
        exit to Python."""
        interrupted = ("import recovnet.cli as cli\n"
                       "def main():\n"
                       "    raise KeyboardInterrupt\n"
                       "cli.main = main\n"
                       "cli.run()\n")
        got, expected = (self._python(["-c", code])
                         for code in (interrupted, "raise KeyboardInterrupt"))
        assert got.returncode == expected.returncode != 0
        assert got.stderr.rstrip().endswith("KeyboardInterrupt")

    def test_script_enters_through_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(self.SRC).parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"recovnet": "recovnet.cli:run"}

    def test_main_registers_no_atexit_handler(self, tmp_path, monkeypatch):
        import atexit

        registered = []
        monkeypatch.setattr(atexit, "register", lambda *args: registered.append(args))
        for argv in self._cases(tmp_path, "in_process").values():
            run(*argv)
        assert registered == []
        monkeypatch.setattr(sys, "argv", ["recovnet", "frobnicate"])
        with pytest.raises(SystemExit) as raised:
            cli.run()
        assert raised.value.code == 1 and len(registered) == 1


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


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


class TestTablesAgainstOracle:
    """Weekly state tables are built only where they are written: each must
    equal the dict oracle run on the thresholds the pipeline wrote."""

    def test_trajectories_and_simulated_curve(self, tmp_path):
        synth, fit, analysis = tmp_path / "synth", tmp_path / "fit", tmp_path / "analysis"
        edges, durations = synth / "edges.csv", synth / "durations.csv"
        assert run("synth", "--nodes", 30, "--kind", "perturbed_grid", "--seed-fraction", 0.1,
                   "--threshold-low", 0.3, "--threshold-high", 0.9, "--rng-seed", 4,
                   "--out", synth) == 0
        assert run("fit", "--edges", edges, "--durations", durations, "--max-iterations", 20,
                   "--rng-seed", 1, "--out", fit) == 0
        assert run("analyze", "--thresholds", fit / "thresholds.csv",
                   "--attributes", synth / "attributes.csv", "--edges", edges,
                   "--durations", durations, "--out", analysis) == 0

        neighbors: dict[str, list[str]] = {}
        for src, dst in _rows(edges):
            neighbors.setdefault(src, []).append(dst)
            neighbors.setdefault(dst, []).append(src)

        def oracle(thresholds_path):
            thresholds = {node: float(value) for node, value, _ in _rows(thresholds_path)}
            return oracles.naive_diffusion(neighbors, thresholds, dict.fromkeys(neighbors, 0))

        for directory, thresholds_path in ((synth, synth / "planted_thresholds.csv"),
                                           (fit, fit / "thresholds.csv")):
            states = oracle(thresholds_path)
            written = _rows(directory / "trajectory.csv")
            assert len(written) == len(neighbors) * len(states)
            for node, week, state in written:
                assert int(state) == states[int(week)][node], (directory.name, node, week)

        states = oracle(fit / "thresholds.csv")
        assert 0 < sum(states[-1].values()) < len(neighbors)  # a curve with some shape
        observed = [float(d) for _, d in _rows(durations)]
        curve = [list(map(int, row)) for row in _rows(analysis / "recovery_curves.csv")]
        assert [row[0] for row in curve] == list(range(15))
        assert [row[1] for row in curve] == [sum(d <= t for d in observed) for t in range(15)]
        assert [row[2] for row in curve] == [sum(state.values()) for state in states]


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
                        "multipliers_dir": str(mult_dir)},
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
        ("multipliers", {"enumeration_cap": 0}, "'enumeration_cap' must be >= 1, got 0"),
        ("analyze", {"include_seeds": "no"}, "include_seeds"),
        ("synth", {"nodes": 9}, "node_count"),
        ("durations", {"baseline_start": "xx"}, "baseline_start"),
        ("durations", {"ratio": [1]}, "config key 'ratio': expected a finite number, got [1]"),
        ("durations", {"ratio": True}, "config key 'ratio': expected a finite number, got True"),
        ("durations", {"out": 5}, "config key 'out': expected a string, got 5"),
        ("multipliers", {"sizes": []}, "config key 'sizes': expected a list of set sizes, got []"),
        ("baseline", {"runs": 2.5}, "config key 'runs': expected an integer, got 2.5"),
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
            "baseline": ["--edges", instance_dir / "edges.csv",
                         "--durations", instance_dir / "durations.csv"],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run(command, *inputs[command], "--config", path, "--out", tmp_path / "x") == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,setting,named", [
        ("fit", {"stage1_population_size": 1},
         "stage1_population_size (--population-size) must be >= 2, got 1"),
        ("fit", ["--elitism-count", 10],
         "stage1_elitism_count (--elitism-count) must be in [0, 10), got 10"),
        ("fit", {"stage1_population_size": 4, "stage1_elitism_count": 5},
         "stage1_elitism_count (--elitism-count) must be in [0, 4), got 5"),
        ("multipliers", ["--elitism-count", 10],
         "stage2_elitism_count (--elitism-count) must be in [0, 10), got 10"),
    ])
    def test_ga_setting_error_names_key(self, tmp_path, instance_dir, capsys, command, setting,
                                        named):
        """A setting that only GaConfig rejects names the command's config
        key and the flag: fit's through a config file, multipliers' a flag."""
        inputs = {"fit": ["--durations", instance_dir / "durations.csv"],
                  "multipliers": ["--thresholds", instance_dir / "planted_thresholds.csv",
                                  "--sizes", 1]}[command]
        if isinstance(setting, dict):
            (tmp_path / "run.json").write_text(json.dumps(setting))
            setting = ["--config", tmp_path / "run.json"]
        capsys.readouterr()
        assert run(command, "--edges", instance_dir / "edges.csv", *inputs, *setting,
                   "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,setting,named", [
        ("multipliers", ["--brute-force", "--population-size", 1],
         "stage2_population_size (--population-size) must be >= 2, got 1"),
        ("multipliers", ["--brute-force", "--tournament-size", 1],
         "stage2_tournament_size (--tournament-size) must be >= 2, got 1"),
        ("analyze", ["--horizon", 0], "horizon must be >= 1, got 0"),
        ("analyze", ["--first-update-week", 99], "first_update_week must be in [1, 14], got 99"),
        ("build-graph", ["--snap-tolerance", -1], "snap_tolerance must be finite and >= 0"),
        ("fit", ["--snap-tolerance", -1], "snap_tolerance must be finite and >= 0"),
    ])
    def test_setting_checked_where_the_run_does_not_use_it(
        self, tmp_path, instance_dir, capsys, command, setting, named
    ):
        """A setting is checked on every run of its command, also where that
        run does not use it: the GA settings under --brute-force, the
        schedule without recovery curves, the contiguity rule with --edges."""
        inputs = {
            "multipliers": ["--edges", instance_dir / "edges.csv",
                            "--thresholds", instance_dir / "planted_thresholds.csv",
                            "--sizes", 1],
            "analyze": ["--thresholds", instance_dir / "planted_thresholds.csv",
                        "--attributes", instance_dir / "attributes.csv"],
            "build-graph": ["--edges", instance_dir / "edges.csv"],
            "fit": ["--edges", instance_dir / "edges.csv",
                    "--durations", instance_dir / "durations.csv", "--max-iterations", 2],
        }[command]
        capsys.readouterr()
        assert run(command, *inputs, *setting, "--out", tmp_path / "x") == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,setting,named", [
        ("fit", ["--horizon", 0], "horizon must be >= 1, got 0"),
        ("baseline", ["--runs", 0], "--runs must be >= 1, got 0"),
        ("baseline", ["--first-update-week", 99], "first_update_week must be in [1, 14], got 99"),
        ("multipliers", ["--horizon", 0], "horizon must be >= 1, got 0"),
    ])
    def test_setting_checked_before_input_is_read(self, tmp_path, capsys, command, setting,
                                                  named):
        """A bad setting exits 2 and names itself before any input is read,
        so a malformed input file, which alone exits 3, is not reached."""
        malformed = tmp_path / "edges.csv"
        malformed.write_text("src,dst\nx\n")
        table = "--thresholds" if command == "multipliers" else "--durations"
        inputs = ["--edges", malformed, table, malformed, "--out", tmp_path / "x"]
        assert run(command, *inputs) == 3
        capsys.readouterr()
        assert run(command, *inputs, *setting) == 2
        assert capsys.readouterr().err == f"configuration error: {named}\n"
        assert not (tmp_path / "x").exists()

    def test_integral_float_config_value_is_an_integer(self, tmp_path, instance_dir):
        """A JSON 2.0 is the integer 2."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"runs": 2.0}))
        out = tmp_path / "baseline"
        assert run("baseline", "--edges", instance_dir / "edges.csv",
                   "--durations", instance_dir / "durations.csv",
                   "--config", path, "--out", out) == 0
        assert json.loads((out / "baseline.json").read_text())["runs"] == 2
        assert len((out / "baseline_losses.csv").read_text().splitlines()) == 3

    def test_other_stage_key_accepted(self, tmp_path, instance_dir):
        """One config file can serve fit and multipliers."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"stage1_max_iterations": 4, "stage2_max_iterations": 3}))
        out = tmp_path / "fit"
        assert run("fit", "--edges", instance_dir / "edges.csv",
                   "--durations", instance_dir / "durations.csv",
                   "--config", path, "--out", out) == 0
        assert json.loads((out / "fit_report.json").read_text())["generations"] == 4

    def test_analyze_ignores_seed_cutoff_key(self, tmp_path, instance_dir, capsys):
        """A config file shared with fit may hold seed_cutoff; analyze has no
        flag for it and runs unchanged."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed_cutoff": 2.75}))
        common = ["analyze", "--thresholds", instance_dir / "planted_thresholds.csv",
                  "--attributes", instance_dir / "attributes.csv",
                  "--edges", instance_dir / "edges.csv",
                  "--durations", instance_dir / "durations.csv"]
        assert run(*common, "--config", path, "--out", tmp_path / "a") == 0
        assert run(*common, "--out", tmp_path / "b") == 0
        for name in ("analysis_report.json", "recovery_curves.csv", "tertile_members.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        settings = json.loads((tmp_path / "a" / "manifest.json").read_text())["settings"]
        assert "seed_cutoff" not in settings
        capsys.readouterr()
        assert run(*common, "--seed-cutoff", 2.75, "--out", tmp_path / "c") == 1
        assert "--seed-cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", [
        (["--sizes", "2,2"], "--sizes lists 2 more than once"),
        (["--sizes", "0,1"], "--sizes must be >= 1, got 0"),
        (["--rng-seed", "-1"], "--rng-seed must be >= 0, got -1"),
        (["--brute-force", "--enumeration-cap", "0"], "--enumeration-cap must be >= 1, got 0"),
        (["--brute-force", "--enumeration-cap", "-5"], "--enumeration-cap must be >= 1, got -5"),
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

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,flags", [
        ("fit", ["--max-iterations", 2]), ("baseline", ["--runs", 2])])
    def test_zero_seed_cutoff_names_key(self, tmp_path, instance_dir, capsys, command, flags,
                                        via):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed_cutoff": 0}))
        setting = ["--seed-cutoff", 0] if via == "flag" else ["--config", config]
        out = tmp_path / "out"
        assert run(command, "--edges", instance_dir / "edges.csv",
                   "--durations", instance_dir / "durations.csv", *flags, *setting,
                   "--out", out) == 2
        assert "seed_cutoff must be > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("cell", ["yes", "-1"])
    def test_set_file_flag_other_than_0_or_1(self, tmp_path, instance_dir, mult_dir, capsys,
                                             cell):
        set_file = mult_dir / "multipliers_N1.csv"
        node = _rewrite_row(set_file, 0, 1, cell)
        assert self._analyze(tmp_path, instance_dir, mult_dir) == 3
        assert capsys.readouterr().err == (
            f"data error: {set_file}: selected must be 0 or 1, got {cell!r} "
            f"in row [{node!r}, {cell!r}]\n")

    def test_set_file_repeated_id_named(self, tmp_path, instance_dir, mult_dir, capsys):
        set_file = mult_dir / "multipliers_N1.csv"
        lines = set_file.read_text().splitlines()
        lines.insert(4, lines[2])
        set_file.write_text("\n".join(lines) + "\n")
        assert self._analyze(tmp_path, instance_dir, mult_dir) == 3
        assert capsys.readouterr().err == (
            f"data error: {set_file}: a second multiplier row for its node "
            f"in row {lines[2].split(',')!r}\n")
        assert not (tmp_path / "analysis").exists()

    def test_set_file_disagreeing_with_summary(self, tmp_path, instance_dir, mult_dir, capsys):
        set_file = mult_dir / "multipliers_N1.csv"
        set_file.write_text(set_file.read_text().replace(",0\n", ",1\n", 1))
        assert self._analyze(tmp_path, instance_dir, mult_dir) == 3
        assert "multipliers_N1.csv" in capsys.readouterr().err

    def test_summary_round_trip(self, tmp_path, instance_dir, mult_dir):
        nodes = io.read_edge_list(instance_dir / "edges.csv").nodes
        results = io.read_multiplier_results(mult_dir, nodes)
        assert [cells[0] for cells, _ in results] == [1, 2]
        for (size, *_), positions in results:
            ids, selected = io.read_multiplier_set(mult_dir / f"multipliers_N{size}.csv")
            assert [nodes[i] for i in positions] == [
                node for node, chosen in zip(ids, selected) if chosen]
        # the rows, less the method column, give back the summary's bytes
        lines = (mult_dir / "multipliers_summary.csv").read_text().splitlines()
        io.write_table(tmp_path / "summary.csv", ["size", *lines[0].split(",")[2:]],
                       (cells for cells, _ in results))
        assert (tmp_path / "summary.csv").read_text().splitlines() == [
            ",".join(line.split(",")[:1] + line.split(",")[2:]) for line in lines]

    def test_undefined_increment_rate_end_to_end(self, tmp_path):
        """Nothing recovers unforced when every threshold is 1 and no node is
        a seed, so each rate cell is blank in both summaries."""
        instance = tmp_path / "instance"
        assert run("synth", "--nodes", 30, "--rng-seed", 3, "--out", instance) == 0
        ids, _, _ = io.read_thresholds(instance / "planted_thresholds.csv")
        thresholds = tmp_path / "ones.csv"
        io.write_thresholds(ids, np.ones(len(ids)), np.zeros(len(ids), bool), thresholds)
        mult = tmp_path / "mult"
        assert run("multipliers", "--edges", instance / "edges.csv", "--thresholds", thresholds,
                   "--sizes", "1,2", "--max-iterations", 3, "--out", mult) == 0
        summary = (mult / "multipliers_summary.csv").read_text().splitlines()
        assert summary[1:] == ["1,ga,1,0,", "2,ga,2,0,"]
        out = tmp_path / "analysis"
        assert run("analyze", "--thresholds", thresholds,
                   "--attributes", instance / "attributes.csv",
                   "--multipliers-dir", mult, "--out", out) == 0
        rates = (out / "increment_rates.csv").read_text().splitlines()
        assert rates[1:] == ["1,1,0,", "2,2,0,"]
        assert rates == [",".join(line.split(",")[:1] + line.split(",")[2:]) for line in summary]

    def test_durations_for_absent_nodes(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "durations.csv"
        path.write_text(path.read_text() + "zz,5.0\n")
        assert run("baseline", "--edges", instance_dir / "edges.csv",
                   "--durations", path, "--runs", 5, "--out", tmp_path / "b") == 3
        err = capsys.readouterr().err
        assert "zz" in err and "--geometry" in err


def _append_row(path: Path, row: str) -> Path:
    path.write_text(path.read_text() + row + "\n")
    return path


def _drop_row(path: Path, row_index: int) -> str:
    """Remove one data row (0-based, header excluded); returns its id."""
    lines = path.read_text().splitlines()
    node = lines[row_index + 1].split(",")[0]
    path.write_text("\n".join(lines[: row_index + 1] + lines[row_index + 2:]) + "\n")
    return node


class TestNodeTables:
    """Every per-node table is put in node order by one function: a table
    that misses a node or holds another, or a row with a bad value, exits 3
    naming the file and the row or node, before any output is written."""

    @pytest.fixture
    def mult_dir(self, tmp_path, instance_dir):
        out = tmp_path / "mult"
        assert run("multipliers", "--edges", instance_dir / "edges.csv",
                   "--thresholds", instance_dir / "planted_thresholds.csv",
                   "--sizes", "1,2", "--brute-force", "--out", out) == 0
        return out

    def _analyze(self, tmp_path, instance_dir, *flags, thresholds=None, attributes=None,
                 durations=None) -> int:
        return run(
            "analyze",
            "--thresholds", thresholds or instance_dir / "planted_thresholds.csv",
            "--attributes", attributes or instance_dir / "attributes.csv",
            "--edges", instance_dir / "edges.csv",
            "--durations", durations or instance_dir / "durations.csv",
            *flags, "--out", tmp_path / "analysis",
        )

    def test_extra_attribute_row_named(self, tmp_path, instance_dir, mult_dir, capsys):
        path = _append_row(instance_dir / "attributes.csv", "zz,30000.0,60000.0,20.0,1.0")
        assert self._analyze(tmp_path, instance_dir, "--multipliers-dir", mult_dir) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: 1 row(s) for ids not among the 16 nodes: zz\n"
        )
        assert not (tmp_path / "analysis").exists()

    def test_partial_flood_column_named(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "attributes.csv"
        node = _rewrite_row(path, 5, 4, "")
        assert self._analyze(tmp_path, instance_dir) == 3
        err = capsys.readouterr().err
        assert f"{path}: no flood_extent where other rows give one" in err
        assert f"in row ['{node}', " in err

    def test_minority_out_of_range_named(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "attributes.csv"
        node = _rewrite_row(path, 7, 3, "150")
        assert self._analyze(tmp_path, instance_dir) == 3
        err = capsys.readouterr().err
        assert f"{path}: minority_pct outside [0, 100] in row ['{node}', " in err
        assert "'150'" in err

    def test_repeated_threshold_row_named(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "planted_thresholds.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + [lines[2]] + lines[4:]) + "\n")
        assert self._analyze(tmp_path, instance_dir) == 3
        row = lines[2].split(",")
        assert capsys.readouterr().err == (
            f"data error: {path}: a second threshold row for its node in row {row!r}\n"
        )
        assert not (tmp_path / "analysis").exists()

    def test_fifth_attribute_column_named(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "attributes.csv"
        lines = path.read_text().splitlines()
        header = lines[0].replace("flood_extent", "households")
        path.write_text("\n".join([header] + lines[1:]) + "\n")
        assert self._analyze(tmp_path, instance_dir) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: column 5 must be 'flood_extent' or unnamed, "
            f"got header {header!r}\n"
        )
        assert not (tmp_path / "analysis").exists()

    def test_thresholds_one_node_short(self, tmp_path, instance_dir, capsys):
        path = instance_dir / "planted_thresholds.csv"
        node = _drop_row(path, 9)
        expected = f"data error: {path}: no row for 1 of the 16 nodes: {node}\n"
        assert self._analyze(tmp_path, instance_dir) == 3
        assert capsys.readouterr().err == expected
        assert run("multipliers", "--edges", instance_dir / "edges.csv", "--thresholds", path,
                   "--sizes", 1, "--brute-force", "--out", tmp_path / "mult") == 3
        assert capsys.readouterr().err == expected

    def test_multiplier_set_of_another_network(self, tmp_path, instance_dir, mult_dir, capsys):
        path = _append_row(mult_dir / "multipliers_N2.csv", "zz,0")
        assert self._analyze(tmp_path, instance_dir, "--multipliers-dir", mult_dir) == 3
        assert f"{path}: 1 row(s) for ids not among the 16 nodes: zz" in capsys.readouterr().err

    @pytest.mark.parametrize("value,flags,rule", [
        ("20", [], "must be capped at 14 weeks"), ("0", [], "must be strictly positive"),
        # every other duration of the instance is at most 8 weeks
        ("14", ["--horizon", 10], "must be capped at 10 weeks"),
    ])
    @pytest.mark.parametrize("command", ["fit", "analyze"])
    def test_out_of_range_duration_names_node(self, tmp_path, instance_dir, capsys,
                                              command, value, flags, rule):
        path = instance_dir / "durations.csv"
        first = _rewrite_row(path, 6, 1, value)
        _rewrite_row(path, 11, 1, value)
        if command == "fit":
            code = run("fit", "--edges", instance_dir / "edges.csv", "--durations", path,
                       "--max-iterations", 2, *flags, "--out", tmp_path / "fit")
        else:
            code = self._analyze(tmp_path, instance_dir, *flags, durations=path)
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: durations {rule}; node {first!r} has {value}\n"
        )

    @pytest.mark.parametrize("rows,flags,named", [
        ("a,0.0,1\nb,0.0,1\n", [],
         "no free nodes to summarize; its 2 seed node(s) count with --include-seeds"),
        ("", [], "no nodes to summarize"),
        ("", ["--include-seeds"], "no nodes to summarize"),
    ])
    def test_no_nodes_to_summarize(self, tmp_path, instance_dir, capsys, rows, flags, named):
        path = tmp_path / "thresholds.csv"
        path.write_text("id,threshold,is_seed\n" + rows)
        assert run("analyze", "--thresholds", path, "--attributes", instance_dir / "attributes.csv",
                   *flags, "--out", tmp_path / "analysis") == 3
        assert capsys.readouterr().err == f"data error: {path}: {named}\n"


@pytest.fixture(scope="module")
def analysis_run(tmp_path_factory):
    """A pipeline run up to analyze: the analyze command for a given
    attributes file, and the instance directory."""
    root = tmp_path_factory.mktemp("shuffle")
    synth, fit, mult = (root / name for name in ("synth", "fit", "mult"))
    assert run("synth", "--nodes", 30, "--rng-seed", 8, "--out", synth) == 0
    assert run("fit", "--edges", synth / "edges.csv", "--durations", synth / "durations.csv",
               "--max-iterations", 20, "--out", fit) == 0
    assert run("multipliers", "--edges", synth / "edges.csv", "--thresholds",
               fit / "thresholds.csv", "--sizes", "1,2,29", "--max-iterations", 5,
               "--out", mult) == 0

    def analyze(attributes: Path, out: Path) -> dict[str, bytes]:
        """Every table analyze writes, by file name."""
        assert run("analyze", "--thresholds", fit / "thresholds.csv", "--attributes", attributes,
                   "--edges", synth / "edges.csv", "--durations", synth / "durations.csv",
                   "--multipliers-dir", mult, "--out", out) == 0
        return {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}

    return analyze, synth


class TestAttributeOrder:
    """The attributes are put in the thresholds' node order once, so the
    order of their rows changes no analyze table."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_shuffled_rows_same_tables(self, analysis_run, random):
        analyze, synth = analysis_run
        header, *rows = (synth / "attributes.csv").read_text().splitlines(keepends=True)
        with tempfile.TemporaryDirectory() as tmp:
            expected = analyze(synth / "attributes.csv", Path(tmp) / "unshuffled")
            random.shuffle(rows)
            shuffled = Path(tmp) / "attributes.csv"
            shuffled.write_text(header + "".join(rows))
            assert analyze(shuffled, Path(tmp) / "shuffled") == expected
        assert len(expected) == 6
