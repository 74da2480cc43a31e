"""tools/bench_kernel.py's inputs on this tree: instance and build run on two
small synth directories, with no timing, so that an API change that breaks
the tool's comparison of two trees fails here."""

from __future__ import annotations

import contextlib
import importlib.util
import io as stdio
import sys
from pathlib import Path

import numpy as np
import pytest

import recovnet
from recovnet import align_rows, io, run_diffusion
from recovnet.cli import main

ROOT = Path(__file__).resolve().parent.parent
_writes_bytecode = sys.dont_write_bytecode
spec = importlib.util.spec_from_file_location("bench_kernel", ROOT / "tools" / "bench_kernel.py")
bench_kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_kernel)
sys.dont_write_bytecode = _writes_bytecode  # the tool sets it for its own process


def synth(directory: Path, nodes: int, seed: int) -> Path:
    argv = ["synth", "--kind", "perturbed_grid", "--nodes", str(nodes), "--rng-seed", str(seed),
            "--out", str(directory)]
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(argv) == 0
    return directory


@pytest.fixture(scope="module")
def directories(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_inputs")
    return synth(tmp / "paper", 30, 1), synth(tmp / "small", 12, 2)


def test_instance_is_in_node_order(directories):
    paper, _ = directories
    graph, (ids, durations), planted = bench_kernel.instance(recovnet, paper)
    threshold_ids, values, _ = io.read_thresholds(paper / "planted_thresholds.csv")
    rows = align_rows(threshold_ids, graph.nodes, "planted_thresholds.csv")
    assert planted.tolist() == values[rows].tolist()
    read_ids, read = io.read_durations(paper / "durations.csv")
    assert ids == read_ids
    assert durations.dtype == np.float64 and durations.tolist() == read.tolist()


def test_build_gives_this_tree_arrays(directories):
    s = bench_kernel.build(recovnet, *directories)
    assert s.tree is recovnet and s.graph.n == 30
    for problem in (s.multipliers, *s.stage2.values()):
        assert isinstance(problem.thresholds, np.ndarray)
    assert s.multipliers.thresholds is s.planted
    assert s.multipliers.unforced_weeks.tolist() == run_diffusion(s.graph, s.planted).tolist()
    drawn = s.stage2["paper"].thresholds
    assert np.all(drawn[s.problem.seed_mask] == 0.0)
    assert np.all((drawn >= 0.0) & (drawn < 1.0))
    assert s.stage2["small"].graph.n == 12


def test_baseline_losses_are_the_pairs_second_item(directories):
    """random_baseline returns (summary, losses); the helper gives the losses."""
    s = bench_kernel.build(recovnet, *directories)
    losses = bench_kernel.baseline_losses(recovnet, s.problem, 7)
    _, expected = recovnet.random_baseline(s.problem, 7, rng_seed=bench_kernel.SEED)
    assert np.array_equal(losses, expected)


def test_member_ids_from_either_result_form():
    """A set as node positions (this tree) and as sorted ids (trees before
    positions) reads as the same sorted ids."""
    graph = recovnet.SpatialGraph(["c", "a", "b"], [], [])
    assert bench_kernel.member_ids(graph, np.array([0, 1])) == ("a", "c")
    assert bench_kernel.member_ids(graph, ("a", "c")) == ("a", "c")
