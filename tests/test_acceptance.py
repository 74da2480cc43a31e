"""Acceptance suite: one test per numbered criterion, each enforced at its
stated tolerance and reporting a PASS/FAIL line (run with -s to see them)."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import forced_weeks, graph_of, polygons, random_graph, square_grid
from recovnet import (
    ContiguityRule,
    GaConfig,
    MultiplierProblem,
    RealVectorEncoding,
    SynthSpec,
    brute_force_multipliers,
    build_contiguity_graph,
    build_fit_problem,
    durations_to_weeks,
    fit_thresholds,
    generate_instance,
    graph_metrics,
    increment_rate,
    random_baseline,
    recovered_counts,
    run_diffusion,
    run_ga,
    search_multipliers,
    zero_one_loss,
)
from recovnet.cli import main


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_graph_metrics():
    rng = np.random.default_rng(0)
    nodes = [f"v{i}" for i in range(2010)]
    edges = set()
    while len(edges) < 6079:
        i, j = rng.integers(2010, size=2)
        if i != j:
            edges.add((nodes[min(i, j)], nodes[max(i, j)]))
    metrics = graph_metrics(graph_of(nodes, sorted(edges)))
    k, d = metrics["avg_degree"], metrics["density"]
    ok = abs(k - 6.049) <= 0.001 and abs(d - 0.00301) <= 0.00001
    report(1, ok, f"n=2010 m=6079 gives k={k:.4f} d={d:.6f}")


def test_criterion_02_contiguity_oracle():
    units = square_grid(3, 3)
    queen = set(build_contiguity_graph(polygons(units), ContiguityRule("queen")).edges)
    rook = set(build_contiguity_graph(polygons(units), ContiguityRule("rook")).edges)
    bishop = set(build_contiguity_graph(polygons(units), ContiguityRule("bishop")).edges)
    queen_o, rook_o, bishop_o = oracles.contiguity_edges(units)
    ok = (
        len(queen) == 20 and len(rook) == 12 and len(bishop) == 8
        and queen == rook | bishop and not rook & bishop
        and queen == queen_o and rook == rook_o and bishop == bishop_o
    )
    report(2, ok, f"3x3 grid: queen={len(queen)} rook={len(rook)} bishop={len(bishop)}, "
                  "matching the pairwise geometric oracle")


def test_criterion_03_diffusion_correctness():
    g = graph_of(["A", "B", "C"], [("A", "B"), ("B", "C")])
    weeks = (15 - run_diffusion(g, np.array([0.0, 0.5, 1.0]))).tolist()
    ok = weeks == [3, 4, 5]

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        graph = random_graph(rng, n, edge_prob=0.3)
        values = rng.random(n)
        initial = rng.random(n) < 0.25
        first = forced_weeks(graph, values, initial)
        second = forced_weeks(graph, values, initial.copy())
        ok = ok and np.array_equal(first, second)
        reference = oracles.recovered_weeks(oracles.naive_diffusion(
            {u: sorted(graph.neighbors(u)) for u in graph.nodes},
            dict(zip(graph.nodes, values)),
            dict(zip(graph.nodes, initial.astype(int))),
        ))
        ok = ok and first.tolist() == [reference[u] for u in graph.nodes]
        if not ok:
            break
    report(3, ok, f"path recovers at weeks {weeks}; determinism and the dict oracle's "
                  "recovered weeks hold on 1000 random instances")


def test_criterion_04_loss_correctness():
    def one_node(week):
        """Recovered weeks of one node first recovering at `week` (0 = never)."""
        return np.array([15 - week if week else 0])

    hand_cases = [(3, 6, 3), (6, 3, 3), (1, 14, 13), (5, 0, 10), (2, 9, 7)]
    ok = all(
        zero_one_loss(one_node(emp), one_node(sim)) == expected
        for emp, sim, expected in hand_cases
    )
    weeks = durations_to_weeks([3.0, 7.5, 14.0])
    ok = ok and zero_one_loss(weeks, weeks) == 0
    n = 6
    ok = ok and zero_one_loss(np.full(n, 14), np.zeros(n, dtype=int)) == 14 * n
    report(4, ok, f"{len(hand_cases)} hand-enumerated cases, identity = 0, "
                  f"full disagreement = 14n")


@pytest.fixture(scope="module")
def planted_50():
    instance = generate_instance(SynthSpec(node_count=50, seed_fraction=0.2, rng_seed=7))
    assert instance.weeks.all(), "instance must fully recover for the round trip"
    problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations)
    return instance, problem


def test_criterion_05_planted_round_trip(planted_50):
    instance, problem = planted_50
    ok = True
    for seed in (1, 2, 3):
        other = generate_instance(SynthSpec(node_count=36, seed_fraction=0.25, rng_seed=seed))
        if not other.weeks.all():
            continue
        other_problem = build_fit_problem(other.graph, other.graph.nodes, other.durations)
        planted = other.thresholds[~other.seed_mask]
        ok = ok and other_problem.losses(planted[None])[0] == 0

    planted = instance.thresholds[~instance.seed_mask]
    planted_loss = problem.losses(planted[None])[0]
    ok = ok and planted_loss == 0

    baseline, _ = random_baseline(problem, runs=1000, rng_seed=11)
    config = GaConfig(population_size=10, max_iterations=2000, rng_seed=5)
    result = fit_thresholds(problem, config)
    target = 0.2 * baseline["mean"]
    ok = ok and result.final_loss <= target
    report(5, ok, f"planted loss {planted_loss}; GA loss {result.final_loss} <= "
                  f"20% of baseline mean ({target:.1f})")


def test_criterion_06_stage2_oracle_equivalence():
    instance = generate_instance(
        SynthSpec(node_count=30, seed_fraction=0.1, threshold_low=0.3,
                  threshold_high=0.9, rng_seed=11)
    )
    problem = MultiplierProblem(graph=instance.graph, thresholds=instance.thresholds)
    [exact] = brute_force_multipliers(problem, [3])
    wins = 0
    for seed in range(10):
        config = GaConfig(population_size=10, max_iterations=2000, rng_seed=seed)
        [result] = search_multipliers(problem, [3], config)
        wins += result.recovered_with == exact.recovered_with
    ok = wins >= 9
    report(6, ok, f"C(30,3)=4060 subsets: GA matched the brute-force optimum "
                  f"({exact.recovered_with}) in {wins}/10 seeded runs")


def test_criterion_07_increment_rate_arithmetic():
    low_end = increment_rate(1705, 1609)
    ok = round(low_end, 2) == 5.97 and increment_rate(1609, 1609) == 0.0
    report(7, ok, f"increment_rate(1705, 1609) = {low_end:.4f}% and "
                  "increment_rate(x, x) = 0")


def test_criterion_08_week14_cap_artifact():
    instance = generate_instance(
        SynthSpec(node_count=36, seed_fraction=0.06, threshold_low=0.55,
                  threshold_high=0.95, rng_seed=3)
    )
    unrecovered = int(np.count_nonzero(instance.weeks == 0))
    assert unrecovered > 0, "need an instance the fitted simulation cannot finish"
    empirical = durations_to_weeks(instance.durations)
    diff = recovered_counts(empirical, 14) - recovered_counts(instance.weeks, 14)
    ok = diff[14] == unrecovered and not diff[:14].any()
    report(8, ok, f"diff(14) = {diff[14]} equals the {unrecovered} unrecovered nodes")


def test_criterion_09_determinism_end_to_end(tmp_path):
    def pipeline(root):
        synth, fit, mult = root / "synth", root / "fit", root / "mult"
        assert main(["synth", "--nodes", "25", "--rng-seed", "9", "--out", str(synth)]) == 0
        assert main([
            "fit", "--edges", str(synth / "edges.csv"),
            "--durations", str(synth / "durations.csv"),
            "--max-iterations", "80", "--rng-seed", "4", "--out", str(fit),
        ]) == 0
        assert main([
            "multipliers", "--edges", str(synth / "edges.csv"),
            "--thresholds", str(fit / "thresholds.csv"),
            "--sizes", "2,3", "--max-iterations", "60", "--rng-seed", "4",
            "--out", str(mult),
        ]) == 0
        return [synth, fit, mult]

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    skip = {"manifest.json", "ga_timing.csv"}
    ok = True
    compared = 0
    for a_dir, b_dir in zip(first, second):
        for a_file in sorted(a_dir.iterdir()):
            if a_file.name in skip:
                continue
            ok = ok and a_file.read_bytes() == (b_dir / a_file.name).read_bytes()
            compared += 1
    report(9, ok, f"{compared} data tables byte-identical across repeated runs")


def test_criterion_10_ga_sanity():
    wins = 0
    best = []
    for seed in range(10):
        config = GaConfig(population_size=10, max_iterations=200, rng_seed=seed)
        result = run_ga(
            lambda population: population.sum(axis=1), "minimize", RealVectorEncoding(5), config
        )
        best.append(result.best_fitness)
        wins += result.best_fitness <= 0.05
    ok = wins >= 9
    report(10, ok, f"sum(x) over [0,1]^5 reached <= 0.05 in {wins}/10 runs "
                   f"(median best {np.median(best):.4f})")
