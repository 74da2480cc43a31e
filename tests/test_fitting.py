from __future__ import annotations

import numpy as np
import pytest

from conftest import chunked
from recovnet import (
    DiffusionSchedule,
    GaConfig,
    SynthSpec,
    build_fit_problem,
    durations_to_weeks,
    fit_thresholds,
    generate_instance,
    random_baseline,
    zero_one_loss,
)
from recovnet.errors import ConfigError, DataError

ABC = ("A", "B", "C")  # path_graph's nodes


@pytest.fixture
def path_problem(path_graph):
    # seed recovers week 3, then neighbors at weeks 4 and 5
    return build_fit_problem(path_graph, ABC, [2.5, 4.0, 5.0])


class TestBuildFitProblem:
    def test_seed_split_on_cutoff(self, path_graph):
        problem = build_fit_problem(path_graph, ABC, [2.14, 5.0, 14.0])
        assert problem.seed_mask.tolist() == [True, False, False]
        assert problem.free_count == 2

    def test_missing_duration_named(self, path_graph):
        with pytest.raises(DataError, match="C"):
            build_fit_problem(path_graph, ("A", "B"), [2.5, 5.0])

    def test_empty_seed_set_warns(self, path_graph):
        with pytest.warns(UserWarning, match="never recover"):
            problem = build_fit_problem(path_graph, ABC, [3.0, 5.0, 14.0])
        assert problem.seed_mask.sum() == 0

    def test_all_seeds_trivially_zero_loss(self, path_graph):
        problem = build_fit_problem(path_graph, ABC, [2.5, 2.5, 2.5])
        assert problem.free_count == 0
        assert problem.losses(np.empty((1, 0)))[0] == 0

    def test_off_schedule_seed_warns(self, path_graph):
        # a 1.5-week duration recovers empirically at week 2, before updates start
        with pytest.warns(UserWarning, match="week"):
            build_fit_problem(path_graph, ABC, [1.5, 5.0, 14.0])

    def test_bad_cutoff_rejected(self, path_graph):
        with pytest.raises(ConfigError, match="seed_cutoff"):
            build_fit_problem(path_graph, ABC, [2.5, 4.0, 5.0], seed_cutoff_weeks=0)

    def test_empirical_matches_durations(self, path_problem):
        assert path_problem.empirical.tolist() == [12, 11, 10]
        assert np.array_equal(path_problem.empirical, durations_to_weeks([2.5, 4.0, 5.0]))


class TestFitFitness:
    def test_planted_truth_is_zero(self, path_problem):
        # B flips at 1/2 >= tau, C at 1/1 >= tau, exactly one week apart
        assert path_problem.losses(np.array([0.5, 1.0])[None])[0] == 0

    def test_all_ones_only_seed_recovers(self, path_problem):
        # empirical: B recovered weeks 4..14 (11 cells), C weeks 5..14 (10 cells)
        assert path_problem.losses(np.array([1.0, 1.0])[None])[0] == 21

    def test_all_zeros_everything_recovers_week_three(self, path_problem):
        # simulation recovers B and C at week 3: B off by week 3, C by weeks 3-4
        assert path_problem.losses(np.array([0.0, 0.0])[None])[0] == 3


class TestFitThresholds:
    def test_three_node_planted_reaches_zero(self, path_problem):
        config = GaConfig(population_size=10, max_iterations=500, rng_seed=2)
        result = fit_thresholds(path_problem, config)
        assert result.final_loss == 0
        assert result.final_loss == result.ga_result.best_fitness

    def test_single_generation_equals_best_random(self, path_problem):
        config = GaConfig(population_size=10, max_iterations=1, rng_seed=13)
        result = fit_thresholds(path_problem, config)
        rng = np.random.default_rng(13)
        losses = [
            path_problem.losses(rng.random(path_problem.free_count)[None])[0]
            for _ in range(10)
        ]
        assert result.final_loss == min(losses)

    def test_seeds_pinned_at_zero(self, path_problem):
        config = GaConfig(population_size=6, max_iterations=20, rng_seed=1)
        result = fit_thresholds(path_problem, config)
        assert result.thresholds.shape == (3,)  # node order, seeds included
        assert np.all(result.thresholds[path_problem.seed_mask] == 0.0)
        assert path_problem.seed_mask.tolist() == [True, False, False]

    def test_loss_round_trips_through_resimulation(self, path_problem):
        from recovnet import run_diffusion

        config = GaConfig(population_size=6, max_iterations=30, rng_seed=4)
        result = fit_thresholds(path_problem, config)
        simulated = run_diffusion(path_problem.graph, result.thresholds, path_problem.schedule)
        assert zero_one_loss(path_problem.empirical, simulated) == result.final_loss
        assert isinstance(result.final_loss, int)
        assert np.array_equal(result.weeks, simulated)

    def test_custom_horizon(self, path_graph):
        schedule = DiffusionSchedule(horizon=10, first_update_week=3)
        problem = build_fit_problem(
            path_graph, ABC, [2.5, 4.0, 10.0], schedule=schedule
        )
        assert problem.empirical.tolist() == [8, 7, 1]  # weeks 3..10, 4..10, 10
        # sim: A week 3, B week 4, C week 5; empirically C waits until week 10,
        # so the simulation is wrong for C on weeks 5-9
        assert problem.losses(np.array([0.5, 1.0])[None])[0] == 5

    def test_all_seed_problem_short_circuits(self, path_graph):
        problem = build_fit_problem(path_graph, ABC, [2.5, 2.5, 2.5])
        result = fit_thresholds(problem, GaConfig(max_iterations=5000, rng_seed=0))
        assert result.final_loss == 0
        assert np.all(result.thresholds == 0.0)
        # nothing to optimize: one generation, which took no time
        assert result.ga_result.history.tolist() == [0]
        assert result.ga_result.seconds.tolist() == [0.0]
        assert result.weeks.tolist() == problem.empirical.tolist() == [12, 12, 12]

    def test_weeks_are_the_winner_in_node_order(self):
        """The winner's weeks come from the problem's own kernel, mapped back
        from kernel order; they equal a fresh simulation of the thresholds."""
        from recovnet import run_diffusion

        instance = generate_instance(SynthSpec(node_count=30, graph_kind="perturbed_grid",
                                               rng_seed=5))
        schedule = DiffusionSchedule(horizon=16, first_update_week=3)
        problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations, schedule=schedule)
        result = fit_thresholds(problem, GaConfig(population_size=6, max_iterations=20, rng_seed=2))
        simulated = run_diffusion(instance.graph, result.thresholds, schedule)
        assert np.array_equal(result.weeks, simulated)
        assert not np.array_equal(problem.kernel.order, np.arange(30))  # a real mapping
        assert result.final_loss == zero_one_loss(problem.empirical, simulated)
        assert result.final_loss == result.ga_result.best_fitness

    def test_never_worse_than_initial_population(self):
        instance = generate_instance(SynthSpec(node_count=30, rng_seed=3))
        problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations)
        config = GaConfig(population_size=8, max_iterations=150, rng_seed=6)
        result = fit_thresholds(problem, config)
        assert result.final_loss <= result.ga_result.history[0]


class TestRandomBaseline:
    def test_degenerate_all_seed_problem(self, path_graph):
        problem = build_fit_problem(path_graph, ABC, [2.5, 2.5, 2.5])
        summary, losses = random_baseline(problem, runs=10, rng_seed=0)
        assert summary == {"mean": 0.0, "std": 0.0, "runs": 10}
        assert losses.dtype == np.float64 and losses.tolist() == [0.0] * 10

    def test_self_consistent_across_seeds(self):
        instance = generate_instance(SynthSpec(node_count=50, rng_seed=7))
        problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations)
        a, _ = random_baseline(problem, runs=1000, rng_seed=1)
        b, _ = random_baseline(problem, runs=1000, rng_seed=2)
        stderr = max(a["std"], b["std"]) / np.sqrt(1000)
        assert abs(a["mean"] - b["mean"]) <= 3 * stderr

    def test_deterministic_per_seed(self, path_problem):
        a = random_baseline(path_problem, runs=50, rng_seed=9)
        b = random_baseline(path_problem, runs=50, rng_seed=9)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_chunked_draws_equal_one_draw(self):
        instance = generate_instance(SynthSpec(node_count=400, rng_seed=4))
        problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations)
        columns = problem.kernel.chunk_columns()  # per kernel call
        for runs in (1, 5 * columns // 2):  # one run, 2.5 calls
            summary, losses = random_baseline(problem, runs=runs, rng_seed=5)
            draw = np.random.default_rng(5).random((runs, problem.free_count))
            assert np.array_equal(losses, problem.losses(draw))
            assert summary["mean"] == losses.mean() and summary["runs"] == runs

    @pytest.mark.parametrize("nodes,runs,calls", [
        (2010, 1000, {32: 30, 40: 1}),  # CHUNK_CELLS // n is 32; 8 left over
        (4000, 100, {32: 2, 36: 1}),  # CHUNK_CELLS // n is 16, below the floor
    ])
    def test_paper_scale_calls_are_32_columns(self, nodes, runs, calls):
        """A remainder under half a call joins the last call."""
        instance = generate_instance(SynthSpec(node_count=nodes, rng_seed=1))
        problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations)
        random_baseline(problem, runs=runs, rng_seed=1)
        assert problem.kernel.calls == calls

    def test_losses_equal_across_chunk_widths(self):
        """The draws do not depend on the chunk: 65 is the width n = 2010
        had before the 32-column floor."""
        instance = generate_instance(SynthSpec(node_count=2010, rng_seed=1))
        problem = build_fit_problem(instance.graph, instance.graph.nodes, instance.durations)
        _, expected = random_baseline(problem, runs=200, rng_seed=3)
        for chunk in (1, 7, 65, 200):
            with chunked(chunk):
                _, losses = random_baseline(problem, runs=200, rng_seed=3)
            assert np.array_equal(losses, expected), chunk

    def test_zero_runs_rejected(self, path_problem):
        with pytest.raises(ConfigError, match="runs"):
            random_baseline(path_problem, runs=0)
