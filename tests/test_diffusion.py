from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import forced_weeks, graph_of, random_graph
from recovnet import (
    DiffusionSchedule,
    ThresholdVector,
    recovered_counts,
    run_diffusion,
)
from recovnet.errors import ConfigError


class TestThresholdVector:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ThresholdVector(node_ids=("a",), values=np.array([1.5]))

    def test_nonzero_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ThresholdVector(
                node_ids=("a",), values=np.array([0.3]), seed_mask=np.array([True])
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ThresholdVector(node_ids=("a", "b"), values=np.array([0.1]))

    def test_seed_mask_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seed_mask shape does not match values"):
            ThresholdVector(("a", "b"), [0.1, 0.2], seed_mask=[False])

    def test_assemble(self):
        tau = ThresholdVector.assemble(
            ("a", "b", "c"), np.array([False, True, False]), np.array([0.4, 0.9])
        )
        assert tau.values.tolist() == [0.4, 0.0, 0.9]
        assert tau.seed_mask.tolist() == [False, True, False]


class TestSchedule:
    def test_defaults(self):
        sched = DiffusionSchedule()
        assert sched.horizon == 14
        assert sched.first_update_week == 3

    @pytest.mark.parametrize("first", [0, 15])
    def test_bad_first_update_week(self, first):
        with pytest.raises(ConfigError):
            DiffusionSchedule(first_update_week=first)


ONE_WEEK = DiffusionSchedule(horizon=1, first_update_week=1)


def step(g, prev, tau):
    """One synchronous update from prev: week 1 of a one-week schedule."""
    return forced_weeks(g, tau, prev, ONE_WEEK) > 0


class TestDiffusionStep:
    def test_all_affected_only_zero_threshold_flips(self, path_graph, path_tau):
        out = step(path_graph, np.zeros(3), path_tau)
        assert out.tolist() == [True, False, False]
        assert (run_diffusion(path_graph, path_tau, ONE_WEEK) > 0).tolist() == out.tolist()

    def test_all_recovered_is_absorbing(self, path_graph, path_tau):
        out = step(path_graph, np.ones(3), path_tau)
        assert out.tolist() == [True, True, True]

    def test_half_threshold_tie_recovers(self, path_graph, path_tau):
        out = step(path_graph, np.array([1, 0, 0]), path_tau)
        # B sees 1/2 >= 0.5 and flips; C sees 0/1 < 1 and stays
        assert out.tolist() == [True, True, False]

    def test_dimension_mismatch(self, path_graph):
        tau = ThresholdVector(node_ids=("A", "B", "C", "D"), values=np.zeros(4))
        with pytest.raises(ValueError, match="4 entries, graph has 3 nodes"):
            run_diffusion(path_graph, tau, ONE_WEEK)

    def test_isolate_needs_zero_threshold(self):
        g = graph_of(["lone"], [])
        zero = ThresholdVector(node_ids=g.nodes, values=np.array([0.0]))
        assert run_diffusion(g, zero, ONE_WEEK).tolist() == [1]
        for value in (0.7, 1.0):
            tau = ThresholdVector(node_ids=g.nodes, values=np.array([value]))
            assert run_diffusion(g, tau, ONE_WEEK).tolist() == [0]


def oracle_weeks(g, values, initial, horizon=14, first_update_week=3):
    """Recovered weeks of the dict oracle, in graph node order."""
    states = oracles.naive_diffusion(
        {u: sorted(g.neighbors(u)) for u in g.nodes},
        dict(zip(g.nodes, values)),
        dict(zip(g.nodes, np.asarray(initial).astype(int))),
        horizon,
        first_update_week,
    )
    weeks = oracles.recovered_weeks(states)
    return [weeks[u] for u in g.nodes]


class TestRunDiffusion:
    def test_path_recovery_weeks(self, path_graph, path_tau):
        weeks = run_diffusion(path_graph, path_tau)
        assert weeks.shape == (3,)
        # recovered from week 15 - w on: weeks 3, 4 and 5
        assert weeks.tolist() == [12, 11, 10]

    def test_all_zero_thresholds_recover_at_first_update(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.zeros(3))
        weeks = run_diffusion(path_graph, tau)
        assert weeks.tolist() == [12, 12, 12]  # weeks 3..14

    def test_all_one_thresholds_never_recover(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.ones(3))
        weeks = run_diffusion(path_graph, tau)
        assert not weeks.any()

    def test_initial_state_preserved_before_first_update(self, path_graph, path_tau):
        initial = np.array([0, 1, 0])
        weeks = forced_weeks(path_graph, path_tau, initial)
        # B is recovered for all 14 weeks; A (threshold 0) and C (its one
        # neighbour B recovered) wait for the first update, week 3
        assert weeks.tolist() == [12, 14, 12]

    def test_matches_dict_oracle_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            g = random_graph(rng, n, edge_prob=0.3)
            values = np.round(rng.random(n), 3)
            tau = ThresholdVector(node_ids=g.nodes, values=values)
            initial = rng.random(n) < 0.2
            # a horizon past 127 takes 16-bit states and weeks
            for horizon, first in ((14, 3), (6, 1), (5, 5), (200, 150)):
                schedule = DiffusionSchedule(horizon, first)
                weeks = forced_weeks(g, tau, initial, schedule)
                assert weeks.tolist() == oracle_weeks(g, values, initial, horizon, first)
                assert run_diffusion(g, tau, schedule).tolist() == oracle_weeks(
                    g, values, np.zeros(n), horizon, first)

    def test_deterministic_and_monotone(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            g = random_graph(rng, n)
            tau = ThresholdVector(node_ids=g.nodes, values=rng.random(n))
            initial = rng.random(n) < 0.3
            a = forced_weeks(g, tau, initial)
            b = forced_weeks(g, tau, initial.copy())
            assert np.array_equal(a, b)
            # a node recovered at week 0 stays recovered for every week
            assert np.all(a[initial] == 14)
            assert np.all((a >= 0) & (a <= 14))

    def test_fixed_point_propagates(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.array([0.0, 1.0, 1.0]))
        weeks = run_diffusion(path_graph, tau)
        # A flips at week 3; B needs 1/2 >= 1.0, never; steady from week 3 on
        assert weeks.tolist() == [12, 0, 0]

    def test_lower_threshold_never_slows_recovery(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            g = random_graph(rng, n, edge_prob=0.35)
            values = rng.random(n)
            node = int(rng.integers(n))
            lowered = values.copy()
            lowered[node] = values[node] * rng.random()
            base = run_diffusion(g, ThresholdVector(node_ids=g.nodes, values=values))
            more = run_diffusion(g, ThresholdVector(node_ids=g.nodes, values=lowered))
            assert np.all(more >= base)  # node by node, not only in total
            assert np.all(recovered_counts(more, 14) >= recovered_counts(base, 14))

    def test_seed_dominance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            g = random_graph(rng, n, edge_prob=0.35)
            tau = ThresholdVector(node_ids=g.nodes, values=rng.random(n))
            small = rng.random(n) < 0.2
            big = small | (rng.random(n) < 0.2)
            weeks_small = forced_weeks(g, tau, small)
            weeks_big = forced_weeks(g, tau, big)
            assert np.all(weeks_big >= weeks_small)
            assert np.all(recovered_counts(weeks_big, 14) >= recovered_counts(weeks_small, 14))

    def test_node_order_mismatch_rejected(self, path_graph):
        tau = ThresholdVector(node_ids=("B", "A", "C"), values=np.zeros(3))
        with pytest.raises(ValueError, match="node ids"):
            run_diffusion(path_graph, tau)


class TestRecoveredCounts:
    def test_path_counts(self, path_graph, path_tau):
        weeks = run_diffusion(path_graph, path_tau)
        counts = recovered_counts(weeks, 14)
        assert counts.shape == (15,)
        assert counts[:6].tolist() == [0, 0, 0, 1, 2, 3]
        assert np.all(counts[5:] == 3)

    def test_all_recovered_initial_constant(self, path_graph, path_tau):
        weeks = forced_weeks(path_graph, path_tau, np.ones(3))
        counts = recovered_counts(weeks, 14)
        # week 0 is the all-affected start; every node is recovered in weeks 1..14
        assert counts[0] == 0
        assert np.all(counts[1:] == 3)

    def test_never_recovering_constant_zero(self, path_graph):
        tau = ThresholdVector(node_ids=path_graph.nodes, values=np.ones(3))
        weeks = run_diffusion(path_graph, tau)
        assert np.all(recovered_counts(weeks, 14) == 0)

    def test_nondecreasing(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 12)
        tau = ThresholdVector(node_ids=g.nodes, values=rng.random(12))
        counts = recovered_counts(forced_weeks(g, tau, rng.random(12) < 0.3), 14)
        assert np.all(np.diff(counts) >= 0)

    def test_matches_oracle_weekly_states(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            g = random_graph(rng, n, edge_prob=0.3)
            values = rng.random(n)
            states = oracles.naive_diffusion(
                {u: sorted(g.neighbors(u)) for u in g.nodes},
                dict(zip(g.nodes, values)),
                dict.fromkeys(g.nodes, 0),
            )
            weeks = run_diffusion(g, ThresholdVector(node_ids=g.nodes, values=values))
            expected = [sum(state.values()) for state in states]
            assert recovered_counts(weeks, 14).tolist() == expected
