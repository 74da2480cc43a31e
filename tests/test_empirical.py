from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recovnet import (
    VisitSeries,
    compute_recovery_duration,
    durations_to_trajectory,
    weekly_difference,
    zero_one_loss,
)
from recovnet.empirical import moving_average
from recovnet.errors import ConfigError, DataError

RSTART = 27


def make_series(visits):
    return VisitSeries(
        visits=np.asarray(visits, dtype=float),
        baseline_start=0,
        baseline_end=20,
        recovery_start=RSTART,
    )


def dip_recover_visits():
    """Baseline 100 for 21 days, dip to 50, jump to 120 nine days after
    recovery start; the smoothed series first meets 90 on scan day 10."""
    return [100.0] * 21 + [50.0] * (RSTART - 21) + [50.0] * 9 + [120.0] * 95


class TestVisitSeries:
    def test_baseline_must_precede_recovery(self):
        with pytest.raises(DataError, match="precede"):
            VisitSeries(
                visits=np.ones(200), baseline_start=0, baseline_end=30, recovery_start=20
            )

    def test_series_too_short(self):
        with pytest.raises(DataError, match="too short"):
            VisitSeries(
                visits=np.ones(100), baseline_start=0, baseline_end=5, recovery_start=10
            )

    def test_negative_visits_rejected(self):
        visits = np.ones(150)
        visits[40] = -1
        with pytest.raises(DataError, match="nonnegative"):
            VisitSeries(visits=visits, baseline_start=0, baseline_end=5, recovery_start=10)


class TestMovingAverage:
    def test_interior_window(self):
        values = np.arange(10, dtype=float)
        smoothed = moving_average(values, 3)
        assert smoothed[5] == pytest.approx(np.mean(values[2:9]))

    def test_edges_shrink(self):
        values = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
        smoothed = moving_average(values, 3)
        assert smoothed[0] == pytest.approx(10 / 4)  # window covers days 0..3 only
        assert smoothed[1] == pytest.approx(10 / 5)  # days 0..4
        assert smoothed[4] == pytest.approx(0.0)  # days 1..4 exclude the spike

    def test_halfwidth_zero_identity(self):
        values = np.array([3.0, 1.0, 4.0])
        assert moving_average(values, 0).tolist() == values.tolist()


class TestComputeRecoveryDuration:
    def test_dip_then_recover(self):
        series = make_series(dip_recover_visits())
        duration = compute_recovery_duration(series)
        assert duration == pytest.approx(10 / 7)
        assert duration == oracles.naive_recovery_duration(
            dip_recover_visits(), 0, 20, RSTART
        )

    def test_never_drops_recovers_immediately(self):
        visits = [100.0] * 21 + [95.0] * 130
        assert compute_recovery_duration(make_series(visits)) == pytest.approx(1 / 7)

    def test_never_recovers_capped_at_14(self):
        visits = [100.0] * 21 + [50.0] * 130
        assert compute_recovery_duration(make_series(visits)) == 14.0

    def test_matches_naive_oracle_on_random_series(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            visits = rng.uniform(0, 120, size=131)
            series = make_series(visits)
            assert compute_recovery_duration(series) == oracles.naive_recovery_duration(
                visits, 0, 20, RSTART
            )
        # series ending 98-104 days past recovery start: sparse random
        # recoveries, and a final run of high days starting near the end
        for length in range(98, 105):
            for persistence in range(1, 6):
                for halfwidth in (0, 3):
                    tails = [np.where(rng.random(length) < 0.15, 100.0, 50.0) for _ in range(4)]
                    for first_high in range(length - 10, length + 1):
                        tails.append(np.where(np.arange(length) >= first_high, 100.0, 50.0))
                    for tail in tails:
                        visits = np.concatenate(([100.0] * RSTART, tail))
                        expected = oracles.naive_recovery_duration(
                            visits, 0, 20, RSTART,
                            persistence_days=persistence, ma_halfwidth=halfwidth,
                        )
                        assert compute_recovery_duration(
                            make_series(visits),
                            persistence_days=persistence,
                            ma_halfwidth=halfwidth,
                        ) == expected

    def test_persistence_must_hold_full_run(self):
        # unsmoothed: a 2-day blip over the threshold must not count as recovery
        visits = [100.0] * 21 + [50.0] * 130
        visits[RSTART + 5] = visits[RSTART + 6] = 100.0
        series = make_series(visits)
        assert compute_recovery_duration(series, ma_halfwidth=0) == 14.0
        assert compute_recovery_duration(
            series, ma_halfwidth=0, persistence_days=2
        ) == pytest.approx(6 / 7)

    @given(st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariant_power_of_two(self, exponent, seed):
        rng = np.random.default_rng(seed)
        visits = rng.integers(0, 200, size=131).astype(float)
        base = compute_recovery_duration(make_series(visits))
        scaled = compute_recovery_duration(make_series(visits * 2.0**exponent))
        assert base == scaled

    def test_scale_invariant_typical_factor(self):
        visits = np.asarray(dip_recover_visits())
        assert compute_recovery_duration(make_series(visits * 3.7)) == pytest.approx(10 / 7)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError, match="ratio"):
            compute_recovery_duration(make_series(dip_recover_visits()), ratio=0.0)


class TestDurationsToTrajectory:
    def test_paper_minimum_duration(self):
        traj = durations_to_trajectory([2.14])
        assert traj[:, 0].astype(int).tolist() == [0, 0, 0] + [1] * 12

    def test_cap_boundary(self):
        traj = durations_to_trajectory([14.0])
        assert traj[13, 0] == False  # noqa: E712
        assert traj[14, 0] == True  # noqa: E712

    def test_integer_duration_recovers_that_week(self):
        traj = durations_to_trajectory([5.0])
        assert traj[4, 0] == False  # noqa: E712
        assert traj[5, 0] == True  # noqa: E712

    def test_monotone_and_recovered_at_horizon(self):
        rng = np.random.default_rng(8)
        durations = rng.uniform(0.1, 14.0, size=40)
        traj = durations_to_trajectory(durations)
        assert np.all(np.diff(traj.astype(int), axis=0) >= 0)
        assert traj[14].all()
        assert not traj[0].any()

    def test_uncapped_duration_rejected(self):
        with pytest.raises(DataError, match="capped"):
            durations_to_trajectory([15.0])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(DataError, match="positive"):
            durations_to_trajectory([0.0])


def single_node_trajectory(week, horizon=14):
    """Column trajectory of one node recovering at `week` (0 = never)."""
    states = np.zeros((horizon + 1, 1), dtype=bool)
    if week:
        states[week:, 0] = True
    return states


class TestZeroOneLoss:
    def test_identity_is_zero(self):
        traj = durations_to_trajectory([3.0, 7.0, 14.0])
        assert zero_one_loss(traj, traj) == 0

    def test_three_week_shift_costs_three(self):
        assert zero_one_loss(single_node_trajectory(3), single_node_trajectory(6)) == 3

    def test_full_disagreement_is_14n(self):
        n = 5
        s = np.zeros((15, n), dtype=bool)
        s[1:] = True
        s_hat = np.zeros((15, n), dtype=bool)
        assert zero_one_loss(s, s_hat) == 14 * n

    def test_hand_enumerated_cases(self):
        cases = [
            (3, 6, 3),    # empirical week 3, simulated week 6
            (6, 3, 3),    # symmetric shift
            (1, 14, 13),  # extreme early vs horizon
            (5, 0, 10),   # simulation never recovers: weeks 5..14 differ
            (14, 14, 0),  # agreement at the cap
        ]
        for emp_week, sim_week, expected in cases:
            loss = zero_one_loss(
                single_node_trajectory(emp_week), single_node_trajectory(sim_week)
            )
            assert loss == expected, (emp_week, sim_week)

    def test_symmetric(self):
        rng = np.random.default_rng(21)
        a = rng.random((15, 9)) < 0.5
        b = rng.random((15, 9)) < 0.5
        assert zero_one_loss(a, b) == zero_one_loss(b, a)

    def test_week_zero_excluded(self):
        a = np.zeros((15, 2), dtype=bool)
        b = a.copy()
        b[0] = True  # disagreement only at week 0
        assert zero_one_loss(a, b) == 0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        a = rng.random((15, n)) < 0.5
        b = rng.random((15, n)) < 0.5
        assert 0 <= zero_one_loss(a, b) <= 14 * n

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            zero_one_loss(np.zeros((15, 2)), np.zeros((15, 3)))


class TestWeeklyDifference:
    def test_identity_all_zero(self):
        traj = durations_to_trajectory([3.0, 9.0])
        diff, cumulative = weekly_difference(traj, traj)
        assert not diff.any()
        assert not cumulative.any()

    def test_one_week_shift(self):
        diff, cumulative = weekly_difference(
            single_node_trajectory(3), single_node_trajectory(4)
        )
        assert diff.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert cumulative.tolist() == [0, 0, 0] + [1] * 12

    def test_cap_spike(self):
        # empirical caps at 14 while the simulation leaves both nodes affected
        empirical = durations_to_trajectory([14.0, 14.0])
        simulated = np.zeros((15, 2), dtype=bool)
        diff, _ = weekly_difference(empirical, simulated)
        assert diff[14] == 2
        assert not diff[:14].any()
