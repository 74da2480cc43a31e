from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recovnet import (
    compute_recovery_durations,
    durations_to_weeks,
    recovered_counts,
    zero_one_loss,
)
from recovnet import empirical
from recovnet.empirical import align_durations, moving_average
from recovnet.errors import ConfigError, DataError

RSTART = 27


def one_duration(visits, **settings):
    """compute_recovery_durations for one unit whose series starts on day 0,
    with the baseline on days 0-20 and recovery assessed from day RSTART."""
    series = {"u": (0, np.asarray(visits, dtype=float))}
    return float(compute_recovery_durations(series, 0, 20, RSTART, **settings)[0])


def dip_recover_visits():
    """Baseline 100 for 21 days, dip to 50, jump to 120 nine days after
    recovery start; the smoothed series first meets 90 on scan day 10."""
    return [100.0] * 21 + [50.0] * (RSTART - 21) + [50.0] * 9 + [120.0] * 95


class TestVisitSeries:
    """A unit's series rules, checked by a one-unit call."""

    def test_baseline_must_precede_recovery(self):
        with pytest.raises(DataError, match="precede"):
            compute_recovery_durations({"u": (0, np.ones(200))}, 0, 30, 20)

    def test_series_too_short(self):
        with pytest.raises(DataError, match="too short"):
            compute_recovery_durations({"u": (0, np.ones(100))}, 0, 5, 10)

    def test_negative_visits_rejected(self):
        visits = np.ones(150)
        visits[40] = -1
        with pytest.raises(DataError, match="nonnegative"):
            compute_recovery_durations({"u": (0, visits)}, 0, 5, 10)


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
    """One unit's duration, from one-unit calls."""

    def test_dip_then_recover(self):
        duration = one_duration(dip_recover_visits())
        assert duration == pytest.approx(10 / 7)
        assert duration == oracles.naive_recovery_duration(
            dip_recover_visits(), 0, 20, RSTART
        )

    def test_never_drops_recovers_immediately(self):
        visits = [100.0] * 21 + [95.0] * 130
        assert one_duration(visits) == pytest.approx(1 / 7)

    def test_never_recovers_capped_at_14(self):
        visits = [100.0] * 21 + [50.0] * 130
        assert one_duration(visits) == 14.0

    def test_matches_naive_oracle_on_random_series(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            visits = rng.uniform(0, 120, size=131)
            assert one_duration(visits) == oracles.naive_recovery_duration(
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
                        assert one_duration(
                            visits,
                            persistence_days=persistence,
                            ma_halfwidth=halfwidth,
                        ) == expected

    def test_persistence_must_hold_full_run(self):
        # unsmoothed: a 2-day blip over the threshold must not count as recovery
        visits = [100.0] * 21 + [50.0] * 130
        visits[RSTART + 5] = visits[RSTART + 6] = 100.0
        assert one_duration(visits, ma_halfwidth=0) == 14.0
        assert one_duration(visits, ma_halfwidth=0, persistence_days=2) == pytest.approx(6 / 7)

    @given(st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariant_power_of_two(self, exponent, seed):
        rng = np.random.default_rng(seed)
        visits = rng.integers(0, 200, size=131).astype(float)
        base = one_duration(visits)
        scaled = one_duration(visits * 2.0**exponent)
        assert base == scaled

    def test_scale_invariant_typical_factor(self):
        visits = np.asarray(dip_recover_visits())
        assert one_duration(visits * 3.7) == pytest.approx(10 / 7)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigError, match="ratio"):
            one_duration(dip_recover_visits(), ratio=0.0)


def unit_series(rng, first_day, length):
    """One unit's visits from day first_day (<= 0): a baseline of ~100 up to
    day 20, a dip, then a noisy recovery from a random day, some false
    starts and some units that never recover."""
    visits = rng.uniform(0, 60, length)
    visits[: 21 - first_day] = rng.uniform(95, 105, 21 - first_day)
    start = RSTART - first_day
    recover = int(rng.integers(start - 5, length + 3))
    visits[recover:] = rng.uniform(80, 120, max(length - recover, 0))
    blip = int(rng.integers(start, length))
    visits[blip : blip + int(rng.integers(1, 5))] = 100.0
    return visits


class TestComputeRecoveryDurations:
    """The call on a whole visits table: each unit as the oracle scores it
    alone, whatever its first day and length, and one error naming the unit
    a per-unit loop would stop at."""

    # id -> (first day, length); every window ends >= 98 days past RSTART
    SHAPES = {"a0": (0, 125), "a1": (-3, 140), "a2": (0, 131), "a3": (-5, 135),
              "a4": (-3, 140), "a5": (0, 125), "a6": (0, 126), "a7": (-5, 132)}

    @staticmethod
    def _ones(shapes):
        return {node: (first, np.ones(length)) for node, (first, length) in shapes.items()}

    def test_units_match_naive_oracle(self):
        rng = np.random.default_rng(44)
        series = {f"{node}_{k}": (first, unit_series(rng, first, length))
                  for k in range(4) for node, (first, length) in self.SHAPES.items()}
        for persistence in (1, 3, 5):
            for halfwidth in (0, 3):
                durations = compute_recovery_durations(
                    series, 0, 20, RSTART, 0.9, persistence, halfwidth
                )
                expected = [
                    oracles.naive_recovery_duration(
                        visits, -first, 20 - first, RSTART - first,
                        persistence_days=persistence, ma_halfwidth=halfwidth,
                    )
                    for first, visits in series.values()
                ]
                assert durations.tolist() == expected
                assert durations.tolist() == [
                    compute_recovery_durations(
                        {node: unit}, 0, 20, RSTART, 0.9, persistence, halfwidth
                    )[0]
                    for node, unit in series.items()
                ]
                assert len(set(durations.tolist())) > 5

    def test_first_negative_unit_named(self):
        series = self._ones(dict.fromkeys(["u0", "u1", "u2", "u3", "u4", "u5"], (0, 131)))
        for node in ("u2", "u5"):
            series[node][1][40] = -1
        with pytest.raises(DataError) as raised:
            compute_recovery_durations(series, 0, 20, RSTART, source="visits.csv")
        assert str(raised.value) == "visits.csv: unit 'u2': visit counts must be nonnegative"

    @pytest.mark.parametrize("negative,message", [
        ("u0", "visit counts must be nonnegative"),
        ("u3", "series too short: need >= 98 days after recovery start, got 97"),
    ])
    def test_window_error_names_first_unit(self, negative, message):
        series = self._ones(dict.fromkeys(["u0", "u1", "u2", "u3", "u4"], (0, 124)))
        series[negative][1][40] = -1
        with pytest.raises(DataError) as raised:
            compute_recovery_durations(series, 0, 20, RSTART, source="visits.csv")
        assert str(raised.value) == f"visits.csv: unit 'u0': {message}"

    @pytest.mark.parametrize("faulty,named", [
        (("a1", "a5"), "unit 'a1': visit counts must be nonnegative"),
        (("a5", "a7"), "unit 'a5': visit counts must be nonnegative"),
        (("a2", "a6"), "unit 'a2': visit counts must be nonnegative"),
    ])
    def test_error_names_first_unit_across_groups(self, faulty, named):
        """a0's group (a0, a5) is scored before a1's; a1 and a3 sort before
        a5 yet come in later groups, and a7's group comes last."""
        series = self._ones(self.SHAPES)
        for node in faulty:
            series[node][1][60] = -1.0
        with pytest.raises(DataError) as raised:
            compute_recovery_durations(series, 0, 20, RSTART, source="v.csv")
        assert str(raised.value) == f"v.csv: {named}"

    def test_no_group_scored_after_the_first_fault(self):
        """a5 faults in the first group, a0's; the groups of a1 to a4 are
        checked, as they may hold an earlier fault, but none is scored."""
        series = self._ones(self.SHAPES)
        series["a5"][1][60] = -1.0
        scanned = []

        def scan(visits, *args):
            scanned.append(visits.shape[0])
            return np.ones(visits.shape[0])

        with mock.patch.object(empirical, "_scan", scan):
            with pytest.raises(DataError, match="unit 'a5'"):
                compute_recovery_durations(series, 0, 20, RSTART)
            series["a5"][1][60] = 1.0
            compute_recovery_durations(series, 0, 20, RSTART)
        assert scanned == [2, 2, 1, 1, 1, 1]

    def test_settings_checked_once(self):
        series = self._ones({"u0": (0, 131), "u1": (0, 131)})
        with pytest.raises(ConfigError, match="ratio"):
            compute_recovery_durations(series, 0, 20, RSTART, ratio=1.5)
        with pytest.raises(ConfigError, match="persistence_days"):
            compute_recovery_durations(series, 0, 20, RSTART, persistence_days=0)
        with pytest.raises(ConfigError, match="ma_halfwidth"):
            compute_recovery_durations(series, 0, 20, RSTART, ma_halfwidth=-1)

    def test_empty_table_scores_nothing(self):
        assert compute_recovery_durations({}, 0, 6, 10).tolist() == []


def first_recovered_week(weeks, horizon=14):
    """The week a node with these recovered weeks recovers (horizon + 1: never)."""
    return horizon + 1 - np.asarray(weeks)


class TestDurationsToTrajectory:
    """durations_to_weeks: the empirical trajectory as recovered weeks."""

    def test_paper_minimum_duration(self):
        # weekly states 0, 0, 0, then recovered in weeks 3..14
        assert durations_to_weeks([2.14]).tolist() == [12]

    def test_cap_boundary(self):
        # affected through week 13, recovered at week 14 only
        assert durations_to_weeks([14.0]).tolist() == [1]
        assert first_recovered_week(durations_to_weeks([14.0])).tolist() == [14]

    def test_integer_duration_recovers_that_week(self):
        # affected at week 4, recovered from week 5 on
        assert first_recovered_week(durations_to_weeks([5.0])).tolist() == [5]
        assert durations_to_weeks([4.01]).tolist() == durations_to_weeks([5.0]).tolist()

    def test_monotone_and_recovered_at_horizon(self):
        rng = np.random.default_rng(8)
        durations = rng.uniform(0.1, 14.0, size=40)
        weeks = durations_to_weeks(durations)
        # recovered at week 14 (w >= 1), never at week 0 (w <= 14)
        assert np.all((weeks >= 1) & (weeks <= 14))
        # the week a node first counts as recovered is the first t >= d
        assert np.array_equal(first_recovered_week(weeks), np.ceil(durations))
        assert np.array_equal(
            weeks, [sum(1 for t in range(1, 15) if t >= d) for d in durations]
        )

    def test_horizon_sets_the_count(self):
        assert durations_to_weeks([2.5, 10.0], horizon=10).tolist() == [8, 1]


class TestAlignDurations:
    """align_durations: a duration table in node order, and the one check of
    its range, which names the first bad node in node order."""

    NODES = ("a", "b", "c")

    def rejected(self, ids, values, **kwargs) -> str:
        with pytest.raises(DataError) as excinfo:
            align_durations(ids, values, self.NODES, source="d.csv", **kwargs)
        return str(excinfo.value)

    def test_node_order(self):
        aligned = align_durations(("c", "a", "b"), [14.0, 2.5, 7.0], self.NODES)
        assert aligned.dtype == np.float64
        assert aligned.tolist() == [2.5, 7.0, 14.0]

    def test_uncapped_duration_rejected(self):
        assert self.rejected(self.NODES, [2.5, 15.0, 14.0]) == (
            "d.csv: durations must be capped at 14 weeks; node 'b' has 15")

    def test_nonpositive_duration_rejected(self):
        assert self.rejected(self.NODES, [2.5, 0.0, 14.0]) == (
            "d.csv: durations must be strictly positive; node 'b' has 0")

    @pytest.mark.parametrize("value,rule", [
        (15.0, "must be capped at 14 weeks"), (-1.0, "must be strictly positive"),
        (np.nan, "must be finite"), (np.inf, "must be finite"),
    ])
    def test_first_bad_node_in_node_order(self, value, rule):
        # the file lists c before b; b comes first in node order
        assert self.rejected(("c", "b", "a"), [value, value, 2.5]) == (
            f"d.csv: durations {rule}; node 'b' has {value:g}")

    def test_horizon_sets_the_cap(self):
        assert align_durations(self.NODES, [2.5, 10.0, 1.0], self.NODES,
                               horizon=10).tolist() == [2.5, 10.0, 1.0]
        assert self.rejected(self.NODES, [2.5, 10.5, 14.0], horizon=10) == (
            "d.csv: durations must be capped at 10 weeks; node 'b' has 10.5")

    def test_missing_and_extra_rows_named(self):
        assert self.rejected(("a", "b", "zz"), [2.5, 99.0, 3.0]) == (
            "d.csv: no row for 1 of the 3 nodes: c; 1 row(s) for ids not among the 3 "
            "nodes: zz; an edge list cannot hold isolated units, a graph built from "
            "--geometry can")


def weeks_of(week, horizon=14):
    """Recovered weeks of one node first recovering at `week` (0 = never)."""
    return np.array([horizon + 1 - week if week else 0])


class TestZeroOneLoss:
    def test_identity_is_zero(self):
        weeks = durations_to_weeks([3.0, 7.0, 14.0])
        assert zero_one_loss(weeks, weeks) == 0

    def test_three_week_shift_costs_three(self):
        assert zero_one_loss(weeks_of(3), weeks_of(6)) == 3

    def test_full_disagreement_is_14n(self):
        n = 5
        assert zero_one_loss(np.full(n, 14), np.zeros(n, dtype=np.int8)) == 14 * n

    def test_hand_enumerated_cases(self):
        cases = [
            (3, 6, 3),    # empirical week 3, simulated week 6
            (6, 3, 3),    # symmetric shift
            (1, 14, 13),  # extreme early vs horizon
            (5, 0, 10),   # simulation never recovers: weeks 5..14 differ
            (14, 14, 0),  # agreement at the cap
        ]
        for emp_week, sim_week, expected in cases:
            loss = zero_one_loss(weeks_of(emp_week), weeks_of(sim_week))
            assert loss == expected, (emp_week, sim_week)

    def test_symmetric(self):
        rng = np.random.default_rng(21)
        a = rng.integers(0, 15, 9)
        b = rng.integers(0, 15, 9)
        assert zero_one_loss(a, b) == zero_one_loss(b, a)

    def test_counts_disagreeing_cells(self):
        """Against the cellwise definition on the expanded weekly states."""
        rng = np.random.default_rng(5)
        a = rng.integers(0, 15, 30)
        b = rng.integers(0, 15, 30)
        week = np.arange(1, 15)[:, None]
        cells = np.sum((week >= 15 - a) != (week >= 15 - b))
        assert zero_one_loss(a, b) == cells

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        a = rng.integers(0, 15, n)
        b = rng.integers(0, 15, n)
        assert 0 <= zero_one_loss(a, b) <= 14 * n

    def test_columns_scored_separately(self):
        empirical = np.array([12, 1, 0])
        simulated = np.array([[12, 10, 0], [1, 1, 14], [0, 0, 0]])
        assert zero_one_loss(empirical, simulated).tolist() == [0, 2, 25]
        assert zero_one_loss(simulated, simulated).tolist() == [0, 0, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            zero_one_loss(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="shapes"):
            zero_one_loss(np.zeros(2), np.zeros((3, 2)))


class TestWeeklyDifference:
    """The recovery curves' difference: empirical minus simulated recovered
    counts per week, as analyze writes it."""

    @staticmethod
    def difference(empirical, simulated):
        diff = recovered_counts(empirical, 14) - recovered_counts(simulated, 14)
        return diff, np.cumsum(diff)

    def test_identity_all_zero(self):
        weeks = durations_to_weeks([3.0, 9.0])
        diff, cumulative = self.difference(weeks, weeks)
        assert not diff.any()
        assert not cumulative.any()

    def test_one_week_shift(self):
        diff, cumulative = self.difference(weeks_of(3), weeks_of(4))
        assert diff.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert cumulative.tolist() == [0, 0, 0] + [1] * 12

    def test_cap_spike(self):
        # empirical caps at 14 while the simulation leaves both nodes affected
        empirical = durations_to_weeks([14.0, 14.0])
        simulated = np.zeros(2, dtype=np.int8)
        diff, _ = self.difference(empirical, simulated)
        assert diff[14] == 2
        assert not diff[:14].any()
