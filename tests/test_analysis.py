from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as scipy_stats

from recovnet import (
    align_rows,
    correlate,
    multiplier_attribute_comparison,
    split_tertiles,
    tertile_attribute_report,
    threshold_summary,
)
from recovnet import io
from recovnet.analysis import quantiles
from recovnet.errors import DataError


def tau_of(values, seeds=None):
    """(ids, values, seed_mask) as io.read_thresholds returns them, ids n0, n1, ..."""
    values = np.asarray(values, dtype=float)
    ids = tuple(f"n{i}" for i in range(values.size))
    mask = np.zeros(values.size, dtype=bool)
    if seeds:
        mask[list(seeds)] = True
    return ids, values, mask


def summarized(values, seeds=None):
    """The (values, seed_mask) that threshold_summary takes."""
    return tau_of(values, seeds)[1:]


def attrs_for(tau, pci=None, mhi=None, minority=None, flood=None):
    """Attribute columns in tau's node order; flood_extent only when given."""
    n = len(tau[0])
    columns = {
        "per_capita_income": pci if pci is not None else [50_000.0] * n,
        "median_household_income": mhi if mhi is not None else [80_000.0] * n,
        "minority_pct": minority if minority is not None else [30.0] * n,
    }
    if flood is not None:
        columns["flood_extent"] = flood
    return {name: np.asarray(values, dtype=float) for name, values in columns.items()}


def write_attributes_csv(path, rows):
    path.write_text(
        "id,per_capita_income,median_household_income,minority_pct,flood_extent\n"
        + "".join(",".join(map(str, row)) + "\n" for row in rows)
    )
    return path


class TestThresholdSummary:
    def test_three_point_example(self):
        summary = threshold_summary(*summarized([0.0, 0.5, 1.0]), include_seeds=True)
        assert summary["mean"] == pytest.approx(0.5)
        assert summary["variance"] == pytest.approx(1 / 6)

    def test_constant_values(self):
        summary = threshold_summary(*summarized([0.3, 0.3, 0.3, 0.3]))
        assert summary["mean"] == pytest.approx(0.3)
        assert summary["variance"] == 0.0

    def test_seeds_excluded_by_default(self):
        summary = threshold_summary(*summarized([0.0, 0.0, 0.6, 0.8], seeds=[0, 1]))
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(0.7)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        values = rng.random(25)
        a = threshold_summary(*summarized(values), include_seeds=True)
        b = threshold_summary(*summarized(values[::-1]), include_seeds=True)
        assert a["mean"] == pytest.approx(b["mean"])
        assert a["variance"] == pytest.approx(b["variance"])

    def test_all_seeds_without_include_raises(self):
        with pytest.raises(ValueError, match="no threshold"):
            threshold_summary(*summarized([0.0, 0.0], seeds=[0, 1]))

    def test_six_node_boundaries(self):
        summary = threshold_summary(
            *summarized([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), include_seeds=True
        )
        assert 0.2 < summary["tertile_lower"] < 0.3
        assert 0.4 < summary["tertile_upper"] < 0.5


class TestSplitTertiles:
    def test_six_nodes_equal_thirds(self):
        tertiles = split_tertiles(
            *tau_of([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), include_seeds=True
        )
        assert tertiles["low"].tolist() == [0, 1]
        assert tertiles["middle"].tolist() == [2, 3]
        assert tertiles["high"].tolist() == [4, 5]

    def test_ties_broken_by_id(self):
        tertiles = split_tertiles(("n2", "n0", "n1"), np.full(3, 0.5), np.zeros(3, bool),
                                  include_seeds=True)
        assert {name: members.tolist() for name, members in tertiles.items()} == {
            "low": [1], "middle": [2], "high": [0]
        }

    @given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_partition_with_balanced_sizes(self, n, seed):
        rng = np.random.default_rng(seed)
        tau = tau_of(rng.random(n))
        tertiles = split_tertiles(*tau, include_seeds=True)
        groups = [set(v.tolist()) for v in tertiles.values()]
        assert set().union(*groups) == set(range(n))
        assert sum(len(g) for g in groups) == n
        sizes = sorted(len(g) for g in groups)
        assert sizes[-1] - sizes[0] <= 1

    def test_lone_seed_has_nothing_to_split(self):
        with pytest.raises(ValueError, match="no nodes to split into tertiles"):
            split_tertiles(*tau_of([0.0], seeds=[0]))


def tertile_medians(tau, columns, attribute):
    rows = tertile_attribute_report(split_tertiles(*tau, include_seeds=True), columns)
    return {name: summary["median"] for name, attr, summary in rows if attr == attribute}


class TestTertileAttributeReport:
    def test_constant_attributes_identical_summaries(self):
        tau = tau_of([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        medians = tertile_medians(tau, attrs_for(tau), "per_capita_income")
        assert list(medians) == ["low", "middle", "high"]
        assert len(set(medians.values())) == 1

    def test_income_declining_in_threshold(self):
        rng = np.random.default_rng(3)
        values = rng.random(30)
        tau = tau_of(values)
        medians = tertile_medians(tau, attrs_for(tau, pci=100.0 - 50.0 * values),
                                  "per_capita_income")
        assert medians["low"] > medians["middle"] > medians["high"]

    def test_missing_rows_listed(self, tmp_path):
        path = write_attributes_csv(tmp_path / "attributes.csv",
                                    [("n0", 1, 2, 3, ""), ("n2", 1, 2, 3, "")])
        ids, _ = io.read_attributes(path)
        with pytest.raises(DataError, match="attributes.csv: no row for 1 of the 3 nodes: n1$"):
            align_rows(ids, tau_of([0.1, 0.2, 0.3])[0], path)

    def test_repeated_id_named(self):
        """Every per-node reader rejects a repeated id by its row first; a
        caller that aligns ids of its own gets the first repeated one."""
        with pytest.raises(DataError) as raised:
            align_rows(("n1", "n0", "n2", "n0", "n1"), ("n0", "n1", "n2"), "rows")
        assert str(raised.value) == "rows: more than one row for node 'n1'"

    def test_flood_included_only_when_complete(self):
        tau = tau_of([0.1, 0.2, 0.3])
        tertiles = split_tertiles(*tau, include_seeds=True)
        with_flood = tertile_attribute_report(tertiles, attrs_for(tau, flood=[1.0, 2.0, 0.5]))
        assert ("low", "flood_extent") in {(name, attr) for name, attr, _ in with_flood}
        without = tertile_attribute_report(tertiles, attrs_for(tau))
        assert "flood_extent" not in {attr for _, attr, _ in without}


@st.composite
def sizes_and_correlations(draw):
    """A sample size n in [3, 20 000] and a correlation in (-1, 1): any, near
    0, near +-1, or one whose t statistic on n - 2 df is within +-6."""
    n = draw(st.integers(min_value=3, max_value=20_000) | st.integers(min_value=3, max_value=12))
    r = draw(
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True)
        | st.floats(min_value=1e-300, max_value=1e-3)
        | st.floats(min_value=-1e-3, max_value=-1e-300)
        | st.floats(min_value=1e-13, max_value=1e-2).map(lambda d: 1.0 - d)
        | st.floats(min_value=1e-13, max_value=1e-2).map(lambda d: d - 1.0)
        | st.floats(min_value=-6.0, max_value=6.0).map(lambda t: t / math.sqrt(n - 2 + t * t))
    )
    return n, r


class TestCorrelate:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = correlate(x, x)
        assert result["r"] == 1.0
        assert result["p_value"] == 0.0

    def test_perfect_negative_affine(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = correlate(x, -2.0 * x + 7.0)
        assert result["r"] == -1.0

    def test_hand_computed_point_eight(self):
        result = correlate([1, 2, 3, 4], [1, 3, 2, 4])
        assert result["r"] == pytest.approx(0.8)

    def test_matches_scipy(self):
        rng = np.random.default_rng(12)
        x = rng.random(40)
        y = 0.4 * x + rng.random(40)
        expected = scipy_stats.pearsonr(x, y)
        result = correlate(x, y)
        assert result["r"] == pytest.approx(expected.statistic)
        assert result["p_value"] == pytest.approx(expected.pvalue)

    @given(
        st.floats(min_value=-5, max_value=5).filter(lambda a: abs(a) > 1e-6),
        st.floats(min_value=-10, max_value=10),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_gives_sign_of_slope(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(10) * 3
        result = correlate(x, a * x + b)
        assert result["r"] == (1.0 if a > 0 else -1.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="paired 1-D samples required"):
            correlate([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_zero_correlation_has_p_one(self):
        result = correlate([1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0])
        assert result["r"] == 0.0
        assert result["p_value"] == 1.0

    @given(sizes_and_correlations())
    # t near 1.7 on ~17 000 df, where the tail is 1 - (an incomplete beta
    # near 0.9), so an error in log B(df/2, 1/2) shows ten times over
    @example((17_204, 0.013062248441319202))
    @example((9_348, -0.01766737487682457))
    @settings(max_examples=400, deadline=None)
    def test_p_value_matches_scipy_stdtr(self, case):
        n, target = case
        # x and y have correlation target by construction; the oracle takes
        # the r that correlate found, so only the t tail is compared
        x = np.zeros(n)
        x[:2] = (1.0, -1.0)
        rest = np.zeros(n)
        if n == 3:
            rest[:] = np.array([1.0, 1.0, -2.0]) / np.sqrt(3.0)
        else:
            rest[2:4] = (1.0, -1.0)
        y = target * x + np.sqrt(1.0 - target * target) * rest
        result = correlate(x, y)
        r = result["r"]
        if abs(r) == 1.0:
            assert result["p_value"] == 0.0
            return
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        if n == 3:
            # the Cauchy tail, exact in closed form: stdtr(1, t) is off by up
            # to ~3e-9 relative for |t| below 1e-7 (SciPy 1.17)
            expected = 2.0 / math.pi * math.atan2(1.0, abs(t))
        else:
            expected = float(2.0 * special.stdtr(n - 2, -abs(t)))
        if expected >= 1e-300:
            assert abs(result["p_value"] - expected) <= 1e-10 * expected
        else:
            assert result["p_value"] <= 1e-300

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            correlate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="3"):
            correlate([1.0, 2.0], [0.5, 0.6])


class TestMultiplierComparison:
    def test_all_nodes_selected_flags_empty_complement(self):
        tau = tau_of([0.1, 0.2, 0.3])
        rows = multiplier_attribute_comparison([np.arange(3)], attrs_for(tau))
        non = [summary for _, group, _, summary in rows if group == "non_multiplier"]
        assert non and all(summary is None for summary in non)

    def test_high_threshold_selection_shifts_minority(self):
        rng = np.random.default_rng(5)
        values = rng.random(20)
        tau = tau_of(values)
        columns = attrs_for(tau, minority=100.0 * values)
        rows = multiplier_attribute_comparison([np.argsort(values)[-4:]], columns)
        by_group = {group: summary for _, group, attr, summary in rows if attr == "minority_pct"}
        assert by_group["multiplier"]["median"] > by_group["non_multiplier"]["median"]

    def test_sizes_reported_independently(self):
        tau = tau_of([0.1, 0.2, 0.3, 0.4])
        rows = multiplier_attribute_comparison(
            [np.array([0]), np.array([1, 2])], attrs_for(tau)
        )
        assert {size for size, *_ in rows} == {1, 2}
        for size, group, _, summary in rows:
            assert summary["count"] == (size if group == "multiplier" else 4 - size)

    def test_missing_attribute_rows_rejected(self, tmp_path):
        path = write_attributes_csv(tmp_path / "attributes.csv", [("n1", 1, 2, 3, "")])
        with pytest.raises(DataError, match="no row for 1 of the 2 nodes: n0$"):
            align_rows(io.read_attributes(path)[0], ("n0", "n1"), path)


class TestDistributionSummary:
    def test_quartiles_match_numpy(self):
        rng = np.random.default_rng(2)
        values = rng.random(37)
        # every node selected: the multiplier group is all of values
        [(_, _, _, summary), _] = multiplier_attribute_comparison([np.arange(37)], {"x": values})
        assert summary["q1"] == pytest.approx(np.quantile(values, 0.25))
        assert summary["median"] == pytest.approx(np.median(values))
        assert summary["q3"] == pytest.approx(np.quantile(values, 0.75))
        assert summary["count"] == 37

    def test_quantiles_bit_equal_numpy(self):
        """The sort-and-lerp rule equals np.quantile bit for bit on arrays of
        1 to 60 values, with and without ties, at every probability the
        summaries use and a few more. Zeros of both signs compare equal, and
        np.sort and np.partition may leave either one at a position, so
        there the sign of a zero result is not compared."""
        rng = np.random.default_rng(5)
        probabilities = (0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0)
        for trial in range(4000):
            size = int(rng.integers(1, 61))
            values = rng.normal(0.0, 10.0 ** rng.integers(-3, 6), size)
            if trial % 2:  # ties, zeros of both signs among them
                values = np.round(values, int(rng.integers(-1, 2))) * rng.choice([-1.0, 1.0])
            got = quantiles(values, probabilities)
            expected = np.quantile(values, probabilities)
            if np.signbit(values[values == 0]).any():
                assert np.array_equal(got, expected), (values, got, expected)
            else:
                assert got.tobytes() == expected.tobytes(), (values, got, expected)


class TestAttributeRow:
    """The rules for one row of an attributes table, checked as it is read."""

    def test_minority_bounds(self, tmp_path):
        path = write_attributes_csv(tmp_path / "attributes.csv",
                                    [("a", 1, 2, 10, ""), ("b", 1, 2, 140, "")])
        with pytest.raises(DataError, match=r"attributes.csv: minority_pct outside \[0, 100\] "
                                            r"in row \['b', "):
            io.read_attributes(path)

    def test_negative_flood_rejected(self, tmp_path):
        path = write_attributes_csv(tmp_path / "attributes.csv",
                                    [("a", 1, 2, 10, 0.5), ("b", 1, 2, 10, -0.5)])
        with pytest.raises(DataError, match=r"attributes.csv: negative flood_extent "
                                            r"in row \['b', "):
            io.read_attributes(path)
