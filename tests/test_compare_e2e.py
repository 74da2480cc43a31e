"""tools/compare_e2e.py's summary, on canned result lines (no benchmark run)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare_e2e", ROOT / "tools" / "compare_e2e.py")
compare_e2e = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_e2e)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(wall_s: float, peak: float, ok: float = 1.0, correct: bool = True) -> dict:
    """A result line as perfbench/run.py prints it."""
    values = {"setup_s": 0.3, "wall_s": wall_s, "peak_rss_mib": peak, "ok_frac": ok}
    units = {m["name"]: m["unit"] for m in METRICS}
    return {"correct": correct, "attempted": 20, "failed": 0 if correct else 1,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def test_summary_of_canned_pairs():
    """Lower is better for wall_s and peak_rss_mib, higher for ok_frac; a
    tie is no win."""
    pairs = [
        {"old": result(1.80, 39.6), "new": result(1.70, 38.7)},
        {"old": result(1.60, 39.7), "new": result(1.65, 38.8)},
        {"old": result(1.75, 39.65), "new": result(1.70, 38.75)},
        {"old": result(1.90, 39.6), "new": result(1.80, 38.7, ok=0.95, correct=False)},
    ]
    summary = compare_e2e.summarize(pairs, METRICS)
    assert list(summary) == [m["name"] for m in METRICS]
    wall, peak, ok, setup = (summary[name] for name in
                             ("wall_s", "peak_rss_mib", "ok_frac", "setup_s"))
    assert wall["old_median"] == pytest.approx(1.775)
    assert wall["new_median"] == pytest.approx(1.70)
    assert wall["new_won"] == 3 and wall["pairs"] == 4
    assert wall["median_difference"] == pytest.approx(-0.075)
    # statistics.quantiles' exclusive method over 1.60, 1.75, 1.80, 1.90
    assert (wall["old_q1"], wall["old_q3"]) == pytest.approx((1.6375, 1.875))
    assert peak["new_won"] == 4 and peak["median_difference"] == pytest.approx(-0.9)
    assert ok["new_won"] == 0 and ok["median_difference"] == 0 and ok["new_median"] == 1.0
    assert setup["new_won"] == 0 and setup["median_difference"] == 0
    assert compare_e2e.correct_runs(pairs) == {"old": 4, "new": 3}
    text = compare_e2e.report(summary, compare_e2e.correct_runs(pairs), len(pairs))
    assert "correct runs: old 4/4, new 3/4" in text
    assert len(text.splitlines()) == 2 + len(METRICS)


def test_one_pair_has_its_value_as_quartiles():
    summary = compare_e2e.summarize([{"old": result(1.5, 39.0), "new": result(1.4, 39.1)}],
                                    METRICS)
    assert (summary["wall_s"]["old_q1"], summary["wall_s"]["old_q3"]) == (1.5, 1.5)
    assert summary["wall_s"]["new_won"] == 1 and summary["peak_rss_mib"]["new_won"] == 0
