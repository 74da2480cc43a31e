"""Compares two source checkouts end to end, in alternating pairs of benchmark runs.

    python tools/compare_e2e.py OLD_ROOT NEW_ROOT --workload W --seed S --pairs N [--seconds T]

OLD_ROOT and NEW_ROOT are checkouts, each with its own ``perfbench/run.py``.
A pair runs both roots' ``perfbench/run.py --trace 0`` on the workload and
seed, one after the other, old first in even pairs and new first in odd
ones, so that the machine's speed drifts over both sides alike. Every run's
result line (the JSON object ``perfbench/run.py`` prints last) is printed as
it comes, as one JSON object with its pair and side, and the summary
follows. A run that exits non-zero or prints no result stops the
comparison.

For each ``end_to_end`` metric of this checkout's ``BENCHMARK.json`` the
summary gives each side's median, the old side's first and third quartiles,
the pairs the new side won (better in the metric's direction) and the
median per-pair difference new - old. Running a checkout against itself
(``tools/compare_e2e.py . . ...``) is the A/A run that shows the noise of
those figures.

The roots' absolute paths should have the same length: ``paper-scale``'s
``peak_rss_mib`` moves by about 0.18 MiB with the length of the checkout
path, so a warning is printed when they differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("old", "new")


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one run of root's perfbench/run.py, run in root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{root}: perfbench/run.py exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}{done.stdout[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric (BENCHMARK.json's end_to_end entries), over pairs of
    {"old": result, "new": result}: each side's median, the old side's
    quartiles, the pairs new won and the median of new - old."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        old, new = ([pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES)
        differences = [b - a for a, b in zip(old, new)]
        sign = 1 if metric["better"] == "lower" else -1
        q1, q3 = quartiles(old)
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "old_median": statistics.median(old), "new_median": statistics.median(new),
            "old_q1": q1, "old_q3": q3,
            "new_won": sum(sign * d < 0 for d in differences), "pairs": len(pairs),
            "median_difference": statistics.median(differences),
        }
    return summary


def correct_runs(pairs: list[dict]) -> dict:
    """Per side, the runs whose result says correct with nothing failed."""
    return {side: sum(pair[side]["correct"] is True and pair[side]["failed"] == 0
                      for pair in pairs) for side in SIDES}


def report(summary: dict, correct: dict, pairs: int) -> str:
    lines = [f"correct runs: old {correct['old']}/{pairs}, new {correct['new']}/{pairs}",
             f"{'metric':<14}{'unit':<7}{'old median':>12}{'new median':>12}"
             f"{'old q1-q3':>22}{'new won':>9}{'median new-old':>16}"]
    for name, s in summary.items():
        lines.append(f"{name:<14}{s['unit']:<7}{s['old_median']:>12.4f}{s['new_median']:>12.4f}"
                     f"{s['old_q1']:>11.4f}-{s['old_q3']:<10.4f}"
                     f"{s['new_won']:>5}/{s['pairs']:<3}{s['median_difference']:>16.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"old": args.old_root.resolve(), "new": args.new_root.resolve()}
    if len(str(roots["old"])) != len(str(roots["new"])):
        print(f"warning: the roots' paths differ in length ({len(str(roots['old']))} and "
              f"{len(str(roots['new']))} characters); peak_rss_mib moves with it",
              file=sys.stderr)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for k in range(args.pairs):
        pair = {}
        for side in SIDES[::-1] if k % 2 else SIDES:
            pair[side] = run_benchmark(roots[side], args.workload, args.seed, args.seconds)
            print(json.dumps({"pair": k, "side": side, "result": pair[side]}), flush=True)
        pairs.append(pair)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of --seconds {args.seconds}")
    print(report(summarize(pairs, metrics), correct_runs(pairs), len(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
