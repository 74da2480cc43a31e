"""Run the benchmark over several seeds and workloads and summarise it.

    python3 perfbench/collect.py --workloads paper-scale,small-exact \\
        --seeds 1-10 --trace 0 --out perfbench/results/BENCH_example.json

Each run is ``perfbench/run.py`` with the given arguments. For every metric
(the final JSON line) and every ``name value unit`` line run.py prints
before it, the summary holds the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread). The output file also keeps every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, trace: int, seconds: int, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    began = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
              "run_s": time.perf_counter() - began, "info": {}}
    if proc.returncode != 0 or not lines:
        record["stderr"] = proc.stderr[-4000:]
        return record
    record["result"] = json.loads(lines[-1])
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                record["info"][parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
            except ValueError:
                pass
    return record


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", required=True)
    parser.add_argument("extra", nargs="*", help="more run.py arguments, after --")
    args = parser.parse_args()

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds(args.seeds):
            record = run(workload, seed, args.trace, args.seconds, args.extra)
            runs.append(record)
            result = record.get("result", {})
            print(f"{workload} seed {seed}: exit {record['exit_code']} "
                  f"correct {result.get('correct')} {record['run_s']:.1f} s", flush=True)
            for source in (result.get("metrics", {}), record["info"]):
                for name, metric in source.items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        summary[workload] = {name: {**summarise(v), "unit": units[name]} for name, v in values.items()}
        for name, s in summary[workload].items():
            spread = "" if s["spread"] is None else f"spread {s['spread']:.4f}"
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']} {spread}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "label": args.label,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "processor": platform.processor(), "cpus": os.cpu_count()},
        "arguments": {"seeds": args.seeds, "trace": args.trace, "seconds": args.seconds,
                      "extra": args.extra},
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
