"""recovnet benchmark: runs one workload through the CLI and prints its metrics.

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Load is a closed loop with one client: each stage is a child
``python -m recovnet ...`` process and the next starts when it exits. A
pass is one run of the workload's stages; passes are started until
``--seconds`` have gone by (at least two). The outputs of the first pass are
checked against independent references, and every later pass must write
byte-identical tables.

The speed of a shared machine's processors drifts by up to 70 % over
minutes, so times are scaled to a fixed speed: before and after every stage
and set-up a fixed reference task (``reference_task``, no package code) is
timed, and the stage's seconds are multiplied by REFERENCE_S over the mean
of the two. A stage's time is the median of its scaled times over passes;
wall_s is the sum of those medians. Unscaled times are printed as well.
With ``--trace 1`` an untraced pass is followed by a traced one, which
gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
those of BENCHMARK.json (``end_to_end`` untraced, ``per_layer`` traced).
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Spans  # noqa: E402
from reference import load_oracles, read_json, scan_for_nan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 2
REFERENCE_REPEATS = 3
# reference_task's median time on the 2-vCPU machine where the numbers in
# results/ were recorded; scaled times are seconds at that machine's speed
REFERENCE_S = 0.055
DEADLINE_S = 165.0  # every child is stopped by then, so a run ends within 180 s
# written with wall-clock data, so not expected to repeat byte for byte
UNSTABLE_FILES = {"manifest.json", "ga_timing.csv"}


def reference_task() -> float:
    """Seconds taken by a fixed piece of work that shares no code with the
    package: interpreted integer and dict work, then NumPy array passes,
    the two kinds of work the stages do."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    values = np.arange(300_000, dtype=np.int64)
    for _ in range(10):
        values = (values * 3 + 1) % 1_000_003
    return time.perf_counter() - start


def reference_seconds() -> float:
    return statistics.median(reference_task() for _ in range(REFERENCE_REPEATS))


class Child:
    """One finished child process: exit code, wall time and resource use."""

    def __init__(self, cmd: list[str], cwd: Path, env: dict, log: Path, timeout: float):
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                self.seconds = time.perf_counter() - start
                proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.scaled = self.seconds  # set by the caller once the reference speed is known


class Bench:
    def __init__(self, args: argparse.Namespace, spec: dict):
        self.args = args
        self.spec = spec
        self.workload = WORKLOADS[args.workload]
        self.start = time.perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.inputs_dir = self.work / "inputs"
        self.env = dict(os.environ)
        self.env.pop("RECOVNET_THREADS", None)  # the CLI runs with its own defaults
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    # -- set-up ------------------------------------------------------------

    def setup(self) -> dict:
        """Medians over SETUP_REPEATS set-ups of the scaled and unscaled
        set-up seconds and of the fresh-process `import recovnet.cli`
        seconds. One set-up is that import (which also warms the file cache)
        plus writing the workload's input files into an empty directory."""
        scaled, totals, imports = [], [], []
        probe = "import recovnet.cli, sys; sys.stdout.write(recovnet.cli.__file__)"
        for _ in range(SETUP_REPEATS):
            before = reference_seconds()
            start = time.perf_counter()
            shutil.rmtree(self.inputs_dir, ignore_errors=True)
            self.inputs_dir.mkdir(parents=True)
            log = self.work / "import.log"
            child = Child([sys.executable, "-c", probe], self.work, self.env, log, self.remaining())
            imported = log.read_text(errors="replace")
            if child.code != 0 or not Path(imported).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"recovnet does not import from {ROOT / 'src'}: {imported}")
            imports.append(child.seconds)
            self.inputs = self.workload.prepare(self.inputs_dir, self.args.seed)
            totals.append(time.perf_counter() - start)
            scaled.append(totals[-1] * REFERENCE_S * 2 / (before + reference_seconds()))
        return {"setup_s": statistics.median(scaled), "setup_raw_s": statistics.median(totals),
                "startup_s": statistics.median(imports)}

    # -- passes ------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> dict:
        directory = self.work / f"pass{index}"
        directory.mkdir()
        stages, traces = [], []
        reference = [reference_seconds()]
        for stage in self.workload.stages(self.args.seed):
            args = list(stage.args)
            if self.args.workers is not None and stage.args[0] in ("fit", "baseline", "multipliers"):
                args += ["--workers", str(self.args.workers)]
            env = self.env
            if traced:
                trace_file = directory / f"{stage.name}.trace.json"
                cmd = [sys.executable, str(HERE / "tracing.py"), *args]
                env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_file),
                           PERFBENCH_RUN_ID=f"{self.args.workload}/{self.args.seed}/"
                                            f"pass{index}/{stage.name}")
            else:
                cmd = [sys.executable, "-m", "recovnet", *args]
            child = Child(cmd, directory, env, directory / f"{stage.name}.log", self.remaining())
            ok = self.record(f"pass {index} stage {stage.name}", child.code == 0,
                             f"exit code {child.code}, see {stage.name}.log")
            if not ok:
                sys.stderr.write((directory / f"{stage.name}.log").read_text(errors="replace")[-2000:])
            if traced and ok:
                try:
                    traces.append(json.loads(trace_file.read_text()))
                except (OSError, ValueError) as exc:
                    self.record(f"pass {index} stage {stage.name} trace", False, repr(exc))
            reference.append(reference_seconds())
            child.scaled = child.seconds * REFERENCE_S * 2 / (reference[-2] + reference[-1])
            stages.append((stage.name, child))
        return {
            "dir": directory,
            "traced": traced,
            "stages": stages,
            "reference": reference,
            "wall_s": sum(c.scaled for _, c in stages),
            "peak_rss_mib": max(c.rss_mib for _, c in stages),
            "traces": traces,
        }

    def run_passes(self) -> list[dict]:
        """Passes until --seconds have gone by, at least MIN_PASSES; --trace 1
        runs an untraced pass and a traced one."""
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(self.run_pass(len(passes), traced=bool(self.args.trace) and len(passes) == 1))
            if len(passes) >= MIN_PASSES and (self.args.trace or time.perf_counter() - start >= self.args.seconds):
                return passes
            if (time.perf_counter() - began) * 1.5 > self.remaining() - 20.0:
                return passes  # leave time for the checks

    # -- checks ------------------------------------------------------------

    def check(self, passes: list[dict]) -> None:
        first = passes[0]["dir"]
        for stage in self.workload.stages(self.args.seed):
            out = first / stage.name
            bad = scan_for_nan(out) if out.is_dir() else ["missing output directory"]
            self.record(f"{stage.name}: finite tables", not bad, f"non-finite values in {bad}")
        oracles = load_oracles(ROOT)
        for name, fn in self.workload.checks(oracles, first, self.inputs):
            try:
                fn()
                self.record(name, True)
            except Exception as exc:  # a failed check is counted, the run goes on
                self.record(name, False, f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        for later in passes[1:]:
            differing = differing_tables(first, later["dir"])
            self.record(f"pass {later['dir'].name} tables equal pass0",
                        not differing, f"differing files: {differing[:10]}")

    # -- report ------------------------------------------------------------

    def resolved_workers(self, passes: list[dict]) -> object:
        for path in sorted(passes[0]["dir"].glob("*/manifest.json")):
            settings = read_json(path).get("settings", {})
            if "workers" in settings:
                return settings["workers"]
        return None

    def report(self, setup: dict, passes: list[dict]) -> dict:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]

        def median(name: str, field: str) -> float:
            return statistics.median(getattr(dict(p["stages"])[name], field) for p in plain)

        stage_s = {name: {field: median(name, field) for field in ("scaled", "seconds", "cpu")}
                   for name, _ in plain[0]["stages"]}
        try:
            quality = self.workload.quality(passes[0]["dir"])
        except (OSError, KeyError, ValueError, AssertionError) as exc:
            self.record("quality metrics", False, repr(exc))
            quality = {}
        print(f"# {self.args.workload} seed={self.args.seed} passes={len(passes)} "
              f"traced={len(traced)}")
        print(f"workers {self.resolved_workers(passes)} count")  # as resolved in manifest.json
        for name, times in stage_s.items():
            print(f"{name}_s {times['scaled']:.4f} s")
            print(f"{name}_raw_s {times['seconds']:.4f} s")
            print(f"{name}_cpu_s {times['cpu']:.4f} s")
        print(f"wall_raw_s {sum(t['seconds'] for t in stage_s.values()):.4f} s")
        print(f"setup_raw_s {setup['setup_raw_s']:.4f} s")
        print(f"reference_s {statistics.median(r for p in passes for r in p['reference']):.5f} s")
        for name, value in quality.items():
            print(f"{name} {value} count")
        print(f"failed_frac {self.failed / self.attempted:.4f} ratio")

        if self.args.trace:
            spans = Spans([t for p in traced for t in p["traces"]])
            values = spans.metrics()
            values["cli.startup_s"] = setup["startup_s"]
            values["trace.overhead_s"] = (
                statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain)
            )
            wanted = self.spec["per_layer"]
            write_spans(self.args, traced)
        else:
            values = {
                "setup_s": setup["setup_s"],
                "wall_s": sum(t["scaled"] for t in stage_s.values()),
                "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
                "ok_frac": 1.0 - self.failed / self.attempted,
            }
            wanted = self.spec["end_to_end"]
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def differing_tables(a: Path, b: Path) -> list[str]:
    names = sorted(
        str(p.relative_to(a)) for p in a.rglob("*")
        if p.is_file() and p.parent != a and p.name not in UNSTABLE_FILES
    )
    missing = [n for n in names if not (b / n).is_file()]
    return missing + [n for n in names if (b / n).is_file() and not filecmp.cmp(a / n, b / n, shallow=False)]


def write_spans(args: argparse.Namespace, traced: list[dict]) -> None:
    """All spans of the traced passes, one JSON array per line:
    [run_id, id, parent, name, start_ns, end_ns]."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as handle:
        for p in traced:
            for trace in p["traces"]:
                for span in trace["spans"]:
                    handle.write(json.dumps([trace["run_id"], *span]) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="pass --workers N to fit, baseline and multipliers "
                             "(default: the CLI's own default)")
    args = parser.parse_args()

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "recovnet" / "__main__.py",
              ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a recovnet source checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    bench = Bench(args, spec)
    bench.work.mkdir(parents=True)
    try:
        setup = bench.setup()
        passes = bench.run_passes()
        bench.check(passes)
        metrics = bench.report(setup, passes)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
