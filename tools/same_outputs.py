"""Checks that two source trees write the same files for the benchmark's
workloads.

    python tools/same_outputs.py OLD_SRC NEW_SRC [--workload W ...] [--seed S ...]

OLD_SRC and NEW_SRC are directories that hold the ``recovnet`` package (a
checkout's ``src``). For each workload of ``perfbench/workloads.py`` (all by
default) and each seed (1 and 1009 by default), each tree gets its own
temporary directory laid out as ``perfbench/run.py`` lays out a pass: the
workload's ``prepare`` writes ``inputs/``, and its stages run in order in
``run/`` as ``python -m recovnet ...`` with the tree first on PYTHONPATH.

Every file the stages write is compared byte for byte, except
``manifest.json`` and ``ga_timing.csv``, which hold wall-clock data. The
script prints the number of files compared, every file that differs or
exists on one side only, and every failed stage; it exits 1 if there is
any, else 0. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEEDS = (1, 1009)
UNSTABLE_FILES = {"manifest.json", "ga_timing.csv"}


def environment(src: Path) -> dict:
    """The environment with src first on PYTHONPATH; exits if recovnet does
    not import from src there."""
    env = dict(os.environ)
    env.pop("RECOVNET_THREADS", None)  # the CLI runs with its own defaults
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import recovnet, sys; sys.stdout.write(recovnet.__file__)"
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    if found.returncode != 0 or not Path(found.stdout).resolve().is_relative_to(src):
        raise SystemExit(f"recovnet does not import from {src}: {found.stdout or found.stderr}")
    return env


def run_workload(workload, seed: int, env: dict, work: Path) -> tuple[Path, list[str]]:
    """Writes the inputs and runs the stages under work; returns the run
    directory and a line for each failed stage."""
    inputs, run = work / "inputs", work / "run"
    inputs.mkdir(parents=True)
    run.mkdir()
    workload.prepare(inputs, seed)
    failed = []
    for stage in workload.stages(seed):
        proc = subprocess.run([sys.executable, "-m", "recovnet", *stage.args],
                              cwd=run, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            failed.append(f"stage {stage.name} exited {proc.returncode}: {last}")
    return run, failed


def outputs(run: Path) -> set[str]:
    return {p.relative_to(run).as_posix() for p in run.rglob("*")
            if p.is_file() and p.name not in UNSTABLE_FILES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help=f"a workload seed (repeatable; default: {DEFAULT_SEEDS})")
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    envs = {label: environment(src) for label, src in trees.items()}

    compared, problems = 0, []
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for name in args.workload or WORKLOADS:
            for seed in args.seed or DEFAULT_SEEDS:
                case = f"{name}/{seed}"
                runs = {}
                for label, env in envs.items():
                    work = Path(tmp) / label / name / str(seed)
                    runs[label], failed = run_workload(WORKLOADS[name], seed, env, work)
                    problems += [f"{case}: {label}: {line}" for line in failed]
                old, new = outputs(runs["old"]), outputs(runs["new"])
                problems += [f"{case}: only in old: {f}" for f in sorted(old - new)]
                problems += [f"{case}: only in new: {f}" for f in sorted(new - old)]
                same = sorted(old & new)
                compared += len(same)
                problems += [f"{case}: differs: {f}" for f in same
                             if (runs["old"] / f).read_bytes() != (runs["new"] / f).read_bytes()]
                print(f"{case}: {len(same)} files", flush=True)
    for line in problems:
        print(line)
    print(f"{compared} files compared, {len(problems)} differences or failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
