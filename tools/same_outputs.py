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
``ga_timing.csv``, which holds wall-clock data, and ``manifest.json``, whose
JSON is compared without its ``timestamp`` and without the timing fields
that hold seconds or are divided by them (CLOCK_FIELDS); so its settings,
``rows_scored``, ``kernel_calls`` and ``columns_per_call`` are compared. So
are each stage's exit code and stdout, so that a line lost as a process
ends shows up. Stderr is not compared: a warning quotes the source line that
raised it, which moves with any edit above it. The script prints the number
of files compared, every file that differs or exists on one side only, every
stage whose exit code or stdout differs, and every failed stage; it exits 1
if there is any, else 0. Two manifests that differ only in the kernel's call
widths (WIDTH_FIELDS) are printed on a ``call widths differ`` line with both
``columns_per_call`` maps, so that a change of chunking reads apart from a
changed result; two that differ only in added or removed ``settings`` keys
(a new option, say) are printed on a ``settings differ`` line with those
keys. Either still counts as a difference. Nothing under ``perfbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEEDS = (1, 1009)
UNSTABLE_FILES = {"ga_timing.csv"}
# manifest.json fields, at the top or in its timing block, that hold wall-clock time
CLOCK_FIELDS = {"timestamp", "total_seconds", "seconds_per_generation", "performance_index",
                "search_seconds"}
# manifest.json timing fields that record how the kernel split its columns
WIDTH_FIELDS = frozenset({"kernel_calls", "columns_per_call"})


def environment(src: Path) -> dict:
    """The environment with src first on PYTHONPATH; exits if recovnet does
    not import from src there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import recovnet, sys; sys.stdout.write(recovnet.__file__)"
    found = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    if found.returncode != 0 or not Path(found.stdout).resolve().is_relative_to(src):
        raise SystemExit(f"recovnet does not import from {src}: {found.stdout or found.stderr}")
    return env


def run_workload(workload, seed: int, env: dict, work: Path) -> tuple[Path, dict, list[str]]:
    """Writes the inputs and runs the stages under work; returns the run
    directory, each stage's exit code and stdout by name, and a line for each
    failed stage."""
    inputs, run = work / "inputs", work / "run"
    inputs.mkdir(parents=True)
    run.mkdir()
    workload.prepare(inputs, seed)
    ends, failed = {}, []
    for stage in workload.stages(seed):
        proc = subprocess.run([sys.executable, "-m", "recovnet", *stage.args],
                              cwd=run, env=env, capture_output=True, text=True)
        ends[stage.name] = (proc.returncode, proc.stdout)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            failed.append(f"stage {stage.name} exited {proc.returncode}: {last}")
    return run, ends, failed


def outputs(run: Path) -> set[str]:
    return {p.relative_to(run).as_posix() for p in run.rglob("*")
            if p.is_file() and p.name not in UNSTABLE_FILES}


def comparable(path: Path, ignored: frozenset = frozenset()) -> bytes:
    """The file's bytes; for a manifest, its JSON without CLOCK_FIELDS and
    the ignored fields."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_bytes())
    for fields in (manifest, manifest.get("timing", {})):
        for key in (CLOCK_FIELDS | ignored) & set(fields):
            del fields[key]
    return json.dumps(manifest, sort_keys=True).encode()


def difference(old: Path, new: Path, name: str) -> Optional[str]:
    """None if the two files compare equal; else the line that reports
    them. For manifests that differ only in added or removed ``settings``
    keys, that is ``settings differ`` with the keys; for manifests that
    differ only in WIDTH_FIELDS, ``call widths differ`` with both
    ``columns_per_call`` maps; else ``differs``."""
    if comparable(old) == comparable(new):
        return None
    if old.name != "manifest.json":
        return f"differs: {name}"
    old_doc, new_doc = (json.loads(comparable(path)) for path in (old, new))
    old_settings, new_settings = old_doc.pop("settings", {}), new_doc.pop("settings", {})
    shared = old_settings.keys() & new_settings.keys()
    if old_doc == new_doc and all(old_settings[key] == new_settings[key] for key in shared):
        added = json.dumps(sorted(new_settings.keys() - shared))
        removed = json.dumps(sorted(old_settings.keys() - shared))
        return f"settings differ: {name}: added {added}, removed {removed}"
    if comparable(old, WIDTH_FIELDS) == comparable(new, WIDTH_FIELDS):
        old_map, new_map = (
            json.dumps(json.loads(path.read_bytes()).get("timing", {}).get("columns_per_call"))
            for path in (old, new))
        return f"call widths differ: {name}: old {old_map}, new {new_map}"
    return f"differs: {name}"


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
                runs, ends = {}, {}
                for label, env in envs.items():
                    work = Path(tmp) / label / name / str(seed)
                    runs[label], ends[label], failed = run_workload(WORKLOADS[name], seed, env,
                                                                    work)
                    problems += [f"{case}: {label}: {line}" for line in failed]
                for stage, (code, stdout) in ends["old"].items():
                    new_code, new_stdout = ends["new"][stage]
                    if code != new_code:
                        problems.append(f"{case}: stage {stage} exited {code} in old, "
                                        f"{new_code} in new")
                    if stdout != new_stdout:
                        problems.append(f"{case}: stage {stage}: stdout differs")
                old, new = outputs(runs["old"]), outputs(runs["new"])
                problems += [f"{case}: only in old: {f}" for f in sorted(old - new)]
                problems += [f"{case}: only in new: {f}" for f in sorted(new - old)]
                same = sorted(old & new)
                compared += len(same)
                lines = (difference(runs["old"] / f, runs["new"] / f, f) for f in same)
                problems += [f"{case}: {line}" for line in lines if line is not None]
                print(f"{case}: {len(same)} files", flush=True)
    for line in problems:
        print(line)
    print(f"{compared} files compared, {len(problems)} differences or failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
