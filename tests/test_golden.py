"""Golden tables: the whole pipeline, in process, against recorded digests.

synth -> fit -> baseline -> multipliers -> analyze runs on a 60-node
instance with small budgets, and every deterministic table it writes must
hash to the SHA-256 recorded below. manifest.json and ga_timing.csv hold
wall-clock data and are left out.

A change that is meant to alter a table (a new random stream, a new column,
a different rounding) re-records the digests: run

    PYTHONPATH=src python tests/test_golden.py

which prints the GOLDEN mapping for the current code, paste it over the one
below, and name the tables that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from recovnet.cli import main

UNSTABLE = {"manifest.json", "ga_timing.csv"}

GOLDEN = {
    "analysis/analysis_report.json":
        "bdc16a45bb72d984b5cf2d983d64b5e3e64ebcd41adcd7e3eb225ef3b468802e",
    "analysis/increment_rates.csv":
        "8f5a76ab46cb66ac90448d0276e3e55ed61fe72947f23926a14d6d20ba2885e8",
    "analysis/multiplier_attributes.csv":
        "2e7a776064b19cfc3892af0ed52b392775e2426b489a0ba60889e069b400c5eb",
    "analysis/recovery_curves.csv":
        "f73c67166a14336ab0048afa578b005d24beb6b68b3411c4b9778f786cc7935c",
    "analysis/tertile_attributes.csv":
        "8fab5b3aa88790462dff02daa2c206fc953c7798701396a658d7a2e41e16ecc4",
    "analysis/tertile_members.csv":
        "f7bf1c650cc84afa6e4d1ccc3b2c1d4e11d2ec6b2ab57b3146d3e14a1104caa7",
    "baseline/baseline.json":
        "7f82146a6522f4b93abb0241e30236ccdd01d38f9f5d0924624e5b5eb9ce6972",
    "baseline/baseline_losses.csv":
        "f3f19651ad122daa980a68824a63c1586a2d1c9425640918addc901bbc878aa8",
    "fit/fit_report.json":
        "e2a820100a8d49c203b6a3998b5395d877bd2f8fbdf561aa37dfd851951e333f",
    "fit/generations.csv":
        "017688cd8244278e66dedbd59541b238c76fb9ea1cac524d4e36e808669d33c0",
    "fit/thresholds.csv":
        "6f078ec0b88fb928590f5faa720f1acdff3abe08403ae3bc40e497853bd4222e",
    "fit/trajectory.csv":
        "5853465c724a33570c7631ac97bfcb0ece8b906e6ad5254b6a4554533f1a2437",
    "multipliers/generations_N1.csv":
        "da6b39e43bd178440201e7adf022700b24a3f25276ecb9a280600f5f47df8ebc",
    "multipliers/generations_N2.csv":
        "fabd7539ba374fa6fd6de4ccc901ca2a42fcff79a40c834174831c2ba4f4cc45",
    "multipliers/generations_N3.csv":
        "b65e5b81349e1f88270490f77769c37c35d2d1b5feb57241e8f16b49b5f460a4",
    "multipliers/generations_N6.csv":
        "27581356ad78c1c96317e38edc6cfb6de1e2895d212a1e1b03ef4a99a81058d2",
    "multipliers/multipliers_N1.csv":
        "afcc4a0b1f59af91022cb518961ab015cfb235eebeaf740e6654f25064e78443",
    "multipliers/multipliers_N2.csv":
        "cb9721617cc06a3659b4491fe7e2f30968ed8eba406c908178a4e9169368023a",
    "multipliers/multipliers_N3.csv":
        "4f44e7d5c45e1df323d6703b98291bd4dfafd9442cc05614302e35be90adeb83",
    "multipliers/multipliers_N6.csv":
        "610306268411710f723ee9305454b4e39c72cc85b6e632dda3ff24b15201f779",
    "multipliers/multipliers_summary.csv":
        "1b74e5e2f7a29f5b4f1add6527588a77e224ba3a68524db057d53b9f5f11700c",
    "synth/attributes.csv":
        "f2d9d31cf142ad6854ace4890bfa841dc60d190ee14c9dfb7c21ab484e3337bc",
    "synth/durations.csv":
        "c4936aed1e32013fe802951b5d15ca62f0705aa051eeee0c362dc794d56a8be9",
    "synth/edges.csv":
        "95bbe2c569e93c70f42a1d17acb6962fa606aa7501a8e56670d411207fe76fa0",
    "synth/instance.json":
        "9c1663be7f9901711285f869ec84ac1f2ba84bdc479c02367cd5b330f4da737f",
    "synth/planted_thresholds.csv":
        "acb6b4c6be69ccfbb306d2e57dc3ef88913201297b94cb6043a6776dd6352e4f",
    "synth/trajectory.csv":
        "ec48facb1a719979c97b3b69502da84b55dd0d72616f8fe2a1e673486cc42718",
}


def run_pipeline(root: Path) -> None:
    synth, fit, mult = root / "synth", root / "fit", root / "multipliers"
    commands = [
        ["synth", "--nodes", "60", "--kind", "perturbed_grid", "--rng-seed", "7",
         "--out", synth],
        ["fit", "--edges", synth / "edges.csv", "--durations", synth / "durations.csv",
         "--max-iterations", "30", "--baseline-runs", "20", "--rng-seed", "7", "--out", fit],
        ["baseline", "--edges", synth / "edges.csv", "--durations", synth / "durations.csv",
         "--runs", "70", "--rng-seed", "7", "--out", root / "baseline"],
        ["multipliers", "--edges", synth / "edges.csv", "--thresholds", fit / "thresholds.csv",
         "--max-iterations", "15", "--rng-seed", "7", "--out", mult],
        ["analyze", "--thresholds", fit / "thresholds.csv",
         "--attributes", synth / "attributes.csv", "--edges", synth / "edges.csv",
         "--durations", synth / "durations.csv", "--multipliers-dir", mult,
         "--out", root / "analysis"],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in UNSTABLE
    }


def test_pipeline_tables_match_recorded_digests(tmp_path, capsys):
    run_pipeline(tmp_path)
    capsys.readouterr()
    assert digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp))
        print("GOLDEN = {", file=sys.stderr)
        for name, digest in digests(Path(tmp)).items():
            print(f'    "{name}":\n        "{digest}",', file=sys.stderr)
        print("}", file=sys.stderr)
