"""Golden tables: the whole pipeline, in process, against recorded digests.

synth -> fit -> baseline -> multipliers -> analyze runs on a 60-node
instance with small budgets, and every deterministic table it writes must
hash to the SHA-256 recorded below. manifest.json and ga_timing.csv hold
wall-clock data and are left out. STAGE2_GOLDEN pins the multiplier sets of
the stage-2 paths that pipeline does not take: the GA and brute force over
the 'unrecovered' pool, and brute force on a --geometry graph whose features
are out of id order and whose ids carry blanks.

A change that is meant to alter a table (a new random stream, a new column,
a different rounding) re-records the digests: run

    PYTHONPATH=src python tests/test_golden.py

which prints the GOLDEN and STAGE2_GOLDEN mappings for the current code,
paste them over the ones below, and name the tables that changed, and why,
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

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


STAGE2_GOLDEN = {
    "geometry/multipliers_N1.csv":
        "0f379fac9a5cbbd6cae21394d64cf5a4dde487a338f4b7fe0ac484cd4496d28a",
    "geometry/multipliers_N1.geojson":
        "2d9e8f1ec513073a4a9ffe93b5ccaa7f0b0d1ee5c0608c473bdade9436bcc7af",
    "geometry/multipliers_N2.csv":
        "e00d0c79d7ad5381013ecc19a9a30af9ca6174bd8c77e1fabf556d8a68189213",
    "geometry/multipliers_N2.geojson":
        "308d4a60e8bf3fe394f3019215dadbaed109eaa090aebc23c7303e99d7394836",
    "geometry/multipliers_N3.csv":
        "68bbe29d4ce73a49a102072016744307ac0bbf3f8e1120891fe62fe8632a4d59",
    "geometry/multipliers_N3.geojson":
        "10a2324d1b4006ab5537e95fe12938417d55b889ff8abb64adfdbaa4c2be4e88",
    "geometry/multipliers_summary.csv":
        "5493cbf87c1a4e800e37fca4e49433e49ca516494612e02fadc6902a4db5a0c3",
    "unrecovered_brute_force/multipliers_N1.csv":
        "0073d1c7e358df159607be38c076847747590a4235dbe1cd2c29576a09f861cc",
    "unrecovered_brute_force/multipliers_N2.csv":
        "d5a0d3cac1deb52e97cafc76005fb4d0c641682d5fe2cffcf22b7fcdf9b6a3da",
    "unrecovered_brute_force/multipliers_N3.csv":
        "d502b2cb64cedee0ee582fc810799e5360ab61faa7aa748a1071ca73bb4219fb",
    "unrecovered_brute_force/multipliers_summary.csv":
        "ca5d7b96562e0df05205c764c239d02312035dae1eb187946e14e3e0a045d825",
    "unrecovered_ga/multipliers_N1.csv":
        "853b94a133e217d60edf98767c131f59381bf244315d23a0379e4cbb54ba67b0",
    "unrecovered_ga/multipliers_N2.csv":
        "d5a0d3cac1deb52e97cafc76005fb4d0c641682d5fe2cffcf22b7fcdf9b6a3da",
    "unrecovered_ga/multipliers_N3.csv":
        "7a7fc145a34a2a5dd4a179b9d3af111c439867d139b9d243b68e2483727fa3eb",
    "unrecovered_ga/multipliers_summary.csv":
        "5cb23bae5e9c4f1f7cd03a442a881c8455cff33938aa5d900aae858650ca5e20",
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


def write_shuffled_grid(root: Path, size: int = 5) -> tuple[Path, Path]:
    """A size x size grid of unit squares as a GeoJSON whose features are in
    a shuffled order and whose ids carry blanks, and a thresholds table over
    the stripped ids with two seeds; its thresholds tie often."""
    rng = np.random.default_rng(11)
    cells = [(r, c) for r in range(size) for c in range(size)]
    pad = ["", " ", "  "]
    features = [{
        "type": "Feature",
        "properties": {"id": f"{pad[k % 3]}u{r}{c}{pad[(k + 1) % 3]}"},
        "geometry": {"type": "Polygon", "coordinates": [[
            [c, r], [c + 1, r], [c + 1, r + 1], [c, r + 1], [c, r]]]},
    } for k, (r, c) in ((k, cells[i]) for k, i in enumerate(rng.permutation(len(cells))))]
    geometry = root / "shuffled.geojson"
    geometry.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    values = rng.choice([0.25, 0.5, 1.0], size=len(cells))
    values[[3, 17]] = 0.0
    thresholds = root / "shuffled_thresholds.csv"
    thresholds.write_text("id,threshold,is_seed\n" + "".join(
        f"u{r}{c},{value!r},{int(value == 0.0)}\n" for (r, c), value in zip(cells, values.tolist())))
    return geometry, thresholds


def run_stage2(root: Path) -> None:
    """The GA and brute force over the 'unrecovered' pool of a 30-node
    instance whose planted run leaves 17 nodes unrecovered, and brute force
    on the shuffled grid."""
    synth = root / "synth"
    geometry, thresholds = write_shuffled_grid(root)
    unrecovered = ["--edges", synth / "edges.csv", "--thresholds",
                   synth / "planted_thresholds.csv", "--pool", "unrecovered", "--sizes", "1,2,3"]
    commands = [
        ["synth", "--nodes", "30", "--kind", "perturbed_grid", "--threshold-high", "0.9",
         "--rng-seed", "7", "--out", synth],
        ["multipliers", *unrecovered, "--max-iterations", "10", "--rng-seed", "7",
         "--out", root / "unrecovered_ga"],
        ["multipliers", *unrecovered, "--brute-force", "--out", root / "unrecovered_brute_force"],
        ["multipliers", "--geometry", geometry, "--thresholds", thresholds, "--sizes", "1,2,3",
         "--brute-force", "--out", root / "geometry"],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv


def set_digests(root: Path) -> dict[str, str]:
    """The digests of every multiplier set, GeoJSON copy and summary under root."""
    return {name: digest for name, digest in digests(root).items()
            if Path(name).name.startswith("multipliers_")}


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


def test_stage2_sets_match_recorded_digests(tmp_path, capsys):
    run_stage2(tmp_path)
    capsys.readouterr()
    assert set_digests(tmp_path) == STAGE2_GOLDEN


if __name__ == "__main__":
    for name, run, read in (("GOLDEN", run_pipeline, digests),
                            ("STAGE2_GOLDEN", run_stage2, set_digests)):
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))
            print(f"{name} = {{", file=sys.stderr)
            for path, digest in read(Path(tmp)).items():
                print(f'    "{path}":\n        "{digest}",', file=sys.stderr)
            print("}", file=sys.stderr)
