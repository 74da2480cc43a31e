"""tools/same_outputs.py's file comparison, on files written here (no
stage is run)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def manifest(directory: Path, name: str, settings=(), timing=(),
             timestamp: str = "2026-01-01T00:00:00+00:00") -> Path:
    """A multipliers manifest as the CLI writes one, with the given settings
    and timing fields changed."""
    doc = {
        "command": "multipliers",
        "settings": {"brute_force": True, "sizes": [1, 2, 3], "stage2_rng_seed": 1},
        "timestamp": timestamp,
        "versions": {"numpy": "2.0.0", "python": "3.11.7", "recovnet": "0.1.0"},
        "timing": {"search_seconds": 0.5, "kernel_calls": 7, "rows_scored": {"1": 40},
                   "columns_per_call": {"1": 1, "40": 1, "780": 1, "3276": 3, "52": 1}},
    }
    doc["settings"].update(settings)
    doc["timing"].update(timing)
    path = directory / name / "manifest.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def test_comparable_drops_clock_fields(tmp_path):
    """Manifests that differ only in the timestamp and the seconds compare
    equal, and no clock field is left in what is compared."""
    old = manifest(tmp_path, "old")
    new = manifest(tmp_path, "new", timestamp="2026-06-30T12:00:00+00:00",
                   timing={"search_seconds": 9.75})
    assert same_outputs.comparable(old) == same_outputs.comparable(new)
    kept = json.loads(same_outputs.comparable(new))
    assert not same_outputs.CLOCK_FIELDS & {*kept, *kept["timing"]}


def test_setting_difference_differs(tmp_path):
    old = manifest(tmp_path, "old")
    new = manifest(tmp_path, "new", settings={"stage2_rng_seed": 2})
    assert same_outputs.difference(old, new, "brute_force/manifest.json") == (
        "differs: brute_force/manifest.json")


def test_settings_keys_only_difference_is_labelled(tmp_path):
    """Manifests that differ only in added or removed settings keys, as a
    new option row makes them, get a line of their own naming the keys."""
    old = manifest(tmp_path, "old")
    new = manifest(tmp_path, "new", settings={"objective": "recovered", "init": "random"})
    assert same_outputs.difference(old, new, "fit/manifest.json") == (
        'settings differ: fit/manifest.json: added ["init", "objective"], removed []')
    assert same_outputs.difference(new, old, "fit/manifest.json") == (
        'settings differ: fit/manifest.json: added [], removed ["init", "objective"]')
    # a changed value of a shared key, or a change outside the settings, is
    # a plain difference even beside an added key
    for name, timing, settings in (("value", (), {"init": "random", "sizes": [1, 2]}),
                                   ("rows", {"rows_scored": {"1": 41}}, {"init": "random"})):
        other = manifest(tmp_path, name, settings=settings, timing=timing)
        assert same_outputs.difference(old, other, "fit/manifest.json") == (
            "differs: fit/manifest.json")


def test_width_only_difference_is_labelled(tmp_path):
    """Manifests that differ only in kernel_calls and columns_per_call get a
    line of their own, with both width maps."""
    old = manifest(tmp_path, "old")
    new = manifest(tmp_path, "new", timing={
        "kernel_calls": 9, "columns_per_call": {"1": 1, "40": 1, "780": 1, "1638": 5, "1690": 1}})
    assert same_outputs.difference(old, new, "brute_force/manifest.json") == (
        'call widths differ: brute_force/manifest.json: '
        'old {"1": 1, "3276": 3, "40": 1, "52": 1, "780": 1}, '
        'new {"1": 1, "1638": 5, "1690": 1, "40": 1, "780": 1}')
    # a width change beside another difference is a plain difference
    other = manifest(tmp_path, "other", settings={"sizes": [1, 2]},
                     timing={"kernel_calls": 9})
    assert same_outputs.difference(old, other, "brute_force/manifest.json") == (
        "differs: brute_force/manifest.json")


def test_table_compared_byte_for_byte(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"id,loss\r\na,1\r\n")
    new.write_bytes(b"id,loss\na,1\n")
    assert same_outputs.difference(old, old, "t.csv") is None
    assert same_outputs.difference(old, new, "t.csv") == "differs: t.csv"
