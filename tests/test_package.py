"""The package namespace: each public name resolves on first use to the
object its module defines, and README's library example runs."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import recovnet

README = Path(__file__).resolve().parent.parent / "README.md"


def test_each_name_is_its_home_modules_object():
    assert recovnet._HOME
    for name, home in recovnet._HOME.items():
        module = importlib.import_module(f"recovnet.{home}")
        value = getattr(recovnet, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name


def test_dir_and_all_list_every_name():
    assert sorted(recovnet.__all__) == sorted(recovnet._HOME)
    assert set(recovnet.__all__) <= set(dir(recovnet))
    assert "__version__" in dir(recovnet)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        recovnet.no_such_name  # noqa: B018


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "max_iterations=2000" in code
    exec(re.sub(r"max_iterations=\d+", "max_iterations=20", code), {})  # noqa: S102
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
