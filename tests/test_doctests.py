"""Every ``>>>`` example in the ``repro`` sources runs and shows what it prints."""
import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules_with_examples():
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(SRC).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


MODULES = _modules_with_examples()


def test_the_sources_hold_examples():
    assert MODULES


@pytest.mark.parametrize("name", MODULES)
def test_examples_run(name):
    failed, attempted = doctest.testmod(importlib.import_module(name))
    assert attempted and not failed, f"{failed} of {attempted} examples in {name} failed (see stdout)"
