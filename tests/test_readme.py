"""The Python examples of README.md run as written, and its settings signature is complete."""

import dataclasses
import pathlib
import re

import pytest

from covgraph.results import FitConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_fit_config_signature_lists_every_field():
    # a removed or added knob must not linger in, or be missing from, the docs
    signatures = re.findall(r"`FitConfig\(([^)]*)\)`", README.read_text(encoding="utf-8"))
    fields = [f.name for f in dataclasses.fields(FitConfig)]
    assert signatures and all([name.strip() for name in sig.split(",")] == fields for sig in signatures)
