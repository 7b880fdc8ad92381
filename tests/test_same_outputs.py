"""`tools/same_outputs.py`'s comparison of two output directories.

Every byte-identity claim of a refactor rests on `differences()`: it must
name a file that only one tree wrote, a file whose bytes differ and a
manifest key that differs, and ignore the wall times and the output
directory, which differ between any two runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def differences():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.differences


MANIFEST = {"tool_version": "0", "config": {"outputs": "out", "grid": {"n": 8}},
            "stages": [{"eps": 0.1}], "wall_clock_seconds": {"sweep": 0.5},
            "files": {"sweep.csv": "ab"}}


def _tree(root: Path, files: dict, **manifest) -> Path:
    root.mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)
    (root / "manifest.json").write_text(json.dumps({**MANIFEST, **manifest}), encoding="utf-8")
    return root


def test_same_outputs_differ_in_nothing(tmp_path, differences):
    # wall times and the output directory differ between any two runs
    files = {"sweep.csv": b"x,u\n0,1\n", "bounds.json": b"{}\n"}
    before = _tree(tmp_path / "before", files)
    after = _tree(tmp_path / "after", files, wall_clock_seconds={"sweep": 0.7, "write": 0.1},
                  config={"outputs": "elsewhere", "grid": {"n": 8}})
    assert differences(before, after) == []


def test_every_kind_of_difference_is_reported(tmp_path, differences):
    before = _tree(tmp_path / "before", {"sweep.csv": b"x,u\n0,1\n", "rates.csv": b"q\n"})
    after = _tree(tmp_path / "after", {"sweep.csv": b"x,u\n0,2\n", "bounds.json": b"{}\n"},
                  stages=[{"eps": 0.2}], config={"outputs": "out", "grid": {"n": 16}})
    assert differences(before, after) == [
        "bounds.json: written by the after tree only",
        "manifest.json: 'config' differs",
        "manifest.json: 'stages' differs",
        "rates.csv: written by the before tree only",
        "sweep.csv: bytes differ",
    ]


def test_a_manifest_key_of_one_tree_only_is_reported(tmp_path, differences):
    before = _tree(tmp_path / "before", {})
    after = _tree(tmp_path / "after", {}, oracle={"start": "ironing"})
    assert differences(before, after) == ["manifest.json: 'oracle' differs"]
