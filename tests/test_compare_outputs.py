"""The output comparison tool: its directory check on synthetic files, and one manifest rerun."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fill(root, name, files, data=b"same\n"):
    (root / name).mkdir(parents=True, exist_ok=True)
    for file in files:
        (root / name / file).write_bytes(data)


def test_identical_trees(compare_outputs, tmp_path):
    for side in ("parent", "change"):
        _fill(tmp_path / side, "a", compare_outputs.FILES)
    results = compare_outputs.compare_dirs(tmp_path / "parent", tmp_path / "change", ["a"])
    assert results == [("a/table.csv", "identical"), ("a/plot.svg", "identical"),
                       ("a/manifest.txt", "identical")]


def test_one_byte_and_a_missing_file_are_reported(compare_outputs, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        _fill(root, "a", compare_outputs.FILES)
    (change / "a" / "plot.svg").write_bytes(b"sane\n")  # same size, one byte apart
    _fill(parent, "b", compare_outputs.FILES)
    _fill(change, "b", ["table.csv", "plot.svg"])  # the change side lost its manifest
    results = dict(compare_outputs.compare_dirs(parent, change, ["a", "b"]))
    assert results == {
        "a/table.csv": "identical", "a/plot.svg": "differs", "a/manifest.txt": "identical",
        "b/table.csv": "identical", "b/plot.svg": "identical", "b/manifest.txt": "missing",
    }


def test_a_subcommand_without_outputs_is_missing_on_both_sides(compare_outputs, tmp_path):
    results = compare_outputs.compare_dirs(tmp_path / "parent", tmp_path / "change", ["c"])
    assert [status for _, status in results] == ["missing"] * 3


def test_manifest_rerun_of_sobolev_props_is_identical(compare_outputs, tmp_path):
    names = ["sobolev-props"]
    first = compare_outputs.run_subcommands(compare_outputs.ROOT, tmp_path / "first", names)
    rerun = compare_outputs.run_subcommands(compare_outputs.ROOT, tmp_path / "rerun", names,
                                            manifests=tmp_path / "first")
    assert first == rerun == {"sobolev-props": 0}
    results = compare_outputs.compare_dirs(tmp_path / "first", tmp_path / "rerun", names,
                                           compare_outputs.RERUN_FILES)
    assert results == [("sobolev-props/table.csv", "identical"),
                       ("sobolev-props/manifest.txt", "identical")]
