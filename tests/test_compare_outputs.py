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
    for runs in (first, rerun):
        code, wall_s = runs["sobolev-props"]
        assert code == 0
        assert wall_s > 0
    results = compare_outputs.compare_dirs(tmp_path / "first", tmp_path / "rerun", names,
                                           compare_outputs.RERUN_FILES)
    assert results == [("sobolev-props/table.csv", "identical"),
                       ("sobolev-props/manifest.txt", "identical")]


def test_column_differences_of_tables(compare_outputs, tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("x,t,err\n1,0.5,0\n2,0.25,0\n")
    change.write_text("x,t,err,extra\n1,0.5,0,7\n2,0.2501,1e-12,7\n")
    diffs = compare_outputs.column_differences(parent, change)
    assert list(diffs) == ["x", "t", "err"]  # the change side's new column is not compared
    assert diffs["x"] == (0.0, 0.0)
    assert diffs["t"] == pytest.approx((1e-4, 1e-4 / 0.2501))
    assert diffs["err"] == (1e-12, 1.0)
    change.write_text("x,t,err\n1,0.5,0\n")
    assert compare_outputs.column_differences(parent, change) is None


def _checkout(root, names):
    """A checkout whose src/ holds only a cli module with these EXPERIMENTS names."""
    package = root / "src" / "shapegeo"
    (package / "experiments").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "experiments" / "__init__.py").write_text("")
    (package / "experiments" / "cli.py").write_text(f"EXPERIMENTS = {dict.fromkeys(names)!r}\n")
    return root


def test_subcommand_names_come_from_the_checkout(compare_outputs, tmp_path):
    assert compare_outputs.subcommand_names(_checkout(tmp_path, ["b", "a"])) == ["b", "a"]


def test_a_subcommand_the_parent_lacks_runs_on_the_change_side_only(
        compare_outputs, tmp_path, monkeypatch, capsys):
    parent, change = _checkout(tmp_path / "parent", ["a"]), tmp_path / "change"
    monkeypatch.setattr(compare_outputs, "EXPERIMENTS", dict.fromkeys(["a", "new"]))
    monkeypatch.setattr(compare_outputs, "export_revision", lambda rev, dest: ("0" * 40, parent))
    monkeypatch.setattr(compare_outputs, "snapshot_worktree", lambda root, dest: ("1" * 40, change))
    ran = []

    def run_subcommands(checkout, out_root, names, manifests=None):
        ran.append((checkout, names))
        for name in names:
            _fill(out_root, name, compare_outputs.FILES)
        return {name: (0, 0.5) for name in names}

    monkeypatch.setattr(compare_outputs, "run_subcommands", run_subcommands)
    assert compare_outputs.main(["--parent", "REV"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ran == [(parent, ["a"]), (change, ["a", "new"]), (change, ["a", "new"])]
    assert "only-change new" in lines
    assert not any(line.startswith("wall") and "new" in line for line in lines)
    assert "3/3 files identical to 000000000000" in lines
    assert "4/4 manifest rerun files identical to the first run" in lines


def test_manifest_differences_are_the_lines_one_side_lacks(compare_outputs, tmp_path):
    parent, change = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent.write_text("# versions: a=1 b=2\nexperiment = x\nn = 4\n# steps = 9\n")
    change.write_text("# versions: a=1\nexperiment = x\nn = 4\n# steps = 9\n# extra = 1\n")
    assert compare_outputs.manifest_differences(parent, change) == (
        ["# versions: a=1 b=2"], ["# versions: a=1", "# extra = 1"])
    assert compare_outputs.manifest_differences(parent, parent) == ([], [])


def test_a_differing_manifest_prints_its_lines(compare_outputs, tmp_path, monkeypatch, capsys):
    parent, change = _checkout(tmp_path / "parent", ["a"]), tmp_path / "change"
    monkeypatch.setattr(compare_outputs, "EXPERIMENTS", dict.fromkeys(["a"]))
    monkeypatch.setattr(compare_outputs, "export_revision", lambda rev, dest: ("0" * 40, parent))
    monkeypatch.setattr(compare_outputs, "snapshot_worktree", lambda root, dest: ("1" * 40, change))

    def run_subcommands(checkout, out_root, names, manifests=None):
        _fill(out_root, "a", compare_outputs.FILES)
        if checkout == change:
            (out_root / "a" / "manifest.txt").write_bytes(b"changed\n")
        return {"a": (0, 0.5)}

    monkeypatch.setattr(compare_outputs, "run_subcommands", run_subcommands)
    assert compare_outputs.main(["--parent", "REV"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("differs    a/manifest.txt")
    assert [line.strip() for line in lines[at + 1:at + 3]] == ["- same", "+ changed"]
