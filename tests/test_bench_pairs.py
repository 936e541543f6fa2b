"""The bench record tool: its comparison rules on synthetic run lists, and its working-tree copy."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
NOISY = [5.0, 6.0, 8.0, 10.0, 10.0, 10.0, 12.0, 14.0, 15.0, 16.0]


def test_wide_overlapping_parent_is_unresolved(bench_pairs):
    # parent IQR 7.0 over median 10.0 exceeds the 0.25 bound
    change = [v + 0.5 for v in NOISY]
    out = bench_pairs.compare(NOISY, change, "lower", 0.25)
    assert not out["resolved"] and not out["within_bound"]


def test_seed_dependent_work_is_resolved_by_paired_ratio_only(bench_pairs):
    # seeds 1, 5 and 9 do more work on both sides, so the parent IQR is 60% of its median;
    # each change run is within 1% of its pair's parent run
    parent = [0.16 if i in (0, 4, 8) else 0.10 for i in range(10)]
    change = [p * (1.0 + 0.01 * (-1) ** i) for i, p in enumerate(parent)]
    out = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (out["resolved"], out["within_bound"], out["gain_rule_met"]) == (False, False, False)
    assert out["paired_ratio_iqr"] == 0.02 and out["resolved_by_paired_ratio"]


def test_wide_parent_beaten_by_every_change_run_is_resolved(bench_pairs):
    # every change run (at most 4.8) beats every parent run (at least 5.0)
    out = bench_pairs.compare(NOISY, [v * 0.3 for v in NOISY], "lower", 0.25)
    assert out["resolved"] and out["within_bound"]


@pytest.mark.parametrize("parent, change, better, bound", [
    (PARENT, [v * 1.1 for v in PARENT], "lower", 0.25),
    (PARENT, [v * 1.5 for v in PARENT], "lower", 0.25),
    (NOISY, [v * 0.9 for v in NOISY], "lower", 0.25),
    (NOISY, [v * 0.2 for v in NOISY], "higher", 0.25),
    (PARENT, [v * 0.95 for v in PARENT], "higher", 0.1),
])
def test_within_bound_implies_resolved(bench_pairs, parent, change, better, bound):
    out = bench_pairs.compare(parent, change, better, bound)
    assert out["resolved"] or not out["within_bound"]


def test_regression_past_bound_is_not_within_bound(bench_pairs):
    out = bench_pairs.compare(PARENT, [v * 1.5 for v in PARENT], "lower", 0.25)
    assert out["resolved"] and not out["within_bound"]


def test_gain_rule(bench_pairs):
    # parent IQR is 0.55: a drop of 1.0 in 10/10 pairs is a gain
    assert bench_pairs.compare(PARENT, [v - 1.0 for v in PARENT], "lower", 0.25)["gain_rule_met"]
    # 8 of 10 pairs won is not enough, however large the median gap
    eight = [v - 1.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    out = bench_pairs.compare(PARENT, eight, "lower", 0.25)
    assert out["change_wins"] == 8 and not out["gain_rule_met"]
    # 10/10 pairs won, but the median gap 0.3 is inside the parent's IQR
    out = bench_pairs.compare(PARENT, [v - 0.3 for v in PARENT], "lower", 0.25)
    assert out["change_wins"] == 10 and not out["gain_rule_met"]
    # "higher is better" flips the sign
    assert bench_pairs.compare(PARENT, [v + 1.0 for v in PARENT], "higher", 0.25)["gain_rule_met"]


def test_line_counts(bench_pairs, tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not code\n")
    (tmp_path / "tests" / "test_a.py").write_text("def test():\n    pass\n\n")
    assert bench_pairs.line_counts(tmp_path) == {"src": 3, "tests": 3}


def test_snapshot_worktree(bench_pairs, tmp_path):
    """The copy holds tracked and untracked files as on disk, and no ignored or deleted file."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "tracked.py").write_text("old\n")
    (repo / "deleted.py").write_text("gone\n")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    (repo / "pkg" / "tracked.py").write_text("edited\n")
    (repo / "deleted.py").unlink()
    (repo / "untracked.py").write_text("new\n")
    (repo / "ignored.txt").write_text("build output\n")

    head, copy = bench_pairs.snapshot_worktree(repo, tmp_path / "snap")
    (repo / "pkg" / "tracked.py").write_text("edited after the snapshot\n")

    assert head == git("rev-parse", "HEAD").strip()
    assert copy == tmp_path / "snap" / "change"
    assert sorted(str(f.relative_to(copy)) for f in copy.rglob("*") if f.is_file()) == [
        ".gitignore", "pkg/tracked.py", "untracked.py"]
    assert (copy / "pkg" / "tracked.py").read_text() == "edited\n"
