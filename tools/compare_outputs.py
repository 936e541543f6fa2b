"""Byte-for-byte comparison of the subcommands' default outputs, parent against this working tree.

    python3 tools/compare_outputs.py --parent REV

The parent side is a ``git archive`` of REV unpacked into a temporary
directory (``bench_pairs.export_revision``); the change side is a copy of
this working tree taken into the same directory before the first run
(``bench_pairs.snapshot_worktree``).  Each side runs every subcommand of
this tree's ``EXPERIMENTS`` that it has itself at its defaults, one at a
time, as ``python -m shapegeo.experiments.cli NAME --out DIR`` on its own
``src/``; a subcommand the parent lacks runs on the change side only, and
prints one ``only-change NAME`` line.  Then each shared subcommand's
table.csv, plot.svg and manifest.txt are compared byte for byte, one
printed line per file; under each table.csv that differs, one line per
column both tables share gives the largest absolute and relative
difference of its entries, and under each manifest.txt that differs, the
lines only the parent's has print as ``- LINE`` and the lines only the
change's has as ``+ LINE``.  The change side also reruns
each subcommand from its own manifest.txt (``--config``), and the rerun's
table.csv and manifest.txt must equal the first run's byte for byte.  The
exit status is 1 when a file differs or is missing, or when a run fails.
Each default run's process wall time, interpreter start included, is
printed as one ``parent s / change s`` line per shared subcommand: one run
per side, so a difference smaller than the machine's run-to-run spread
means nothing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, RUN_TIMEOUT_S, export_revision, snapshot_worktree  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from shapegeo.experiments.cli import EXPERIMENTS  # noqa: E402
from shapegeo.experiments.io import read_csv  # noqa: E402

FILES = ("table.csv", "plot.svg", "manifest.txt")
# what a rerun from a manifest reproduces; the plot is drawn from the same table
RERUN_FILES = ("table.csv", "manifest.txt")


def subcommand_names(checkout):
    """The ``EXPERIMENTS`` names of the checkout's own ``src/``, asked of a fresh interpreter."""
    code = "from shapegeo.experiments.cli import EXPERIMENTS; print(*EXPERIMENTS, sep='\\n')"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S).stdout.split()


def run_subcommands(checkout, out_root, names, manifests=None):
    """Run each subcommand into out_root/NAME, at its defaults or, given ``manifests``,
    from manifests/NAME/manifest.txt; returns {name: (exit code, process wall seconds)}."""
    runs = {}
    for name in names:
        cmd = [sys.executable, "-m", "shapegeo.experiments.cli", name,
               "--out", str(out_root / name)]
        if manifests is not None:
            cmd += ["--config", str(manifests / name / "manifest.txt")]
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        start = time.perf_counter()
        code = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                              timeout=RUN_TIMEOUT_S).returncode
        runs[name] = (code, time.perf_counter() - start)
    return runs


def compare_dirs(parent_root, change_root, names, files=FILES):
    """[(NAME/FILE, status)] with status "identical", "differs" or "missing"."""
    results = []
    for name in names:
        for file in files:
            a, b = parent_root / name / file, change_root / name / file
            if not (a.is_file() and b.is_file()):
                status = "missing"
            else:
                status = "identical" if a.read_bytes() == b.read_bytes() else "differs"
            results.append((f"{name}/{file}", status))
    return results


def column_differences(parent_table, change_table):
    """{column: (largest absolute, largest relative difference)} over the columns both
    tables share, entry by entry, relative to the larger magnitude of the two entries;
    None when the row counts differ."""
    (cols_a, rows_a), (cols_b, rows_b) = read_csv(parent_table), read_csv(change_table)
    if len(rows_a) != len(rows_b):
        return None
    a, b = np.array(rows_a), np.array(rows_b)
    diffs = {}
    for name in (c for c in cols_a if c in cols_b):
        x, y = a[:, cols_a.index(name)], b[:, cols_b.index(name)]
        gap, scale = np.abs(x - y), np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)
        diffs[name] = (float(gap.max()), float(rel.max()))
    return diffs


def manifest_differences(parent_manifest, change_manifest):
    """(lines only the parent's manifest has, lines only the change's has), in file order."""
    a, b = (path.read_text(encoding="utf-8").splitlines()
            for path in (parent_manifest, change_manifest))
    return [line for line in a if line not in b], [line for line in b if line not in a]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        commit, parent_dir = export_revision(args.parent, tmp)
        _, change_dir = snapshot_worktree(ROOT, tmp)
        in_parent = set(subcommand_names(parent_dir))
        shared = [name for name in names if name in in_parent]
        sides = {"parent": (parent_dir, shared), "change": (change_dir, names)}
        runs = {side: run_subcommands(checkout, tmp / f"out-{side}", side_names)
                for side, (checkout, side_names) in sides.items()}
        runs["rerun"] = run_subcommands(change_dir, tmp / "out-rerun", names,
                                        manifests=tmp / "out-change")
        results = compare_dirs(tmp / "out-parent", tmp / "out-change", shared)
        reruns = compare_dirs(tmp / "out-change", tmp / "out-rerun", names, RERUN_FILES)
        moved = {path: column_differences(tmp / "out-parent" / path, tmp / "out-change" / path)
                 for path, status in results
                 if status == "differs" and path.endswith("/table.csv")}
        edits = {path: manifest_differences(tmp / "out-parent" / path, tmp / "out-change" / path)
                 for path, status in results
                 if status == "differs" and path.endswith("/manifest.txt")}
    failed = [(side, name, code) for side, side_runs in runs.items()
              for name, (code, _) in side_runs.items() if code]
    for side, name, code in failed:
        print(f"failed     {side} {name} (exit {code})")
    for path, status in results:
        print(f"{status:<10} {path}")
        if path in moved and moved[path] is None:
            print("             row counts differ")
        for column, (gap, rel) in (moved.get(path) or {}).items():
            print(f"             {column}: abs {gap:.3e}, rel {rel:.3e}")
        removed, added = edits.get(path, ((), ()))
        for line in removed:
            print(f"             - {line}")
        for line in added:
            print(f"             + {line}")
    for path, status in reruns:
        print(f"{status:<10} rerun {path}")
    for name in names:
        if name not in in_parent:
            print(f"only-change {name}")
    for name in shared:
        print(f"wall       {name}: parent {runs['parent'][name][1]:.2f} s / "
              f"change {runs['change'][name][1]:.2f} s (one run per side)")
    same = sum(status == "identical" for _, status in results)
    rerun_same = sum(status == "identical" for _, status in reruns)
    print(f"{same}/{len(results)} files identical to {commit[:12]}")
    print(f"{rerun_same}/{len(reruns)} manifest rerun files identical to the first run")
    return 1 if failed or same < len(results) or rerun_same < len(reruns) else 0


if __name__ == "__main__":
    sys.exit(main())
