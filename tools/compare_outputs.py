"""Byte-for-byte comparison of the subcommands' default outputs, parent against this working tree.

    python3 tools/compare_outputs.py --parent REV

The parent side is a ``git archive`` of REV unpacked into a temporary
directory (``bench_pairs.export_revision``); the change side is this
working tree.  Each side runs every subcommand of this tree's
``EXPERIMENTS`` at its defaults, one at a time, as
``python -m shapegeo.experiments.cli NAME --out DIR`` on its own ``src/``.
Then each subcommand's table.csv, plot.svg and manifest.txt are compared
byte for byte, one printed line per file.  The change side also reruns
each subcommand from its own manifest.txt (``--config``), and the rerun's
table.csv and manifest.txt must equal the first run's byte for byte.  The
exit status is 1 when a file differs or is missing, or when a run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, RUN_TIMEOUT_S, SIDES, export_revision  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from shapegeo.experiments.cli import EXPERIMENTS  # noqa: E402

FILES = ("table.csv", "plot.svg", "manifest.txt")
# what a rerun from a manifest reproduces; the plot is drawn from the same table
RERUN_FILES = ("table.csv", "manifest.txt")


def run_subcommands(checkout, out_root, names, manifests=None):
    """Run each subcommand into out_root/NAME, at its defaults or, given ``manifests``,
    from manifests/NAME/manifest.txt; returns {name: exit code}."""
    codes = {}
    for name in names:
        cmd = [sys.executable, "-m", "shapegeo.experiments.cli", name,
               "--out", str(out_root / name)]
        if manifests is not None:
            cmd += ["--config", str(manifests / name / "manifest.txt")]
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        codes[name] = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                                     timeout=RUN_TIMEOUT_S).returncode
    return codes


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        commit, parent_dir = export_revision(args.parent, tmp)
        checkouts = {"parent": parent_dir, "change": ROOT}
        codes = {side: run_subcommands(checkouts[side], tmp / f"out-{side}", names)
                 for side in SIDES}
        codes["rerun"] = run_subcommands(ROOT, tmp / "out-rerun", names,
                                         manifests=tmp / "out-change")
        results = compare_dirs(tmp / "out-parent", tmp / "out-change", names)
        reruns = compare_dirs(tmp / "out-change", tmp / "out-rerun", names, RERUN_FILES)
    failed = [(side, name, code) for side, side_codes in codes.items()
              for name, code in side_codes.items() if code]
    for side, name, code in failed:
        print(f"failed     {side} {name} (exit {code})")
    for path, status in results:
        print(f"{status:<10} {path}")
    for path, status in reruns:
        print(f"{status:<10} rerun {path}")
    same = sum(status == "identical" for _, status in results)
    rerun_same = sum(status == "identical" for _, status in reruns)
    print(f"{same}/{len(results)} files identical to {commit[:12]}")
    print(f"{rerun_same}/{len(reruns)} manifest rerun files identical to the first run")
    return 1 if failed or same < len(results) or rerun_same < len(reruns) else 0


if __name__ == "__main__":
    sys.exit(main())
