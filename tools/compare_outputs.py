"""Byte-for-byte comparison of the subcommands' default outputs, parent against this working tree.

    python3 tools/compare_outputs.py --parent REV

The parent side is a ``git archive`` of REV unpacked into a temporary
directory (``bench_pairs.export_revision``); the change side is this
working tree.  Each side runs every subcommand of this tree's
``EXPERIMENTS`` at its defaults, one at a time, as
``python -m shapegeo.experiments.cli NAME --out DIR`` on its own ``src/``.
Then each subcommand's table.csv, plot.svg and manifest.txt are compared
byte for byte, one printed line per file.  The exit status is 1 when a
file differs or is missing, or when a run fails on either side.
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


def run_defaults(checkout, out_root, names):
    """Run each subcommand at its defaults into out_root/NAME; returns {name: exit code}."""
    codes = {}
    for name in names:
        cmd = [sys.executable, "-m", "shapegeo.experiments.cli", name,
               "--out", str(out_root / name)]
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
        codes[name] = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                                     timeout=RUN_TIMEOUT_S).returncode
    return codes


def compare_dirs(parent_root, change_root, names):
    """[(NAME/FILE, status)] with status "identical", "differs" or "missing"."""
    results = []
    for name in names:
        for file in FILES:
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
        codes = {side: run_defaults(checkouts[side], tmp / f"out-{side}", names)
                 for side in SIDES}
        results = compare_dirs(tmp / "out-parent", tmp / "out-change", names)
    failed = [(side, name, code) for side in SIDES for name, code in codes[side].items() if code]
    for side, name, code in failed:
        print(f"failed     {side} {name} (exit {code})")
    for path, status in results:
        print(f"{status:<10} {path}")
    same = sum(status == "identical" for _, status in results)
    print(f"{same}/{len(results)} files identical to {commit[:12]}")
    return 1 if failed or same < len(results) else 0


if __name__ == "__main__":
    sys.exit(main())
