"""Alternating parent/change pairs of the benchmark, summarized into one BENCH_<n>.json record.

    python3 tools/bench_pairs.py --parent REV --out BENCH_3.json [--first-seed 1]

The parent side is a ``git archive`` of REV unpacked into a temporary
directory; the change side is a copy of this working tree taken into the
same directory before the first run (``snapshot_worktree``), so an edit
made during the record reaches neither the timings nor the line counts.
Both run their own unchanged ``perfbench/run.py``, one run at a time, for
every workload of BENCHMARK.json and with its ``run_seconds``.  Pair i of
ten uses seed first_seed + i on both sides (``--first-seed`` moves the
seeds to held-out ones), and the side that runs first alternates from pair
to pair, so slow drift of the machine's speed hits both sides alike.  After the pairs, each
side runs one traced pass with seed 42 for the exact work counts.

For every end-to-end metric of BENCHMARK.json the record holds both sides'
values, medians and quartiles (the exclusive method of
``statistics.quantiles``), how many pairs the change won, the median
difference and the parent's interquartile range.  A metric is resolved
when the parent's interquartile range over its median is within the
metric's relative bound, or when every change run reads better than every
parent run; only a resolved metric can be within its bound.  Side by side
with that rule, the record gives the interquartile range of the ten
per-pair change/parent ratios and whether it is within the bound
(``resolved_by_paired_ratio``): pairs share a seed, so it leaves out the
seed-to-seed spread of the work.  No verdict reads it.  A gain counts
only when the change wins at least 9 of 10 pairs and its median beats the
parent's by more than the parent's interquartile range.  The record also
holds each side's line counts of src/ and tests/ (newlines in their .py
files, as ``wc -l`` counts them), from which the change's net LOC follows.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
PAIRS = 10
TRACE_SEED = 42
SIDES = ("parent", "change")


def export_revision(rev, dest):
    """Unpack the committed files of ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    archive = dest / "source.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=fh, check=True)
    checkout = dest / "parent"
    checkout.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(checkout, filter="data")
    archive.unlink()
    return commit, checkout


def snapshot_worktree(root, dest):
    """Copy the working tree of the git checkout ``root`` into ``dest``/change.

    The copy holds the files git tracks or would track
    (``git ls-files --cached --others --exclude-standard``) as they are on
    disk, so it leaves out ignored files and tracked files deleted from the
    tree.  Returns (HEAD's full commit id, the copy).
    """
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, check=True).stdout

    head = git("rev-parse", "HEAD").decode().strip()
    checkout = dest / "change"
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in listed.split("\0"):
        source = root / name
        if name and source.is_file():
            target = checkout / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return head, checkout


def line_counts(checkout):
    """Newline counts of the .py files under src/ and tests/ of one checkout."""
    return {part: sum(f.read_bytes().count(b"\n") for f in (checkout / part).rglob("*.py"))
            for part in ("src", "tests")}


def run_bench(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run; returns (result, provenance) from its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    comment = next(json.loads(line[2:]) for line in lines if line.startswith("# "))
    return json.loads(lines[-1]), comment["provenance"]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"values": [round(v, 4) for v in values], "median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent, change, better, bound):
    """Pairwise and median comparison of one metric, change against parent."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_stats, c_stats = spread(parent), spread(change)
    diff = statistics.median(change) - statistics.median(parent)
    relative = diff / statistics.median(parent)
    iqr = p_stats["q3"] - p_stats["q1"]
    resolved = (iqr / p_stats["median"] <= bound
                or max(sign * c for c in change) < min(sign * p for p in parent))
    # each pair shares a seed, so the spread of the ratios leaves out the seed's
    r1, _, r3 = statistics.quantiles([c / p for p, c in zip(parent, change)], n=4,
                                     method="exclusive")
    return {
        "parent": p_stats,
        "change": c_stats,
        "pairs": len(parent),
        "change_wins": wins,
        "ties": ties,
        "median_change_minus_parent": round(diff, 4),
        "relative_change": round(relative, 4),
        "parent_iqr": round(iqr, 4),
        "bound": bound,
        "resolved": resolved,
        "paired_ratio_iqr": round(r3 - r1, 4),
        "resolved_by_paired_ratio": r3 - r1 <= bound,
        "within_bound": resolved and sign * relative <= bound,
        "gain_rule_met": wins >= 0.9 * len(parent) and sign * diff < 0 and abs(diff) > iqr,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_3.json")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        commit, parent_dir = export_revision(args.parent, Path(tmp))
        head, change_dir = snapshot_worktree(ROOT, Path(tmp))
        checkouts = {"parent": parent_dir, "change": change_dir}
        lines = {side: line_counts(checkouts[side]) for side in SIDES}
        values = {w: {s: {m: [] for m in end_to_end} for s in SIDES} for w in workloads}
        runs = {w: {"runs": 0, "all_correct": True, "failed": 0, "attempted": 0} for w in workloads}
        provenance = {}
        traced = {}
        for workload in workloads:
            for i in range(PAIRS):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    start = time.perf_counter()
                    result, prov = run_bench(checkouts[side], workload, seed, seconds, trace=False)
                    provenance.setdefault(side, prov)
                    for name in end_to_end:
                        values[workload][side][name].append(result["metrics"][name]["value"])
                    tally = runs[workload]
                    tally["runs"] += 1
                    tally["all_correct"] &= result["correct"]
                    tally["failed"] += result["failed"]
                    tally["attempted"] += result["attempted"]
                    print(f"{workload} seed {seed} {side}: correct={result['correct']} "
                          f"wall_s={result['metrics']['wall_s']['value']:.4f} "
                          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr, flush=True)
            traced[workload] = {}
            for side in SIDES:
                result, _ = run_bench(checkouts[side], workload, TRACE_SEED, seconds, trace=True)
                traced[workload][side] = {
                    "correct": result["correct"], "failed": result["failed"],
                    "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                }

    record = {
        "description": (
            f"Parent {commit[:7]} against a copy of the working tree. Each end-to-end entry is {PAIRS} "
            f"alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed S "
            f"--trace 0 --seconds {seconds:g}`, seeds {args.first_seed}-{args.first_seed + PAIRS - 1} "
            "(one pair per seed, the side that runs first alternating), one run at a time, each side "
            "from its own copy of the sources. wall_s and setup_s are at reference speed. Quartiles "
            "are the exclusive method of statistics.quantiles. A metric is resolved when the "
            "parent's IQR over its median is within the bound or every change run beats every "
            "parent run; only a resolved metric is within_bound. Beside that rule, paired_ratio_iqr "
            "is the IQR of the per-pair change/parent ratios and resolved_by_paired_ratio says "
            "whether it is within the bound: it measures run-to-run noise without the "
            "seed-to-seed spread of the work, and no verdict reads it. A gain counts when the "
            "change wins at least 9 of 10 pairs and its median beats the parent's by more than the parent's IQR. "
            f"Per-layer figures are one --trace 1 run per side with seed {TRACE_SEED}. Written "
            "by tools/bench_pairs.py."
        ),
        "end_to_end": {
            w: {name: compare(values[w]["parent"][name], values[w]["change"][name],
                              m["better"], m["bound"])
                for name, m in end_to_end.items()}
            for w in workloads
        },
        "runs_correct": runs,
        "line_counts": lines,
        f"per_layer_seed{TRACE_SEED}": traced,
        "provenance": {
            **{k: v for k, v in provenance["change"].items() if k not in ("commit", "source_sha256", "seed")},
            "parent": {"commit": commit, "source_sha256": provenance["parent"]["source_sha256"]},
            # the working tree: HEAD plus any uncommitted edits, identified by its sources' hash
            "change": {"head": head,
                       "source_sha256": provenance["change"]["source_sha256"]},
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
