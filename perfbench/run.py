"""shapegeo benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the package is imported from its ``src`` directory.
One caller runs the workload's task list again and again (a closed loop)
until ``S`` seconds have passed, with BLAS pinned to one thread.  Every
task's output is checked against a reference after the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  ``wall_s`` is
  the median time of one pass over the task list, ``setup_s`` the median of
  several set-ups (import, seeded inputs, oracles, warm-up calls; all but
  the first in fresh processes), both at reference speed (see
  ``calibrate``; the raw seconds go to the report), and ``peak_rss_mb``
  the process's peak resident memory.
- ``--trace 1``: the per-layer metrics of BENCHMARK.json.  Untraced and
  traced passes alternate; the traced ones wrap shapegeo's public functions
  from outside (``layertrace.py``).  ``trace.overhead_s`` is the traced
  minus the untraced median pass time, both at reference speed.

``--workload all`` runs the four workloads back to back in one process.
Failed tasks, provenance, the spans of the last traced pass and a full
report go to ``.perfbench_out/`` in the checkout.  Two passes or two runs
with one seed and one source tree must agree exactly on every output and
work count, or the run reports ``correct: false``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: with two, evaluate_spectral's small tensordots keep a second
# core busy (exp-circle: 8.5 s CPU for 5.0 s wall) and run slower, and the
# timings then depend on what else holds that core.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
CALIBRATION_REPS = 300
# one calibration per this much task time, at least one after each task
CALIBRATION_EVERY_S = 0.4
# Calibration time taken as the reference speed; times are rescaled to it.
CALIBRATION_REFERENCE_S = 0.03


def _load_package():
    """Import shapegeo from this checkout's src; exit 2 if it is not there."""
    if not (SRC / "shapegeo" / "__init__.py").is_file():
        print(f"perfbench: no shapegeo sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import shapegeo

    if Path(shapegeo.__file__).resolve().parent != SRC / "shapegeo":
        print(f"perfbench: imported shapegeo from {shapegeo.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _source_digest():
    """Hash of the package and benchmark sources: what the exact counts depend on."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(seed):
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _digest(obj, h):
    """Feed an output tree into a hash: exact bytes of every number."""
    import numpy as np

    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest(item, h)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def calibrate():
    """Time a fixed numpy/Python kernel that shares no code with shapegeo.

    The speed of a shared machine drifts, by up to 2x over tens of seconds.
    A pass time divided by the median of the calibrations taken between its
    tasks, times CALIBRATION_REFERENCE_S, keeps the workload's cost and
    drops most of the drift.  One calibration jitters by about 20%, so a
    pass takes one per CALIBRATION_EVERY_S of task time.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(2, 48, 10))
    a = rng.normal(size=(8, 8))
    a = a @ a.T + 8.0 * np.eye(8)
    signal = rng.normal(size=(2, 256))
    theta, k = np.linspace(0.0, 6.0, 64), np.arange(16)
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPS):
        r2 = np.sum(x * x, axis=-1)[..., None]
        np.sum((x / r2 + np.sum(x * y, axis=-1)[..., None] * y) ** 2)
        np.fft.ifft(np.fft.fft(signal, axis=-1) * 1j, axis=-1)
        np.linalg.solve(a, y[0, :8])
        np.tensordot(np.exp(1j * np.multiply.outer(theta, k)), k, axes=([-1], [-1]))
    return time.perf_counter() - start


def at_reference_speed(seconds, calibrations):
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(calibrations)


def output_signature(outputs):
    h = hashlib.sha256()
    _digest(outputs, h)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# One pass over a workload's tasks
# ---------------------------------------------------------------------------


def run_pass(workload, tracer=None, calibrations=None):
    """Run every task once; returns (seconds per task, outputs, failures by task).

    Given a ``calibrations`` list, runs ``calibrate`` before the first task
    and, after each task, once per CALIBRATION_EVERY_S of its time (at
    least once), outside the task times, and appends the calibration times.
    """
    outputs, failures = {}, {}
    elapsed = []
    if calibrations is not None:
        calibrations.append(calibrate())
    for task in workload.tasks:
        span = tracer.task_span(task.name) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                outputs[task.name] = task.run()
        except Exception as exc:  # a failing task is counted, not fatal
            failures[task.name] = [f"raised {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        elapsed.append(time.perf_counter() - start)
        if calibrations is not None:
            for _ in range(max(1, round(elapsed[-1] / CALIBRATION_EVERY_S))):
                calibrations.append(calibrate())
    return elapsed, outputs, failures


def check_pass(workload, outputs, failures):
    for task in workload.tasks:
        if task.name not in outputs:
            continue
        try:
            found = task.check(outputs[task.name])
        except Exception as exc:
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failures[task.name] = found
    return failures


def traced_pass(workload, tracer, calibrations=None):
    """A pass with the tracer installed and the set-up oracles swapped for traced copies."""
    originals = dict(workload.oracles)
    workload.oracles.update({k: tracer.trace_oracle(o) for k, o in originals.items()})
    try:
        with tracer.installed():
            return run_pass(workload, tracer, calibrations)
    finally:
        workload.oracles.update(originals)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def set_up(name, seed):
    import workloads

    out_dir = OUT / name / f"seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, str(out_dir))


def setup_samples(name, seed, first):
    """The in-process set-up time, if given, plus fresh-process ones, run one at a time."""
    samples = [] if first is None else [first]
    while len(samples) < SETUP_SAMPLES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Run:
    """Outcome of the passes of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.signature = None
        self.quality = {}

    def record(self, workload, outputs, failures):
        check_pass(workload, outputs, failures)
        self.attempted += len(workload.tasks)
        self.failed += len(failures)
        for task, messages in failures.items():
            self.errors.extend(f"{task}: {m}" for m in messages)
        if not failures:
            signature = output_signature(outputs)
            if self.signature is None:
                self.signature = signature
            elif signature != self.signature:
                self.errors.append("outputs differ between passes with one seed")
        vanishing = outputs.get("vanishing-l2")
        if vanishing:
            self.quality["l2_min_length"] = vanishing["rows"][-1][1]


def _check_counts_file(name, seed, digest, key, value, errors):
    """Compare exact counts with an earlier run of the same source and seed."""
    path = OUT / "counts" / f"{digest[:16]}-{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text()) if path.exists() else {}
    if key in stored and stored[key] != value:
        errors.append(f"{key} differs from an earlier run with seed {seed}")
    stored.setdefault(key, value)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))


def measure(name, seed, seconds, trace, spec, first_in_process):
    """One workload run; only the first in a process can time its own set-up with the import."""
    import layertrace

    workload = set_up(name, seed)
    first = None
    if first_in_process:
        first = at_reference_speed(time.perf_counter() - _T0, [calibrate() for _ in range(3)])
    setups = setup_samples(name, seed, first)
    run = Run()
    untraced, untraced_ref, traced, traced_ref, counts, tracer = [], [], [], [], None, None
    deadline = time.perf_counter() + seconds
    while True:
        calibrations = []
        seconds, outputs, failures = run_pass(workload, calibrations=calibrations)
        untraced.append(sum(seconds))
        untraced_ref.append(at_reference_speed(sum(seconds), calibrations))
        run.record(workload, outputs, failures)
        if trace:
            tracer = layertrace.Tracer()
            calibrations = []
            seconds, outputs, failures = traced_pass(workload, tracer, calibrations)
            traced.append(sum(seconds))
            traced_ref.append(at_reference_speed(sum(seconds), calibrations))
            run.record(workload, outputs, failures)
            pass_counts = tracer.counts()
            if counts is not None and pass_counts != counts:
                run.errors.append("work counts differ between traced passes")
            counts = pass_counts
        if time.perf_counter() >= deadline:
            break
    if layertrace.installed_wrappers():
        run.errors.append("tracer wrappers left installed")

    digest = _source_digest()
    if run.signature is not None:
        _check_counts_file(name, seed, digest, "output_signature", run.signature, run.errors)
    if counts is not None:
        _check_counts_file(name, seed, digest, "work_counts", counts, run.errors)

    if trace:
        values = tracer.metrics()
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced_ref) - statistics.median(untraced_ref)
        values["path_geodesics.l2_min_length"] = run.quality.get("l2_min_length", 0.0)
        solves = values["path_geodesics.bvp.solves"]
        values["path_geodesics.bvp.unconverged_frac"] = (
            values["path_geodesics.bvp.unconverged"] / solves if solves else 0.0)
        layer_sum = sum(v for k, v in values.items() if k.startswith("layer."))
        if abs(layer_sum - traced[-1]) > 0.01 * traced[-1]:
            run.errors.append(f"layer self times sum to {layer_sum:.4f} s, "
                              f"traced pass took {traced[-1]:.4f} s")
        metric_spec = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(untraced_ref),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metric_spec = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metric_spec}
    result = {
        "correct": not run.errors and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "trace": trace,
        "provenance": provenance(seed),
        "passes_untraced_s": untraced,
        "passes_untraced_reference_s": untraced_ref,
        "passes_traced_s": traced,
        "setup_samples_s": setups,
        "fail_frac": run.failed / run.attempted,
        "quality": run.quality,
        "errors": run.errors,
        "all_values": values,
        "result": result,
    }
    run_dir = OUT / name / f"seed{seed}"
    (run_dir / f"report-trace{int(trace)}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        # one file per workload, so repeated traced runs do not pile up
        tracer.write_spans(OUT / name / "spans.csv")
    return result, report


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="shapegeo benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # before numpy is first imported; set-up children inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _load_package()
    if args.setup_only:
        set_up(args.workload, args.seed)
        elapsed = time.perf_counter() - _T0
        print(repr(at_reference_speed(elapsed, [calibrate() for _ in range(3)])))
        return 0

    selected = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        result, report = measure(name, args.seed, args.seconds, bool(args.trace), spec,
                                 first_in_process=name == selected[0])
        for err in report["errors"]:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
        print("# " + json.dumps({"workload": name, "provenance": report["provenance"],
                                 "fail_frac": report["fail_frac"], "quality": report["quality"],
                                 "passes_untraced_s": report["passes_untraced_s"],
                                 "passes_untraced_reference_s": report["passes_untraced_reference_s"],
                                 "passes_traced_s": report["passes_traced_s"]}), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(selected) > 1 else ""
        for key, metric in result["metrics"].items():
            combined["metrics"][prefix + key] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
