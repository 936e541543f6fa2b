"""Per-layer tracing of shapegeo, installed from outside the package.

``Tracer.install()`` replaces the public functions of every shapegeo module
with wrappers that record one span per call: name, start, end, parent span
and task id.  A function that another module imported by name (for example
``evaluate_spectral`` in ``diffeo_flows`` and ``curves``) is replaced in that
namespace too, because the caller looks it up there.  Oracle constructors
hand back oracles whose callables are wrapped as well, and ``trace_oracle``
does the same for an oracle built before the tracer was installed.
``restore()`` puts every original back.  Spans stay in memory until
``write_spans`` is called.

Nothing here is imported by shapegeo, and an untraced benchmark run never
calls ``install``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> span-name prefix; the first dotted part is the layer
MODULES = {
    "shapegeo.periodic_core": "periodic_core",
    "shapegeo.curves": "curves",
    "shapegeo.path_geodesics": "path_geodesics",
    "shapegeo.hilbert_geometry": "hilbert_geometry",
    "shapegeo.kernel_metrics": "kernel_metrics",
    "shapegeo.diffeo_flows": "diffeo_flows",
    "shapegeo.experiments.cli": "experiments",
    "shapegeo.experiments.io": "experiments.io",
}
LAYERS = ("periodic_core", "curves", "path_geodesics", "hilbert_geometry",
          "kernel_metrics", "diffeo_flows", "experiments")
# oracle span prefix by the family part of MetricOracle.name ("sphere(m=10)")
ORACLE_PREFIX = {
    "sphere": "hilbert_geometry.sphere_oracle",
    "landmarks": "kernel_metrics.landmark_oracle",
    "l2-curves": "path_geodesics.curve_space_oracle",
    "flat-curves": "path_geodesics.flat_curve_oracle",
    "euclidean": "path_geodesics.euclidean_oracle",
}
ORACLE_FIELDS = ("metric", "variation", "metric_rows", "variation_rows", "gram")
# evaluate_spectral calls with at most this many points count as small
SMALL_CALL_POINTS = 32
BENCH_LAYER = "bench"

_NAME, _START, _END, _PARENT, _TASK, _ERROR, _VALUE = range(7)


def _shapegeo_modules():
    return [sys.modules[m] for m in MODULES if m in sys.modules]


def installed_wrappers():
    """(module, attribute) pairs of shapegeo that currently hold a wrapper."""
    found = []
    for module in _shapegeo_modules():
        for attr, value in vars(module).items():
            if getattr(value, "_perfbench_span", None) is not None:
                found.append((module.__name__, attr))
    return found


def _spectral_work(c, theta):
    """(points, active modes) of one evaluate_spectral call, from its arguments."""
    coeffs = np.asarray(c.coeffs)
    active = np.count_nonzero(np.any(coeffs != 0.0, axis=tuple(range(coeffs.ndim - 1))))
    return int(np.size(theta)), int(active)


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patched = []

    # -- installing -------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = pre(*args, **kwargs) if pre is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, False, value]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[_ERROR] = True
                raise
            finally:
                rec[_END] = clock()
                stack.pop()
            if post is not None:
                rec[_VALUE], result = post(result)
            return result

        traced._perfbench_span = name
        return traced

    def trace_oracle(self, oracle):
        """Copy of a MetricOracle whose callables record spans."""
        prefix = ORACLE_PREFIX[oracle.name.split("(")[0]]
        fields = {
            f: self._wrap(f"{prefix}.{f}", getattr(oracle, f))
            for f in ORACLE_FIELDS
            if getattr(oracle, f) is not None
        }
        return dataclasses.replace(oracle, **fields)

    def _hooks(self, name):
        if name == "periodic_core.evaluate_spectral":
            return _spectral_work, None
        if name == "path_geodesics.path_energy":
            return None, lambda r: (r, r)
        if name == "path_geodesics.bvp_minimize":
            return None, lambda r: (r[1], r)
        if name == "kernel_metrics.gram_assemble":
            return None, lambda r: (r.shape[0], r)
        if name.endswith("_oracle"):
            return None, lambda r: (None, self.trace_oracle(r))
        return None, None

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals = {}
        for mod_name, prefix in MODULES.items():
            # public: defined in the module, name without a leading underscore
            for attr, fn in vars(sys.modules[mod_name]).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod_name
                        and not attr.startswith("_")):
                    name = f"{prefix}.{attr}"
                    pre, post = self._hooks(name)
                    originals[id(fn)] = (fn, self._wrap(name, fn, pre, post))
        for module in _shapegeo_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextlib.contextmanager
    def task_span(self, task):
        """Root span of one benchmark task; shapegeo spans inside carry its id."""
        self.task = task
        rec = [f"{BENCH_LAYER}.{task}", time.perf_counter(), 0.0, -1, task, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[_ERROR] = True
            raise
        finally:
            rec[_END] = time.perf_counter()
            self._stack.pop()
            self.task = None

    # -- reporting --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "name", "start_s", "end_s", "parent", "task", "error"])
            t0 = self.spans[0][_START] if self.spans else 0.0
            for i, rec in enumerate(self.spans):
                out.writerow([i, rec[_NAME], f"{rec[_START] - t0:.9f}",
                              f"{rec[_END] - t0:.9f}", rec[_PARENT], rec[_TASK],
                              int(rec[_ERROR])])

    def counts(self):
        """Exact work counts of the recorded spans (no times)."""
        metrics = self.metrics()
        return {k: v for k, v in metrics.items()
                if not k.endswith("self_s") and not k.endswith("accept_ratio")}

    def metrics(self):
        """Per-span-name calls and self times plus the derived solver counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for i, rec in enumerate(spans):
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
                children[rec[_PARENT]].append(i)
        calls = Counter()
        self_s = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS + (BENCH_LAYER,), 0.0)
        for i, rec in enumerate(spans):
            own = rec[_END] - rec[_START] - child_time[i]
            calls[rec[_NAME]] += 1
            self_s[rec[_NAME]] += own
            layer_self[rec[_NAME].split(".")[0]] += own
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer, value in layer_self.items():
            out[f"layer.{layer}.self_s"] = value
        out.update(self._spectral_counts())
        out.update(self._bvp_counts(children))
        out["path_geodesics.path_energy.errors"] = sum(
            1 for rec in spans if rec[_NAME] == "path_geodesics.path_energy" and rec[_ERROR])
        out["kernel_metrics.factor_flops"] = sum(
            rec[_VALUE] ** 3 / 3.0 for rec in spans
            if rec[_NAME] == "kernel_metrics.gram_assemble" and not rec[_ERROR])
        return out

    def _spectral_counts(self):
        spans = self.spans
        small = points_x_modes = rk_stages = 0
        for rec in spans:
            if rec[_NAME] != "periodic_core.evaluate_spectral":
                continue
            points, modes = rec[_VALUE]
            small += points <= SMALL_CALL_POINTS
            points_x_modes += points * modes
            parent = rec[_PARENT]
            while parent >= 0:
                if spans[parent][_NAME] == "diffeo_flows.flow_autonomous":
                    rk_stages += 1
                    break
                parent = spans[parent][_PARENT]
        return {
            "periodic_core.evaluate_spectral.small_calls": small,
            "periodic_core.evaluate_spectral.points_x_modes": points_x_modes,
            "diffeo_flows.rk_stages": rk_stages,
        }

    def _bvp_counts(self, children):
        """Iterations, energy trials and accepted steps of every BVP solve.

        Inside a solve each ``energy_gradient`` call opens an iteration and the
        ``path_energy`` calls after it are its line-search trials; the first
        ``path_energy`` call is the initial energy.  A trial is accepted when
        another iteration follows it, or, for the last iteration, when its
        energy is the energy the solve reports.
        """
        solves = unconverged = iterations = energy_evals = trials = accepted = 0
        for i, rec in enumerate(self.spans):
            if rec[_NAME] != "path_geodesics.bvp_minimize" or rec[_ERROR]:
                continue
            report = rec[_VALUE]
            solves += 1
            unconverged += not report.converged
            iterations += report.iterations
            per_iter = []  # per iteration: [trials, last trial energy]
            for c in children[i]:
                name = self.spans[c][_NAME]
                if name == "path_geodesics.energy_gradient":
                    per_iter.append([0, None])
                elif name == "path_geodesics.path_energy":
                    energy_evals += 1
                    if per_iter:
                        per_iter[-1][0] += 1
                        per_iter[-1][1] = self.spans[c][_VALUE]
            for k, (n_trials, last) in enumerate(per_iter):
                trials += n_trials
                if n_trials and (k + 1 < len(per_iter) or last == report.energy):
                    accepted += 1
        return {
            "path_geodesics.bvp.solves": solves,
            "path_geodesics.bvp.unconverged": unconverged,
            "path_geodesics.bvp.iterations": iterations,
            "path_geodesics.bvp.energy_evals": energy_evals,
            "path_geodesics.bvp.backtracks": trials - accepted,
            "path_geodesics.bvp.accept_ratio": accepted / trials if trials else 0.0,
        }
