"""The benchmark's tracer installs and restores its wrappers, and untraced passes install none."""

import sys

import numpy as np
import pytest

import layertrace
import run as bench_run
import workloads
from shapegeo import curves, diffeo_flows, hilbert_geometry
from shapegeo import path_geodesics as pg
from shapegeo import periodic_core as pc


def _snapshot():
    return {
        (name, attr): value
        for name in layertrace.MODULES
        for attr, value in vars(sys.modules[name]).items()
    }


def _sphere_points():
    x = np.zeros(4)
    x[0] = 1.0
    y = np.zeros(4)
    y[1] = 1.0
    return x, y


def test_install_wraps_every_namespace_and_restore_puts_originals_back():
    before = _snapshot()
    tracer = layertrace.Tracer()
    with tracer.installed():
        for module in (pc, diffeo_flows, curves):
            assert module.evaluate_spectral._perfbench_span == "periodic_core.evaluate_spectral"
        assert pg.bvp_minimize._perfbench_span == "path_geodesics.bvp_minimize"
        assert hilbert_geometry.sphere_oracle._perfbench_span == "hilbert_geometry.sphere_oracle"
        with pytest.raises(RuntimeError):
            tracer.install()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert layertrace.installed_wrappers() == []


def test_spans_nest_and_bvp_counts_match_the_report():
    tracer = layertrace.Tracer()
    x, y = _sphere_points()
    with tracer.installed(), tracer.task_span("probe"):
        oracle = hilbert_geometry.sphere_oracle(4)
        init = pg.Path.linear(x, y, 8)
        init = pg.Path(init.points / np.linalg.norm(init.points, axis=1, keepdims=True))
        _, report = pg.bvp_minimize(x, y, oracle, init=init, opts=pg.SolverOptions(tol=1e-4))
    assert report.converged
    spans = tracer.spans
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[0], []).append(rec)
    assert spans[0][0] == "bench.probe" and spans[0][3] == -1
    assert all(rec[4] == "probe" for rec in spans)
    solve = spans.index(by_name["path_geodesics.bvp_minimize"][0])
    for rec in by_name["path_geodesics.energy_gradient"]:
        assert rec[3] == solve
    for rec in by_name["hilbert_geometry.sphere_oracle.metric_rows"]:
        assert spans[rec[3]][0] == "path_geodesics.energy_gradient"
    metrics = tracer.metrics()
    assert metrics["path_geodesics.bvp.iterations"] == report.iterations
    assert metrics["path_geodesics.energy_gradient.calls"] == report.iterations
    assert metrics["path_geodesics.bvp.energy_evals"] == metrics["path_geodesics.path_energy.calls"]
    # a converged solve accepts a step in every iteration but the last
    trials = metrics["path_geodesics.bvp.energy_evals"] - 1
    assert trials - metrics["path_geodesics.bvp.backtracks"] == report.iterations - 1
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    assert layers == pytest.approx(spans[0][2] - spans[0][1], rel=1e-9)


def test_failed_call_is_marked_and_unwinds_the_stack():
    tracer = layertrace.Tracer()
    f = pc.PeriodicFunction.from_callable(np.sin, 8)
    with tracer.installed():
        with pytest.raises(ValueError):
            pc.derivative(f, order=0)
        pc.derivative(f, order=1)
    names = [(rec[0], rec[3], rec[5]) for rec in tracer.spans]
    assert names[0] == ("periodic_core.derivative", -1, True)
    assert ("periodic_core.derivative", -1, False) in names


def test_oracles_built_before_install_are_traced_by_copy():
    tracer = layertrace.Tracer()
    oracle = hilbert_geometry.sphere_oracle(4)
    traced = tracer.trace_oracle(oracle)
    x, y = _sphere_points()
    traced.G(x, y, y)
    assert not hasattr(oracle.metric, "_perfbench_span")
    assert [rec[0] for rec in tracer.spans] == ["hilbert_geometry.sphere_oracle.metric"]


def test_untraced_pass_installs_no_wrapper():
    seen = []

    def probe():
        seen.append(layertrace.installed_wrappers())
        return {"value": pc.sup_norm(pc.PeriodicFunction.from_callable(np.cos, 8))}

    workload = workloads.Workload("probe", [workloads.Task("probe", probe, lambda out: [])])
    wall, outputs, failures = bench_run.run_pass(workload)
    assert seen == [[]] and not failures and outputs["probe"]["value"] == pytest.approx(1.0)
    tracer = layertrace.Tracer()
    bench_run.traced_pass(workload, tracer)
    assert seen[1] and layertrace.installed_wrappers() == []
