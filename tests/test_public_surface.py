"""Each module's __all__ is exactly its public surface, and its dataclasses
compare by identity when they hold arrays and by value otherwise."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import shapegeo
from shapegeo.curves import Curve, CurveTangent
from shapegeo.diffeo_flows import CircleDiffeo, CircleField, FlowResult, RealGrid, TimeDependentField
from shapegeo.kernel_metrics import Kernel, LandmarkConfig
from shapegeo.path_geodesics import Path, SolverOptions
from shapegeo.periodic_core import PeriodicFunction, PeriodicGrid, SpectralCoeffs

MODULES = [
    info.name
    for info in pkgutil.walk_packages(shapegeo.__path__, prefix="shapegeo.")
    if hasattr(importlib.import_module(info.name), "__all__")
] + ["shapegeo"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    public = {
        attr
        for attr, value in vars(module).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
        and not attr.startswith("_")
    }
    unlisted = sorted(public - set(module.__all__))
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"


def _array_holders():
    g = PeriodicGrid(8)
    theta = g.nodes
    circle = PeriodicFunction(g, np.stack([np.cos(theta), np.sin(theta)]))
    curve = Curve(circle)
    field = CircleField(PeriodicFunction(g, 0.1 * np.sin(theta)))
    return {
        "SpectralCoeffs": lambda: SpectralCoeffs(g, np.ones((1, 8), dtype=complex)),
        "PeriodicFunction": lambda: PeriodicFunction(g, np.ones(8)),
        "Curve": lambda: Curve(circle),
        "CurveTangent": lambda: CurveTangent(curve, circle),
        "CircleDiffeo": lambda: CircleDiffeo.identity(8),
        "CircleField": lambda: CircleField(PeriodicFunction(g, np.ones(8))),
        "TimeDependentField": lambda: TimeDependentField(np.array([0.0, 1.0]), [field], g),
        "FlowResult": lambda: FlowResult(np.zeros(8)),
        "LandmarkConfig": lambda: LandmarkConfig(np.eye(2)),
        "Path": lambda: Path(np.zeros((3, 2))),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity_and_hash(name):
    make = _array_holders()[name]
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: PeriodicGrid(8),
        lambda: RealGrid(5.0),
        lambda: Kernel("gaussian", 0.5),
    ],
    ids=["PeriodicGrid", "RealGrid", "Kernel"],
)
def test_scalar_specs_compare_and_hash_by_value(make):
    a, b = make(), make()
    assert a == b
    assert hash(a) == hash(b)


def test_solver_options_compare_by_value():
    assert SolverOptions(tol=1e-6) == SolverOptions(tol=1e-6)
    assert SolverOptions(tol=1e-6) != SolverOptions(tol=1e-7)
