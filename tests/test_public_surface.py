"""Each module's __all__ is exactly its public surface."""

import importlib
import inspect
import pkgutil

import pytest

import shapegeo

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
