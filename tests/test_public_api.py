"""Public-API integrity: exports resolve, are documented, and match
__all__ across every subpackage."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.scripting",
    "repro.content",
    "repro.spatial",
    "repro.consistency",
    "repro.cluster",
    "repro.replication",
    "repro.net",
    "repro.gateway",
    "repro.obs",
    "repro.persistence",
    "repro.schema",
    "repro.durable",
    "repro.workloads",
    "repro.bench",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicate_exports(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))


@pytest.mark.parametrize("package", PACKAGES)
def test_public_classes_and_functions_documented(package):
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{package}: missing docstrings: {undocumented}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_module_docstring(package):
    module = importlib.import_module(package)
    assert (module.__doc__ or "").strip(), f"{package} needs a docstring"


def test_public_methods_documented_on_core_facade():
    """Every public method of the flagship classes carries a docstring."""
    from repro.core import GameWorld, Query
    from repro.persistence import WriteAheadLog
    from repro.scripting import Interpreter

    for cls in (GameWorld, Query, WriteAheadLog, Interpreter):
        missing = []
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            if not (member.__doc__ or "").strip():
                missing.append(f"{cls.__name__}.{name}")
        assert not missing, f"undocumented methods: {missing}"


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"
