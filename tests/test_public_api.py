"""Public API surface tests: documented entry points must exist."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.runtime",
        "repro.schedulers",
        "repro.apps.dense",
        "repro.apps.fmm",
        "repro.apps.sparseqr",
        "repro.platform",
        "repro.experiments",
        "repro.analysis",
        "repro.extensions",
        "repro.utils",
        "repro.obs",
        "repro.cluster",
        "repro.cli",
    ],
)
def test_subpackages_importable(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} must have a module docstring"


def test_all_exports_resolve_in_subpackages():
    for module in (
        "repro.core",
        "repro.runtime",
        "repro.schedulers",
        "repro.analysis",
        "repro.extensions",
        "repro.utils",
        "repro.obs",
        "repro.cluster",
    ):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None, f"{module}.{name}"


def test_readme_quickstart_names_exist():
    """Names used in the README quickstart must stay importable."""
    from repro import (  # noqa: F401
        AccessMode,
        AnalyticalPerfModel,
        MultiPrio,
        SimConfig,
        SimSpec,
        Simulator,
        TaskFlow,
        make_scheduler,
        register_scheduler,
    )
    from repro.platform import small_hetero  # noqa: F401
    from repro.apps.dense import cholesky_program  # noqa: F401


def test_public_classes_have_docstrings():
    from repro.schedulers.multiprio import MultiPrio
    from repro.obs.bus import EventBus, Observability
    from repro.obs.metrics import Gauge, MetricsRegistry
    from repro.runtime.engine import SchedContext, Simulator
    from repro.runtime.stf import Program, TaskFlow

    for obj in (MultiPrio, Simulator, SchedContext, TaskFlow, Program,
                EventBus, Observability, Gauge, MetricsRegistry):
        assert obj.__doc__
        for name, member in vars(obj).items():
            if callable(member) and not name.startswith("_"):
                assert member.__doc__, f"{obj.__name__}.{name} lacks a docstring"


def test_removed_surfaces_are_gone():
    """The deprecated facades and import shims were deleted, and the
    engine's extension wiring is internal."""
    import repro.api
    import repro.runtime

    assert not hasattr(repro.api, "simulate")
    assert not hasattr(repro.api, "simulate_stream")
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.multiprio")
    for mod in (repro, repro.runtime):
        assert "Extension" not in getattr(mod, "__all__", ())
        assert not hasattr(mod, "Extension")
