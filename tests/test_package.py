"""Public API surface: imports, exports, documentation presence."""

import importlib
import inspect

import pytest

import repro


PUBLIC_MODULES = [
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.random_streams",
    "repro.trace",
    "repro.trace.records",
    "repro.trace.io",
    "repro.trace.stats",
    "repro.trace.synthetic",
    "repro.trace.scaling",
    "repro.trace.workload",
    "repro.trace.distributions",
    "repro.trace.validation",
    "repro.topology",
    "repro.topology.hfc",
    "repro.topology.placement",
    "repro.cache",
    "repro.cache.base",
    "repro.cache.lru",
    "repro.cache.lfu",
    "repro.cache.oracle",
    "repro.cache.global_lfu",
    "repro.cache.segments",
    "repro.cache.index_server",
    "repro.cache.factory",
    "repro.core",
    "repro.core.config",
    "repro.core.meter",
    "repro.core.media_server",
    "repro.core.results",
    "repro.core.runner",
    "repro.core.system",
    "repro.baselines",
    "repro.baselines.no_cache",
    "repro.baselines.multicast",
    "repro.baselines.registry",
    "repro.analysis",
    "repro.analysis.feasibility",
    "repro.analysis.multicast",
    "repro.scenario",
    "repro.scenario.model",
    "repro.scenario.sweep",
    "repro.scenario.runner",
    "repro.scenario.metrics",
    "repro.core.parallel",
    "repro.experiments",
    "repro.experiments.profiles",
    "repro.experiments.base",
    "repro.experiments.registry",
    "repro.report",
    "repro.report.charts",
    "repro.cli",
    "repro.units",
    "repro.errors",
]


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports_and_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module_name} lacks a module docstring"
        )

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, (
            f"{module_name}: undocumented public items {undocumented}"
        )

    def test_quickstart_docstring_example_runs(self):
        # The package docstring promises this snippet works.
        from repro import (PowerInfoModel, SimulationConfig, generate_trace,
                           run_simulation)
        trace = generate_trace(
            PowerInfoModel(n_users=120, n_programs=30, days=1.5, seed=1)
        )
        result = run_simulation(
            trace, SimulationConfig(neighborhood_size=60, warmup_days=0.25)
        )
        assert 0.0 <= result.peak_reduction() <= 1.0
