"""Package layout: submodule imports bind modules, the package keeps the
names the benchmark imports from it, and the benchmark's tracer finds every
name it wraps."""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_submodule_imports_bind_modules():
    import phasemin.restack as R
    import phasemin.williamson as W

    assert isinstance(W, types.ModuleType) and W.__name__ == "phasemin.williamson"
    assert isinstance(R, types.ModuleType) and R.__name__ == "phasemin.restack"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # renaming or removing a function that bench/tracer.py wraps breaks the
    # traced benchmark run; this catches it in the test suite instead
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    eigh = np.linalg.eigh
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is eigh


def test_package_keeps_the_names_bench_reference_imports():
    from phasemin import Moments, QuadraticPotential, SymplecticSampler

    assert Moments.__module__ == "phasemin.distributions"
    assert QuadraticPotential.__module__ == "phasemin.distributions"
    assert SymplecticSampler.__module__ == "phasemin.verify"
