"""Package layout: submodule imports bind modules, the package keeps the
names the benchmark imports from it, the benchmark's tracer finds every
name it wraps, and no module imports a name it never uses."""

import ast
import importlib.util
import os
import subprocess
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


def test_the_cli_imports_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads
    import phasemin

    probe = "import sys, phasemin.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(phasemin.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert run.stdout == "[]\n"


def test_package_keeps_the_names_bench_reference_imports():
    from phasemin import Moments, QuadraticPotential, SymplecticSampler

    assert Moments.__module__ == "phasemin.distributions"
    assert QuadraticPotential.__module__ == "phasemin.distributions"
    assert SymplecticSampler.__module__ == "phasemin.verify"


def test_no_module_imports_a_name_it_never_uses():
    # the package keeps its public names in __init__.py, which uses none of them
    import phasemin

    for path in sorted(Path(phasemin.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"
