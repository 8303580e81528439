"""Spans and counts at phasemin's module boundaries, recorded from outside.

``Tracer.install()`` replaces functions under the name their caller looks
them up by (``phasemin.cli.linear_gromov_energy``, ``phasemin.energy.
williamson``, ``phasemin.verify.expm_batch``, ...), plus a few methods and
the numpy routines whose calls are counted.  Each wrapped call records a
span ``[name, start, end, parent, op, nbytes]`` while an operation is open;
outside an operation the wrappers pass straight through.  Spans stay in
memory until ``dump``.

A span's name is ``<layer>.<function>``, with the layer the module that owns
the function.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, NBYTES = range(6)

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.phasemin_ms": "ms",
    "problems.load_ms": "ms",
    "distributions.moments_ms": "ms",
    "distributions.cell_centers_per_level": "count",
    "distributions.cell_centers_mb": "MiB",
    "distributions.density_ms": "ms",
    "distributions.potential_ms": "ms",
    "linalg.eigh_per_op": "count",
    "linalg.eigvalsh_per_op": "count",
    "williamson.schur_per_op": "count",
    "williamson.spectra_per_op": "count",
    "williamson.ms": "ms",
    "energy.sl_ms": "ms",
    "energy.sp_ms": "ms",
    "energy.gap_ms": "ms",
    "energy.maps_per_point": "count",
    "cli.self_ms": "ms",
    "cli.evals_per_point": "count",
    "restack.grids_per_level": "count",
    "restack.argsorts_per_level": "count",
    "restack.sort_ms": "ms",
    "verify.expm_ms_per_ktrial": "ms",
    "verify.sample_self_ms_per_ktrial": "ms",
    "verify.reduce_ms_per_ktrial": "ms",
    "src.lines": "lines",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def traced(self, fn, name, sized=False):
        """``fn`` wrapped to record a span named ``name`` inside an open op."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if sized:
                span[NBYTES] = result.nbytes
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, sized=False):
        self._patch(owner, attr, self.traced(getattr(owner, attr), name, sized))

    def install(self):
        # phasemin re-exports the functions restack and williamson under the
        # names of their modules, so the modules are looked up explicitly
        mod = {m: importlib.import_module(f"phasemin.{m}")
               for m in ("cli", "distributions", "energy", "restack", "verify", "williamson")}
        cli = mod["cli"]
        for attr, name in (
            ("load_problem", "problems.load_problem"),
            ("parse_problem", "problems.parse_problem"),
            ("moments", "distributions.moments"),
            ("moment_energy", "distributions.moment_energy"),
            ("linear_gardner_energy", "energy.linear_gardner_energy"),
            ("linear_gromov_energy", "energy.linear_gromov_energy"),
            ("verify_map_optimality", "energy.verify_map_optimality"),
            ("symplectic_eigenvalues", "williamson.symplectic_eigenvalues"),
            ("restack", "restack.restack"),
            ("check_trace_minimum", "verify.check_trace_minimum"),
            ("nonsqueeze_search", "verify.nonsqueeze_search"),
            ("_sweep_point", "cli.sweep_point"),
        ):
            self.wrap(cli, attr, name)
        factory = cli.density
        self._patch(cli, "density",
                    lambda f: self.traced(factory(f), "distributions.density_eval"))
        for module, attr, name in (
            ("energy", "symplectic_eigenvalues", "williamson.symplectic_eigenvalues"),
            ("energy", "williamson", "williamson.williamson"),
            ("energy", "sl_optimal_map", "energy.sl_optimal_map"),
            ("energy", "sp_optimal_map", "energy.sp_optimal_map"),
            ("verify", "symplectic_eigenvalues", "williamson.symplectic_eigenvalues"),
            ("verify", "sp_optimal_map", "energy.sp_optimal_map"),
            ("verify", "expm_batch", "verify.expm_batch"),
            ("williamson", "schur", "williamson.schur"),
            ("restack", "Grid", "restack.Grid"),
        ):
            self.wrap(mod[module], attr, name)
        self.wrap(mod["distributions"].Grid, "cell_centers", "distributions.cell_centers",
                  sized=True)
        self.wrap(mod["distributions"].QuadraticPotential, "evaluate",
                  "distributions.potential_eval")
        self.wrap(mod["verify"].SymplecticSampler, "sample_batch", "verify.sample_batch")
        self.wrap(np.linalg, "eigh", "linalg.eigh")
        self.wrap(np.linalg, "eigvalsh", "linalg.eigvalsh")
        self.wrap(np, "argsort", "numpy.argsort")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "nbytes"],
                       "spans": self.spans}, handle)


# ---------------------------------------------------------------------------
# per-layer metrics


class _OpView:
    """The spans of one operation, with counts, inclusive and self times."""

    def __init__(self, spans, child_time):
        self.spans = spans
        self.child_time = child_time

    def count(self, *names):
        return sum(1 for _, s in self.spans if s[NAME] in names)

    def seconds(self, *names):
        return sum(s[END] - s[START] for _, s in self.spans if s[NAME] in names)

    def self_seconds(self, keep):
        return sum(s[END] - s[START] - self.child_time[i]
                   for i, s in self.spans if keep(s[NAME]))

    def outer_seconds(self, layer):
        """Time inside ``layer``, counting nested spans of the same layer once."""
        prefix = layer + "."
        by_index = dict(self.spans)
        return sum(s[END] - s[START] for _, s in self.spans
                   if s[NAME].startswith(prefix)
                   and not by_index.get(s[PARENT], [""])[NAME].startswith(prefix))

    def nbytes(self, name):
        return sum(s[NBYTES] for _, s in self.spans if s[NAME] == name)


def _views(spans):
    child_time = defaultdict(float)
    by_op = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
        by_op[s[OP]].append((i, s))
    return [_OpView(by_op[op], child_time) for op in sorted(by_op)]


def layer_metrics(workload, spans, items):
    """Per-layer metrics homed on ``workload``; ``items`` = items of the round.

    Times are medians over operations in ms, or ms per 1000 sampled
    matrices; counts are per operation, per sweep point or per lattice level.
    """
    views = _views(spans)

    def med_ms(fn):
        return 1e3 * statistics.median(fn(v) for v in views)

    def med_count(name):
        return statistics.median(v.count(name) for v in views)

    def total(fn):
        return sum(fn(v) for v in views)

    if workload == "bounds_mix":
        return {
            "problems.load_ms": med_ms(lambda v: v.seconds("problems.load_problem")),
            "distributions.moments_ms": med_ms(lambda v: v.seconds("distributions.moments")),
            "linalg.eigh_per_op": med_count("linalg.eigh"),
            "linalg.eigvalsh_per_op": med_count("linalg.eigvalsh"),
            "williamson.schur_per_op": med_count("williamson.schur"),
            "williamson.spectra_per_op": med_count("williamson.symplectic_eigenvalues"),
            "williamson.ms": med_ms(lambda v: v.outer_seconds("williamson")),
            "energy.sl_ms": med_ms(lambda v: v.seconds("energy.linear_gardner_energy")),
            "energy.sp_ms": med_ms(lambda v: v.seconds("energy.linear_gromov_energy")),
            "energy.gap_ms": med_ms(lambda v: v.seconds("energy.verify_map_optimality")),
        }
    if workload == "sweep_serial":
        evaluations = total(lambda v: v.count("cli.sweep_point"))
        return {
            "energy.maps_per_point": total(
                lambda v: v.count("energy.sl_optimal_map", "energy.sp_optimal_map")) / evaluations,
            "cli.evals_per_point": evaluations / items,
            "cli.self_ms": med_ms(lambda v: v.self_seconds(lambda n: n.startswith("cli."))),
        }
    if workload == "restack_ladder":
        levels = total(lambda v: v.count("restack.restack"))
        return {
            "distributions.cell_centers_per_level":
                total(lambda v: v.count("distributions.cell_centers")) / levels,
            "distributions.cell_centers_mb": statistics.median(
                v.nbytes("distributions.cell_centers") for v in views) / 2**20,
            "distributions.density_ms": med_ms(lambda v: v.seconds("distributions.density_eval")),
            "distributions.potential_ms": med_ms(
                lambda v: v.seconds("distributions.potential_eval")),
            "restack.grids_per_level": total(lambda v: v.count("restack.Grid")) / levels,
            "restack.argsorts_per_level": total(lambda v: v.count("numpy.argsort")) / levels,
            "restack.sort_ms": med_ms(lambda v: v.seconds("numpy.argsort")),
        }
    ms_per_ktrial = 1e3 * 1000.0 / items
    searches = ("verify.check_trace_minimum", "verify.nonsqueeze_search")
    return {
        "verify.expm_ms_per_ktrial": ms_per_ktrial * total(
            lambda v: v.seconds("verify.expm_batch")),
        "verify.sample_self_ms_per_ktrial": ms_per_ktrial * total(
            lambda v: v.self_seconds(lambda n: n == "verify.sample_batch")),
        "verify.reduce_ms_per_ktrial": ms_per_ktrial * total(
            lambda v: v.self_seconds(lambda n: n in searches)),
    }
