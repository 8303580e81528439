"""Inputs of the four workloads, generated from the workload seed.

``build(workload, seed, work_dir)`` writes every input file into
``work_dir`` and returns one round: the fixed list of operations a run
repeats.  An operation is a ``phasemin`` argument list, the number of items
it completes, and a check of its output.  The same seed gives the same files
byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import checks
from checks import Energies, Ladder

WORKLOADS = ("bounds_mix", "sweep_serial", "restack_ladder", "verify_sampler")

# bounds_mix ----------------------------------------------------------------
DOFS = (1, 2, 4, 8)
SPREADS = (1.0, 10.0, 1e3, 1e4)
PROBLEMS_PER_SPREAD = 4
# The constructed-spectrum problems are drawn from this fixed seed, never from
# the workload seed: on those with n >= 2 and spread >= 1e3 the reported
# energies miss the exact closed forms (the Gram route of
# williamson.symplectic_eigenvalues squares the condition number), while
# every other property of their output is checked and holds.  A fixed input
# set keeps the failed share of every run identical.
CONSTRUCTED_SEED = 7965
FAMILIES = ("gaussian", "ball", "ellipsoid", "particles", "grid", "mixture")
# Generated problems per family at each n.  Op time grows with n, with a gap
# between n = 2 and n = 4; these counts put the median 8 % of the ops inside
# the n = 2 class (46 of 117 ops) instead of on the gap.
GENERATED_PER_FAMILY = {1: 1, 2: 5, 4: 2, 8: 1}
# inline grids stop at n = 4: a 16-D grid needs at least 2^16 values
GRID_SHAPES = {2: (6, 5), 4: (3, 3, 3, 3), 8: (2,) * 8}

# sweep_serial --------------------------------------------------------------
SWEEP_DOFS = (1, 2, 4)
SWEEP_POINTS = 24

# restack_ladder ------------------------------------------------------------
BOX_HALF_WIDTH = 4.0
LEVELS = (0, 1, 2)
# cells per axis at the finest level: 196^2 = 14^4 = 38416 cells, so every
# small ladder ends at the same size and p50/p90 do not jump between classes
FINEST_CELLS_PER_AXIS = {2: 196, 4: 14}
# one 4-D Gaussian ladder per round ends at 45^4 = 4,100,625 cells, just under
# the default cap of 4,194,304; it sets peak_rss_mb
BIG_CELLS_PER_AXIS = 45
RESTACK_FAMILIES = ("gaussian", "ball", "ellipsoid", "mixture", "gridfile")
# Ladders per (family, dim); 3 unless listed.  Op times rise from 2-D ball
# (fastest) to 4-D mixture (slowest); these counts put the median inside the
# 2-D mixture block and the 90th percentile inside the 4-D mixture block,
# not on a boundary between two kinds.  39 ladders per round.
LADDERS = {("mixture", 2): 8, ("mixture", 4): 6}

# verify_sampler ------------------------------------------------------------
VERIFY_DOFS = (1, 2, 3)
TRIALS = 3000
RUNS_PER_KIND = 4


@dataclass
class Op:
    """One CLI invocation, what it completes, and how its output is checked."""

    kind: str
    argv: List[str]
    output: str
    items: int
    check: Callable[[str], None]
    reference: Optional[str] = field(default=None, repr=False)


class _Writer:
    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.count = 0

    def path(self, stem: str, suffix: str) -> str:
        self.count += 1
        return os.path.join(self.work_dir, f"{self.count:03d}-{stem}{suffix}")

    def json(self, stem: str, obj) -> str:
        path = self.path(stem, ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        return path


def _problem(dim: int, offset: float, minimum, v, distribution: dict, box=None) -> dict:
    out = {
        "n": dim // 2,
        "potential": {"V0": offset, "d": list(map(float, minimum)), "V": np.asarray(v).tolist()},
        "distribution": distribution,
    }
    if box is not None:
        out["box"] = {"lo": [-box] * dim, "hi": [box] * dim}
    return out


def _json_check(check: Callable[[dict], None]) -> Callable[[str], None]:
    return lambda text: check(json.loads(text))


# ---------------------------------------------------------------------------
# distributions with their closed-form moments


def _gaussian(rng, dim, cov_lo=0.3, cov_hi=3.0, spread=1.0):
    weight = float(rng.uniform(0.5, 2.0))
    mean = rng.uniform(-spread, spread, dim)
    cov = checks.random_spd(rng, dim, cov_lo, cov_hi)
    obj = {"type": "gaussian", "weight": weight, "mean": mean.tolist(), "covariance": cov.tolist()}
    return obj, checks.gaussian_moments(weight, mean, cov)


def _ball(rng, dim, lo=0.5, hi=1.5, spread=1.0):
    radius = float(rng.uniform(lo, hi))
    center = rng.uniform(-spread, spread, dim)
    amplitude = float(rng.uniform(0.5, 2.0))
    obj = {"type": "ball", "radius": radius, "center": center.tolist(), "amplitude": amplitude}
    return obj, checks.ball_moments(radius, center, amplitude)


def _ellipsoid(rng, dim, lo=0.3, hi=3.0, spread=1.0):
    matrix = checks.random_spd(rng, dim, lo, hi)
    center = rng.uniform(-spread, spread, dim)
    amplitude = float(rng.uniform(0.5, 2.0))
    obj = {"type": "ellipsoid", "matrix": matrix.tolist(), "center": center.tolist(),
           "amplitude": amplitude}
    return obj, checks.ellipsoid_moments(matrix, center, amplitude)


def _particles(rng, dim):
    points = rng.normal(size=(4 * dim, dim))
    weights = rng.uniform(0.5, 1.5, 4 * dim)
    obj = {"type": "particles", "points": points.tolist(), "weights": weights.tolist()}
    return obj, checks.point_moments(points, weights)


def _grid(rng, dim):
    shape = GRID_SHAPES[dim]
    origin = rng.uniform(-1.0, 0.0, dim)
    spacing = float(rng.uniform(0.3, 0.6))
    values = rng.uniform(0.1, 1.0, int(np.prod(shape)))
    obj = {"type": "grid", "origin": origin.tolist(), "spacing": spacing,
           "shape": list(shape), "values": values.tolist()}
    return obj, checks.grid_moments(origin, spacing, shape, values)


def _mixture(parts):
    obj = {"type": "mixture", "components": [p[0] for p in parts]}
    return obj, checks.mixture_moments([p[1] for p in parts])


def _family(name, rng, dim):
    if name == "gaussian":
        return _gaussian(rng, dim)
    if name == "ball":
        return _ball(rng, dim)
    if name == "ellipsoid":
        return _ellipsoid(rng, dim)
    if name == "particles":
        return _particles(rng, dim)
    if name == "grid":
        return _grid(rng, dim)
    return _mixture([_gaussian(rng, dim), _ball(rng, dim), _ellipsoid(rng, dim)])


def _potential(rng, dim):
    """Offset V0, minimum d and a well-conditioned matrix V."""
    offset, minimum = float(rng.uniform(0.0, 1.0)), rng.uniform(-0.5, 0.5, dim)
    return offset, minimum, checks.random_spd(rng, dim, 0.5, 2.0)


# ---------------------------------------------------------------------------
# workloads


def _bounds_op(out: _Writer, kind, problem, want: Energies, known_energy_fault=False) -> Op:
    path = out.json(kind, problem)
    output = out.path(kind, ".out.json")
    return Op(kind, ["bounds", path, "-o", output], output, 1, _json_check(
        lambda report: checks.check_bounds(report, want, known_energy_fault)))


def bounds_mix(rng, out: _Writer) -> List[Op]:
    ops = []
    fixed = np.random.default_rng(CONSTRUCTED_SEED)
    for n in DOFS:
        zero = np.zeros(2 * n)
        for spread in SPREADS:
            for _ in range(PROBLEMS_PER_SPREAD):
                pair = checks.constructed_pair(fixed, n, spread)
                dist = {"type": "gaussian", "weight": 1.0, "mean": zero.tolist(),
                        "covariance": pair.h.tolist()}
                want = Energies.closed_form(
                    checks.gaussian_moments(1.0, zero, pair.h), 0.0, zero, pair.v,
                    spectra=(pair.spectrum_v, pair.spectrum_h),
                )
                ops.append(_bounds_op(out, f"constructed-n{n}-s{spread:g}",
                                      _problem(2 * n, 0.0, zero, pair.v, dist), want,
                                      known_energy_fault=n >= 2 and spread >= 1e3))
    for n in DOFS:
        dim = 2 * n
        for family in FAMILIES:
            if family == "grid" and dim not in GRID_SHAPES:
                continue
            for _ in range(GENERATED_PER_FAMILY[n]):
                offset, minimum, v = _potential(rng, dim)
                dist, m = _family(family, rng, dim)
                want = Energies.closed_form(m, offset, minimum, v)
                ops.append(_bounds_op(out, f"{family}-n{n}",
                                      _problem(dim, offset, minimum, v, dist), want))
    return ops


def _sweep_template(rng, n):
    """Potential entries that are expressions in epsilon, with the numbers they denote."""
    dim = 2 * n
    base = checks.random_spd(rng, dim, 0.5, 2.0)
    entries = base.tolist()
    # the perturbation is PSD on the diagonal and at most 0.1 off it, so V
    # stays definite (base eigenvalues >= 0.5) over every range used below
    entries[0][0] = f"{float(base[0, 0])!r} + epsilon**2"
    entries[n][n] = f"{float(base[n, n])!r}*(1 + epsilon/2)"
    entries[0][1] = entries[1][0] = f"{float(base[0, 1])!r} + 0.02*epsilon"

    def matrix(eps: float) -> np.ndarray:
        return np.array([[eval(x, {"epsilon": eps}) if isinstance(x, str) else x
                          for x in row] for row in entries])

    return entries, matrix


def sweep_serial(rng, out: _Writer) -> List[Op]:
    ops = []
    for n in SWEEP_DOFS:
        dim = 2 * n
        for spacing in ("linear", "log"):
            for variant in range(2):
                entries, matrix = _sweep_template(rng, n)
                offset, minimum = float(rng.uniform(0.0, 1.0)), rng.uniform(-0.5, 0.5, dim)
                if variant == 0:
                    dist, m = _gaussian(rng, dim)
                else:
                    dist, m = _mixture([_gaussian(rng, dim), _ball(rng, dim)])
                if spacing == "linear":
                    start, stop = float(rng.uniform(0.2, 0.5)), float(rng.uniform(2.0, 3.0))
                    epsilons = np.linspace(start, stop, SWEEP_POINTS)
                else:
                    start, stop = float(rng.uniform(0.1, 0.2)), float(rng.uniform(3.0, 5.0))
                    epsilons = np.logspace(np.log10(start), np.log10(stop), SWEEP_POINTS)
                template = _problem(dim, offset, minimum, np.zeros((dim, dim)), dist)
                template["potential"]["V"] = entries
                spec = {"parameter": "epsilon", "template": template,
                        "range": {"start": start, "stop": stop, "points": SWEEP_POINTS,
                                  "spacing": spacing}}
                points = [Energies.closed_form(m, offset, minimum, matrix(e)) for e in epsilons]
                kind = f"sweep-n{n}-{spacing}"
                path = out.json(kind, spec)
                output = out.path(kind, ".out.csv")
                ops.append(Op(kind, ["sweep", path, "-o", output], output, SWEEP_POINTS,
                              lambda text, e=epsilons, p=points: checks.check_sweep(text, e, p)))
    return ops


def _grid_file(rng, out: _Writer, dim) -> dict:
    """Grid file with a CSV sidecar; the problem refers to it by relative path."""
    shape, spacing = ((24, 24), 0.25) if dim == 2 else ((6, 6, 6, 6), 1.0)
    csv_path = out.path("grid-values", ".csv")
    np.savetxt(csv_path, rng.uniform(0.0, 1.0, int(np.prod(shape))))
    grid = {"dim": dim, "shape": list(shape), "origin": [-3.0] * dim, "spacing": spacing,
            "values_csv": os.path.basename(csv_path)}
    return {"type": "grid", "file": os.path.basename(out.json("grid", grid))}


def _ladder_op(out: _Writer, rng, family, dim, cells_per_axis) -> Op:
    offset, minimum = float(rng.uniform(0.0, 1.0)), rng.uniform(-0.3, 0.3, dim)
    v = checks.random_spd(rng, dim, 0.5, 2.0)
    sl_energy = None
    # Densities stay inside the box [-4, 4]^dim, and in 4-D the indicators
    # are wide enough to cover a cell center of the coarsest level (centers
    # at +-1.14 per axis); an empty level would exit 3.
    radii = {2: (1.0, 2.0), 4: (2.4, 3.2)}[dim]
    shape_eigs = {2: (0.3, 1.5), 4: (0.08, 0.18)}[dim]
    # A checked Gaussian must be resolved by the finest lattice (spacing 0.04
    # in 2-D, 0.57 in 4-D): with covariance eigenvalues down to 0.15 in 4-D
    # the finest level missed E_SL by up to 3 % on correct output.
    gaussian_eigs = {2: (0.15, 0.6), 4: (0.35, 0.7)}[dim]
    if family == "gaussian":
        dist, m = _gaussian(rng, dim, *gaussian_eigs, spread=0.3)
        sl_energy = Energies.closed_form(m, offset, minimum, v).sl
    elif family == "ball":
        dist, _ = _ball(rng, dim, *radii, spread=0.5)
    elif family == "ellipsoid":
        dist, _ = _ellipsoid(rng, dim, *shape_eigs, spread=0.5)
    elif family == "mixture":
        dist, _ = _mixture([_gaussian(rng, dim, 0.15, 0.6, spread=0.3),
                            _ball(rng, dim, *radii, spread=0.5)])
    else:
        dist = _grid_file(rng, out, dim)
    finest = LEVELS[-1]
    base = 2 * BOX_HALF_WIDTH * 2**finest / cells_per_axis
    cells = [int(np.ceil(cells_per_axis * 2.0 ** (level - finest))) ** dim for level in LEVELS]
    want = Ladder(LEVELS, base, cells, sl_energy)
    kind = f"restack-{family}-{dim}d"
    path = out.json(kind, _problem(dim, offset, minimum, v, dist, box=BOX_HALF_WIDTH))
    output = out.path(kind, ".out.csv")
    argv = ["restack", path, "--levels", ",".join(map(str, LEVELS)),
            "--base-spacing", repr(base), "-o", output]
    return Op(kind, argv, output, sum(cells), lambda text: checks.check_restack(text, want))


def restack_ladder(rng, out: _Writer) -> List[Op]:
    ops = []
    for dim in (2, 4):
        for family in RESTACK_FAMILIES:
            for _ in range(LADDERS.get((family, dim), 3)):
                ops.append(_ladder_op(out, rng, family, dim, FINEST_CELLS_PER_AXIS[dim]))
    ops.append(_ladder_op(out, rng, "gaussian", 4, BIG_CELLS_PER_AXIS))
    return ops


def verify_sampler(rng, out: _Writer) -> List[Op]:
    ops = []
    for dof in VERIFY_DOFS:
        dim = 2 * dof
        for variant in range(RUNS_PER_KIND):
            offset, minimum, v = _potential(rng, dim)
            dist, m = (_gaussian if variant % 2 == 0 else _ellipsoid)(rng, dim)
            bound = checks.sp_trace_minimum(checks.symplectic_spectrum(v),
                                            checks.symplectic_spectrum(m.second))
            kind = f"theorem-dof{dof}"
            path = out.json(kind, _problem(dim, offset, minimum, v, dist))
            output = out.path(kind, ".out.json")
            seed = str(int(rng.integers(0, 2**31)))
            ops.append(Op(kind, ["verify", "theorem", "--problem", path, "--trials", str(TRIALS),
                                 "--seed", seed, "-o", output], output, TRIALS,
                          _json_check(lambda r, b=bound: checks.check_theorem(r, TRIALS, b))))
        for variant in range(RUNS_PER_KIND):
            radius = float(rng.uniform(0.8, 1.5))
            cylinder = radius * float(rng.uniform(0.5, 0.95))
            kind = f"nonsqueeze-dof{dof}"
            output = out.path(kind, ".out.json")
            seed = str(int(rng.integers(0, 2**31)))
            ops.append(Op(kind, ["verify", "nonsqueeze", "--dof", str(dof), "--ball-radius",
                                 repr(radius), "--cylinder-radius", repr(cylinder), "--trials",
                                 str(TRIALS), "--seed", seed, "-o", output], output, TRIALS,
                          _json_check(lambda r, R=radius, d=dim:
                                      checks.check_nonsqueeze(r, TRIALS, R, d))))
    return ops


def build(workload: str, seed: int, work_dir: str) -> List[Op]:
    """Write the workload's inputs for ``seed`` into work_dir; return one round."""
    make = {"bounds_mix": bounds_mix, "sweep_serial": sweep_serial,
            "restack_ladder": restack_ladder, "verify_sampler": verify_sampler}[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return make(rng, _Writer(work_dir))
