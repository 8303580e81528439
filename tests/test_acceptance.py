"""End-to-end acceptance checks.

Each test prints one summary line to the real stdout so a plain test log
reads as a checklist; the assertion enforces the same condition the line
reports.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import (
    moments_from_matrix,
    paired_spectrum_synthesis,
    random_spd,
    random_unimodular_batch,
)
from phasemin.distributions import (
    BallIndicator,
    EllipsoidIndicator,
    Gaussian,
    Grid,
    QuadraticPotential,
    ball_volume,
    density,
    moments,
)
from phasemin.energy import (
    bump_on_tail_1d,
    degenerate_limit,
    linear_gardner_energy,
    linear_gromov_energy,
    verify_map_optimality,
)
from phasemin.linalg import symplectic_residual
from phasemin.restack import RestackProblem, restack, restack_grid
from phasemin.verify import (
    SymplecticSampler,
    check_trace_minimum,
    ellipsoid_cylinder_energy,
    nonsqueeze_search,
)
from phasemin.williamson import williamson
from phasemin.problems import load_problem


@pytest.fixture
def checklist(capfd):
    """Emit one pass/fail line per criterion on the real stdout."""

    def emit(number, ok, detail):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {number}: {status} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def gaussian_problem_dict(eps):
    return {
        "n": 2,
        "potential": {
            "V0": 0.0,
            "d": [0.0, 0.0, 0.0, 0.0],
            "V": [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, eps**2, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        },
        "distribution": {
            "type": "gaussian",
            "weight": 1.0,
            "mean": [0.0, 0.0, 0.0, 0.0],
            "covariance": [
                [4.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        },
    }


def normalized_ball_setup(eps):
    radius = math.sqrt(6.0)
    amplitude = 6.0 / (radius**2 * ball_volume(4, radius))
    f = BallIndicator(radius, np.zeros(4), amplitude)
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, eps**2, 1.0, 1.0]))
    return moments(f), pot


def trace_energies(v, mats, h):
    return np.einsum("ab,tbc,cd,tad->t", v, mats, h, mats)


def test_criterion_1_gaussian_family_closed_forms(tmp_path, checklist):
    start = time.perf_counter()
    worst = 0.0
    for eps in (0.1, 0.5, 1.0, 2.0, 3.0):
        path = tmp_path / f"gauss_{eps}.json"
        path.write_text(json.dumps(gaussian_problem_dict(eps)), encoding="utf-8")
        problem = load_problem(str(path))
        m = moments(problem.distribution)
        sl = linear_gardner_energy(m, problem.potential).energy
        sp = linear_gromov_energy(m, problem.potential).energy
        sl_expected = 4.0 * math.sqrt(2.0 * eps)
        sp_expected = 4.0 * eps + 2.0 if eps < 1.0 else 2.0 * eps + 4.0
        worst = max(
            worst,
            abs(sl - sl_expected) / sl_expected,
            abs(sp - sp_expected) / sp_expected,
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    checklist(1, ok, f"max rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_ball_formulas_and_brute_force(checklist):
    start = time.perf_counter()
    eps = 0.25
    m, pot = normalized_ball_setup(eps)
    initial = 3.0 + eps**2
    sl = linear_gardner_energy(m, pot)
    sp = linear_gromov_energy(m, pot)
    sl_expected = 4.0 * math.sqrt(eps)
    sp_expected = 2.0 * (1.0 + eps)
    formula_err = max(
        abs(sl.energy - sl_expected) / sl_expected,
        abs(sp.energy - sp_expected) / sp_expected,
        abs(sl.fraction - sl_expected / initial) / (sl_expected / initial),
        abs(sp.fraction - sp_expected / initial) / (sp_expected / initial),
    )
    map_gap = max(
        verify_map_optimality(sl, m, pot), verify_map_optimality(sp, m, pot)
    )

    v = pot.matrix
    h = m.second_moment
    rng = np.random.default_rng(42)
    sl_min = math.inf
    for _ in range(5):
        mats = random_unimodular_batch(rng, 20_000, 4)
        sl_min = min(sl_min, float(trace_energies(v, mats, h).min()))
    sampler = SymplecticSampler(2, seed=43)
    sp_min = math.inf
    for _ in range(5):
        mats = sampler.sample_batch(20_000)
        sp_min = min(sp_min, float(trace_energies(v, mats, h).min()))

    elapsed = time.perf_counter() - start
    ok = (
        formula_err <= 1e-10
        and map_gap <= 1e-8
        and sl_min >= sl_expected - 1e-6
        and sp_min >= sp_expected - 1e-6
        and elapsed < 30.0
    )
    checklist(
        2,
        ok,
        f"formula rel err {formula_err:.2e}, map gap {map_gap:.2e}, "
        f"sampled minima {sl_min:.9f}/{sp_min:.9f} vs {sl_expected}/{sp_expected}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_3_trace_bound_over_sampled_symplectic_maps(checklist):
    start = time.perf_counter()
    violations = 0
    worst_gap = 0.0
    for index in range(100):
        dof = 1 + index % 3
        rng = np.random.default_rng(1000 + index)
        v = random_spd(rng, 2 * dof)
        h = random_spd(rng, 2 * dof)
        sampler = SymplecticSampler(dof, seed=2000 + index)
        checked = check_trace_minimum(v, h, 10_000, sampler)
        violations += checked.violations
        pot = QuadraticPotential(0.0, np.zeros(2 * dof), v)
        gap = verify_map_optimality(
            linear_gromov_energy(moments_from_matrix(h), pot),
            moments_from_matrix(h),
            pot,
        )
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst_gap <= 1e-8 and elapsed < 120.0
    checklist(
        3,
        ok,
        f"{violations} violations in 10^6 samples, max map gap {worst_gap:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_4_normal_form_suite(checklist):
    start = time.perf_counter()
    worst_block = 0.0
    worst_residual = 0.0
    worst_det = 0.0
    count = 0
    for dim in (2, 4, 6, 8):
        for index in range(125):
            rng = np.random.default_rng(4000 + 125 * dim + index)
            m = random_spd(rng, dim)
            w = williamson(m)
            recon = w.transform.T @ m @ w.transform
            worst_block = max(
                worst_block,
                np.abs(recon - w.block_diagonal).max() / np.abs(m).max(),
            )
            worst_residual = max(worst_residual, symplectic_residual(w.transform))
            det = np.linalg.det(m)
            worst_det = max(
                worst_det, abs(np.prod(w.spectrum**2) - det) / abs(det)
            )
            count += 1
    elapsed = time.perf_counter() - start
    ok = (
        count == 500
        and worst_block <= 1e-9
        and worst_residual <= 1e-9
        and worst_det <= 1e-8
        and elapsed < 10.0
    )
    checklist(
        4,
        ok,
        f"500 matrices: block err {worst_block:.2e}, residual "
        f"{worst_residual:.2e}, det err {worst_det:.2e}, {elapsed:.1f} s",
    )


def test_criterion_5_group_energy_ordering(checklist):
    start = time.perf_counter()
    ordered = 0
    equality_err = 0.0
    n1_err = 0.0
    constructed = 0
    for index in range(1000):
        dof = 1 + index % 4
        rng = np.random.default_rng(5000 + index)
        if index % 25 == 0 and dof > 1:
            # prescribed spectra with constant anti-sorted products force
            # the two group minima to coincide
            t = np.sort(rng.uniform(0.5, 3.0, dof))[::-1]
            c = rng.uniform(0.5, 2.0)
            sv = np.sort(c / t)[::-1]
            h = paired_spectrum_synthesis(6000 + index, dof, t)
            v = paired_spectrum_synthesis(7000 + index, dof, sv)
            constructed += 1
        else:
            v = random_spd(rng, 2 * dof)
            h = random_spd(rng, 2 * dof)
        m = moments_from_matrix(h)
        pot = QuadraticPotential(0.0, np.zeros(2 * dof), v)
        sl = linear_gardner_energy(m, pot).energy
        sp = linear_gromov_energy(m, pot).energy
        if sp >= sl * (1.0 - 1e-12):
            ordered += 1
        if index % 25 == 0 and dof > 1:
            equality_err = max(equality_err, abs(sp - sl) / sp)
        if dof == 1:
            n1_err = max(n1_err, abs(sp - sl) / sp)
    elapsed = time.perf_counter() - start
    ok = (
        ordered == 1000
        and constructed >= 30
        and equality_err <= 1e-8
        and n1_err <= 1e-8
    )
    checklist(
        5,
        ok,
        f"{ordered}/1000 ordered, constant-product eq err {equality_err:.2e} "
        f"({constructed} cases), n=1 eq err {n1_err:.2e}, {elapsed:.1f} s",
    )


def exhaustive_restack_minimum(values, energies, chunk=250_000):
    base = np.asarray(energies, dtype=float)
    best = math.inf
    block = []
    for perm in itertools.permutations(tuple(values)):
        block.append(perm)
        if len(block) == chunk:
            best = min(best, float(np.min(np.asarray(block) @ base)))
            block.clear()
    if block:
        best = min(best, float(np.min(np.asarray(block) @ base)))
    return best


def test_criterion_6_restacking_convergence(checklist):
    start = time.perf_counter()
    kinetic = QuadraticPotential(0.0, np.zeros(1), np.array([[0.5]]))

    uniform = restack(
        RestackProblem(
            density=density(BallIndicator(0.5, np.zeros(1))),
            cell_energy=kinetic.evaluate,
            lower=[-1.0],
            upper=[1.0],
            level=10,
        )
    )
    uniform_err = abs(uniform.energy - 1.0 / 24.0) / (1.0 / 24.0)

    maxwell = restack(
        RestackProblem(
            density=density(Gaussian(1.0, [0.0], [[1.0]])),
            cell_energy=kinetic.evaluate,
            lower=[-8.0],
            upper=[8.0],
            level=6,
        )
    )
    maxwell_err = abs(maxwell.energy - 0.5) / 0.5

    disc = EllipsoidIndicator(np.diag([0.25, 0.25]), np.zeros(2))
    pot2 = QuadraticPotential(0.0, np.zeros(2), np.diag([0.5, 0.125]))
    target = linear_gardner_energy(moments(disc), pot2).energy
    stacked = restack(
        RestackProblem(
            density=density(disc),
            cell_energy=pot2.evaluate,
            lower=[-3.0, -3.0],
            upper=[3.0, 3.0],
            level=6,
        )
    )
    disc_err = abs(stacked.energy - target) / target

    exact_matches = 0
    shapes = [(2,), (3,), (4,), (5,), (6,), (2, 3), (2, 2, 2), (3, 3), (5, 2)]
    rng = np.random.default_rng(66)
    for shape in shapes:
        dim = len(shape)
        size = int(np.prod(shape))
        values = rng.integers(0, 10, size).astype(float)
        spacing = 0.5
        origin = -spacing * np.asarray(shape, dtype=float) / 2.0
        grid = Grid(origin, spacing, shape, values)
        pot_d = QuadraticPotential(0.0, np.zeros(dim), 0.5 * np.eye(dim))
        result = restack_grid(grid, pot_d.evaluate)
        cell_costs = pot_d.evaluate(grid.cell_centers())
        best = exhaustive_restack_minimum(values, cell_costs)
        if result.energy == spacing**dim * best:
            exact_matches += 1

    elapsed = time.perf_counter() - start
    ok = (
        uniform_err <= 0.01
        and uniform.energy < 1.0 / 24.0
        and maxwell_err <= 0.01
        and disc_err <= 0.01
        and exact_matches == len(shapes)
        and elapsed < 60.0
    )
    checklist(
        6,
        ok,
        f"uniform rel err {uniform_err:.2e}, thermal rel err {maxwell_err:.2e}, "
        f"disc rel err {disc_err:.2e}, exhaustive matches {exact_matches}/"
        f"{len(shapes)}, {elapsed:.1f} s",
    )


def test_criterion_7_no_symplectic_squeezing(checklist):
    start = time.perf_counter()
    successes = 0
    floor_ok = True
    min_seen = math.inf
    for dof, radius in itertools.product((1, 2), (0.5, 0.99)):
        sampler = SymplecticSampler(dof, seed=int(7000 + dof * 100 + radius * 10))
        result = nonsqueeze_search(1.0, radius, 10_000, sampler)
        successes += result.successes
        ball = ellipsoid_cylinder_energy(np.eye(2 * dof))
        floor_ok = floor_ok and result.min_energy_seen >= ball * (1.0 - 1e-6)
        min_seen = min(min_seen, result.min_energy_seen / ball)
    elapsed = time.perf_counter() - start
    ok = successes == 0 and floor_ok and elapsed < 60.0
    checklist(
        7,
        ok,
        f"{successes} containments in 4x10^4 trials, min energy/floor ratio "
        f"{min_seen:.9f}, {elapsed:.1f} s",
    )


def test_criterion_8_semidefinite_potential_limit(checklist):
    start = time.perf_counter()
    m = moments(BallIndicator(1.0, np.zeros(4)))
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, 0.0, 1.0, 0.0]))
    direct = linear_gromov_energy(m, pot).energy
    limit = degenerate_limit(m, pot, "Sp", [1e-2, 1e-3, 1e-4]).energy
    rel = abs(limit - direct) / direct
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-6 and abs(direct - math.pi**2 / 6.0) <= 1e-10
    checklist(
        8,
        ok,
        f"limit {limit:.12f} vs direct {direct:.12f}, rel err {rel:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_9_two_stream_closed_forms(checklist):
    start = time.perf_counter()
    n0, temperature, n1, drift = 1.0, 1.0, 0.1, 2.0
    split = bump_on_tail_1d(n0, temperature, n1, drift)

    def shifted_energy(s):
        return 0.5 * (n0 * (temperature + s * s) + n1 * (drift + s) ** 2)

    scan = minimize_scalar(
        shifted_energy, bounds=(-3.0, 3.0), method="bounded",
        options={"xatol": 1e-10},
    )
    shift_err = abs(split.shift - scan.x)

    kinetic = QuadraticPotential(0.0, np.zeros(1), np.array([[0.5]]))
    thermal = restack(
        RestackProblem(
            density=density(Gaussian(n0, [0.0], [[temperature]])),
            cell_energy=kinetic.evaluate,
            lower=[-8.0],
            upper=[8.0],
            level=6,
        )
    )
    stack_err = abs(thermal.energy - split.gardner_energy_density) / (
        split.gardner_energy_density
    )
    elapsed = time.perf_counter() - start
    ok = shift_err <= 1e-6 and stack_err <= 0.01
    checklist(
        9,
        ok,
        f"shift gap {shift_err:.2e}, stacked thermal rel err {stack_err:.2e}, "
        f"{elapsed:.1f} s",
    )
