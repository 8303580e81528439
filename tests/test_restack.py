import itertools
import math

import numpy as np
import pytest

from phasemin.distributions import (
    BallIndicator,
    EllipsoidIndicator,
    Gaussian,
    Grid,
    Mixture,
    QuadraticPotential,
    density,
    moments,
)
from phasemin.energy import linear_gardner_energy
from phasemin.errors import CellCapExceeded, EmptyDistribution
from phasemin.restack import (
    CELL_CAP_ENV,
    DEFAULT_CELL_CAP,
    RestackProblem,
    configured_cell_cap,
    restack,
    restack_grid,
)

KINETIC_1D = QuadraticPotential(0.0, [0.0], [[0.5]])


def uniform_interval_problem(level):
    # unit mass spread evenly over [-1/2, 1/2] under the energy z^2 / 2
    return RestackProblem(
        density=density(BallIndicator(0.5, [0.0])),
        cell_energy=KINETIC_1D.evaluate,
        lower=[-1.0],
        upper=[1.0],
        level=level,
    )


def exhaustive_minimum(grid, cell_energy):
    values = grid.values.reshape(-1)
    energies = np.asarray(cell_energy(grid.cell_centers()), dtype=float)
    volume = grid.spacing**grid.dim
    best = math.inf
    for perm in itertools.permutations(range(values.size)):
        best = min(best, volume * float(values[list(perm)] @ energies))
    return best


def test_uniform_interval_matches_the_lattice_law():
    # with m = 2^(level-1) cells per half interval the stacked energy is
    # exactly 1/24 - 1/(96 m^2)
    for level in range(1, 7):
        m = 2.0 ** (level - 1)
        expected = 1.0 / 24.0 - 1.0 / (96.0 * m * m)
        result = restack(uniform_interval_problem(level))
        assert result.energy == pytest.approx(expected, rel=1e-12)
        assert result.spacing == pytest.approx(2.0**-level)


def test_uniform_interval_fine_level_reaches_the_continuum():
    result = restack(uniform_interval_problem(10))
    assert result.energy == pytest.approx(1.0 / 24.0, rel=1e-2)
    # the lattice values increase toward the continuum limit from below
    assert result.energy < 1.0 / 24.0


def test_maxwellian_already_stacked():
    # a centered Maxwellian is its own rearrangement, so the stacked energy
    # equals the thermal value n0 T / 2 up to quadrature error
    problem = RestackProblem(
        density=density(Gaussian(1.0, [0.0], [[1.0]])),
        cell_energy=KINETIC_1D.evaluate,
        lower=[-8.0],
        upper=[8.0],
        level=6,
    )
    result = restack(problem)
    assert result.energy == pytest.approx(0.5, rel=1e-8)
    assert result.pre_energy == pytest.approx(result.energy, rel=1e-10)


def test_narrow_beam_adds_little_to_the_floor():
    # a thin drifting beam restacks into the center, leaving the thermal
    # floor visible to about its own relative mass
    mix = Mixture(
        (Gaussian(1.0, [0.0], [[1.0]]), Gaussian(0.05, [3.0], [[1e-6]]))
    )
    problem = RestackProblem(
        density=density(mix),
        cell_energy=KINETIC_1D.evaluate,
        lower=[-8.0],
        upper=[8.0],
        level=11,
    )
    result = restack(problem)
    assert result.energy == pytest.approx(0.5, rel=1e-2)
    assert result.energy > 0.5
    assert result.energy < result.pre_energy


def test_matched_determinant_ellipsoid_reaches_the_closed_form():
    # disc of radius 2 against the well diag(1/2, 1/8); the minimizing
    # sublevel ellipse has semi-axes sqrt(2) x sqrt(8), so the box must
    # extend past the disc itself
    disc = EllipsoidIndicator(np.diag([0.25, 0.25]), [0.0, 0.0])
    pot = QuadraticPotential(0.0, [0.0, 0.0], np.diag([0.5, 0.125]))
    target = linear_gardner_energy(moments(disc), pot).energy
    assert target == pytest.approx(2.0 * math.pi, rel=1e-12)
    problem = RestackProblem(
        density=density(disc),
        cell_energy=pot.evaluate,
        lower=[-3.0, -3.0],
        upper=[3.0, 3.0],
        level=6,
    )
    result = restack(problem)
    assert result.energy == pytest.approx(target, rel=1e-3)


def test_small_grids_match_exhaustive_permutations_exactly():
    # integer cell values and dyadic cell energies keep every candidate sum
    # exact in floating point, so equality is literal
    rng = np.random.default_rng(5)
    shapes = [(2,), (3,), (4,), (5,), (6,), (7,), (2, 4), (3, 3), (2, 2, 2)]
    for shape in shapes:
        cells = int(np.prod(shape))
        values = rng.integers(0, 10, size=cells).astype(float)
        if values.sum() == 0:
            values[0] = 1.0
        origin = [-s / 2.0 for s in shape]
        grid = Grid(origin, 1.0, shape, values)
        pot = QuadraticPotential(
            0.0, np.zeros(len(shape)), np.eye(len(shape)) / 2.0
        )
        result = restack_grid(grid, pot.evaluate)
        assert result.energy == exhaustive_minimum(grid, pot.evaluate)


def test_restack_permutation_is_a_bijection_conserving_values():
    rng = np.random.default_rng(12)
    values = rng.uniform(0.0, 1.0, size=64)
    grid = Grid([-4.0], 0.125, (64,), values)
    result = restack_grid(grid, KINETIC_1D.evaluate)
    perm = result.permutation
    assert np.array_equal(np.sort(perm), np.arange(64))
    moved = np.empty(64)
    moved[perm] = values
    np.testing.assert_allclose(np.sort(moved), np.sort(values))
    assert result.energy <= result.pre_energy
    assert result.cells == 64


def test_restack_is_idempotent_on_energies():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, size=32)
    grid = Grid([-2.0], 0.125, (32,), values)
    first = restack_grid(grid, KINETIC_1D.evaluate)
    moved = np.empty(32)
    moved[first.permutation] = values
    second = restack_grid(Grid([-2.0], 0.125, (32,), moved), KINETIC_1D.evaluate)
    assert second.energy == pytest.approx(first.energy, rel=1e-14)
    assert second.pre_energy == pytest.approx(first.energy, rel=1e-14)


def test_restack_ties_are_resolved_deterministically():
    # equal values and equal energies fall back to the flat cell index:
    # cells carry energies (1.125, 0.125, 0.125, 1.125), so the two largest
    # values land on cells 1 and 2 in index order
    values = np.array([2.0, 2.0, 1.0, 1.0])
    grid = Grid([-2.0], 1.0, (4,), values)
    result = restack_grid(grid, KINETIC_1D.evaluate)
    assert np.array_equal(result.permutation, [1, 2, 0, 3])


def test_empty_grid_is_rejected():
    grid = Grid([0.0], 1.0, (4,), np.zeros(4))
    with pytest.raises(EmptyDistribution):
        restack_grid(grid, KINETIC_1D.evaluate)


def test_wrong_sized_energy_evaluator_is_rejected():
    grid = Grid([0.0], 1.0, (4,), np.ones(4))
    with pytest.raises(ValueError):
        restack_grid(grid, lambda pts: np.ones(3))


def test_problem_geometry():
    problem = uniform_interval_problem(3)
    assert problem.spacing == pytest.approx(0.125)
    assert problem.at_level(5).spacing == pytest.approx(2.0**-5)
    assert problem.cell_shape() == (16,)
    grid = problem.build_grid()
    assert grid.shape == (16,)
    centers = grid.cell_centers()
    np.testing.assert_allclose(grid.values, problem.density(centers))


def test_problem_validation():
    with pytest.raises(ValueError):
        RestackProblem(
            density=lambda p: p[:, 0],
            cell_energy=lambda p: p[:, 0],
            lower=[1.0],
            upper=[0.0],
            level=1,
        )
    with pytest.raises(ValueError):
        uniform_interval_problem(-1)


def test_cell_cap_blocks_before_allocation():
    problem = RestackProblem(
        density=density(BallIndicator(0.5, [0.0])),
        cell_energy=KINETIC_1D.evaluate,
        lower=[-1.0],
        upper=[1.0],
        level=10,
        cell_cap=100,
    )
    with pytest.raises(CellCapExceeded) as info:
        problem.build_grid()
    assert info.value.requested == 2048
    assert info.value.cap == 100


def test_configured_cell_cap(monkeypatch):
    monkeypatch.delenv(CELL_CAP_ENV, raising=False)
    assert configured_cell_cap() == DEFAULT_CELL_CAP
    monkeypatch.setenv(CELL_CAP_ENV, "512")
    assert configured_cell_cap() == 512
    monkeypatch.setenv(CELL_CAP_ENV, "zero")
    with pytest.raises(ValueError):
        configured_cell_cap()
    monkeypatch.setenv(CELL_CAP_ENV, "-3")
    with pytest.raises(ValueError):
        configured_cell_cap()


def test_convergence_table():
    problem = uniform_interval_problem(1)
    table = [
        (refined.spacing, restack(refined).energy)
        for refined in (problem.at_level(level) for level in (1, 2, 3, 4))
    ]
    assert len(table) == 4
    spacings = [row[0] for row in table]
    np.testing.assert_allclose(spacings, [0.5, 0.25, 0.125, 0.0625])
    energies = [row[1] for row in table]
    # refinements approach the continuum value from below on this problem
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert energies[-1] < 1.0 / 24.0
