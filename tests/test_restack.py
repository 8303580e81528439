import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd
from phasemin.cli import EXIT_OK, main
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
    BLOCK_CELLS,
    DEFAULT_CELL_CAP,
    RestackProblem,
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
    energies = np.asarray(cell_energy(grid.cell_centers().T), dtype=float)
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
        restack_grid(grid, lambda z: np.ones(3))


def argsort_restack(grid, cell_energy):
    """(energy, pre_energy, permutation) by stable argsorts over full centers."""
    values = grid.values.reshape(-1)
    energies = np.asarray(cell_energy(grid.cell_centers().T), dtype=float)
    by_value = np.argsort(-values, kind="stable")
    by_energy = np.argsort(energies, kind="stable")
    volume = grid.spacing**grid.dim
    permutation = np.empty(values.size, dtype=np.int64)
    permutation[by_value] = by_energy
    return (
        volume * float(values[by_value] @ energies[by_energy]),
        volume * float(values @ energies),
        permutation,
    )


def quantized(fn, step):
    # rounding onto a coarse ladder of levels ties many cells
    return lambda z: np.floor(fn(z) / step) * step


# several full blocks and a partial one in every dimension: blocks are
# 32768 cells in 1-D, 59 rows of 547 cells in 2-D, and, at each index of
# the first axis, 36 rows of 29*31 cells and then one in 4-D
BLOCKED_SHAPES = [(3 * BLOCK_CELLS + 5,), (181, 547), (3, 37, 29, 31)]


@pytest.mark.parametrize("shape", BLOCKED_SHAPES, ids=["1d", "2d", "4d"])
def test_blocked_restack_equals_the_argsort_formulation(shape):
    assert math.prod(shape) > 2 * BLOCK_CELLS
    dim = len(shape)
    spacing = 4.0 / max(shape)
    lower = -0.5 * spacing * np.asarray(shape, dtype=float)
    # the ball leaves zero cells; quantized values and a potential centered
    # on the lattice tie values and energies
    blob = Mixture(
        (
            Gaussian(1.0, np.full(dim, 0.3), 0.5 * np.eye(dim)),
            BallIndicator(1.5, np.zeros(dim), 0.25),
        )
    )
    pot = QuadraticPotential(0.5, np.zeros(dim), np.eye(dim))
    problem = RestackProblem(
        density=quantized(density(blob), 0.125),
        cell_energy=quantized(pot.evaluate, 0.25),
        lower=lower,
        upper=-lower,
        level=0,
        base_spacing=spacing,
    )
    assert problem.cell_shape() == shape
    grid = problem.build_grid()
    centers = grid.cell_centers().T
    values = grid.values.reshape(-1)
    assert np.array_equal(values, problem.density(centers))
    assert np.count_nonzero(values == 0) > 0
    assert np.unique(values).size < values.size // 100
    assert np.unique(problem.cell_energy(centers)).size < values.size // 100

    for cell_energy in (pot.evaluate, problem.cell_energy):
        energy, pre_energy, permutation = argsort_restack(grid, cell_energy)
        result = restack_grid(grid, cell_energy)
        assert result.energy == energy
        assert result.pre_energy == pre_energy
        assert np.array_equal(result.permutation, permutation)
    # restack builds the same grid and pairs it with problem.cell_energy
    result = restack(problem)
    assert (result.energy, result.pre_energy) == (energy, pre_energy)
    assert np.array_equal(result.permutation, permutation)


@pytest.mark.parametrize(
    "wrong",
    [lambda x: 1.0, lambda x: np.ones(len(x) - 1), lambda x: np.ones((len(x), 1))],
    ids=["scalar", "short", "column"],
)
def test_wrong_shaped_evaluators_are_rejected_in_every_block(wrong):
    # right on the full first block, wrong only on the partial last one
    def evaluator(z):
        (x,) = z
        return np.ones(len(x)) if len(x) == BLOCK_CELLS else wrong(x)

    cells = BLOCK_CELLS + 3
    grid = Grid([0.0], 1.0, (cells,), np.ones(cells))
    with pytest.raises(ValueError, match="cell energy evaluator returned a wrong-sized array"):
        restack_grid(grid, evaluator)
    problem = RestackProblem(evaluator, KINETIC_1D.evaluate, [0.0], [float(cells)], 0)
    with pytest.raises(ValueError, match="density evaluator returned a wrong-sized array"):
        problem.build_grid()


def test_restack_holds_no_center_array():
    # a 30^4 lattice: values, energies and the two sorted copies are 32 B a
    # cell; (cells, dim) center arrays and argsort indices would be 96
    gauss = Gaussian(1.0, np.zeros(4), np.diag([0.5, 0.6, 0.7, 0.8]))
    pot = QuadraticPotential(0.0, np.zeros(4), np.eye(4))
    problem = RestackProblem(density(gauss), pot.evaluate, [-3.0] * 4, [3.0] * 4, 0, 0.2)
    cells = math.prod(problem.cell_shape())
    assert cells == 30**4
    tracemalloc.start()
    try:
        result = restack(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.cells == cells
    assert peak <= 48 * cells


def test_problem_geometry():
    problem = uniform_interval_problem(3)
    assert problem.spacing == pytest.approx(0.125)
    assert problem.at_level(5).spacing == pytest.approx(2.0**-5)
    assert problem.cell_shape() == (16,)
    grid = problem.build_grid()
    assert grid.shape == (16,)
    centers = grid.cell_centers().T
    np.testing.assert_allclose(grid.values, problem.density(centers))


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
    assert str(info.value) == "refinement needs 2048 cells, exceeding the cap of 100"


def test_cell_cap_counts_cells_without_overflow():
    # 2e17 cells per axis fit in int64, their product 4e34 does not
    problem = RestackProblem(
        density=density(BallIndicator(1.0, [0.0, 0.0])),
        cell_energy=KINETIC_1D.evaluate,
        lower=[-1.0, -1.0],
        upper=[1.0, 1.0],
        level=0,
        base_spacing=1e-17,
    )
    with pytest.raises(CellCapExceeded) as info:
        problem.build_grid()
    requested = math.prod(problem.cell_shape())
    assert requested > 10**34
    assert str(info.value) == (
        f"refinement needs {requested} cells, exceeding the cap of {DEFAULT_CELL_CAP}"
    )


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


# ---------------------------------------------------------------------------
# quadratic forms on the lattice


def family(kind, dim, rng):
    """A distribution of one family in R^dim, centered in the box [-4, 4]^dim."""
    if kind == "gaussian":
        return Gaussian(1.3, rng.uniform(-0.5, 0.5, dim), random_spd(rng, dim))
    if kind == "ball":
        return BallIndicator(2.5, rng.uniform(-0.5, 0.5, dim), 0.7)
    if kind == "ellipsoid":
        return EllipsoidIndicator(random_spd(rng, dim) / 4.0, rng.uniform(-0.5, 0.5, dim), 1.1)
    if kind == "mixture":
        return Mixture(tuple(family(k, dim, rng) for k in ("gaussian", "ball", "ellipsoid")))
    # a grid of 5 cells per axis over the box
    shape = (5,) * dim
    return Grid(np.full(dim, -4.0), 1.6, shape, rng.uniform(0.0, 1.0, math.prod(shape)))


def stacked(z):
    """The (..., dim) point array of a stack in coordinate form."""
    return np.stack(np.broadcast_arrays(*z), axis=-1)


def einsum_form(z, center, matrix):
    dz = stacked(z) - center
    return np.einsum("...i,ij,...j->...", dz, matrix, dz)


def einsum_density(f):
    """The pointwise density of ``f``, with its quadratic forms as
    three-operand einsums over the matrices the library uses."""
    if isinstance(f, Mixture):
        parts = [einsum_density(c) for c in f.components]
        return lambda z: sum(part(z) for part in parts)
    if isinstance(f, Gaussian):
        dec = f.decomposition
        log_norm = -0.5 * (f.dim * math.log(2 * math.pi) + np.log(dec.eigenvalues).sum())
        inverse = (dec.basis / dec.eigenvalues) @ dec.basis.T
        return lambda z: f.weight * np.exp(log_norm - 0.5 * einsum_form(z, f.mean, inverse))
    if isinstance(f, EllipsoidIndicator):
        return lambda z: np.where(
            einsum_form(z, f.center, f.matrix) <= 1.0, f.amplitude, 0.0
        )
    # the ball and the grid evaluate no quadratic form with a matrix
    return density(f)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("kind", ["gaussian", "ball", "ellipsoid", "mixture", "grid"])
def test_restack_energies_match_three_operand_einsums_to_the_last_bits(kind, dim):
    rng = np.random.default_rng(dim)
    f = family(kind, dim, rng)
    pot = QuadraticPotential(0.25, rng.uniform(-0.5, 0.5, dim), random_spd(rng, dim))

    def einsum_energy(z):
        return pot.offset + einsum_form(z, pot.minimum, pot.matrix)

    box = ([-4.0] * dim, [4.0] * dim)
    spacing = 8.0 / (64 if dim == 2 else 8)
    result = restack(RestackProblem(density(f), pot.evaluate, *box, 0, spacing))
    reference = restack(RestackProblem(einsum_density(f), einsum_energy, *box, 0, spacing))
    assert result.cells == 4096
    assert result.energy == pytest.approx(reference.energy, rel=1e-14, abs=0)
    assert result.pre_energy == pytest.approx(reference.pre_energy, rel=1e-14, abs=0)


# per-axis extents that reach several blocks at every dimension
BLOCKING_EXTENTS = {1: 3 * BLOCK_CELLS, 2: 400, 3: 60, 4: 24}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    dim=st.integers(1, 4),
    kind=st.sampled_from(["gaussian", "ball", "ellipsoid", "mixture", "grid", "potential"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_open_mesh_blocks_equal_their_stacked_midpoints_bit_for_bit(dim, kind, seed, data):
    rng = np.random.default_rng(seed)
    if kind == "potential":
        evaluator = QuadraticPotential(0.25, rng.uniform(-0.5, 0.5, dim), random_spd(rng, dim)).evaluate
    else:
        evaluator = density(family(kind, dim, rng))
    most = BLOCKING_EXTENTS[dim]
    extents = st.integers(1, most) | st.integers(most // 2, most)
    shape = tuple(data.draw(st.lists(extents, min_size=dim, max_size=dim), label="shape"))
    spacing = 8.0 / max(shape)
    lower = np.full(dim, -4.0)
    blocks = []

    def recording(z):
        values = evaluator(z)
        blocks.append((z, values))
        return values

    grid = RestackProblem(recording, None, lower, lower + spacing * np.asarray(shape), 0,
                          spacing).build_grid()
    assert grid.shape == shape
    points = []
    for z, values in blocks:
        # an open mesh: the coordinates of axis k vary along axis k only
        block = np.broadcast_shapes(*map(np.shape, z))
        assert [np.shape(zk) for zk in z] == [
            tuple(n if j == k else 1 for j, n in enumerate(block)) for k in range(dim)
        ]
        stack = stacked(z).reshape(-1, dim)
        reference = np.asarray(evaluator(tuple(np.moveaxis(stack, -1, 0))), dtype=float)
        assert np.ascontiguousarray(values).reshape(-1).tobytes() == reference.tobytes()
        points.append(stack)
    # the blocks are the lattice's midpoints, in row-major order
    assert np.array_equal(np.concatenate(points), grid.cell_centers())


GRID_2D = {"type": "grid", "origin": [-1.0, -1.0], "spacing": 1.0, "shape": [2, 2],
           "values": [1.0, 2.0, 3.0, 4.0]}
GAUSSIAN_2D = {"type": "gaussian", "weight": 1.0, "mean": [0.0, 0.0],
               "covariance": [[0.5, 0.1], [0.1, 0.3]]}
BALL_2D = {"type": "ball", "radius": 0.8, "center": [0.0, 0.0]}
ELLIPSOID_2D = {"type": "ellipsoid", "matrix": [[2.0, 0.0], [0.0, 1.0]], "center": [0.0, 0.0]}


# the quadratic forms nest their sums over the open mesh's axes, so no
# family and no cell energy runs an einsum at all
@pytest.mark.parametrize(
    "distribution",
    [
        GAUSSIAN_2D,
        BALL_2D,
        ELLIPSOID_2D,
        {"type": "mixture", "components": [GAUSSIAN_2D, BALL_2D, ELLIPSOID_2D]},
        GRID_2D,
    ],
    ids=["gaussian", "ball", "ellipsoid", "mixture", "grid"],
)
def test_lattice_evaluation_runs_no_three_operand_einsum(
    tmp_path, capsys, monkeypatch, distribution
):
    spec = {
        "dim": 2,
        "potential": {"V0": 0.0, "d": [0.1, -0.2], "V": [[1.0, 0.2], [0.2, 0.5]]},
        "distribution": distribution,
        "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    calls = []

    def recording(subscript, *operands, einsum=np.einsum, **kwargs):
        calls.append(subscript)
        return einsum(subscript, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    assert main(["restack", str(path), "--levels", "0", "--base-spacing", "0.1"]) == EXIT_OK
    capsys.readouterr()
    assert calls == []
