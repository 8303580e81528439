"""Discrete rearrangement of lattice densities onto low-energy cells.

A density sampled on a uniform lattice is rearranged by moving its largest
cell values onto the cells of smallest energy.  By the rearrangement
inequality this pairing minimizes sum_i f_i * E_i over all permutations of
the cells, and the resulting energy

    h^dim * sum_i f_sorted_desc[i] * E_sorted_asc[i]

is the lattice approximation of the continuum rearrangement floor.  The cell
volume factor h^dim makes levels comparable: without it the sum is a plain
lattice sum, not an integral.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np

from .distributions import Grid
from .errors import CellCapExceeded, EmptyDistribution, NumericalInstability

DEFAULT_CELL_CAP = 4_194_304
CELL_CAP_ENV = "PHASEMIN_MAX_CELLS"


def configured_cell_cap() -> int:
    """Cell cap from the environment variable, or the built-in default."""
    raw = os.environ.get(CELL_CAP_ENV)
    if raw is None:
        return DEFAULT_CELL_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{CELL_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{CELL_CAP_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True, eq=False)
class RestackProblem:
    """A density, an energy rule, and a lattice refinement of a box.

    ``density`` and ``cell_energy`` are vectorized callables over (k, dim)
    point arrays, evaluated at cell midpoints.  The lattice at refinement
    ``level`` has spacing ``base_spacing * 2**(-level)``; the box starting
    at ``lower`` is extended to a whole number of cells covering ``upper``.
    """

    density: Callable[[np.ndarray], np.ndarray]
    cell_energy: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    level: int
    base_spacing: float = 1.0
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if lower.shape != upper.shape or np.any(upper <= lower):
            raise ValueError("box must satisfy lower < upper componentwise")
        if self.level < 0:
            raise ValueError(f"refinement level must be nonnegative, got {self.level}")
        if not self.base_spacing > 0:
            raise ValueError(f"base spacing must be positive, got {self.base_spacing}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def spacing(self) -> float:
        return self.base_spacing * 2.0 ** (-self.level)

    def at_level(self, level: int) -> "RestackProblem":
        return replace(self, level=level)

    def cell_shape(self) -> Tuple[int, ...]:
        counts = np.maximum(
            1, np.ceil((self.upper - self.lower) / self.spacing - 1e-9).astype(int)
        )
        return tuple(int(c) for c in counts)

    def build_grid(self) -> Grid:
        """Materialize the lattice, enforcing the cell cap before allocating."""
        shape = self.cell_shape()
        cells = int(np.prod(shape))
        if cells > self.cell_cap:
            raise CellCapExceeded(cells, self.cell_cap)
        grid = Grid(self.lower, self.spacing, shape, np.zeros(cells))
        values = np.asarray(self.density(grid.cell_centers()), dtype=float)
        return Grid(self.lower, self.spacing, shape, values)


@dataclass(frozen=True, eq=False)
class RestackResult:
    """Energies before and after rearrangement, and the cell permutation.

    ``permutation[i]`` is the flat destination cell of the value originally
    in flat cell i (row-major over the lattice shape).  The permutation is a
    bijection, so the multiset of cell values is conserved exactly.
    """

    energy: float
    pre_energy: float
    permutation: np.ndarray
    cells: int
    spacing: float


def restack_grid(grid: Grid, cell_energy) -> RestackResult:
    """Rearrange an existing lattice density onto its lowest-energy cells.

    Both sorts are stable with row-major flat cell index as the tie-break,
    so the result is deterministic for equal values or equal energies.
    """
    values = grid.values.reshape(-1)
    if not values.sum() > 0:
        raise EmptyDistribution("no cell carries positive density")
    energies = np.asarray(cell_energy(grid.cell_centers()), dtype=float)
    if energies.shape != values.shape:
        raise ValueError("cell energy evaluator returned a wrong-sized array")

    by_value = np.argsort(-values, kind="stable")
    by_energy = np.argsort(energies, kind="stable")
    volume = grid.spacing**grid.dim
    stacked = volume * float(values[by_value] @ energies[by_energy])
    unmoved = volume * float(values @ energies)
    if stacked > unmoved * (1 + 1e-12) + 1e-300:
        raise NumericalInstability(
            "rearranged energy exceeds the unmoved energy; sort inconsistency"
        )
    permutation = np.empty(values.shape[0], dtype=np.int64)
    permutation[by_value] = by_energy
    return RestackResult(
        energy=stacked,
        pre_energy=unmoved,
        permutation=permutation,
        cells=values.shape[0],
        spacing=grid.spacing,
    )


def restack(problem: RestackProblem) -> RestackResult:
    """Build the problem's lattice and rearrange it."""
    return restack_grid(problem.build_grid(), problem.cell_energy)
