"""Discrete rearrangement of lattice densities onto low-energy cells.

A density sampled on a uniform lattice is rearranged by moving its largest
cell values onto the cells of smallest energy.  By the rearrangement
inequality this pairing minimizes sum_i f_i * E_i over all permutations of
the cells, and the resulting energy

    h^dim * sum_i f_sorted_desc[i] * E_sorted_asc[i]

is the lattice approximation of the continuum rearrangement floor.  The cell
volume factor h^dim makes levels comparable: without it the sum is a plain
lattice sum, not an integral.

Densities and cell energies are evaluated on blocks of the lattice, each
handed to the evaluator as an open mesh: one array of midpoint coordinates
per axis.  A lattice is never held as a (cells, dim) point array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .distributions import Grid, cell_axes
from .errors import CellCapExceeded, EmptyDistribution, NumericalInstability

DEFAULT_CELL_CAP = 4_194_304
# most cells per evaluation block: a block's full-sized arrays stay in cache
BLOCK_CELLS = 1 << 15


def _evaluate_cells(fn, origin, spacing: float, shape, what: str) -> np.ndarray:
    """``fn`` at every cell midpoint of a lattice, as one (cells,) array.

    The midpoints are those of ``Grid.cell_centers``, passed to ``fn`` as
    open meshes (``np.ix_``) of blocks of at most BLOCK_CELLS cells; each
    block's result must have the block's shape.
    """
    axes = cell_axes(origin, spacing, shape)
    # a block is whole rows over the axes from ``split`` on, at one index of
    # the axes before split - 1 and a run of indices of axis split - 1
    split = next(k for k in range(1, len(shape) + 1) if math.prod(shape[k:]) <= BLOCK_CELLS)
    step = BLOCK_CELLS // math.prod(shape[split:])
    out = np.empty(shape)
    for outer in np.ndindex(shape[: split - 1]):
        for first in range(0, shape[split - 1], step):
            block = tuple(slice(i, i + 1) for i in outer) + (slice(first, first + step),)
            mesh = np.ix_(*(axis[s] for axis, s in zip(axes, block)), *axes[split:])
            values = np.asarray(fn(mesh), dtype=float)
            if values.shape != out[block].shape:
                raise ValueError(f"{what} evaluator returned a wrong-sized array")
            out[block] = values
    return out.reshape(-1)


@dataclass(frozen=True, eq=False)
class RestackProblem:
    """A density, an energy rule, and a lattice refinement of a box.

    ``density`` and ``cell_energy`` take points in coordinate form (see
    ``distributions.density``), evaluated on blocks of cell midpoints.  The
    lattice at refinement ``level`` has spacing ``base_spacing * 2**(-level)``;
    the box starting at ``lower`` is extended to a whole number of cells
    covering ``upper``.
    """

    density: Callable[[np.ndarray], np.ndarray]
    cell_energy: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    level: int
    base_spacing: float = 1.0
    cell_cap: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float).reshape(-1))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float).reshape(-1))

    @property
    def spacing(self) -> float:
        return math.ldexp(self.base_spacing, -self.level)

    def at_level(self, level: int) -> "RestackProblem":
        return replace(self, level=level)

    def cell_shape(self) -> Tuple[int, ...]:
        """Cells per axis; a count that is not a finite float exceeds any cap."""
        with np.errstate(divide="ignore", over="ignore"):
            counts = np.ceil((self.upper - self.lower) / self.spacing - 1e-9)
        if not np.all(np.isfinite(counts)):
            raise CellCapExceeded(math.inf, self.cell_cap)
        return tuple(max(1, int(c)) for c in counts.tolist())

    def build_grid(self) -> Grid:
        """Evaluate the density on the lattice, checking the cell cap first."""
        shape = self.cell_shape()
        cells = math.prod(shape)
        if cells > self.cell_cap:
            raise CellCapExceeded(cells, self.cell_cap)
        values = _evaluate_cells(self.density, self.lower, self.spacing, shape, "density")
        return Grid(self.lower, self.spacing, shape, values)


@dataclass(frozen=True, eq=False)
class RestackResult:
    """Energies before and after rearrangement; the permutation on first read.

    ``values`` and ``energies`` are the flat cell values and cell energies
    (row-major over the lattice shape).  ``permutation[i]`` is the flat
    destination cell of the value originally in flat cell i.  It is built
    from ``values`` and ``energies`` only when read, by stable sorts with the
    flat cell index as the tie-break, so it is deterministic for equal
    values or equal energies.  It is a bijection, so the multiset of cell
    values is conserved exactly.
    """

    energy: float
    pre_energy: float
    spacing: float
    values: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)

    @property
    def cells(self) -> int:
        return self.values.shape[0]

    @cached_property
    def permutation(self) -> np.ndarray:
        permutation = np.empty(self.cells, dtype=np.int64)
        permutation[np.argsort(-self.values, kind="stable")] = np.argsort(
            self.energies, kind="stable"
        )
        return permutation


def restack_grid(grid: Grid, cell_energy) -> RestackResult:
    """Rearrange an existing lattice density onto its lowest-energy cells."""
    values = grid.values.reshape(-1)
    if not values.sum() > 0:
        raise EmptyDistribution("no cell carries positive density")
    energies = _evaluate_cells(
        cell_energy, grid.origin, grid.spacing, grid.shape, "cell energy"
    )
    volume = grid.spacing**grid.dim
    unmoved = volume * float(values @ energies)
    # descending values against ascending energies, both contiguous: a
    # reversed view has a negative stride, which the dot product may round
    # differently
    descending = -np.sort(-values)
    stacked = volume * float(descending @ np.sort(energies))
    if stacked > unmoved * (1 + 1e-12) + 1e-300:
        raise NumericalInstability(
            "rearranged energy exceeds the unmoved energy; sort inconsistency"
        )
    return RestackResult(
        energy=stacked,
        pre_energy=unmoved,
        spacing=grid.spacing,
        values=values,
        energies=energies,
    )


def restack(problem: RestackProblem) -> RestackResult:
    """Build the problem's lattice and rearrange it."""
    return restack_grid(problem.build_grid(), problem.cell_energy)
