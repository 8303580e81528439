"""Distributions on phase space, quadratic potentials, and their moments.

Every distribution f >= 0 is summarized by three moments: the total mass
N = ∫f, the center of mass c = (1/N)∫z f, and the centered second-moment
matrix H = ∫ (z ⊗ z) f(z + c) dz.  All families below admit closed forms,
so no generic quadrature is performed outside the lattice family.

The types hold values that :mod:`phasemin.problems` has read and checked;
they check only definiteness, matching dimensions and the float range of
the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, singledispatch
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError, EmptyDistribution
from .linalg import (
    MAP_RIDGE, EigenDecomposition, quadratic_form, require_definite, require_semidefinite,
    sym_eig, symmetrize,
)
from .williamson import symplectic_eigenvalues


def sphere_surface_area(k: int) -> float:
    """Surface area of the unit sphere S^(k-1) in R^k: 2 pi^(k/2) / Gamma(k/2)."""
    if k < 1:
        raise ValueError(f"ambient dimension must be positive, got {k}")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def ball_volume(k: int, radius: float = 1.0) -> float:
    """Volume of the radius-r ball in R^k."""
    return sphere_surface_area(k) * radius**k / k


def _offsets(z, origin) -> list:
    """Coordinate differences z_k - origin_k, one array per axis."""
    return [np.subtract(zk, ok) for zk, ok in zip(z, origin, strict=True)]


def _vector(v, dim=None, what="vector") -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"{what} has length {v.shape[0]}, expected {dim}")
    return v


@dataclass(frozen=True, eq=False)
class QuadraticPotential:
    """Potential E(z) = offset + (z - minimum).T @ matrix @ (z - minimum).

    ``matrix`` must be symmetric positive semidefinite; ``offset`` is the
    energy at the minimum.  Evaluating at z = minimum returns offset exactly.
    ``decomposition`` is the eigendecomposition of ``matrix``.  A (..., d, d)
    stack of matrices holds one potential per matrix, all with the same
    offset and minimum; the energies take it, ``evaluate`` and
    ``map_decomposition`` do not.
    """

    offset: float
    minimum: np.ndarray
    matrix: np.ndarray
    decomposition: EigenDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        dec = sym_eig(self.matrix)
        low = _vector(self.minimum, dec.matrix.shape[-1], "potential minimum")
        require_semidefinite(dec, "potential matrix")
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "minimum", low)
        object.__setattr__(self, "matrix", dec.matrix)
        object.__setattr__(self, "decomposition", dec)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def map_decomposition(self) -> EigenDecomposition:
        """Decomposition of the definite matrix an optimal map is built from,
        computed on first read: V's, or, when V is singular, that of V plus
        ``MAP_RIDGE`` times its largest entry magnitude (at least 1)."""
        if self.decomposition.definite:
            return self.decomposition
        scale = max(1.0, float(np.abs(self.matrix).max()))
        return sym_eig(self.matrix + MAP_RIDGE * scale * np.eye(self.dim))

    def evaluate(self, z) -> np.ndarray:
        """Potential values at points in coordinate form (see ``density``)."""
        return self.offset + quadratic_form(_offsets(z, self.minimum), self.matrix)


@dataclass(frozen=True, eq=False)
class Moments:
    """Total mass, center of mass, and centered second-moment matrix, all finite."""

    mass: float
    center: np.ndarray
    second_moment: np.ndarray

    def __post_init__(self):
        finite = np.isfinite(self.center).all() and np.isfinite(self.second_moment).all()
        if not (math.isfinite(self.mass) and finite):
            raise OverflowError("moments are beyond the float range")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @cached_property
    def decomposition(self) -> EigenDecomposition:
        """Eigendecomposition of ``second_moment``, computed on first read."""
        return sym_eig(self.second_moment)

    @cached_property
    def symplectic_spectrum(self) -> np.ndarray:
        """Descending symplectic spectrum of ``second_moment``, computed on
        first read."""
        return symplectic_eigenvalues(self.decomposition)


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Weighted Gaussian: weight * normal density with the given mean/covariance.

    ``decomposition`` is the eigendecomposition of ``covariance``.
    """

    weight: float
    mean: np.ndarray
    covariance: np.ndarray
    decomposition: EigenDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        dec = require_definite(sym_eig(self.covariance), "covariance")
        mean = _vector(self.mean, dec.matrix.shape[0], "mean")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", dec.matrix)
        object.__setattr__(self, "decomposition", dec)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class BallIndicator:
    """Constant amplitude on the ball of given radius around center, zero outside."""

    radius: float
    center: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "center", _vector(self.center, None, "center"))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class EllipsoidIndicator:
    """Constant amplitude on {z : (z - center).T @ matrix @ (z - center) <= 1}.

    ``decomposition`` is the eigendecomposition of ``matrix``.
    """

    matrix: np.ndarray
    center: np.ndarray
    amplitude: float = 1.0
    decomposition: EigenDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        dec = require_definite(sym_eig(self.matrix), "ellipsoid matrix")
        object.__setattr__(self, "matrix", dec.matrix)
        object.__setattr__(self, "center", _vector(self.center, dec.matrix.shape[0], "center"))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "decomposition", dec)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Particles:
    """Weighted point masses: rows of ``points`` with positive ``weights``."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.shape[0] != wts.shape[0]:
            raise DimensionError(
                f"{pts.shape[0]} points but {wts.shape[0]} weights"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def cell_axes(origin, spacing: float, shape) -> list:
    """Cell midpoints along each axis of a lattice: origin[k] + spacing * (i + 0.5)."""
    return [origin[k] + spacing * (np.arange(n) + 0.5) for k, n in enumerate(shape)]


@dataclass(frozen=True, eq=False)
class Grid:
    """Piecewise-constant density on a uniform lattice of cubic cells.

    ``origin`` is the lower corner of the box, ``spacing`` the common cell
    side, ``shape`` the cell counts per axis, and ``values`` the nonnegative
    density per cell (row-major over ``shape``).  The value of a cell is
    attributed to its midpoint, so integrals are midpoint sums weighted by
    the cell volume spacing**dim.
    """

    origin: np.ndarray
    spacing: float
    shape: Tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        origin = _vector(self.origin, None, "origin")
        shape = tuple(int(s) for s in np.asarray(self.shape).reshape(-1))
        if len(shape) != origin.shape[0]:
            raise DimensionError(
                f"shape has {len(shape)} axes but origin has {origin.shape[0]}"
            )
        values = np.asarray(self.values, dtype=float).reshape(shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    def cell_centers(self) -> np.ndarray:
        """Midpoints of all cells as a (cells, dim) array in row-major order."""
        axes = cell_axes(self.origin, self.spacing, self.shape)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@dataclass(frozen=True, eq=False)
class Mixture:
    """Sum of component distributions."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        dims = {c.dim for c in comps}
        if len(dims) > 1:
            raise DimensionError(f"mixture components disagree on dimension: {dims}")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        if not self.components:
            raise EmptyDistribution("mixture has no components")
        return self.components[0].dim


Distribution = Union[Gaussian, BallIndicator, EllipsoidIndicator, Particles, Grid, Mixture]


# ---------------------------------------------------------------------------
# moments


@singledispatch
def moments(f) -> Moments:
    """Closed-form (N, c, H) of a distribution."""
    raise TypeError(f"not a distribution: {type(f).__name__}")


@moments.register
def _(f: Gaussian) -> Moments:
    return Moments(f.weight, f.mean.copy(), f.weight * f.covariance)


def _indicator_second_moment_coefficient(dim: int, radius: float) -> float:
    # ∫_{|z|<=R} z_i^2 dz = |S^(d-1)| R^(d+2) / ((d+2) d), identical for each axis
    return sphere_surface_area(dim) * radius ** (dim + 2) / ((dim + 2) * dim)


@moments.register
def _(f: BallIndicator) -> Moments:
    d = f.dim
    mass = f.amplitude * ball_volume(d, f.radius)
    second = f.amplitude * _indicator_second_moment_coefficient(d, f.radius) * np.eye(d)
    return Moments(mass, f.center.copy(), second)


@moments.register
def _(f: EllipsoidIndicator) -> Moments:
    d = f.dim
    dec = f.decomposition
    root_det = float(np.prod(np.sqrt(dec.eigenvalues)))
    inverse = (dec.basis / dec.eigenvalues) @ dec.basis.T
    mass = f.amplitude * ball_volume(d) / root_det
    coeff = f.amplitude * sphere_surface_area(d) / ((d + 2) * d * root_det)
    return Moments(mass, f.center.copy(), coeff * inverse)


@moments.register
def _(f: Particles) -> Moments:
    mass = float(f.weights.sum())
    if mass <= 0:
        raise EmptyDistribution("particle set carries no mass")
    center = (f.weights @ f.points) / mass
    centered = f.points - center
    second = np.einsum("k,ki,kj->ij", f.weights, centered, centered)
    return Moments(mass, center, symmetrize(second))


@moments.register
def _(f: Grid) -> Moments:
    volume = f.spacing**f.dim
    flat = f.values.reshape(-1)
    mass = float(flat.sum()) * volume
    if mass <= 0:
        raise EmptyDistribution("grid carries no mass")
    centers = f.cell_centers()
    center = (flat @ centers) * volume / mass
    centered = centers - center
    second = np.einsum("k,ki,kj->ij", flat, centered, centered) * volume
    return Moments(mass, center, symmetrize(second))


@moments.register
def _(f: Mixture) -> Moments:
    if not f.components:
        raise EmptyDistribution("mixture has no components")
    parts = [moments(c) for c in f.components]
    mass = sum(p.mass for p in parts)
    if mass <= 0:
        raise EmptyDistribution("mixture carries no mass")
    center = sum(p.mass * p.center for p in parts) / mass
    # parallel axis: recentering each component adds a rank-one spread term
    second = np.zeros((f.dim, f.dim))
    for p in parts:
        offset = p.center - center
        second += p.second_moment + p.mass * np.outer(offset, offset)
    return Moments(mass, center, symmetrize(second))


# ---------------------------------------------------------------------------
# energies


def moment_energy(m: Moments, potential: QuadraticPotential):
    """Potential energy of any distribution with the given moments: a float,
    or an array with one energy per matrix of a stacked potential.

    For a quadratic potential the energy depends on the distribution only
    through (N, c, H):
    N * offset + tr(V @ H) + N * (c - minimum).T @ V @ (c - minimum).
    """
    if m.dim != potential.dim:
        raise DimensionError(
            f"moments have dimension {m.dim}, potential {potential.dim}"
        )
    v = potential.matrix
    shift = m.center - potential.minimum
    energy = (
        potential.offset * m.mass
        + np.trace(v @ m.second_moment, axis1=-2, axis2=-1)
        + np.vecdot(m.mass * shift @ v, shift)
    )
    return float(energy) if energy.ndim == 0 else energy


# ---------------------------------------------------------------------------
# pointwise densities (used to rasterize distributions onto lattices)


@singledispatch
def density(f) -> Callable[[Sequence[np.ndarray]], np.ndarray]:
    """Pointwise density evaluator on points in coordinate form: one array
    per axis, broadcasting together, such as an open mesh (``np.ix_``), one
    point's coordinates or ``np.moveaxis(points, -1, 0)``.  Any layout of
    the same points gives the same bits, in the broadcast shape."""
    raise TypeError(f"no pointwise density for {type(f).__name__}")


@density.register
def _(f: Gaussian):
    dec = f.decomposition
    log_norm = -0.5 * (f.dim * math.log(2 * math.pi) + np.log(dec.eigenvalues).sum())
    # scaling by -0.5 is exact, so the form below is -0.5 * dz.T inverse dz
    half_inverse = -0.5 * ((dec.basis / dec.eigenvalues) @ dec.basis.T)

    def evaluate(z):
        exponent = log_norm + quadratic_form(_offsets(z, f.mean), half_inverse)
        # the form of a definite inverse is nan only as inf - inf after
        # overflow: the density is 0 there, as in the limit
        return f.weight * np.exp(np.fmax(exponent, -np.inf))

    return evaluate


@density.register
def _(f: BallIndicator):
    def evaluate(z):
        with np.errstate(over="ignore"):
            r2 = sum(dz * dz for dz in _offsets(z, f.center))
        return np.where(r2 <= f.radius**2, f.amplitude, 0.0)

    return evaluate


@density.register
def _(f: EllipsoidIndicator):
    def evaluate(z):
        inside = quadratic_form(_offsets(z, f.center), f.matrix) <= 1.0
        return np.where(inside, f.amplitude, 0.0)

    return evaluate


@density.register
def _(f: Grid):
    # cell indices are clipped to [-1, n] before the int cast, which cannot
    # overflow then, and index -1 and n fall in a border of zeros
    padded = np.pad(f.values, 1)

    def evaluate(z):
        return padded[tuple(
            np.clip(np.floor(dz / f.spacing), -1, n).astype(int) + 1
            for dz, n in zip(_offsets(z, f.origin), f.shape)
        )]

    return evaluate


@density.register
def _(f: Mixture):
    parts = [density(c) for c in f.components]

    def evaluate(z):
        total = np.zeros(np.broadcast_shapes(*map(np.shape, z)))
        for part in parts:
            total += part(z)
        return total

    return evaluate
