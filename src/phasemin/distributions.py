"""Distributions on phase space, quadratic potentials, and their moments.

Every distribution f >= 0 is summarized by three moments: the total mass
N = ∫f, the center of mass c = (1/N)∫z f, and the centered second-moment
matrix H = ∫ (z ⊗ z) f(z + c) dz.  All families below admit closed forms,
so no generic quadrature is performed outside the lattice family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch
from typing import Callable, Tuple, Union

import numpy as np

from .errors import (
    DimensionError,
    EmptyDistribution,
    NotPositiveDefinite,
    NotSemidefinite,
)
from .linalg import is_definite, is_semidefinite, sym_eig, symmetrize


def sphere_surface_area(k: int) -> float:
    """Surface area of the unit sphere S^(k-1) in R^k: 2 pi^(k/2) / Gamma(k/2)."""
    if k < 1:
        raise ValueError(f"ambient dimension must be positive, got {k}")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def ball_volume(k: int, radius: float = 1.0) -> float:
    """Volume of the radius-r ball in R^k."""
    return sphere_surface_area(k) * radius**k / k


def _vector(v, dim=None, what="vector") -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"{what} has length {v.shape[0]}, expected {dim}")
    return v


@dataclass(frozen=True, eq=False)
class QuadraticPotential:
    """Potential E(z) = offset + (z - minimum).T @ matrix @ (z - minimum).

    ``matrix`` must be symmetric positive semidefinite; ``offset`` is the
    energy at the minimum.  Evaluating at z = minimum returns offset exactly.
    """

    offset: float
    minimum: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        mat = symmetrize(self.matrix)
        low = _vector(self.minimum, mat.shape[0], "potential minimum")
        w = np.linalg.eigvalsh(mat)
        if not is_semidefinite(w):
            raise NotSemidefinite(
                f"potential matrix has negative eigenvalue {w[0]:.6e}",
                eigenvalue=w[0],
            )
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "minimum", low)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, z) -> np.ndarray:
        """Potential values at one point or a stack of points (last axis = dim)."""
        dz = np.asarray(z, dtype=float) - self.minimum
        return self.offset + np.einsum("...i,ij,...j->...", dz, self.matrix, dz)


@dataclass(frozen=True, eq=False)
class Moments:
    """Total mass, center of mass, and centered second-moment matrix."""

    mass: float
    center: np.ndarray
    second_moment: np.ndarray

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Weighted Gaussian: weight * normal density with the given mean/covariance."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        cov = symmetrize(self.covariance)
        mean = _vector(self.mean, cov.shape[0], "mean")
        w = np.linalg.eigvalsh(cov)
        if not is_definite(w):
            raise NotPositiveDefinite(
                f"covariance is not positive definite (eigenvalue {w[0]:.6e})",
                eigenvalue=w[0],
            )
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

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
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "center", _vector(self.center, None, "center"))

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class EllipsoidIndicator:
    """Constant amplitude on {z : (z - center).T @ matrix @ (z - center) <= 1}."""

    matrix: np.ndarray
    center: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        mat = symmetrize(self.matrix)
        w = np.linalg.eigvalsh(mat)
        if not is_definite(w):
            raise NotPositiveDefinite(
                f"ellipsoid matrix is not positive definite (eigenvalue {w[0]:.6e})",
                eigenvalue=w[0],
            )
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "center", _vector(self.center, mat.shape[0], "center"))
        object.__setattr__(self, "amplitude", float(self.amplitude))

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
        if not np.all(np.isfinite(pts)):
            raise ValueError("particle coordinates must be finite")
        if wts.size and not np.all(wts > 0):
            raise ValueError("particle weights must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


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
        if any(s < 1 for s in shape):
            raise ValueError(f"shape entries must be positive, got {shape}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        values = np.asarray(self.values, dtype=float).reshape(shape)
        if not np.all(np.isfinite(values)):
            raise ValueError("cell values must be finite")
        if np.any(values < 0):
            raise ValueError("cell values must be nonnegative")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.shape))

    def cell_centers(self) -> np.ndarray:
        """Midpoints of all cells as a (cell_count, dim) array in row-major order."""
        axes = [
            self.origin[k] + self.spacing * (np.arange(self.shape[k]) + 0.5)
            for k in range(self.dim)
        ]
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
    dec = sym_eig(f.matrix)
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


def moment_energy(m: Moments, potential: QuadraticPotential) -> float:
    """Potential energy of any distribution with the given moments.

    For a quadratic potential the energy depends on the distribution only
    through (N, c, H):
    N * offset + tr(V @ H) + N * (c - minimum).T @ V @ (c - minimum).
    """
    if m.dim != potential.dim:
        raise DimensionError(
            f"moments have dimension {m.dim}, potential {potential.dim}"
        )
    shift = m.center - potential.minimum
    return float(
        potential.offset * m.mass
        + np.trace(potential.matrix @ m.second_moment)
        + m.mass * shift @ potential.matrix @ shift
    )


# ---------------------------------------------------------------------------
# pointwise densities (used to rasterize distributions onto lattices)


@singledispatch
def density(f) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise density evaluator taking a (k, dim) array of points."""
    raise TypeError(f"no pointwise density for {type(f).__name__}")


@density.register
def _(f: Gaussian):
    dec = sym_eig(f.covariance)
    log_norm = -0.5 * (f.dim * math.log(2 * math.pi) + np.log(dec.eigenvalues).sum())
    inverse = (dec.basis / dec.eigenvalues) @ dec.basis.T

    def evaluate(points):
        dz = np.atleast_2d(np.asarray(points, dtype=float)) - f.mean
        quad = np.einsum("ki,ij,kj->k", dz, inverse, dz)
        return f.weight * np.exp(log_norm - 0.5 * quad)

    return evaluate


@density.register
def _(f: BallIndicator):
    def evaluate(points):
        dz = np.atleast_2d(np.asarray(points, dtype=float)) - f.center
        return np.where(
            np.einsum("ki,ki->k", dz, dz) <= f.radius**2, f.amplitude, 0.0
        )

    return evaluate


@density.register
def _(f: EllipsoidIndicator):
    def evaluate(points):
        dz = np.atleast_2d(np.asarray(points, dtype=float)) - f.center
        quad = np.einsum("ki,ij,kj->k", dz, f.matrix, dz)
        return np.where(quad <= 1.0, f.amplitude, 0.0)

    return evaluate


@density.register
def _(f: Grid):
    flat = f.values.reshape(-1)
    extents = np.asarray(f.shape)

    def evaluate(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        index = np.floor((pts - f.origin) / f.spacing).astype(int)
        inside = np.all((index >= 0) & (index < extents), axis=-1)
        out = np.zeros(pts.shape[0])
        if inside.any():
            flat_index = np.ravel_multi_index(tuple(index[inside].T), f.shape)
            out[inside] = flat[flat_index]
        return out

    return evaluate


@density.register
def _(f: Mixture):
    parts = [density(c) for c in f.components]

    def evaluate(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        total = np.zeros(pts.shape[0])
        for part in parts:
            total += part(pts)
        return total

    return evaluate
