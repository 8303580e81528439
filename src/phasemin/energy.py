"""Minimal potential energies of a distribution under affine phase-space maps.

Transporting a distribution by the affine map z -> A (z - c) + b sends its
moments (N, c, H) to (N, b, A H A.T), so for a quadratic potential the energy
to minimize is N*offset + tr(V A H A.T) + N (b - minimum).T V (b - minimum).
The shift term is minimized by b = minimum regardless of A.  Two groups of
linear parts are supported:

* volume preserving, det A = 1 ("SL"):  the minimum is
  N*offset + 2n * det(V H)^(1/(2n)), attained by matching the eigenbases of
  V and H with an equalizing diagonal stretch;
* symplectic, A.T J A = J ("Sp"):  the minimum is
  N*offset + 2 * sum_k dV_k dH_(n+1-k) over the symplectic spectra of V and
  H paired in opposite order, attained by composing the Williamson bases
  with the index-reversing permutation.

The symplectic minimum is never below the volume-preserving one; they agree
exactly when all anti-sorted spectral products coincide, in particular for
n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .distributions import Moments, QuadraticPotential
from .errors import DegenerateMoments, DimensionError, NumericalInstability
from .linalg import EigenDecomposition
from .williamson import symplectic_eigenvalues, williamson


@dataclass(frozen=True, eq=False)
class AffineMap:
    """Affine phase-space map z -> matrix @ (z - center) + target."""

    matrix: np.ndarray
    center: np.ndarray
    target: np.ndarray

    def apply(self, points) -> np.ndarray:
        z = np.asarray(points, dtype=float)
        return (z - self.center) @ self.matrix.T + self.target


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Minimal energy over a map group; the minimizing map is built on first read.

    ``energy`` is a float, or an array with one energy per matrix of a
    stacked potential; only a one-matrix report has a ``map``, built from
    the potential's ``map_decomposition``.  On Sp reports
    ``potential_spectrum`` and ``moment_spectrum`` are the descending
    symplectic spectra of V and H used in the bound formula; SL reports
    carry None there, because the SL bound does not use them.
    """

    energy: float
    group: str
    moments: Moments
    potential: QuadraticPotential
    potential_spectrum: Optional[np.ndarray] = None
    moment_spectrum: Optional[np.ndarray] = None

    @cached_property
    def map(self) -> AffineMap:
        build = sl_optimal_map if self.group == "SL" else sp_optimal_map
        return AffineMap(
            matrix=build(self.potential.map_decomposition, self.moments.decomposition),
            center=self.moments.center.copy(),
            target=self.potential.minimum.copy(),
        )


class BumpOnTailSplit(NamedTuple):
    shift: float
    linear_energy_density: float
    gardner_energy_density: float


def moment_matrix(m: Moments, potential: QuadraticPotential) -> np.ndarray:
    """H, after checking the dimensions and that H is definite."""
    if m.dim != potential.dim:
        raise DimensionError(
            f"moments have dimension {m.dim}, potential {potential.dim}"
        )
    if m.dim % 2:
        raise DimensionError(f"phase-space dimension must be even, got {m.dim}")
    if not m.decomposition.definite:
        w = m.decomposition.eigenvalues
        raise DegenerateMoments(
            f"second-moment matrix is singular (smallest eigenvalue {w[0]:.6e}); "
            "the distribution does not span phase space"
        )
    return m.second_moment


def inaccessible_fraction(energy: float, initial: float) -> Optional[float]:
    """Minimal over initial energy, or None when the initial energy vanishes."""
    return energy / initial if initial > 0 else None


def anti_sorted_pairing(spectrum_v: np.ndarray, spectrum_h: np.ndarray):
    """sum_k dH_k * dV_(n+1-k) with both spectra descending: a float, or an
    array with one value per spectrum of a (..., n) stack ``spectrum_v``."""
    # numpy's dot reads a reversed view in another order than a contiguous copy
    pairing = np.vecdot(np.ascontiguousarray(spectrum_v[..., ::-1]), spectrum_h)
    return float(pairing) if pairing.ndim == 0 else pairing


def sl_optimal_map(dec_v: EigenDecomposition, dec_h: EigenDecomposition) -> np.ndarray:
    """Unit-determinant A minimizing tr(V A H A.T) for definite V and H,
    given as their eigendecompositions."""
    n2 = dec_v.eigenvalues.shape[0]
    log_det = np.log(dec_v.eigenvalues).sum() + np.log(dec_h.eigenvalues).sum()
    gain = math.exp(log_det / (2 * n2))
    stretch = gain / np.sqrt(dec_v.eigenvalues)
    squeeze = 1.0 / np.sqrt(dec_h.eigenvalues)
    return (dec_v.basis * stretch) @ (dec_h.basis * squeeze).T


def sp_optimal_map(dec_v: EigenDecomposition, dec_h: EigenDecomposition) -> np.ndarray:
    """Symplectic A minimizing tr(V A H A.T) for definite V and H, given as
    their eigendecompositions.

    Composes the Williamson bases of V and H with the symplectic relabeling
    x_k -> x_(n+1-k), p_k -> p_(n+1-k), which pairs the spectra in opposite
    order.
    """
    n = dec_v.eigenvalues.shape[0] // 2
    reverse = np.eye(n)[::-1]
    relabel = np.block(
        [[reverse, np.zeros((n, n))], [np.zeros((n, n)), reverse]]
    )
    s_v = williamson(dec_v).transform
    s_h = williamson(dec_h).transform
    return s_v @ relabel @ s_h.T


def _per_matrix(energy, *columns):
    # energy, a formula on Python floats, applied to the values of one matrix,
    # or to those of each matrix of a stack, giving an array
    if np.ndim(columns[0]) == 0:
        return energy(*columns)
    return np.array([energy(*row) for row in zip(*(column.tolist() for column in columns))])


def linear_gardner_energy(m: Moments, potential: QuadraticPotential) -> EnergyReport:
    """Minimal energy over affine maps with unit-determinant linear part.

    The value is N*offset + 2n * det(V H)^(1/(2n)), or N*offset where V is
    singular: the infimum is then approached but not attained, and the
    report's map is built from a slightly ridged V.  The potential may hold
    a stack of matrices.  The last steps run on Python floats for each
    matrix, so each energy has the same bits in a stack as alone.
    """
    h = moment_matrix(m, potential)
    dim = potential.dim
    base = potential.offset * m.mass
    mean_log = (np.linalg.slogdet(potential.matrix)[1] + np.linalg.slogdet(h)[1]) / dim
    energy = _per_matrix(
        lambda x, definite: float(base + dim * math.exp(x)) if definite else float(base),
        mean_log,
        potential.decomposition.definite,
    )
    return EnergyReport(energy, "SL", m, potential)


def linear_gromov_energy(m: Moments, potential: QuadraticPotential) -> EnergyReport:
    """Minimal energy over affine maps with symplectic linear part.

    The value is N*offset + 2 * sum_k dV_k dH_(n+1-k) over the descending
    symplectic spectra.  Semidefinite V is allowed: its zero symplectic
    eigenvalues simply drop the largest moments from the sum, and the
    report's map is built from a slightly ridged V.  The potential may hold
    a stack of matrices.
    """
    moment_matrix(m, potential)
    spectrum_v = symplectic_eigenvalues(potential.decomposition)
    spectrum_h = m.symplectic_spectrum
    base = potential.offset * m.mass
    energy = _per_matrix(
        lambda pairing: float(base + 2 * pairing), anti_sorted_pairing(spectrum_v, spectrum_h)
    )
    return EnergyReport(energy, "Sp", m, potential, spectrum_v, spectrum_h)


def verify_map_optimality(
    report: EnergyReport, m: Moments, potential: QuadraticPotential
) -> float:
    """Gap |achieved - reported| of a report's map, in energy units.

    The achieved energy is N*offset + tr(V A H A.T); the map's shift already
    places the center of mass at the potential minimum, so no shift term
    remains.  For definite inputs the gap is expected at the rounding level;
    maps produced through a ridge approach the infimum only to ridge order.
    """
    a = report.map.matrix
    achieved = potential.offset * m.mass + float(
        np.trace(potential.matrix @ a @ m.second_moment @ a.T)
    )
    return abs(achieved - report.energy)


def degenerate_limit(
    m: Moments,
    potential: QuadraticPotential,
    group: str,
    eps_sequence: Sequence[float],
    agreement_rtol: float = 1e-6,
) -> EnergyReport:
    """Minimal energy for a semidefinite potential via a stabilizing ridge.

    Evaluates the closed-form minimum with V replaced by V + eps*I over the
    given decreasing positive sequence, checks that the energies decrease
    with eps, extrapolates the last two points linearly to eps = 0, and
    validates the limit against the direct semidefinite formula within
    ``agreement_rtol``.  Disagreement or non-monotone energies raise
    NumericalInstability.  The result is the report of the smallest ridge,
    with its map and spectra, carrying the extrapolated energy.

    Linear extrapolation certifies the limit when the ridge enters the
    energy to first order, which holds for the symplectic group whenever
    the zero modes of V come in conjugate pairs, and for V = 0 or definite
    V on both groups.  A rank-deficient V on the volume-preserving branch
    scales like eps^(k/(2n)) and needs a looser ``agreement_rtol``.
    """
    if group not in ("SL", "Sp"):
        raise ValueError(f"group must be 'SL' or 'Sp', got {group!r}")
    group_energy = linear_gardner_energy if group == "SL" else linear_gromov_energy
    eps = [float(e) for e in eps_sequence]
    if len(eps) < 2:
        raise ValueError("need at least two ridge values to extrapolate")
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("ridge sequence must be positive and strictly decreasing")

    eye = np.eye(potential.dim)
    ridged = [replace(potential, matrix=potential.matrix + e * eye) for e in eps]
    reports = [group_energy(m, p) for p in ridged]
    energies = [r.energy for r in reports]
    scale = max(1.0, max(abs(e) for e in energies))
    for previous, current in zip(energies, energies[1:]):
        if current > previous + 1e-12 * scale:
            raise NumericalInstability(
                f"ridge energies increased along the sequence: {previous} -> {current}"
            )

    e1, e2 = eps[-2], eps[-1]
    y1, y2 = energies[-2], energies[-1]
    extrapolated = y2 - e2 * (y1 - y2) / (e1 - e2)
    direct = group_energy(m, potential)
    if abs(extrapolated - direct.energy) > agreement_rtol * (1.0 + abs(direct.energy)):
        raise NumericalInstability(
            f"extrapolated limit {extrapolated!r} disagrees with the direct "
            f"formula {direct.energy!r} beyond relative tolerance {agreement_rtol}"
        )
    energy = float(max(extrapolated, potential.offset * m.mass))
    return replace(reports[-1], energy=energy)


def bump_on_tail_1d(
    density0: float, temperature: float, density1: float, drift: float
) -> BumpOnTailSplit:
    """Energy bookkeeping for a warm background plus a cold drifting beam.

    In one momentum dimension with kinetic energy p^2/2, a Maxwellian of
    density ``density0`` and temperature ``temperature`` plus a cold beam of
    density ``density1`` at momentum ``drift`` has its energy density
    minimized over rigid momentum shifts at
    shift = -density1 * drift / (density0 + density1).  The returned linear
    value is the shifted energy density; the rearrangement floor keeps only
    the thermal part, density0 * temperature / 2.
    """
    if not density0 > 0:
        raise ValueError(f"background density must be positive, got {density0}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if density1 < 0:
        raise ValueError(f"beam density must be nonnegative, got {density1}")
    shift = -density1 * drift / (density0 + density1)
    linear = 0.5 * density0 * (shift**2 + temperature) + 0.5 * density1 * (
        drift + shift
    ) ** 2
    gardner = 0.5 * density0 * temperature
    return BumpOnTailSplit(shift, linear, gardner)
