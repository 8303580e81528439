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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .distributions import Moments, QuadraticPotential, moment_energy
from .errors import DegenerateMoments, DimensionError, NumericalInstability
from .linalg import is_definite, sym_eig
from .williamson import symplectic_eigenvalues, williamson

# ridge added to a singular potential matrix when a concrete near-optimal map
# is requested; the energy value itself never uses it
MAP_RIDGE = 1e-8


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

    ``map_potential`` is the definite matrix the map is built from: V, or V
    with a ridge when V is singular.  On Sp reports ``potential_spectrum``
    and ``moment_spectrum`` are the descending symplectic spectra of V and H
    used in the bound formula; SL reports carry None there, because the SL
    bound does not use them.
    """

    energy: float
    group: str
    moments: Moments
    potential: QuadraticPotential
    map_potential: np.ndarray
    potential_spectrum: Optional[np.ndarray] = None
    moment_spectrum: Optional[np.ndarray] = None

    @property
    def fraction(self) -> Optional[float]:
        """Minimal over initial energy, or None when the initial energy vanishes."""
        initial = moment_energy(self.moments, self.potential)
        return self.energy / initial if initial > 0 else None

    @cached_property
    def map(self) -> AffineMap:
        build = sl_optimal_map if self.group == "SL" else sp_optimal_map
        return AffineMap(
            matrix=build(self.map_potential, self.moments.second_moment),
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
    h = m.second_moment
    w = np.linalg.eigvalsh(h)
    if not is_definite(w):
        raise DegenerateMoments(
            f"second-moment matrix is singular (smallest eigenvalue {w[0]:.6e}); "
            "the distribution does not span phase space"
        )
    return h


def _map_potential(v: np.ndarray) -> np.ndarray:
    """V when it is definite, else V with a small ridge, to build a map from."""
    if is_definite(np.linalg.eigvalsh(v)):
        return v
    scale = max(1.0, float(np.abs(v).max()))
    return v + MAP_RIDGE * scale * np.eye(v.shape[0])


def _spectra(v: np.ndarray, h: np.ndarray) -> tuple:
    return symplectic_eigenvalues(v), symplectic_eigenvalues(h)


def _sl_energy(floor: float, v: np.ndarray, h: np.ndarray) -> float:
    """floor + 2n * det(V H)^(1/(2n)); just floor when V is singular."""
    if not is_definite(np.linalg.eigvalsh(v)):
        return floor
    dim = v.shape[0]
    mean_log = (np.linalg.slogdet(v)[1] + np.linalg.slogdet(h)[1]) / dim
    return floor + dim * math.exp(mean_log)


def anti_sorted_pairing(spectrum_v: np.ndarray, spectrum_h: np.ndarray) -> float:
    """sum_k dH_k * dV_(n+1-k) with both spectra descending."""
    return float(np.dot(spectrum_h, spectrum_v[::-1]))


def _sp_energy(floor: float, spectra: tuple) -> float:
    """floor + 2 * sum_k dV_k dH_(n+1-k) over the descending spectra (dV, dH)."""
    spectrum_v, spectrum_h = spectra
    return floor + 2 * anti_sorted_pairing(spectrum_v, spectrum_h)


def sl_optimal_map(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unit-determinant A minimizing tr(V A H A.T) for definite V and H."""
    dec_v = sym_eig(v)
    dec_h = sym_eig(h)
    n2 = v.shape[0]
    log_det = np.log(dec_v.eigenvalues).sum() + np.log(dec_h.eigenvalues).sum()
    gain = math.exp(log_det / (2 * n2))
    stretch = gain / np.sqrt(dec_v.eigenvalues)
    squeeze = 1.0 / np.sqrt(dec_h.eigenvalues)
    return (dec_v.basis * stretch) @ (dec_h.basis * squeeze).T


def sp_optimal_map(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Symplectic A minimizing tr(V A H A.T) for definite V and H.

    Composes the Williamson bases of V and H with the symplectic relabeling
    x_k -> x_(n+1-k), p_k -> p_(n+1-k), which pairs the spectra in opposite
    order.
    """
    n = v.shape[0] // 2
    reverse = np.eye(n)[::-1]
    relabel = np.block(
        [[reverse, np.zeros((n, n))], [np.zeros((n, n)), reverse]]
    )
    s_v = williamson(v).transform
    s_h = williamson(h).transform
    return s_v @ relabel @ s_h.T


def linear_gardner_energy(m: Moments, potential: QuadraticPotential) -> EnergyReport:
    """Minimal energy over affine maps with unit-determinant linear part.

    The value is N*offset + 2n * det(V H)^(1/(2n)).  For singular V the
    determinant vanishes and the infimum N*offset is approached but not
    attained; the report's map is then built from a slightly ridged V.
    """
    h = moment_matrix(m, potential)
    v = potential.matrix
    energy = _sl_energy(potential.offset * m.mass, v, h)
    return EnergyReport(float(energy), "SL", m, potential, _map_potential(v))


def linear_gromov_energy(m: Moments, potential: QuadraticPotential) -> EnergyReport:
    """Minimal energy over affine maps with symplectic linear part.

    The value is N*offset + 2 * sum_k dV_k dH_(n+1-k) over the descending
    symplectic spectra.  Semidefinite V is allowed: its zero symplectic
    eigenvalues simply drop the largest moments from the sum, and the
    report's map is built from a slightly ridged V.
    """
    h = moment_matrix(m, potential)
    v = potential.matrix
    spectra = _spectra(v, h)
    energy = _sp_energy(potential.offset * m.mass, spectra)
    return EnergyReport(float(energy), "Sp", m, potential, _map_potential(v), *spectra)


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
    NumericalInstability.

    Linear extrapolation certifies the limit when the ridge enters the
    energy to first order, which holds for the symplectic group whenever
    the zero modes of V come in conjugate pairs, and for V = 0 or definite
    V on both groups.  A rank-deficient V on the volume-preserving branch
    scales like eps^(k/(2n)) and needs a looser ``agreement_rtol``.
    """
    if group not in ("SL", "Sp"):
        raise ValueError(f"group must be 'SL' or 'Sp', got {group!r}")
    h = moment_matrix(m, potential)
    eps = [float(e) for e in eps_sequence]
    if len(eps) < 2:
        raise ValueError("need at least two ridge values to extrapolate")
    if any(e <= 0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("ridge sequence must be positive and strictly decreasing")

    v = potential.matrix
    eye = np.eye(v.shape[0])
    floor = potential.offset * m.mass

    def group_energy(ridged):
        if group == "SL":
            return _sl_energy(floor, ridged, h)
        return _sp_energy(floor, _spectra(ridged, h))

    energies = [group_energy(v + e * eye) for e in eps]
    scale = max(1.0, max(abs(e) for e in energies))
    for previous, current in zip(energies, energies[1:]):
        if current > previous + 1e-12 * scale:
            raise NumericalInstability(
                f"ridge energies increased along the sequence: {previous} -> {current}"
            )

    e1, e2 = eps[-2], eps[-1]
    y1, y2 = energies[-2], energies[-1]
    extrapolated = y2 - e2 * (y1 - y2) / (e1 - e2)
    direct = group_energy(v)
    if abs(extrapolated - direct) > agreement_rtol * (1.0 + abs(direct)):
        raise NumericalInstability(
            f"extrapolated limit {extrapolated!r} disagrees with the direct "
            f"formula {direct!r} beyond relative tolerance {agreement_rtol}"
        )
    energy = float(max(extrapolated, floor))
    spectra = _spectra(v, h) if group == "Sp" else (None, None)
    return EnergyReport(energy, group, m, potential, v + eps[-1] * eye, *spectra)


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
