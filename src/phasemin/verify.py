"""Randomized verification tools: symplectic sampling, bound checks, and
cylinder embedding searches.

Random symplectic matrices are drawn in Euler (Bloch-Messiah) form
O1 @ diag(e^r, e^-r) @ O2: every symplectic matrix factors so, with O1 and
O2 orthosymplectic (Arvind, Dutta, Mukunda & Simon 1995).  An
orthosymplectic matrix is the real form [[X, -Y], [Y, X]] of a unitary
X + iY, and each unitary is the Cayley image of a random Hermitian
generator, so a batch takes one complex solve and no matrix exponential.
Every sample is certified after construction by its symplecticity
residual.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .energy import anti_sorted_pairing, sp_optimal_map
from .errors import DimensionError, NumericalInstability
from .linalg import EigenDecomposition, require_definite, stack_length, sym_eig, symplectic_form
from .williamson import symplectic_eigenvalues
from .distributions import sphere_surface_area

SAMPLE_RESIDUAL_TOL = 1e-8


def expm_batch(mats) -> np.ndarray:
    """Cayley map ``solve(I - x/2, I + x/2)`` of a (k, n, n) stack x.

    This is the (1, 1) Pade approximant of exp.  It takes a skew-Hermitian x
    to a unitary matrix, up to rounding, with one batched solve and no
    eigensolver, and x = 0 to the identity exactly.  The name is kept
    from the matrix exponential it replaced: the benchmark tracer
    (``bench/tracer.py``) times ``phasemin.verify.expm_batch``, and a
    package test pins that name.
    """
    half = np.asarray(mats) / 2.0
    eye = np.eye(half.shape[-1])
    return np.linalg.solve(eye - half, eye + half)


class SymplecticSampler:
    """Reproducible stream of random symplectic matrices on R^(2*dof).

    Each sample is O1 @ diag(e^r, e^-r) @ O2 with squeeze exponents r and
    the generators of O1 and O2 uniform on [-scale, scale], so the singular
    values of a sample come in reciprocal pairs inside [e^-scale, e^scale];
    scale 0 yields identity matrices.  The stream depends only on (dof,
    seed, scale), and a batch of k consumes it exactly as k batches of one
    do.
    """

    def __init__(self, dof: int, seed: int, scale: float = 1.0):
        self.dof = int(dof)
        self.scale = float(scale)
        self._rng = np.random.default_rng(int(seed))
        self._form = symplectic_form(self.dof)

    def sample_batch(self, count: int) -> np.ndarray:
        """The next ``count`` samples as a (count, 2*dof, 2*dof) stack."""
        n = self.dof
        raw = self._rng.uniform(-self.scale, self.scale, size=(count, 2 * n * n + n))
        a, r = raw[:, : 2 * n * n].reshape(count, 2, n, n), raw[:, 2 * n * n :]
        # i times the Hermitian generator (a + a.T)/2 + i (a - a.T)/2
        unitary = expm_batch(1j * (a + a.mT) / 2.0 - (a - a.mT) / 2.0)
        # the unitary X + iY acts on (x, p) as the orthosymplectic [[X, -Y], [Y, X]]
        ortho = np.block([[unitary.real, -unitary.imag], [unitary.imag, unitary.real]])
        squeeze = np.exp(np.concatenate([r, -r], axis=1))
        out = (ortho[:, 0] * squeeze[:, None, :]) @ ortho[:, 1]
        residual = np.abs(out.transpose(0, 2, 1) @ self._form @ out - self._form)
        worst = float(residual.max(axis=(1, 2)).max())
        # a non-finite residual fails too: NaN compares false both ways
        if not worst <= SAMPLE_RESIDUAL_TOL:
            raise NumericalInstability(
                f"sampled matrix failed the symplecticity check ({worst:.3e})"
            )
        return out

    def batches(self, count: int):
        """The next ``count`` samples, as stacks of at most ``STACK_ENTRIES``
        matrix entries each, drawn through ``sample_batch``."""
        size = stack_length(2 * self.dof)
        for start in range(0, count, size):
            yield self.sample_batch(min(size, count - start))


class TraceMinimumCheck(NamedTuple):
    min_observed: float
    bound: float
    violations: int


def check_trace_minimum(
    dec_v: EigenDecomposition,
    dec_h: EigenDecomposition,
    trials: int,
    sampler: SymplecticSampler,
) -> TraceMinimumCheck:
    """Empirical check of min over symplectic S of tr(S V S.T H) for definite
    V and H, given as their eigendecompositions.

    The claimed minimum is twice the anti-sorted pairing of the symplectic
    spectra.  Counts trials falling below bound - 1e-8*bound; the candidate
    set also includes the constructed optimal map, so min_observed matches
    the bound whenever the construction is right.
    """
    v, h = dec_v.matrix, dec_h.matrix
    if v.shape != h.shape:
        raise DimensionError(f"shape mismatch: {v.shape} vs {h.shape}")
    if v.shape[0] != 2 * sampler.dof:
        raise DimensionError(
            f"sampler produces {2 * sampler.dof}x{2 * sampler.dof} matrices, "
            f"matrices are {v.shape[0]}x{v.shape[0]}"
        )
    bound = 2.0 * anti_sorted_pairing(
        symplectic_eigenvalues(dec_v), symplectic_eigenvalues(dec_h)
    )
    # the optimal map for tr(V A H A.T) enters the S-form through its transpose
    candidate = sp_optimal_map(dec_v, dec_h).T
    best = float(np.trace(candidate @ v @ candidate.T @ h))
    violations = int(best < bound - 1e-8 * bound)
    for s in sampler.batches(int(trials)):
        values = np.einsum("tia,ab,tcb,ci->t", s, v, s, h, optimize=True)
        best = min(best, float(values.min()))
        violations += int((values < bound - 1e-8 * bound).sum())
    return TraceMinimumCheck(min_observed=best, bound=bound, violations=violations)


def ellipsoids_equivalent(
    first_spectrum: np.ndarray, second_spectrum: np.ndarray, tol: float = 1e-8
) -> bool:
    """Whether two definite shape matrices, given as their descending
    symplectic spectra, are related by a linear symplectic map.

    Two ellipsoids {z: z.T M z <= 1} map onto each other under Sp exactly
    when the symplectic spectra of their shape matrices agree; comparison is
    elementwise within ``tol`` relative.
    """
    sa, sb = first_spectrum, second_spectrum
    if sa.shape != sb.shape:
        raise DimensionError(f"shape mismatch: {sa.shape} vs {sb.shape}")
    return bool(np.all(np.abs(sa - sb) <= tol * np.maximum(sa, sb)))


def ellipsoid_cylinder_energy(shape) -> float:
    """Integral of x_1^2 + p_1^2 over the ellipsoid {z : z.T shape^(-1) z <= 1}.

    Closed form sqrt(det shape) * |S^(d-1)| / (d (d+2)) * (shape_11 +
    shape_(n+1)(n+1)); the two picked entries are the first position and
    first momentum diagonal entries of ``shape``.
    """
    m = require_definite(sym_eig(shape), "shape matrix").matrix
    d = m.shape[0]
    if d % 2:
        raise DimensionError(f"phase-space dimension must be even, got {d}")
    return float(_cylinder_energy(m, d // 2))


def _cylinder_energy(shapes: np.ndarray, n: int) -> np.ndarray:
    # the closed form of ellipsoid_cylinder_energy over a stack of definite shapes
    d = 2 * n
    _, logdet = np.linalg.slogdet(shapes)
    coeff = sphere_surface_area(d) / (d * (d + 2))
    return np.exp(0.5 * logdet) * coeff * (shapes[..., 0, 0] + shapes[..., n, n])


def _cylinder_block_top(stack: np.ndarray, n: int) -> np.ndarray:
    # largest eigenvalue of the symmetric 2x2 submatrix at indices (0, n)
    a = stack[..., 0, 0]
    c = stack[..., n, n]
    b = stack[..., 0, n]
    half_gap = (a - c) / 2.0
    return (a + c) / 2.0 + np.sqrt(half_gap**2 + b**2)


class NonsqueezeSearch(NamedTuple):
    successes: int
    min_energy_seen: float


def nonsqueeze_search(
    ball_radius: float,
    cylinder_radius: float,
    trials: int,
    sampler: SymplecticSampler,
) -> NonsqueezeSearch:
    """Search for a symplectic image of a ball inside a thinner cylinder.

    Each trial maps the ball of radius R by a random symplectic A; the image
    is the ellipsoid with shape matrix R^2 A A.T.  Counts containment
    successes (provably impossible for r < R) and tracks the smallest
    cylinder-energy integral seen over the images, which can never drop
    below the ball's own value.  A ball whose own value underflows the
    normal float range raises FloatingPointError: its images' values would
    read 0 and show nothing.
    """
    n = sampler.dof
    r2 = ball_radius**2
    limit = cylinder_radius**2 * (1 + 1e-12)
    successes = 0
    # identity map image; sampled images can only tie or exceed
    min_energy = float(_cylinder_energy(r2 * np.eye(2 * n), n))
    if not min_energy >= sys.float_info.min:
        raise FloatingPointError(f"the ball's cylinder energy {min_energy} underflows")
    for a in sampler.batches(int(trials)):
        shapes = r2 * (a @ a.transpose(0, 2, 1))
        successes += int((_cylinder_block_top(shapes, n) <= limit).sum())
        energies = _cylinder_energy(shapes, n)
        min_energy = min(min_energy, float(energies.min()))
    return NonsqueezeSearch(successes=successes, min_energy_seen=min_energy)
