"""Dense real-matrix primitives used throughout the package.

All phase-space matrices act on coordinates ordered as
``z = (x_1, ..., x_n, p_1, ..., p_n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveDefinite, NotSemidefinite, NumericalInstability

# Tolerances are relative to the largest magnitude entry (or eigenvalue)
# unless a docstring says otherwise.
SYMMETRY_RTOL = 1e-12
# matrices read from JSON or the command line carry decimal rounding
INPUT_SYMMETRY_RTOL = 1e-9
PD_RTOL = 1e-12
PSD_RTOL = 1e-12
# symplectic eigenvalues this small relative to |M| are reported as exact zeros
ZERO_CLAMP_RTOL = 1e-10
# ridge added to a singular potential matrix to build a near-optimal map from;
# the energy values never use it
MAP_RIDGE = 1e-8
# most matrix entries in one stack (4,096 matrices of side 8), for sweeps and
# sampler batches alike: their memory grows with neither the count nor the side
STACK_ENTRIES = 4096 * 8 * 8


def stack_length(side: int) -> int:
    """The most matrices of side ``side`` that fit in one stack, at least one."""
    return max(1, STACK_ENTRIES // (side * side))


def as_square(a) -> np.ndarray:
    """Coerce to a float square matrix, or a (..., d, d) stack of them,
    rejecting non-square or non-finite input."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def symmetrize(a, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return the symmetric average (a + a.T)/2 of a nearly symmetric matrix,
    or of each matrix of a (..., d, d) stack.

    Asymmetry beyond ``rtol`` relative to the largest entry magnitude is
    rejected with ``ValueError`` rather than silently averaged away; in a
    stack the message describes the first such matrix.
    """
    a = as_square(a)
    scale = np.abs(a).max(axis=(-2, -1))
    gap = np.abs(a - a.mT).max(axis=(-2, -1))
    # a zero matrix has no gap, so it never fails
    asymmetric = gap > rtol * scale
    if asymmetric.any():
        k = np.argmax(asymmetric)
        raise ValueError(
            f"matrix is not symmetric within tolerance {rtol} "
            f"(relative asymmetry {np.ravel(gap)[k] / np.ravel(scale)[k]:.3e})"
        )
    # halving first cannot overflow; above the subnormal range it gives the
    # same bits as halving the sum
    return a / 2.0 + a.mT / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization of a symmetric matrix, or of each matrix of a
    (..., d, d) stack.

    ``matrix`` is the symmetrized input; ``eigenvalues`` are ascending;
    ``basis`` is special orthogonal with the matching eigenvectors as
    columns, so ``basis @ diag(eigenvalues) @ basis.T`` reconstructs
    ``matrix``.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    matrix: np.ndarray

    @property
    def definite(self):
        """Whether the smallest eigenvalue exceeds ``PD_RTOL`` times the
        largest: a bool, or a bool array with one flag per matrix of a stack."""
        low, high = extremes(self.eigenvalues)
        flags = (high > 0) & (low > PD_RTOL * high)
        return flags if flags.ndim else bool(flags)


def sym_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    (..., d, d) stack, with a det +1 basis."""
    m = symmetrize(m)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise NumericalInstability(f"symmetric eigensolver did not converge: {err}") from None
    flip = np.linalg.det(q) < 0
    if flip.any():
        q[..., 0] = np.where(flip[..., None], -q[..., 0], q[..., 0])
    return EigenDecomposition(w, q, m)


def require_definite(dec: EigenDecomposition, name: str) -> EigenDecomposition:
    """``dec``, raising NotPositiveDefinite if its matrix is not definite or
    if an eigenvalue is beyond the float range."""
    w = dec.eigenvalues
    if not np.all(np.isfinite(w)):
        raise NotPositiveDefinite(f"{name} has an eigenvalue beyond the float range")
    if not dec.definite:
        raise NotPositiveDefinite(f"{name} must be positive definite (eigenvalue {w[0]:.6e})")
    return dec


def extremes(eigenvalues: np.ndarray) -> tuple:
    """The smallest and the largest value of an ascending spectrum, as numpy
    scalars, or of each spectrum of a stack, as arrays."""
    # [()] turns a 0-d array into a scalar, whose arithmetic is far cheaper
    return eigenvalues[..., 0][()], eigenvalues[..., -1][()]


def require_semidefinite(dec: EigenDecomposition, name: str) -> EigenDecomposition:
    """``dec``, raising NotSemidefinite if its matrix, or a matrix of its
    stack, has a genuinely negative eigenvalue; negative values within
    ``PSD_RTOL`` of the largest magnitude are rounding.  In a stack the
    first such matrix is reported."""
    low, high = extremes(dec.eigenvalues)
    negative = ~(low >= -PSD_RTOL * np.maximum(abs(low), abs(high)))
    if negative.any():
        w0 = np.ravel(low)[np.argmax(negative)]
        raise NotSemidefinite(f"{name} has negative eigenvalue {w0:.6e}")
    return dec


def quadratic_form(dz, matrix) -> np.ndarray:
    """dz.T @ matrix @ dz at each point of a stack in coordinate form: one
    array of differences per axis, broadcasting together (an open mesh).
    Sums nest from the first axis, q_a = dz_a * (matrix_aa * dz_a +
    2 * sum_{b<a} matrix_ab * dz_b) + q_{a-1}, so q_a spans only the axes up
    to a, and any layout of the same points gives the same bits.  Overflow
    gives inf or nan, not an exception; at dz = 0 the value is exactly 0."""
    q = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, dz_a in enumerate(dz):
            cross = sum(matrix[a, b] * dz[b] for b in range(a))
            q = dz_a * (matrix[a, a] * dz_a + 2.0 * cross) + q
    return q


def symplectic_form(dof: int) -> np.ndarray:
    """The standard symplectic form J on R^(2*dof).

    In the (x..., p...) coordinate ordering, J = [[0, I], [-I, 0]].
    """
    if dof < 1:
        raise DimensionError(f"degrees of freedom must be positive, got {dof}")
    return np.eye(2 * dof, k=dof) - np.eye(2 * dof, k=-dof)


def symplectic_residual(a) -> float:
    """Max-norm residual |A.T J A - J| measuring how far A is from symplectic;
    the largest over the matrices of a stack."""
    a = as_square(a)
    if a.shape[-1] % 2:
        raise DimensionError(f"symplectic matrices have even dimension, got {a.shape[-1]}")
    j = symplectic_form(a.shape[-1] // 2)
    return float(np.abs(a.mT @ j @ a - j).max())
