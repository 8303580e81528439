"""Dense real-matrix primitives used throughout the package.

All phase-space matrices act on coordinates ordered as
``z = (x_1, ..., x_n, p_1, ..., p_n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveDefinite, NumericalInstability

# Tolerances are relative to the largest magnitude entry (or eigenvalue)
# unless a docstring says otherwise.
SYMMETRY_RTOL = 1e-12
# matrices read from JSON or the command line carry decimal rounding
INPUT_SYMMETRY_RTOL = 1e-9
PD_RTOL = 1e-12
PSD_RTOL = 1e-12
# symplectic eigenvalues this small relative to |M| are reported as exact zeros
ZERO_CLAMP_RTOL = 1e-10


def is_definite(w) -> bool:
    """Whether ascending eigenvalues ``w`` belong to a usably definite matrix.

    The smallest eigenvalue must exceed ``PD_RTOL`` times the largest one.
    """
    return bool(w[-1] > 0 and w[0] > PD_RTOL * w[-1])


def is_semidefinite(w) -> bool:
    """Whether ascending eigenvalues ``w`` have no genuinely negative member.

    Negative values within ``PSD_RTOL`` of the largest magnitude are rounding.
    """
    return bool(w[0] >= -PSD_RTOL * max(abs(w[0]), abs(w[-1])))


def as_square(a) -> np.ndarray:
    """Coerce to a float square matrix, rejecting non-square or non-finite input."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def symmetrize(a, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return the symmetric average (a + a.T)/2 of a nearly symmetric matrix.

    Asymmetry beyond ``rtol`` relative to the largest entry magnitude is
    rejected with ``ValueError`` rather than silently averaged away.
    """
    a = as_square(a)
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > rtol * scale:
        raise ValueError(
            f"matrix is not symmetric within tolerance {rtol} "
            f"(relative asymmetry {np.abs(a - a.T).max() / scale:.3e})"
        )
    return (a + a.T) / 2.0


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factorization of a symmetric matrix.

    ``eigenvalues`` are ascending; ``basis`` is special orthogonal with the
    matching eigenvectors as columns, so ``basis @ diag(eigenvalues) @ basis.T``
    reconstructs the input.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def sym_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix with a det +1 basis."""
    m = symmetrize(m)
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise NumericalInstability(f"symmetric eigensolver did not converge: {err}") from None
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return EigenDecomposition(w, q)


def pd_power(m, exponent: float) -> np.ndarray:
    """Spectral power of a symmetric positive definite matrix.

    Intended exponents are 1/2, -1/2 and -1.  Eigenvalues at or below
    ``PD_RTOL`` times the largest one mean the input is not usably definite.
    """
    dec = sym_eig(m)
    w = dec.eigenvalues
    if not is_definite(w):
        raise NotPositiveDefinite(
            f"matrix is not positive definite (smallest eigenvalue {w[0]:.6e})",
            eigenvalue=w[0],
        )
    return (dec.basis * w**exponent) @ dec.basis.T


def require_definite(matrix, name: str) -> np.ndarray:
    """Symmetrized ``matrix``, raising NotPositiveDefinite if it is not definite."""
    m = symmetrize(matrix)
    w = np.linalg.eigvalsh(m)
    if not is_definite(w):
        raise NotPositiveDefinite(
            f"{name} must be positive definite (eigenvalue {w[0]:.6e})",
            eigenvalue=w[0],
        )
    return m


def symplectic_form(dof: int) -> np.ndarray:
    """The standard symplectic form J on R^(2*dof).

    In the (x..., p...) coordinate ordering, J = [[0, I], [-I, 0]].
    """
    if dof < 1:
        raise DimensionError(f"degrees of freedom must be positive, got {dof}")
    zero = np.zeros((dof, dof))
    eye = np.eye(dof)
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_residual(a) -> float:
    """Max-norm residual |A.T J A - J| measuring how far A is from symplectic."""
    a = as_square(a)
    if a.shape[0] % 2:
        raise DimensionError(f"symplectic matrices have even dimension, got {a.shape[0]}")
    j = symplectic_form(a.shape[0] // 2)
    return float(np.abs(a.T @ j @ a - j).max())
