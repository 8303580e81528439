"""Symplectic eigenvalues and the Williamson normal form.

Any symmetric positive definite M of even dimension 2n can be written as
``S.T @ M @ S = diag(d) ⊕ diag(d)`` with S symplectic and d > 0 the n
symplectic eigenvalues of M, i.e. the numbers d_k such that ±i·d_k are the
eigenvalues of J @ M.

Both routines reduce M to a skew-symmetric kernel and use only symmetric or
Hermitian eigensolvers: the spectrum reads the symmetric Gram matrix of the
kernel, and the normal form reads the Hermitian i·K of a Cholesky kernel K,
which is nonsingular because M is definite (:func:`schur` needs that).  The
symplectic basis S is not unique (each eigenvalue pair carries a rotation
freedom and degenerate eigenvalues an orthogonal mixing freedom);
correctness is defined by the reconstruction identities, not by a canonical
S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalInstability
from .linalg import (
    ZERO_CLAMP_RTOL, EigenDecomposition, extremes, symplectic_form,
    require_definite, require_semidefinite,
)


def _even_dim(dec: EigenDecomposition) -> int:
    dim = dec.eigenvalues.shape[-1]
    if dim % 2:
        raise DimensionError(f"phase-space matrices have even dimension, got {dim}")
    return dim // 2


def symplectic_eigenvalues(dec: EigenDecomposition) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive semidefinite matrix m,
    given as its eigendecomposition ``dec``; for a decomposed (..., 2n, 2n)
    stack, the (..., n) spectra of its matrices.

    Returns the n values d_1 >= d_2 >= ... >= 0 with ±i·d_k the eigenvalues
    of J @ m.  Semidefinite input is allowed; values below
    ``ZERO_CLAMP_RTOL * |m|`` are clamped to exactly zero.

    The computation forms the skew-symmetric K = m^(1/2) @ J @ m^(1/2),
    similar to J @ m, and reads the spectrum off the symmetric Gram matrix
    K @ K.T whose eigenvalues are the squared symplectic eigenvalues, each
    twice.
    """
    n = _even_dim(dec)
    w = require_semidefinite(dec, "matrix").eigenvalues
    root = (dec.basis * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dec.basis.mT
    k = root @ symplectic_form(n) @ root
    k = (k - k.mT) / 2.0
    squared = np.clip(np.linalg.eigvalsh(k @ k.mT), 0.0, None)
    singular = np.sqrt(squared)[..., ::-1]
    # the 2n singular values come in equal pairs; average each pair
    values = (singular[..., 0::2] + singular[..., 1::2]) / 2.0
    low, high = extremes(w)
    values[values <= ZERO_CLAMP_RTOL * np.maximum(abs(low), abs(high))[..., None]] = 0.0
    return values


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Result of :func:`williamson`.

    ``spectrum`` holds the symplectic eigenvalues in descending order and
    ``transform`` the symplectic S with
    ``S.T @ M @ S = diag(spectrum) ⊕ diag(spectrum)``.
    """

    spectrum: np.ndarray
    transform: np.ndarray

    @property
    def block_diagonal(self) -> np.ndarray:
        return np.diag(np.concatenate([self.spectrum, self.spectrum]))


def schur(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form of a nonsingular skew-symmetric k of side 2n.

    Returns ``(b, z)`` with the n values b_1 <= ... <= b_n > 0 and z
    orthogonal, ``z.T @ k @ z = [[0, diag b], [-diag b, 0]]``.

    The Hermitian i·k has the eigenvalues ±b_k.  An eigenvector u + i·v of
    +b_k has |u| = |v| = 1/√2 and u ⊥ v, and k u = b_k v, k v = -b_k u, so
    √2·v and √2·u are the k-th position and momentum columns of z.  The
    eigenvectors of a repeated b_k are orthonormal in the complex sense and
    orthogonal to their conjugates, so their real columns are orthonormal.
    A zero eigenvalue breaks that pairing, hence the nonsingular input.

    In floating point the eigenvectors of b_j and -b_k mix by about
    eps·|k|/(b_j + b_k), so small values spread far below |k| leave the
    columns off orthonormal (2.5e-10 at a spread of 1e6) while the block
    form still holds to eps·|k|.  The mixing stays inside the real plane of
    those small values, so the polar factor of the columns restores
    ``z.T @ z = I`` and moves the block form by no more than eps·|k|.
    """
    n = k.shape[0] // 2
    try:
        b, w = np.linalg.eigh(1j * k)
    except np.linalg.LinAlgError as err:
        raise NumericalInstability(f"Hermitian eigensolver did not converge: {err}") from None
    w = np.sqrt(2.0) * w[:, n:]
    u, _, vt = np.linalg.svd(np.concatenate([w.imag, w.real], axis=1))
    return b[n:], u @ vt


def williamson(dec: EigenDecomposition) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive definite matrix m,
    given as its eigendecomposition ``dec``.

    Construction: with m = L @ L.T (Cholesky), the kernel K = L^-1 @ J @ L^-T
    is skew-symmetric and nonsingular, and its Schur values are b = 1/d for
    the symplectic eigenvalues d.  With ``b, z = schur(K)``, ascending b
    gives descending d, and S = L^-T @ z @ (diag(d)^(1/2) ⊕ diag(d)^(1/2)).
    """
    n = _even_dim(dec)
    inv_lower = np.linalg.inv(np.linalg.cholesky(require_definite(dec, "matrix").matrix))
    k = inv_lower @ symplectic_form(n) @ inv_lower.T
    b, z = schur((k - k.T) / 2.0)
    spectrum = 1.0 / b
    stretch = np.sqrt(np.concatenate([spectrum, spectrum]))
    return WilliamsonDecomposition(spectrum=spectrum, transform=(inv_lower.T @ z) * stretch)
