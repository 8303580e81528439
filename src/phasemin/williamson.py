"""Symplectic eigenvalues and the Williamson normal form.

Any symmetric positive definite M of even dimension 2n can be written as
``S.T @ M @ S = diag(d) ⊕ diag(d)`` with S symplectic and d > 0 the n
symplectic eigenvalues of M, i.e. the numbers d_k such that ±i·d_k are the
eigenvalues of J @ M.

Both routines below stay on real orthogonal reductions of skew-symmetric
matrices; no general nonsymmetric eigensolver is involved.  The symplectic
basis S is not unique (each eigenvalue pair carries a rotation freedom and
degenerate eigenvalues an orthogonal mixing freedom); correctness is defined
by the reconstruction identities, not by a canonical S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .errors import DimensionError, NotSemidefinite, NumericalInstability
from .linalg import (
    ZERO_CLAMP_RTOL,
    is_semidefinite,
    pd_power,
    sym_eig,
    symmetrize,
    symplectic_form,
)


def _even_dim(m) -> int:
    if m.shape[0] % 2:
        raise DimensionError(
            f"phase-space matrices have even dimension, got {m.shape[0]}"
        )
    return m.shape[0] // 2


def symplectic_eigenvalues(m) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive semidefinite matrix.

    Returns the n values d_1 >= d_2 >= ... >= 0 with ±i·d_k the eigenvalues
    of J @ m.  Semidefinite input is allowed; values below
    ``ZERO_CLAMP_RTOL * |m|`` are clamped to exactly zero.

    The computation forms the skew-symmetric K = m^(1/2) @ J @ m^(1/2),
    similar to J @ m, and reads the spectrum off the symmetric Gram matrix
    K @ K.T whose eigenvalues are the squared symplectic eigenvalues, each
    twice.
    """
    m = symmetrize(m)
    n = _even_dim(m)
    dec = sym_eig(m)
    w = dec.eigenvalues
    if not is_semidefinite(w):
        raise NotSemidefinite(
            f"matrix has negative eigenvalue {w[0]:.6e}", eigenvalue=w[0]
        )
    root = (dec.basis * np.sqrt(np.clip(w, 0.0, None))) @ dec.basis.T
    j = symplectic_form(n)
    k = root @ j @ root
    k = (k - k.T) / 2.0
    squared = np.clip(np.linalg.eigvalsh(k @ k.T), 0.0, None)
    singular = np.sqrt(squared)[::-1]
    # the 2n singular values come in equal pairs; average each pair
    values = (singular[0::2] + singular[1::2]) / 2.0
    values[values <= ZERO_CLAMP_RTOL * max(abs(w[0]), abs(w[-1]))] = 0.0
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


def williamson(m) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive definite matrix.

    Construction: with R = m^(-1/2), the matrix K = R @ J @ R is
    skew-symmetric, and its real Schur form is block diagonal with 2x2
    blocks [[0, b], [-b, 0]], b = 1/d for each symplectic eigenvalue d.
    Reordering the Schur basis into (x..., p...) layout with the sign of
    each pair fixed so the upper-right block of O.T @ K @ O is positive
    gives S = R @ O @ (diag(d)^(1/2) ⊕ diag(d)^(1/2)).
    """
    m = symmetrize(m)
    n = _even_dim(m)
    inv_root = pd_power(m, -0.5)
    j = symplectic_form(n)
    k = inv_root @ j @ inv_root
    k = (k - k.T) / 2.0
    t, z = schur(k)

    pair_cols = []
    b = np.empty(n)
    for i in range(n):
        top, lead = 2 * i, 2 * i + 1
        b[i] = (t[top, lead] - t[lead, top]) / 2.0
        u, v = z[:, top], z[:, lead]
        if b[i] < 0:
            u, v, b[i] = v, u, -b[i]
        pair_cols.append((u, v))
    if np.any(b <= 0):
        raise NumericalInstability(
            "Schur form of the skew-symmetric kernel has a degenerate block"
        )

    spectrum = 1.0 / b
    order = np.argsort(-spectrum, kind="stable")
    spectrum = spectrum[order]
    basis = np.stack(
        [pair_cols[i][0] for i in order] + [pair_cols[i][1] for i in order],
        axis=1,
    )
    stretch = np.sqrt(np.concatenate([spectrum, spectrum]))
    transform = (inv_root @ basis) * stretch
    return WilliamsonDecomposition(spectrum=spectrum, transform=transform)
