"""Shared helpers for the test suite."""

import numpy as np

from phasemin.distributions import Moments
from phasemin.verify import SymplecticSampler

# cond 4.2 and symplectic spectrum (1, 1); scipy's real Schur form of the
# Williamson kernel did not converge on it, so it pins the normal form on a
# repeated spectrum
SCHUR_FAILURE_COVARIANCE = [
    [1.531094409656899, 0.4420862406392282, -0.2119969701621644, -0.2003415911331863],
    [0.4420862406392282, 1.4606856362856044, -0.21991165786485992, -0.11231183770317281],
    [-0.2119969701621644, -0.21991165786485992, 0.7639157263248875, -0.18237828688158905],
    [-0.2003415911331863, -0.11231183770317281, -0.18237828688158905, 0.7786058158601474],
]


def random_spd(rng, dim, spread=2.0):
    """Random symmetric positive definite matrix with eigenvalues in
    [1/spread, spread] and a uniformly random orthogonal eigenbasis."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    w = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=dim))
    return (q * w) @ q.T


def random_unimodular_batch(rng, count, dim):
    """Stack of random matrices with determinant exactly rescaled to +1."""
    a = rng.normal(size=(count, dim, dim))
    det = np.linalg.det(a)
    # a standard normal matrix is singular with probability zero; retry the
    # numerically borderline draws anyway
    redo = np.abs(det) < 1e-9
    while redo.any():
        a[redo] = rng.normal(size=(int(redo.sum()), dim, dim))
        det = np.linalg.det(a)
        redo = np.abs(det) < 1e-9
    a[det < 0, :, 0] *= -1.0
    return a / np.abs(det)[:, None, None] ** (1.0 / dim)


def random_symplectic_batch(seed, dof, count, scale=1.0):
    return SymplecticSampler(dof, seed=seed, scale=scale).sample_batch(count)


def moments_from_matrix(h, mass=1.0, center=None):
    h = np.asarray(h, dtype=float)
    if center is None:
        center = np.zeros(h.shape[0])
    return Moments(mass, np.asarray(center, dtype=float), h)


def paired_spectrum_synthesis(seed, dof, spectrum):
    """Symmetric matrix with the prescribed symplectic spectrum.

    Conjugating diag(spectrum) ⊕ diag(spectrum) by a random symplectic W
    gives M = W.T D W whose symplectic eigenvalues are exactly ``spectrum``.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    w = SymplecticSampler(dof, seed=seed, scale=0.6).sample_batch(1)[0]
    d = np.diag(np.concatenate([spectrum, spectrum]))
    return w.T @ d @ w
