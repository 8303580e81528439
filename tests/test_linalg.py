import numpy as np
import pytest

from conftest import random_spd
from phasemin.errors import DimensionError, NotPositiveDefinite
from phasemin.linalg import (
    as_square,
    pd_power,
    sym_eig,
    symmetrize,
    symplectic_form,
    symplectic_residual,
)


def test_as_square_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        as_square(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        as_square(np.ones(4))
    with pytest.raises(ValueError):
        as_square([[1.0, np.nan], [0.0, 1.0]])


def test_symmetrize_averages_small_asymmetry():
    a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = symmetrize(a)
    np.testing.assert_allclose(out, out.T)
    np.testing.assert_allclose(out[0, 1], 2.0, rtol=1e-12)


def test_symmetrize_rejects_genuine_asymmetry():
    a = np.array([[1.0, 2.0], [2.1, 3.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        symmetrize(a)


def test_sym_eig_reconstructs_with_proper_rotation():
    rng = np.random.default_rng(101)
    for trial in range(200):
        dim = int(rng.integers(2, 8))
        m = random_spd(rng, dim)
        dec = sym_eig(m)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        np.testing.assert_allclose(np.linalg.det(dec.basis), 1.0, rtol=1e-10)
        np.testing.assert_allclose(
            dec.basis @ dec.basis.T, np.eye(dim), atol=1e-12
        )
        np.testing.assert_allclose(
            (dec.basis * dec.eigenvalues) @ dec.basis.T, m, atol=1e-12
        )


def test_sym_eig_handles_indefinite_input():
    m = np.diag([-2.0, 3.0])
    dec = sym_eig(m)
    np.testing.assert_allclose(dec.eigenvalues, [-2.0, 3.0])


def test_pd_power_partial_and_inverse():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 5)
    root = pd_power(m, 0.5)
    np.testing.assert_allclose(root @ root, m, atol=1e-12)
    inv_root = pd_power(m, -0.5)
    np.testing.assert_allclose(inv_root @ m @ inv_root, np.eye(5), atol=1e-11)
    np.testing.assert_allclose(pd_power(m, -1.0) @ m, np.eye(5), atol=1e-11)


def test_pd_power_rejects_singular_and_indefinite():
    with pytest.raises(NotPositiveDefinite) as info:
        pd_power(np.diag([1.0, 0.0]), 0.5)
    assert info.value.eigenvalue is not None
    with pytest.raises(NotPositiveDefinite):
        pd_power(np.diag([1.0, -1.0]), -0.5)


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_symplectic_form_squares_to_minus_identity(dof):
    j = symplectic_form(dof)
    np.testing.assert_allclose(j @ j, -np.eye(2 * dof))
    np.testing.assert_allclose(j.T, -j)
    # upper-right block carries +I in the (x..., p...) ordering
    np.testing.assert_allclose(j[:dof, dof:], np.eye(dof))


def test_symplectic_form_rejects_nonpositive_dof():
    with pytest.raises(DimensionError):
        symplectic_form(0)


def test_symplectic_residual_values():
    j = symplectic_form(1)
    assert symplectic_residual(j) == 0.0
    squeeze = np.diag([2.0, 0.5])
    assert symplectic_residual(squeeze) <= 1e-15
    assert symplectic_residual(np.diag([2.0, 2.0])) == pytest.approx(3.0)
    with pytest.raises(DimensionError):
        symplectic_residual(np.eye(3))
