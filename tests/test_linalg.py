import numpy as np
import pytest

from conftest import random_spd
from phasemin.distributions import QuadraticPotential
from phasemin.errors import DimensionError, NotPositiveDefinite, NotSemidefinite
from phasemin.linalg import (
    as_square,
    quadratic_form,
    require_definite,
    require_semidefinite,
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


def test_symmetrize_keeps_the_largest_floats_finite():
    a = np.array([[1e308, -1e308], [-1e308, 1e308]])
    assert np.array_equal(symmetrize(a), a)


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


def test_eigen_decomposition_definite_follows_the_tolerance():
    assert not sym_eig(np.diag([1.0, 0.0])).definite
    assert not sym_eig(np.diag([1.0, -1.0])).definite
    assert not sym_eig(np.diag([1.0, 1e-13])).definite
    assert sym_eig(np.diag([1.0, 1e-11])).definite


def test_definiteness_checks_read_the_decomposition_and_run_no_eigensolver(monkeypatch):
    spd, singular, rounding, negative = (
        sym_eig(np.diag(d)) for d in ([1.0, 2.0], [1.0, 0.0], [1.0, -1e-13], [1.0, -1e-11])
    )
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, None)
    assert require_definite(spd, "M") is spd
    with pytest.raises(NotPositiveDefinite, match=r"^M must be positive definite \(eigenvalue 0"):
        require_definite(singular, "M")
    assert require_semidefinite(rounding, "M") is rounding
    with pytest.raises(NotSemidefinite, match="^M has negative eigenvalue -1.0"):
        require_semidefinite(negative, "M")


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
@pytest.mark.parametrize("shape", [(), (9,), (3, 5)], ids=["point", "stack", "stack-of-stacks"])
def test_quadratic_form_matches_the_three_operand_einsum(shape, dim):
    # magnitudes over twelve decades, and an indefinite matrix, so that the
    # terms of a sum cancel
    rng = np.random.default_rng(dim)
    dz = rng.normal(size=shape + (dim,)) * 10.0 ** rng.uniform(-6, 6, size=shape + (dim,))
    m = rng.normal(size=(dim, dim))
    m += m.T
    expected = np.einsum("...i,ij,...j->...", dz, m, dz)
    # each sum rounds once per term, so both routes stay within a few units
    # of roundoff of the sum of the terms' magnitudes
    bound = 8 * np.finfo(float).eps * np.einsum("...i,ij,...j->...", abs(dz), abs(m), abs(dz))
    values = quadratic_form(np.moveaxis(dz, -1, 0), m)
    assert np.shape(values) == shape
    assert np.all(abs(values - expected) <= bound)


def test_quadratic_form_is_exactly_zero_at_zero():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 4, 8):
        v = random_spd(rng, dim, spread=1e6)
        assert quadratic_form(np.zeros(dim), v) == 0.0
        assert np.array_equal(quadratic_form(np.zeros((dim, 3)), v), np.zeros(3))
        offset, minimum = rng.normal(), rng.normal(size=dim)
        # bit for bit: the offset plus an exact zero
        assert QuadraticPotential(offset, minimum, v).evaluate(minimum) == offset


def test_quadratic_form_overflows_without_raising():
    # M_aa * dz_a is beyond the float range although dz and M are not
    with np.errstate(over="raise", invalid="raise"):
        values = quadratic_form(np.array([[1e10, 1e10], [1e10, -1e10]]).T, np.eye(2) * 1e300)
    assert np.array_equal(values, [np.inf, np.inf])


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
