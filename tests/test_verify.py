import math

import numpy as np
import pytest
from scipy.linalg import expm as dense_expm

from conftest import random_spd
from phasemin.distributions import BallIndicator, QuadraticPotential, moments
from phasemin.energy import linear_gromov_energy
from phasemin.errors import DimensionError, NotPositiveDefinite
from phasemin.linalg import sym_eig, symplectic_form, symplectic_residual
from phasemin.verify import (
    SymplecticSampler,
    _cylinder_block_top,
    check_trace_minimum,
    ellipsoid_cylinder_energy,
    ellipsoids_equivalent,
    expm_batch,
    nonsqueeze_search,
)
from phasemin.williamson import symplectic_eigenvalues


def test_expm_batch_matches_dense_reference():
    rng = np.random.default_rng(11)
    for trial in range(60):
        dim = int(rng.integers(2, 8))
        scale = float(rng.uniform(0.1, 4.0))
        a = rng.normal(size=(dim, dim)) * scale
        expected = dense_expm(a)
        got = expm_batch(a)
        np.testing.assert_allclose(
            got, expected, rtol=1e-11, atol=1e-11 * np.abs(expected).max()
        )


def test_expm_batch_stack_and_single_agree():
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(7, 4, 4))
    batched = expm_batch(stack)
    for k in range(7):
        np.testing.assert_allclose(batched[k], expm_batch(stack[k]), rtol=1e-13)


def test_expm_batch_closed_forms():
    np.testing.assert_allclose(expm_batch(np.zeros((3, 3))), np.eye(3))
    w = 0.7
    rotation = expm_batch(symplectic_form(1) * w)
    expected = np.array(
        [[math.cos(w), math.sin(w)], [-math.sin(w), math.cos(w)]]
    )
    np.testing.assert_allclose(rotation, expected, atol=1e-15)


def test_expm_batch_large_norm_uses_squaring():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) * 8.0
    np.testing.assert_allclose(
        expm_batch(a), dense_expm(a), rtol=1e-9, atol=1e-9 * np.abs(dense_expm(a)).max()
    )


def test_expm_batch_rejects_nonsquare():
    with pytest.raises(DimensionError):
        expm_batch(np.ones((3, 2)))


def test_sampler_stream_is_reproducible():
    first = SymplecticSampler(2, seed=42).sample_batch(5)
    second = SymplecticSampler(2, seed=42).sample_batch(5)
    np.testing.assert_array_equal(first, second)
    other = SymplecticSampler(2, seed=43).sample_batch(5)
    assert np.abs(first - other).max() > 1e-3


def test_sampler_batch_equals_repeated_singles():
    batch = SymplecticSampler(3, seed=7).sample_batch(6)
    one_by_one = SymplecticSampler(3, seed=7)
    singles = np.stack([one_by_one.sample() for _ in range(6)])
    np.testing.assert_array_equal(batch, singles)


def test_samples_are_certified_symplectic():
    samples = SymplecticSampler(2, seed=0).sample_batch(64)
    worst = max(symplectic_residual(s) for s in samples)
    assert worst <= 1e-8


def test_zero_scale_yields_identity():
    samples = SymplecticSampler(2, seed=1, scale=0.0).sample_batch(3)
    for s in samples:
        np.testing.assert_allclose(s, np.eye(4))


def test_sampler_validation():
    with pytest.raises(DimensionError):
        SymplecticSampler(0, seed=1)


def test_sample_symplectic_advances_the_stream():
    sampler = SymplecticSampler(1, seed=4)
    a = sampler.sample()
    b = sampler.sample()
    assert symplectic_residual(a) <= 1e-8
    assert np.abs(a - b).max() > 1e-6


def test_trace_minimum_on_the_worked_pair():
    v = np.diag([1.0, 0.25, 1.0, 1.0])
    h = np.diag([4.0, 1.0, 1.0, 1.0])
    result = check_trace_minimum(sym_eig(v), sym_eig(h), 2000, SymplecticSampler(2, seed=7))
    assert result.bound == pytest.approx(4.0, rel=1e-12)
    assert result.violations == 0
    # the candidate optimal map is part of the search, so the observed
    # minimum sits on the bound itself
    assert result.min_observed == pytest.approx(result.bound, rel=1e-10)


def test_trace_minimum_random_instances():
    rng = np.random.default_rng(19)
    for trial in range(5):
        dof = 1 + trial % 3
        v = random_spd(rng, 2 * dof)
        h = random_spd(rng, 2 * dof)
        result = check_trace_minimum(
            sym_eig(v), sym_eig(h), 500, SymplecticSampler(dof, seed=50 + trial)
        )
        assert result.violations == 0
        assert result.min_observed >= result.bound * (1 - 1e-8)


def test_trace_minimum_validation():
    sampler = SymplecticSampler(2, seed=1)
    with pytest.raises(NotPositiveDefinite):
        check_trace_minimum(sym_eig(np.diag([1.0, 0.0, 1.0, 1.0])), sym_eig(np.eye(4)), 10, sampler)
    with pytest.raises(DimensionError):
        check_trace_minimum(sym_eig(np.eye(2)), sym_eig(np.eye(2)), 10, sampler)
    with pytest.raises(DimensionError):
        check_trace_minimum(sym_eig(np.eye(4)), sym_eig(np.eye(2)), 10, sampler)


def test_ellipsoid_equivalence_is_a_spectral_test():
    def spectrum(m):
        return symplectic_eigenvalues(sym_eig(m))

    # a squeezed disc has the same symplectic spectrum as the round one
    assert ellipsoids_equivalent(spectrum(np.diag([2.0, 0.5])), spectrum(np.eye(2)))
    assert not ellipsoids_equivalent(spectrum(np.diag([2.0, 1.0])), spectrum(np.eye(2)))
    squeeze = np.diag([3.0, 1.0, 1.0 / 3.0, 1.0])
    assert ellipsoids_equivalent(spectrum(squeeze), spectrum(np.eye(4)))
    with pytest.raises(DimensionError):
        ellipsoids_equivalent(spectrum(np.eye(2)), spectrum(np.eye(4)))


def test_cylinder_energy_closed_forms():
    assert ellipsoid_cylinder_energy(np.eye(2)) == pytest.approx(
        math.pi / 2.0, rel=1e-12
    )
    assert ellipsoid_cylinder_energy(np.eye(4)) == pytest.approx(
        math.pi**2 / 6.0, rel=1e-12
    )
    # scaling the shape by c scales the integral by c^(d/2 + 1)
    assert ellipsoid_cylinder_energy(2.0 * np.eye(4)) == pytest.approx(
        2.0**3 * math.pi**2 / 6.0, rel=1e-12
    )


def test_cylinder_energy_monte_carlo_cross_check():
    rng = np.random.default_rng(23)
    shape = random_spd(rng, 4)
    exact = ellipsoid_cylinder_energy(shape)
    # uniform points in the ellipsoid via the unit ball and Cholesky factor
    count = 200_000
    directions = rng.normal(size=(count, 4))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, size=count) ** 0.25
    points = (radii[:, None] * directions) @ np.linalg.cholesky(shape).T
    volume = math.pi**2 / 2.0 * math.sqrt(np.linalg.det(shape))
    estimate = volume * np.mean(points[:, 0] ** 2 + points[:, 2] ** 2)
    assert estimate == pytest.approx(exact, rel=0.03)


def test_cylinder_energy_validation():
    with pytest.raises(DimensionError):
        ellipsoid_cylinder_energy(np.eye(3))
    with pytest.raises(NotPositiveDefinite):
        ellipsoid_cylinder_energy(np.diag([1.0, -1.0, 1.0, 1.0]))


def test_cylinder_containment_boundary():
    # an ellipsoid fits the unit cylinder exactly when the top eigenvalue of
    # the (x_1, p_1) block of its shape matrix is at most 1
    assert _cylinder_block_top(np.eye(4), 2) == pytest.approx(1.0, rel=1e-15)
    assert _cylinder_block_top(np.eye(4) * 1.01, 2) > 1.0
    assert _cylinder_block_top(np.diag([0.5, 4.0, 0.5, 9.0]), 2) == 0.5
    stack = np.stack([np.eye(4), np.diag([0.5, 4.0, 0.5, 9.0])])
    np.testing.assert_allclose(_cylinder_block_top(stack, 2), [1.0, 0.5])


def test_diagonal_conditions_are_necessary_but_not_sufficient():
    shape = np.eye(4)
    shape[0, 2] = shape[2, 0] = 0.6
    assert shape[0, 0] <= 1.0 and shape[2, 2] <= 1.0
    assert _cylinder_block_top(shape, 2) == pytest.approx(1.6, rel=1e-15)


@pytest.mark.parametrize("dof", [1, 2])
def test_nonsqueeze_search_finds_no_embedding(dof):
    sampler = SymplecticSampler(dof, seed=3)
    result = nonsqueeze_search(1.0, 0.99, 1000, sampler)
    assert result.successes == 0
    ball_energy = ellipsoid_cylinder_energy(np.eye(2 * dof))
    assert result.min_energy_seen >= ball_energy * (1 - 1e-12)


def test_nonsqueeze_energy_floor_is_the_gromov_bound():
    # the cylinder-energy integral of any symplectic image is bounded by
    # the symplectic energy minimum of the ball itself
    m = moments(BallIndicator(1.0, np.zeros(4)))
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, 0.0, 1.0, 0.0]))
    bound = linear_gromov_energy(m, pot).energy
    assert ellipsoid_cylinder_energy(np.eye(4)) == pytest.approx(
        bound, rel=1e-12
    )
