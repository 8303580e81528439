import math
import tracemalloc

import numpy as np
import pytest

import phasemin.linalg
from conftest import random_spd
from phasemin.distributions import BallIndicator, QuadraticPotential, moments
from phasemin.energy import linear_gromov_energy
from phasemin.errors import DimensionError, NotPositiveDefinite, NumericalInstability
from phasemin.linalg import sym_eig, symplectic_residual
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


def random_skew_hermitian(rng, count, dim, size):
    a = rng.uniform(-size, size, size=(count, dim, dim)) + 1j * rng.uniform(
        -size, size, size=(count, dim, dim)
    )
    return (a - a.conj().mT) / 2.0


@pytest.mark.parametrize("size", [1e-3, 1.0, 30.0, 1e3])
def test_expm_batch_maps_skew_hermitian_stacks_to_unitaries(size):
    rng = np.random.default_rng(11)
    for dim in range(1, 7):
        u = expm_batch(random_skew_hermitian(rng, 20, dim, size))
        assert np.abs(u.conj().mT @ u - np.eye(dim)).max() <= 1e-13


def test_expm_batch_stack_and_single_agree():
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(7, 4, 4))
    batched = expm_batch(stack)
    for k in range(7):
        np.testing.assert_array_equal(batched[k], expm_batch(stack[k : k + 1])[0])


def test_expm_batch_closed_forms():
    # x = 0 gives the identity exactly
    zero = np.zeros((2, 3, 3), dtype=complex)
    np.testing.assert_array_equal(expm_batch(zero), np.broadcast_to(np.eye(3), (2, 3, 3)))
    for theta in (0.0, 0.7, -3.0, 1e3):
        got = expm_batch(np.array([[[1j * theta]]]))[0, 0, 0]
        want = (1 + 1j * theta / 2) / (1 - 1j * theta / 2)
        assert abs(got - want) <= 1e-15 * abs(want)


def test_sampler_stream_is_reproducible():
    first = SymplecticSampler(2, seed=42).sample_batch(5)
    second = SymplecticSampler(2, seed=42).sample_batch(5)
    np.testing.assert_array_equal(first, second)
    other = SymplecticSampler(2, seed=43).sample_batch(5)
    assert np.abs(first - other).max() > 1e-3


def test_sampler_batch_equals_repeated_singles():
    batch = SymplecticSampler(3, seed=7).sample_batch(6)
    one_by_one = SymplecticSampler(3, seed=7)
    singles = np.stack([one_by_one.sample_batch(1)[0] for _ in range(6)])
    np.testing.assert_array_equal(batch, singles)


def test_samples_are_certified_symplectic():
    samples = SymplecticSampler(2, seed=0).sample_batch(64)
    worst = max(symplectic_residual(s) for s in samples)
    assert worst <= 1e-8


@pytest.mark.parametrize("dof", [1, 2, 3])
@pytest.mark.parametrize("scale", [0.3, 1.0, 5.0])
def test_singular_values_pair_up_inside_the_squeeze_range(dof, scale):
    samples = SymplecticSampler(dof, seed=dof, scale=scale).sample_batch(200)
    values = np.linalg.svd(samples, compute_uv=False)
    # the smallest value is known to eps times the largest, relative eps e^(2 scale)
    rtol = 1e-13 * math.exp(2 * scale)
    # descending values pair the largest with the smallest
    np.testing.assert_allclose(values * values[:, ::-1], 1.0, rtol=rtol)
    assert values.max() <= math.exp(scale) * (1 + 1e-13)
    assert values.min() >= math.exp(-scale) * (1 - rtol)


def test_non_finite_samples_fail_the_certificate():
    sampler = SymplecticSampler(2, seed=0, scale=1e3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalInstability, match="nan"):
            sampler.sample_batch(4)


def test_zero_scale_yields_identity():
    samples = SymplecticSampler(2, seed=1, scale=0.0).sample_batch(3)
    for s in samples:
        np.testing.assert_array_equal(s, np.eye(4))


def test_sampler_validation():
    with pytest.raises(DimensionError):
        SymplecticSampler(0, seed=1)


def test_sample_symplectic_advances_the_stream():
    sampler = SymplecticSampler(1, seed=4)
    a = sampler.sample_batch(1)[0]
    b = sampler.sample_batch(1)[0]
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


def counted_sampler(dof, seed, drawn):
    """A sampler that appends the size of each batch it draws to ``drawn``."""
    sampler = SymplecticSampler(dof, seed=seed)
    draw = sampler.sample_batch

    def sample_batch(count):
        drawn.append(count)
        return draw(count)

    sampler.sample_batch = sample_batch
    return sampler


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_searches_do_not_depend_on_the_batch_size(monkeypatch, dof):
    rng = np.random.default_rng(dof)
    dec_v = sym_eig(random_spd(rng, 2 * dof))
    dec_h = sym_eig(random_spd(rng, 2 * dof))
    results = set()
    for batch in (7, 1000, 4096):
        # a stack budget of ``batch`` matrices of side 2 dof
        monkeypatch.setattr(phasemin.linalg, "STACK_ENTRIES", batch * (2 * dof) ** 2)
        drawn = []
        trace = check_trace_minimum(dec_v, dec_h, 5000, counted_sampler(dof, dof, drawn))
        squeeze = nonsqueeze_search(1.0, 0.99, 5000, counted_sampler(dof, dof, drawn))
        results.add((trace, squeeze))
        # whole batches, then the remainder, for each search
        batches = [batch] * (5000 // batch) + [5000 % batch] * (5000 % batch > 0)
        assert drawn == batches + batches
    assert len(results) == 1


def test_searches_hold_one_stack_budget_at_sixteen_degrees_of_freedom():
    # one stack of 4,096 samples of side 32 alone would take 32 MiB
    rng = np.random.default_rng(16)
    dec_v, dec_h = sym_eig(random_spd(rng, 32)), sym_eig(random_spd(rng, 32))
    for search in (
        lambda sampler: check_trace_minimum(dec_v, dec_h, 4096, sampler),
        lambda sampler: nonsqueeze_search(1.0, 0.5, 4096, sampler),
    ):
        tracemalloc.start()
        try:
            search(SymplecticSampler(16, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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
