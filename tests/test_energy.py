import math
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import (
    moments_from_matrix,
    paired_spectrum_synthesis,
    random_spd,
    random_unimodular_batch,
)
from phasemin.distributions import (
    BallIndicator,
    Gaussian,
    Moments,
    QuadraticPotential,
    ball_volume,
    moment_energy,
    moments,
)
from phasemin.energy import (
    AffineMap,
    anti_sorted_pairing,
    bump_on_tail_1d,
    degenerate_limit,
    linear_gardner_energy,
    linear_gromov_energy,
    sl_optimal_map,
    sp_optimal_map,
    verify_map_optimality,
)
from phasemin.errors import DegenerateMoments, DimensionError, NumericalInstability
from phasemin.linalg import symplectic_residual
from phasemin.verify import SymplecticSampler

EPS_FAMILY = (0.1, 0.5, 1.0, 2.0, 3.0)


def gaussian_family_problem(eps):
    """Unit Gaussian with spread (2, 1, 1, 1) in a well with one soft axis."""
    f = Gaussian(1.0, np.zeros(4), np.diag([4.0, 1.0, 1.0, 1.0]))
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, eps**2, 1.0, 1.0]))
    return moments(f), pot


def normalized_ball_problem(eps):
    """Unit-mass ball with identity second moment in the same well family."""
    radius = math.sqrt(6.0)
    amplitude = 6.0 / (radius**2 * ball_volume(4, radius))
    f = BallIndicator(radius, np.zeros(4), amplitude)
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, eps**2, 1.0, 1.0]))
    return moments(f), pot


@pytest.mark.parametrize("eps", EPS_FAMILY)
def test_gaussian_family_volume_preserving_energy(eps):
    m, pot = gaussian_family_problem(eps)
    report = linear_gardner_energy(m, pot)
    assert report.group == "SL"
    assert report.energy == pytest.approx(4.0 * math.sqrt(2.0 * eps), rel=1e-12)
    assert moment_energy(m, pot) == pytest.approx(6.0 + eps**2, rel=1e-14)
    assert report.fraction == pytest.approx(
        4.0 * math.sqrt(2.0 * eps) / (6.0 + eps**2), rel=1e-12
    )
    assert verify_map_optimality(report, m, pot) <= 1e-10


@pytest.mark.parametrize("eps", EPS_FAMILY)
def test_gaussian_family_symplectic_energy(eps):
    m, pot = gaussian_family_problem(eps)
    report = linear_gromov_energy(m, pot)
    assert report.group == "Sp"
    expected = 4.0 * eps + 2.0 if eps < 1.0 else 2.0 * eps + 4.0
    assert report.energy == pytest.approx(expected, rel=1e-12)
    assert verify_map_optimality(report, m, pot) <= 1e-10
    assert symplectic_residual(report.map.matrix) <= 1e-10


def test_gaussian_family_spectra_are_descending():
    m, pot = gaussian_family_problem(0.5)
    report = linear_gromov_energy(m, pot)
    np.testing.assert_allclose(report.moment_spectrum, [2.0, 1.0], rtol=1e-10)
    np.testing.assert_allclose(report.potential_spectrum, [1.0, 0.5], rtol=1e-10)


@pytest.mark.parametrize("eps", (0.04, 0.25))
def test_normalized_ball_closed_forms(eps):
    m, pot = normalized_ball_problem(eps)
    initial = moment_energy(m, pot)
    sl = linear_gardner_energy(m, pot)
    sp = linear_gromov_energy(m, pot)
    assert initial == pytest.approx(3.0 + eps**2, rel=1e-12)
    assert sl.energy == pytest.approx(4.0 * math.sqrt(eps), rel=1e-12)
    assert sp.energy == pytest.approx(2.0 * (1.0 + eps), rel=1e-12)
    assert sl.fraction == pytest.approx(
        4.0 * math.sqrt(eps) / (3.0 + eps**2), rel=1e-12
    )
    assert sp.fraction == pytest.approx(
        (2.0 + 2.0 * eps) / (3.0 + eps**2), rel=1e-12
    )


def test_symplectic_never_beats_volume_preserving():
    rng = np.random.default_rng(42)
    for trial in range(300):
        dof = 1 + trial % 3
        m = moments_from_matrix(random_spd(rng, 2 * dof, spread=5.0))
        pot = QuadraticPotential(
            0.0, np.zeros(2 * dof), random_spd(rng, 2 * dof, spread=5.0)
        )
        sl = linear_gardner_energy(m, pot)
        sp = linear_gromov_energy(m, pot)
        assert sp.energy >= sl.energy * (1.0 - 1e-10)


def test_one_degree_of_freedom_energies_coincide():
    rng = np.random.default_rng(9)
    for trial in range(100):
        m = moments_from_matrix(random_spd(rng, 2, spread=6.0))
        pot = QuadraticPotential(0.0, np.zeros(2), random_spd(rng, 2, spread=6.0))
        sl = linear_gardner_energy(m, pot)
        sp = linear_gromov_energy(m, pot)
        assert sp.energy == pytest.approx(sl.energy, rel=1e-10)


def test_equality_for_constant_anti_sorted_products():
    # spectra t_k and C / t_(n+1-k) pair to the constant C, where both
    # bounds collapse to 2 n C
    rng = np.random.default_rng(15)
    for trial in range(40):
        dof = 2 + trial % 2
        t = np.sort(rng.uniform(0.5, 3.0, size=dof))[::-1]
        constant = rng.uniform(0.5, 2.0)
        h = paired_spectrum_synthesis(seed=100 + trial, dof=dof, spectrum=t)
        v = paired_spectrum_synthesis(
            seed=200 + trial, dof=dof, spectrum=constant / t[::-1]
        )
        m = moments_from_matrix(h)
        pot = QuadraticPotential(0.0, np.zeros(2 * dof), v)
        sl = linear_gardner_energy(m, pot)
        sp = linear_gromov_energy(m, pot)
        assert sp.energy == pytest.approx(2 * dof * constant, rel=1e-8)
        assert sp.energy == pytest.approx(sl.energy, rel=1e-8)


def test_anti_sorted_pairing_hand_case_and_optimality():
    sh = np.array([3.0, 1.0])
    sv = np.array([5.0, 2.0])
    assert anti_sorted_pairing(sv, sh) == pytest.approx(3.0 * 2.0 + 1.0 * 5.0)
    # the anti-sorted pairing minimizes over all permutations
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        a = np.sort(rng.uniform(0.1, 4.0, n))[::-1]
        b = np.sort(rng.uniform(0.1, 4.0, n))[::-1]
        best = min(
            float(np.dot(a, b[list(p)])) for p in permutations(range(n))
        )
        assert anti_sorted_pairing(b, a) == pytest.approx(best, rel=1e-12)


def test_sampled_symplectic_maps_never_beat_the_bound():
    m, pot = gaussian_family_problem(0.5)
    bound = linear_gromov_energy(m, pot).energy
    samples = SymplecticSampler(2, seed=21).sample_batch(400)
    values = np.einsum(
        "ab,tbc,cd,tad->t", pot.matrix, samples, m.second_moment, samples
    )
    assert values.min() >= bound - 1e-8 * bound


def test_sampled_unimodular_maps_never_beat_the_bound():
    m, pot = gaussian_family_problem(0.5)
    bound = linear_gardner_energy(m, pot).energy
    samples = random_unimodular_batch(np.random.default_rng(3), 500, 4)
    values = np.einsum(
        "ab,tbc,cd,tad->t", pot.matrix, samples, m.second_moment, samples
    )
    assert values.min() >= bound - 1e-8 * bound


def test_optimal_map_properties():
    rng = np.random.default_rng(33)
    v = random_spd(rng, 4)
    h = random_spd(rng, 4)
    a_sl = sl_optimal_map(v, h)
    assert np.linalg.det(a_sl) == pytest.approx(1.0, rel=1e-9)
    a_sp = sp_optimal_map(v, h)
    assert symplectic_residual(a_sp) <= 1e-10
    # both maps attain their closed-form minima
    m = moments_from_matrix(h)
    pot = QuadraticPotential(0.0, np.zeros(4), v)
    sl = linear_gardner_energy(m, pot)
    sp = linear_gromov_energy(m, pot)
    assert verify_map_optimality(sl, m, pot) <= 1e-9 * sl.energy
    assert verify_map_optimality(sp, m, pot) <= 1e-9 * sp.energy


def test_shift_term_vanishes_only_at_the_minimum():
    pot = QuadraticPotential(0.0, [1.0, -2.0, 0.0, 0.5], np.eye(4))
    f = Gaussian(2.0, [0.3, 0.3, 0.3, 0.3], np.eye(4))
    m = moments(f)
    report = linear_gardner_energy(m, pot)
    np.testing.assert_allclose(report.map.target, pot.minimum)
    np.testing.assert_allclose(report.map.center, m.center)
    # moving the mass anywhere else costs mass * |offset|^2 extra
    centered = Moments(m.mass, pot.minimum.copy(), m.second_moment)
    displaced = Moments(m.mass, pot.minimum + 0.1, m.second_moment)
    assert moment_energy(displaced, pot) > moment_energy(centered, pot)


def test_affine_map_apply():
    a = AffineMap(
        matrix=np.diag([2.0, 0.5]),
        center=np.array([1.0, 0.0]),
        target=np.array([0.0, 3.0]),
    )
    np.testing.assert_allclose(a.apply([1.0, 0.0]), [0.0, 3.0])
    np.testing.assert_allclose(
        a.apply([[2.0, 2.0], [0.0, -2.0]]), [[2.0, 4.0], [-2.0, 2.0]]
    )


def test_rotation_family_preserves_energy_for_round_moments():
    # with H proportional to the identity every plane rotation stabilizes
    # the moments, so composing the optimal map with one changes nothing
    m, pot = normalized_ball_problem(0.25)
    report = linear_gromov_energy(m, pot)
    rng = np.random.default_rng(6)
    for trial in range(10):
        angles = rng.uniform(0, 2 * np.pi, size=2)
        cos, sin = np.diag(np.cos(angles)), np.diag(np.sin(angles))
        # an independent rotation of each (x_k, p_k) plane
        rot = np.block([[cos, sin], [-sin, cos]])
        composed = report.map.matrix @ rot
        achieved = float(
            np.trace(pot.matrix @ composed @ m.second_moment @ composed.T)
        )
        assert achieved == pytest.approx(report.energy, rel=1e-10)


def test_symplectic_energy_kink_at_matched_stiffness():
    # the soft-axis formula 4 eps + 2 hands over to 2 eps + 4 at eps = 1
    # with slopes 4 and 2; the value itself is continuous
    delta = 2.0**-20

    def sp_energy(eps):
        m, pot = gaussian_family_problem(eps)
        return linear_gromov_energy(m, pot).energy

    assert sp_energy(1.0) == pytest.approx(6.0, rel=1e-12)
    left = (sp_energy(1.0) - sp_energy(1.0 - delta)) / delta
    right = (sp_energy(1.0 + delta) - sp_energy(1.0)) / delta
    assert left == pytest.approx(4.0, rel=1e-6)
    assert right == pytest.approx(2.0, rel=1e-6)


def test_fraction_is_none_when_initial_energy_vanishes():
    m = moments_from_matrix(np.eye(2))
    pot = QuadraticPotential(0.0, np.zeros(2), np.zeros((2, 2)))
    report = linear_gardner_energy(m, pot)
    assert report.energy == 0.0
    assert report.fraction is None


def test_singular_moments_are_rejected():
    m = moments_from_matrix(np.diag([1.0, 0.0, 1.0, 1.0]))
    pot = QuadraticPotential(0.0, np.zeros(4), np.eye(4))
    with pytest.raises(DegenerateMoments):
        linear_gardner_energy(m, pot)
    with pytest.raises(DegenerateMoments):
        linear_gromov_energy(m, pot)


def test_dimension_checks():
    m = moments_from_matrix(np.eye(2))
    pot = QuadraticPotential(0.0, np.zeros(4), np.eye(4))
    with pytest.raises(DimensionError):
        linear_gardner_energy(m, pot)
    odd = moments_from_matrix(np.eye(3))
    odd_pot = QuadraticPotential(0.0, np.zeros(3), np.eye(3))
    with pytest.raises(DimensionError):
        linear_gromov_energy(odd, odd_pot)


def ball_moments_unit_radius():
    return moments(BallIndicator(1.0, np.zeros(4)))


def test_degenerate_limit_with_paired_zero_modes():
    # one whole oscillator plane of V vanishes; the ridge energy is exactly
    # linear in eps, so the two-point extrapolation lands on the limit
    m = ball_moments_unit_radius()
    v = np.diag([1.0, 0.0, 1.0, 0.0])
    pot = QuadraticPotential(0.0, np.zeros(4), v)
    report = degenerate_limit(m, pot, "Sp", [1e-2, 1e-3, 1e-4])
    assert report.energy == pytest.approx(math.pi**2 / 6.0, rel=1e-8)
    assert report.energy == pytest.approx(
        linear_gromov_energy(m, pot).energy, rel=1e-10
    )
    assert symplectic_residual(report.map.matrix) <= 1e-10


def test_degenerate_limit_agrees_for_definite_potentials():
    m, pot = gaussian_family_problem(0.5)
    for group, direct in (
        ("SL", linear_gardner_energy(m, pot).energy),
        ("Sp", linear_gromov_energy(m, pot).energy),
    ):
        report = degenerate_limit(m, pot, group, [1e-3, 1e-4, 1e-5])
        assert report.energy == pytest.approx(direct, rel=1e-6)


def test_degenerate_limit_of_zero_potential():
    m = ball_moments_unit_radius()
    pot = QuadraticPotential(1.25, np.zeros(4), np.zeros((4, 4)))
    for group in ("SL", "Sp"):
        report = degenerate_limit(m, pot, group, [1e-3, 1e-4])
        assert report.energy == pytest.approx(1.25 * m.mass, rel=1e-9)


def test_degenerate_limit_detects_slow_volume_preserving_convergence():
    # a single zero eigenvalue makes the volume-preserving energy scale as
    # eps^(1/4), which a linear extrapolation cannot certify tightly
    m = ball_moments_unit_radius()
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(NumericalInstability):
        degenerate_limit(m, pot, "SL", [1e-3, 1e-4, 1e-5])
    report = degenerate_limit(
        m, pot, "SL", [1e-3, 1e-4, 1e-5], agreement_rtol=0.2
    )
    assert 0.0 <= report.energy <= 0.5


def test_degenerate_limit_validates_the_sequence():
    m = ball_moments_unit_radius()
    pot = QuadraticPotential(0.0, np.zeros(4), np.diag([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        degenerate_limit(m, pot, "Sp", [1e-3])
    with pytest.raises(ValueError):
        degenerate_limit(m, pot, "Sp", [1e-4, 1e-3])
    with pytest.raises(ValueError):
        degenerate_limit(m, pot, "Sp", [1e-3, -1e-4])
    with pytest.raises(ValueError):
        degenerate_limit(m, pot, "other", [1e-3, 1e-4])


def test_bump_on_tail_hand_values():
    split = bump_on_tail_1d(1.0, 1.0, 1.0, 2.0)
    assert split.shift == pytest.approx(-1.0)
    assert split.linear_energy_density == pytest.approx(1.5)
    assert split.gardner_energy_density == pytest.approx(0.5)


def test_bump_on_tail_without_beam_keeps_thermal_energy():
    split = bump_on_tail_1d(2.0, 0.7, 0.0, 5.0)
    assert split.shift == 0.0
    assert split.linear_energy_density == pytest.approx(0.7)
    assert split.gardner_energy_density == pytest.approx(0.7)


def test_bump_on_tail_shift_matches_numeric_minimizer():
    n0, temp, n1, drift = 1.2, 0.8, 0.4, 2.5
    split = bump_on_tail_1d(n0, temp, n1, drift)

    def shifted_energy(s):
        return 0.5 * n0 * (s**2 + temp) + 0.5 * n1 * (drift + s) ** 2

    result = minimize_scalar(shifted_energy, bounds=(-3.0, 1.0), method="bounded")
    assert split.shift == pytest.approx(result.x, abs=1e-6)
    assert split.linear_energy_density == pytest.approx(result.fun, rel=1e-10)


def test_bump_on_tail_validation():
    with pytest.raises(ValueError):
        bump_on_tail_1d(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bump_on_tail_1d(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bump_on_tail_1d(1.0, 1.0, -0.5, 1.0)
