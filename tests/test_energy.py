import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from conftest import (
    moments_from_matrix,
    paired_spectrum_synthesis,
    random_spd,
    random_symplectic_batch,
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
    inaccessible_fraction,
    linear_gardner_energy,
    linear_gromov_energy,
    sl_optimal_map,
    sp_optimal_map,
    verify_map_optimality,
)
from phasemin.errors import DegenerateMoments, DimensionError, NumericalInstability
from phasemin.linalg import sym_eig, symplectic_form, symplectic_residual
from phasemin.verify import SymplecticSampler
from phasemin.williamson import symplectic_eigenvalues

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
    assert inaccessible_fraction(report.energy, moment_energy(m, pot)) == pytest.approx(
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
    assert inaccessible_fraction(sl.energy, initial) == pytest.approx(
        4.0 * math.sqrt(eps) / (3.0 + eps**2), rel=1e-12
    )
    assert inaccessible_fraction(sp.energy, initial) == pytest.approx(
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


def constructed_spectrum_matrix(rng, spectrum):
    """P diag(d, d) P.T with P = expm(J A) symplectic: its spectrum is exactly d."""
    n = spectrum.shape[0]
    a = rng.normal(scale=0.2, size=(2 * n, 2 * n))
    p = expm(symplectic_form(n) @ (a + a.T) / 2.0)
    m = p @ np.diag(np.concatenate([spectrum, spectrum])) @ p.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("dof", (1, 2, 3, 4, 8))
def test_sl_energy_matches_constructed_spectra(dof):
    # spectra spread over [1/s, s]; summing the logs of eigvalsh values
    # missed the SL energy by 7e-9 at s = 1e4
    rng = np.random.default_rng(dof)
    for spread in (1e1, 1e2, 1e3, 1e4):
        for _ in range(4):
            # at dof = 1 the values are spread and 1 / spread
            d_v = np.geomspace(spread, 1.0 / spread, dof)
            d_h = rng.permutation(np.geomspace(1.0 / spread, spread, dof))
            m = moments_from_matrix(constructed_spectrum_matrix(rng, d_h))
            pot = QuadraticPotential(
                0.0, np.zeros(2 * dof), constructed_spectrum_matrix(rng, d_v)
            )
            mean_log = (np.log(d_v).sum() + np.log(d_h).sum()) / dof
            sl = linear_gardner_energy(m, pot).energy
            assert sl == pytest.approx(2 * dof * math.exp(mean_log), rel=5e-9)


# relative tolerance per spread; those at 1e3 and 1e4 are the targets of a
# Hermitian spectrum route
SP_ORACLE_RTOL = {1e1: 1e-12, 1e2: 1e-8, 1e3: 1e-9, 1e4: 1e-7}
GRAM_ROUTE_FAULT = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="symplectic_eigenvalues reads the spectrum from the Gram matrix K K.T, "
    "which squares the condition number",
)


@pytest.mark.parametrize("spread", sorted(SP_ORACLE_RTOL))
@pytest.mark.parametrize("dof", (1, 2, 3, 4, 8))
def test_sp_energy_matches_constructed_spectra(request, dof, spread):
    if dof > 1 and spread >= 1e3:
        request.applymarker(GRAM_ROUTE_FAULT)
    rng = np.random.default_rng([dof, int(spread)])
    for _ in range(4):
        d_v = np.geomspace(spread, 1.0 / spread, dof)
        d_h = rng.permutation(np.geomspace(1.0 / spread, spread, dof))
        m = moments_from_matrix(constructed_spectrum_matrix(rng, d_h))
        pot = QuadraticPotential(
            0.0, np.zeros(2 * dof), constructed_spectrum_matrix(rng, d_v)
        )
        exact = 2.0 * anti_sorted_pairing(d_v, np.sort(d_h)[::-1])
        sp = linear_gromov_energy(m, pot).energy
        assert sp == pytest.approx(exact, rel=SP_ORACLE_RTOL[spread])


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


# ---------------------------------------------------------------------------
# invariances: the minima depend on V and H only up to the group acting on
# them, and on the centers not at all


INVARIANCE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
INVARIANT_PROBLEMS = {
    "seed": st.integers(0, 2**32 - 1),
    "dof": st.integers(1, 3),
    "spread": st.floats(1.0, 1e2),
}


def random_problem(seed, dof, spread):
    rng = np.random.default_rng(seed)
    v = random_spd(rng, 2 * dof, spread)
    h = random_spd(rng, 2 * dof, spread)
    return rng, v, h


def group_energy(energy, v, h):
    pot = QuadraticPotential(0.0, np.zeros(v.shape[0]), v)
    return energy(moments_from_matrix(h), pot).energy


@INVARIANCE_SETTINGS
@given(**INVARIANT_PROBLEMS)
def test_sp_energy_is_invariant_under_symplectic_congruence(seed, dof, spread):
    _, v, h = random_problem(seed, dof, spread)
    s = random_symplectic_batch(seed, dof, 1)[0]
    expected = group_energy(linear_gromov_energy, v, h)
    moved_v = group_energy(linear_gromov_energy, s.T @ v @ s, h)
    moved_h = group_energy(linear_gromov_energy, v, s @ h @ s.T)
    assert moved_v == pytest.approx(expected, rel=1e-9)
    assert moved_h == pytest.approx(expected, rel=1e-9)


@INVARIANCE_SETTINGS
@given(**INVARIANT_PROBLEMS)
def test_sl_energy_is_invariant_under_unimodular_congruence(seed, dof, spread):
    rng, v, h = random_problem(seed, dof, spread)
    s = random_unimodular_batch(rng, 1, 2 * dof)[0]
    expected = group_energy(linear_gardner_energy, v, h)
    moved_v = group_energy(linear_gardner_energy, s.T @ v @ s, h)
    moved_h = group_energy(linear_gardner_energy, v, s @ h @ s.T)
    assert moved_v == pytest.approx(expected, rel=1e-9)
    assert moved_h == pytest.approx(expected, rel=1e-9)


@INVARIANCE_SETTINGS
@given(**INVARIANT_PROBLEMS)
def test_energies_are_invariant_under_a_common_translation(seed, dof, spread):
    rng, v, h = random_problem(seed, dof, spread)
    mean, minimum, shift = rng.uniform(-spread, spread, size=(3, 2 * dof))
    before = moments(Gaussian(1.5, mean, h)), QuadraticPotential(0.3, minimum, v)
    after = (
        moments(Gaussian(1.5, mean + shift, h)),
        QuadraticPotential(0.3, minimum + shift, v),
    )
    for energy in (linear_gardner_energy, linear_gromov_energy):
        assert energy(*after).energy == pytest.approx(energy(*before).energy, rel=1e-9)
    assert moment_energy(*after) == pytest.approx(moment_energy(*before), rel=1e-9)


@INVARIANCE_SETTINGS
@given(**INVARIANT_PROBLEMS, count=st.integers(1, 5))
def test_stacked_energies_are_each_matrix_energies_bit_for_bit(seed, dof, spread, count):
    rng, _, h = random_problem(seed, dof, spread)
    dim = 2 * dof
    vs = np.array([random_spd(rng, dim, spread) for _ in range(count + 1)])
    # the last potential is singular: its SL term vanishes
    w, q = np.linalg.eigh(vs[-1])
    vs[-1] = (q * np.concatenate([[0.0], w[1:]])) @ q.T
    vs[-1] = (vs[-1] + vs[-1].T) / 2.0
    m = moments(Gaussian(1.5, rng.normal(size=dim), h))
    minimum = rng.normal(size=dim)
    stack = QuadraticPotential(0.3, minimum, vs)
    initial = moment_energy(m, stack)
    sl = linear_gardner_energy(m, stack).energy
    sp_report = linear_gromov_energy(m, stack)
    sp, spectrum_v = sp_report.energy, sp_report.potential_spectrum
    base, shift, hh = 0.3 * m.mass, m.center - minimum, m.second_moment
    for k in range(count + 1):
        one = QuadraticPotential(0.3, minimum, vs[k])
        v = one.matrix
        assert np.array_equal(stack.matrix[k], v)
        # the closed forms, in the arithmetic of the single-matrix code
        mean_log = (np.linalg.slogdet(v)[1] + np.linalg.slogdet(hh)[1]) / dim
        spectrum = symplectic_eigenvalues(one.decomposition)
        expected = (
            float(base + np.trace(v @ hh) + m.mass * shift @ v @ shift),
            float(base + dim * math.exp(mean_log)) if one.decomposition.definite else base,
            float(base + 2 * float(np.dot(m.symplectic_spectrum, spectrum[::-1]))),
        )
        assert one.decomposition.definite == (k < count)
        assert np.array_equal(spectrum_v[k], spectrum)
        assert (initial[k], sl[k], sp[k]) == expected
        assert (
            moment_energy(m, one),
            linear_gardner_energy(m, one).energy,
            linear_gromov_energy(m, one).energy,
        ) == expected


def test_optimal_map_properties():
    rng = np.random.default_rng(33)
    v = random_spd(rng, 4)
    h = random_spd(rng, 4)
    a_sl = sl_optimal_map(sym_eig(v), sym_eig(h))
    assert np.linalg.det(a_sl) == pytest.approx(1.0, rel=1e-9)
    a_sp = sp_optimal_map(sym_eig(v), sym_eig(h))
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
    assert inaccessible_fraction(report.energy, moment_energy(m, pot)) is None


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
