import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_spd
from phasemin.distributions import (
    BallIndicator,
    EllipsoidIndicator,
    Gaussian,
    Grid,
    Mixture,
    Particles,
    QuadraticPotential,
    ball_volume,
    density,
    moment_energy,
    moments,
    sphere_surface_area,
)
from phasemin.errors import DimensionError, EmptyDistribution, NotPositiveDefinite
from phasemin.restack import RestackProblem


def rasterize(f, lower, upper, spacing):
    """Density of f at the cell midpoints of the lattice that restack builds."""
    return RestackProblem(
        density(f), None, lower, upper, level=0, base_spacing=spacing
    ).build_grid()


# the field holding each family's position in phase space
POSITION_FIELD = {
    Gaussian: "mean",
    BallIndicator: "center",
    EllipsoidIndicator: "center",
    Particles: "points",
    Grid: "origin",
}


def shifted(f, shift):
    if isinstance(f, Mixture):
        return Mixture(tuple(shifted(c, shift) for c in f.components))
    field = POSITION_FIELD[type(f)]
    return replace(f, **{field: getattr(f, field) + shift})


def test_sphere_surface_area_known_values():
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_surface_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
    with pytest.raises(ValueError):
        sphere_surface_area(0)


def test_ball_volume_known_values():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3, 2.0) == pytest.approx(32 * math.pi / 3, rel=1e-14)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-14)


def test_gaussian_moments():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    f = Gaussian(1.7, [0.5, -1.0], cov)
    m = moments(f)
    assert m.mass == pytest.approx(1.7)
    np.testing.assert_allclose(m.center, [0.5, -1.0])
    np.testing.assert_allclose(m.second_moment, 1.7 * cov)


def test_ball_moments_match_the_isotropic_integral():
    # ∫_{|z|<=R} z_i^2 dz = |S^(d-1)| R^(d+2) / ((d+2) d) on each axis
    f = BallIndicator(1.5, np.zeros(4), amplitude=2.0)
    m = moments(f)
    assert m.mass == pytest.approx(2.0 * ball_volume(4, 1.5), rel=1e-14)
    coeff = 2.0 * sphere_surface_area(4) * 1.5**6 / (6 * 4)
    np.testing.assert_allclose(m.second_moment, coeff * np.eye(4), rtol=1e-14)


def test_unit_normalized_ball_has_identity_second_moment():
    radius = math.sqrt(6.0)
    amplitude = 6.0 / (radius**2 * ball_volume(4, radius))
    m = moments(BallIndicator(radius, np.zeros(4), amplitude))
    assert m.mass == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(m.second_moment, np.eye(4), rtol=1e-14)


def test_disc_moments_one_degree_of_freedom():
    m = moments(BallIndicator(2.0, [0.0, 0.0]))
    assert m.mass == pytest.approx(4 * math.pi, rel=1e-14)
    np.testing.assert_allclose(m.second_moment, 4 * math.pi * np.eye(2), rtol=1e-14)


def test_spherical_ellipsoid_agrees_with_ball():
    ball = moments(BallIndicator(2.0, [0.0, 0.0]))
    ellipsoid = moments(EllipsoidIndicator(np.eye(2) / 4.0, [0.0, 0.0]))
    assert ellipsoid.mass == pytest.approx(ball.mass, rel=1e-12)
    np.testing.assert_allclose(
        ellipsoid.second_moment, ball.second_moment, rtol=1e-12
    )


def test_ellipsoid_moments_cross_checked_by_rasterization():
    matrix = np.array([[0.8, 0.2], [0.2, 0.5]])
    f = EllipsoidIndicator(matrix, [0.3, -0.1], amplitude=1.3)
    exact = moments(f)
    raster = moments(rasterize(f, [-3.0, -3.0], [4.0, 3.0], 0.01))
    assert raster.mass == pytest.approx(exact.mass, rel=2e-3)
    np.testing.assert_allclose(
        raster.second_moment, exact.second_moment, rtol=5e-3, atol=5e-3
    )
    np.testing.assert_allclose(raster.center, exact.center, atol=5e-3)


def test_particle_moments_hand_case():
    f = Particles([[0.0, 0.0], [2.0, 0.0]], [1.0, 3.0])
    m = moments(f)
    assert m.mass == pytest.approx(4.0)
    np.testing.assert_allclose(m.center, [1.5, 0.0])
    # 1*(1.5)^2 + 3*(0.5)^2 = 3.0 along the first axis
    np.testing.assert_allclose(m.second_moment, [[3.0, 0.0], [0.0, 0.0]])


def test_grid_moments_hand_case():
    # two unit cells side by side with centers at 0.5 and 1.5
    g = Grid([0.0], 1.0, (2,), [1.0, 3.0])
    m = moments(g)
    assert m.mass == pytest.approx(4.0)
    assert m.center[0] == pytest.approx(1.25)
    expected = 1.0 * 0.75**2 + 3.0 * 0.25**2
    assert m.second_moment[0, 0] == pytest.approx(expected)


def test_grid_cell_centers_row_major():
    g = Grid([0.0, 10.0], 0.5, (2, 2), [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(
        g.cell_centers(),
        [[0.25, 10.25], [0.25, 10.75], [0.75, 10.25], [0.75, 10.75]],
    )


def test_mixture_moments_match_concatenated_particles():
    rng = np.random.default_rng(31)
    points_a = rng.normal(size=(5, 3))
    points_b = rng.normal(size=(4, 3)) + 2.0
    weights_a = rng.uniform(0.5, 2.0, 5)
    weights_b = rng.uniform(0.5, 2.0, 4)
    mixture = Mixture(
        (Particles(points_a, weights_a), Particles(points_b, weights_b))
    )
    merged = Particles(
        np.vstack([points_a, points_b]), np.concatenate([weights_a, weights_b])
    )
    got = moments(mixture)
    expected = moments(merged)
    assert got.mass == pytest.approx(expected.mass, rel=1e-14)
    np.testing.assert_allclose(got.center, expected.center, rtol=1e-12)
    np.testing.assert_allclose(
        got.second_moment, expected.second_moment, rtol=1e-11, atol=1e-13
    )


def test_mixture_mass_is_additive():
    parts = (
        Gaussian(0.7, [0.0, 0.0], np.eye(2)),
        BallIndicator(1.0, [3.0, 0.0], amplitude=2.0),
    )
    total = moments(Mixture(parts)).mass
    assert total == pytest.approx(sum(moments(p).mass for p in parts), rel=1e-14)


def test_second_moment_definite_for_full_support_families():
    rng = np.random.default_rng(8)
    families = [
        Gaussian(1.0, rng.normal(size=4), random_spd(rng, 4)),
        BallIndicator(1.3, rng.normal(size=4)),
        EllipsoidIndicator(random_spd(rng, 4), rng.normal(size=4)),
    ]
    for f in families:
        w = np.linalg.eigvalsh(moments(f).second_moment)
        assert w[0] > 0


@pytest.mark.parametrize(
    "f",
    [
        Gaussian(1.2, [0.1, -0.4], [[1.5, 0.2], [0.2, 0.9]]),
        BallIndicator(0.8, [1.0, 2.0], amplitude=3.0),
        EllipsoidIndicator([[2.0, 0.0], [0.0, 0.5]], [0.0, 1.0]),
        Particles([[0.0, 1.0], [2.0, -1.0]], [1.0, 2.0]),
        Grid([0.0, 0.0], 0.5, (3, 3), np.arange(9.0)),
        Mixture(
            (
                Gaussian(1.0, [0.0, 0.0], np.eye(2)),
                BallIndicator(1.0, [2.0, 0.0]),
            )
        ),
    ],
)
def test_translation_moves_center_and_keeps_spread(f):
    shift = np.array([0.7, -1.9])
    before = moments(f)
    after = moments(shifted(f, shift))
    assert after.mass == pytest.approx(before.mass, rel=1e-14)
    np.testing.assert_allclose(after.center, before.center + shift, atol=1e-10)
    np.testing.assert_allclose(
        after.second_moment, before.second_moment, atol=1e-10
    )


def test_moment_energy_formula():
    pot = QuadraticPotential(0.5, [1.0, 0.0], [[2.0, 0.0], [0.0, 1.0]])
    m = moments(Gaussian(2.0, [0.0, 0.0], np.eye(2)))
    # 2*0.5 + tr(V*2I) + 2 * (c-d).T V (c-d) with c-d = (-1, 0)
    assert moment_energy(m, pot) == pytest.approx(1.0 + 6.0 + 4.0, rel=1e-14)


def test_potential_energy_of_normalized_ball_family():
    radius = math.sqrt(6.0)
    amplitude = 6.0 / (radius**2 * ball_volume(4, radius))
    f = BallIndicator(radius, np.zeros(4), amplitude)
    eps = 0.25
    pot = QuadraticPotential(
        0.0, np.zeros(4), np.diag([1.0, eps**2, 1.0, 1.0])
    )
    energy = moment_energy(moments(f), pot)
    assert energy == pytest.approx(3.0 + eps**2, rel=1e-13)
    assert energy == pytest.approx(3.0625, rel=1e-13)


def test_moment_energy_dimension_mismatch():
    pot = QuadraticPotential(0.0, [0.0, 0.0], np.eye(2))
    with pytest.raises(DimensionError):
        moment_energy(moments(Gaussian(1.0, np.zeros(4), np.eye(4))), pot)


def test_potential_evaluate_at_minimum_and_stack():
    pot = QuadraticPotential(1.5, [1.0, -1.0], [[1.0, 0.0], [0.0, 2.0]])
    assert pot.evaluate([1.0, -1.0]) == pytest.approx(1.5)
    values = pot.evaluate([[1.0, -1.0], [2.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(values, [1.5, 2.5, 3.5])


def test_gaussian_density_integrates_to_weight():
    # the box must reach ~8 standard deviations for the tail mass to drop
    # below the comparison tolerance
    f = Gaussian(1.4, [0.2, -0.3], [[1.0, 0.4], [0.4, 2.0]])
    g = rasterize(f, [-12.0, -12.0], [12.0, 12.0], 0.1)
    assert g.values.sum() * g.spacing**2 == pytest.approx(1.4, rel=1e-10)


def test_indicator_density_levels():
    f = BallIndicator(1.0, [0.0, 0.0], amplitude=2.5)
    values = density(f)(np.array([[0.0, 0.0], [1.0, 0.0], [1.01, 0.0]]))
    np.testing.assert_allclose(values, [2.5, 2.5, 0.0])


def test_grid_density_round_trip():
    g = Grid([0.0, 0.0], 0.5, (2, 3), np.arange(6.0) + 1.0)
    evaluate = density(g)
    np.testing.assert_allclose(evaluate(g.cell_centers()), g.values.reshape(-1))
    np.testing.assert_allclose(evaluate([[-1.0, 0.2], [5.0, 5.0]]), [0.0, 0.0])


def test_mixture_density_sums_components():
    f1 = Gaussian(1.0, [0.0], [[1.0]])
    f2 = Gaussian(2.0, [1.0], [[0.5]])
    points = np.array([[0.0], [0.5], [1.0]])
    np.testing.assert_allclose(
        density(Mixture((f1, f2)))(points),
        density(f1)(points) + density(f2)(points),
        rtol=1e-14,
    )


def test_particles_have_no_pointwise_density():
    with pytest.raises(TypeError):
        density(Particles([[0.0, 0.0]], [1.0]))


def test_rasterize_cell_counts():
    g = rasterize(Gaussian(1.0, [0.0], [[1.0]]), [0.0], [1.0], 0.25)
    assert g.shape == (4,)
    g = rasterize(Gaussian(1.0, [0.0], [[1.0]]), [0.0], [1.0], 0.3)
    assert g.shape == (4,)
    g = rasterize(Gaussian(1.0, [0.0], [[1.0]]), [0.0], [0.1], 0.5)
    assert g.shape == (1,)
    with pytest.raises(ValueError):
        rasterize(Gaussian(1.0, [0.0], [[1.0]]), [1.0], [0.0], 0.5)


def test_gridded_gaussian_second_moment_contracts_under_refinement():
    # halving the spacing must cut the error at least at second order
    f = Gaussian(2.0, [0.3, -0.2], [[1.0, 0.3], [0.3, 0.8]])
    target = moments(f).second_moment
    errors = []
    for h in (2.0, 1.0, 0.5):
        m = moments(rasterize(f, [-8.3, -8.3], [8.3, 8.3], h))
        errors.append(np.abs(m.second_moment - target).max())
    assert errors[0] >= 3.5 * errors[1]
    assert errors[1] >= 3.5 * errors[2]


def test_gridded_gaussian_contraction_in_four_dimensions():
    f = Gaussian(
        1.0, [0.1, 0.0, -0.1, 0.2], np.diag([1.0, 0.8, 1.2, 0.9])
    )
    target = moments(f).second_moment
    errors = []
    for h in (2.0, 1.0, 0.5):
        m = moments(rasterize(f, [-6.1] * 4, [6.1] * 4, h))
        errors.append(np.abs(m.second_moment - target).max())
    assert errors[0] >= 3.5 * errors[1]
    assert errors[1] >= 3.5 * errors[2]


def test_validation_rejects_bad_inputs():
    with pytest.raises(NotPositiveDefinite):
        Gaussian(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        Gaussian(0.0, [0.0], [[1.0]])
    with pytest.raises(ValueError):
        BallIndicator(-1.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        BallIndicator(1.0, [0.0], amplitude=0.0)
    with pytest.raises(NotPositiveDefinite):
        EllipsoidIndicator([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        Particles([[0.0, 0.0]], [-1.0])
    with pytest.raises(DimensionError):
        Particles([[0.0, 0.0], [1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        Grid([0.0], 1.0, (2,), [1.0, -1.0])
    with pytest.raises(ValueError):
        Grid([0.0], 0.0, (2,), [1.0, 1.0])
    with pytest.raises(DimensionError):
        Grid([0.0, 0.0], 1.0, (2,), [1.0, 1.0])
    with pytest.raises(DimensionError):
        Mixture((Gaussian(1.0, [0.0], [[1.0]]), BallIndicator(1.0, [0.0, 0.0])))


def test_empty_inputs_raise():
    with pytest.raises(EmptyDistribution):
        moments(Mixture(()))
    with pytest.raises(EmptyDistribution):
        moments(Grid([0.0], 1.0, (3,), [0.0, 0.0, 0.0]))
    with pytest.raises(EmptyDistribution):
        moments(Particles(np.zeros((0, 2)), np.zeros(0)))
