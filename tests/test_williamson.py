import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCHUR_FAILURE_COVARIANCE, paired_spectrum_synthesis, random_spd
from phasemin.errors import NotPositiveDefinite, NotSemidefinite
from phasemin.linalg import sym_eig, symplectic_form, symplectic_residual
from phasemin.verify import SymplecticSampler
from phasemin.williamson import schur, symplectic_eigenvalues, williamson


def diagonal_case_spectrum(entries):
    # for M = diag(a_1..a_n, b_1..b_n) the values are sqrt(a_k b_k), descending
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0] // 2
    return np.sort(np.sqrt(entries[:n] * entries[n:]))[::-1]


@pytest.mark.parametrize(
    "diagonal",
    [
        [4.0, 1.0, 1.0, 1.0],
        [1.0, 0.0625, 1.0, 1.0],
        [2.0, 3.0, 5.0, 7.0],
        [1.0, 1.0],
        [9.0, 0.25],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    ],
)
def test_diagonal_matrices_match_closed_form(diagonal):
    m = np.diag(diagonal)
    expected = diagonal_case_spectrum(diagonal)
    np.testing.assert_allclose(symplectic_eigenvalues(sym_eig(m)), expected, rtol=1e-12)
    np.testing.assert_allclose(williamson(sym_eig(m)).spectrum, expected, rtol=1e-12)


def test_decomposition_reconstructs_random_matrices():
    rng = np.random.default_rng(2024)
    for trial in range(120):
        dof = 1 + trial % 4
        m = random_spd(rng, 2 * dof, spread=4.0)
        dec = williamson(sym_eig(m))
        s = dec.transform
        assert symplectic_residual(s) <= 1e-9
        np.testing.assert_allclose(
            s.T @ m @ s, dec.block_diagonal, atol=1e-9 * np.abs(m).max()
        )
        assert np.all(np.diff(dec.spectrum) <= 1e-12)
        np.testing.assert_allclose(
            np.prod(dec.spectrum) ** 2, np.linalg.det(m), rtol=1e-8
        )


@pytest.mark.parametrize(
    "matrix, spectrum",
    [
        (SCHUR_FAILURE_COVARIANCE, [1.0, 1.0]),
        (paired_spectrum_synthesis(seed=9, dof=3, spectrum=[2.0, 2.0, 0.5]), [2.0, 2.0, 0.5]),
    ],
    ids=["schur-failure-covariance", "repeated-pair"],
)
def test_normal_form_of_repeated_spectra(matrix, spectrum):
    m = np.asarray(matrix)
    dec = williamson(sym_eig(m))
    s = dec.transform
    np.testing.assert_allclose(dec.spectrum, spectrum, rtol=1e-12)
    assert symplectic_residual(s) <= 1e-12
    np.testing.assert_allclose(s.T @ m @ s, dec.block_diagonal, atol=1e-12 * np.abs(m).max())


@settings(max_examples=60, deadline=None)
@given(
    dof=st.integers(1, 6),
    distinct=st.integers(1, 6),
    log_spread=st.floats(0.0, 6.0),
    log_scale=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_schur_gives_an_orthogonal_block_form(dof, distinct, log_spread, log_scale, seed):
    # fewer distinct values than pairs repeats some of them
    rng = np.random.default_rng(seed)
    values = 10.0 ** (log_scale + rng.uniform(0.0, log_spread, size=min(distinct, dof)))
    b = values[rng.integers(0, values.size, size=dof)]
    q, _ = np.linalg.qr(rng.normal(size=(2 * dof, 2 * dof)))
    zero = np.zeros((dof, dof))
    k = q @ np.block([[zero, np.diag(b)], [-np.diag(b), zero]]) @ q.T
    k = (k - k.T) / 2.0
    norm = np.linalg.norm(k, 2)
    got, z = schur(k)
    assert np.all(np.diff(got) >= 0)
    np.testing.assert_allclose(got, np.sort(b), rtol=0, atol=1e-12 * norm)
    np.testing.assert_allclose(z.T @ z, np.eye(2 * dof), rtol=0, atol=1e-12)
    block = np.block([[zero, np.diag(got)], [-np.diag(got), zero]])
    np.testing.assert_allclose(z.T @ k @ z, block, rtol=0, atol=1e-12 * norm)


def test_spectrum_routes_agree():
    rng = np.random.default_rng(5)
    for trial in range(60):
        dof = 1 + trial % 3
        m = random_spd(rng, 2 * dof)
        np.testing.assert_allclose(
            symplectic_eigenvalues(sym_eig(m)), williamson(sym_eig(m)).spectrum, rtol=1e-9
        )


def test_spectrum_invariant_under_symplectic_congruence():
    rng = np.random.default_rng(77)
    sampler = SymplecticSampler(2, seed=12)
    for trial in range(40):
        m = random_spd(rng, 4)
        t = sampler.sample()
        np.testing.assert_allclose(
            symplectic_eigenvalues(sym_eig(t.T @ m @ t)),
            symplectic_eigenvalues(sym_eig(m)),
            rtol=1e-8,
        )


def test_spectrum_scales_linearly():
    rng = np.random.default_rng(3)
    m = random_spd(rng, 6)
    np.testing.assert_allclose(
        symplectic_eigenvalues(sym_eig(7.5 * m)),
        7.5 * symplectic_eigenvalues(sym_eig(m)),
        rtol=1e-10,
    )


def test_prescribed_spectrum_round_trip():
    target = np.array([3.0, 1.0, 0.5])
    m = paired_spectrum_synthesis(seed=9, dof=3, spectrum=target)
    np.testing.assert_allclose(symplectic_eigenvalues(sym_eig(m)), target, rtol=1e-9)


def test_semidefinite_spectra_clamp_to_zero():
    np.testing.assert_allclose(
        symplectic_eigenvalues(sym_eig(np.diag([1.0, 0.0, 1.0, 0.0]))), [1.0, 0.0]
    )
    np.testing.assert_allclose(
        symplectic_eigenvalues(sym_eig(np.zeros((4, 4)))), [0.0, 0.0]
    )
    # one zero pair out of two: the positive value survives untouched
    values = symplectic_eigenvalues(sym_eig(np.diag([4.0, 0.0, 9.0, 0.0])))
    np.testing.assert_allclose(values, [6.0, 0.0], rtol=1e-12)


def test_indefinite_matrix_is_rejected():
    with pytest.raises(NotSemidefinite) as info:
        symplectic_eigenvalues(sym_eig(np.diag([1.0, -1.0, 1.0, 1.0])))
    assert info.value.eigenvalue < 0


def test_williamson_requires_definite_input():
    with pytest.raises(NotPositiveDefinite) as info:
        williamson(sym_eig(np.diag([1.0, 0.0, 1.0, 1.0])))
    assert info.value.eigenvalue is not None


def test_odd_dimension_is_rejected():
    from phasemin.errors import DimensionError

    with pytest.raises(DimensionError):
        symplectic_eigenvalues(sym_eig(np.eye(3)))


def test_transform_diagonalizes_the_form_action():
    # S.T M S = D ⊕ D means S carries the normal modes; check the defining
    # eigenvalue property that J M has eigenvalues ±i d_k
    rng = np.random.default_rng(11)
    m = random_spd(rng, 4)
    j = symplectic_form(2)
    eig = np.linalg.eigvals(j @ m)
    observed = np.sort(np.abs(eig.imag))[::2]
    np.testing.assert_allclose(
        np.sort(symplectic_eigenvalues(sym_eig(m))), observed, rtol=1e-9
    )
