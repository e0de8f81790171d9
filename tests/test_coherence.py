import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak.channels import apply
from cohbreak.classifiers import is_incoherent_kraus
from cohbreak.coherence import c_l1, c_relative_entropy, dephase, is_incoherent_state
from cohbreak.errors import NonFiniteError, NotDensityMatrixError
from cohbreak.states import from_bloch, maximally_coherent
from conftest import random_density_matrix


@pytest.mark.parametrize("rho, error", [
    (np.eye(2), NotDensityMatrixError),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), NotDensityMatrixError),
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), NonFiniteError),
], ids=["trace-2", "non-hermitian", "nan"])
def test_relative_entropy_rejects_a_non_density_matrix(rho, error):
    with pytest.raises(error):
        c_relative_entropy(rho)


def test_c_l1_of_diagonal_states():
    assert c_l1(np.diag([0.25, 0.5, 0.25])) == 0.0


def test_c_l1_of_maximally_coherent_states():
    assert abs(c_l1(maximally_coherent(2)) - 1.0) < 1e-14
    for d in (3, 4, 6):
        assert abs(c_l1(maximally_coherent(d)) - (d - 1)) < 1e-12


def test_c_l1_of_reference_bloch_state():
    value = c_l1(from_bloch(np.array([0.3, 0.5, 0.2])))
    assert abs(value - np.sqrt(0.34)) < 1e-14
    assert abs(value - 0.5830) < 1e-4


def test_c_l1_bounds_on_samples():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for _ in range(20):
            value = c_l1(random_density_matrix(d, rng))
            assert -1e-12 <= value <= d - 1 + 1e-9


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 6), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_c_l1_of_a_batch_is_the_per_state_values_bit_for_bit(b, d, seed):
    rng = np.random.default_rng(seed)
    rhos = rng.normal(size=(b, d, d)) + 1j * rng.normal(size=(b, d, d))
    before = rhos.copy()
    batch = c_l1(rhos)
    singles = [c_l1(rho) for rho in rhos]
    assert all(type(value) is float for value in singles)
    assert isinstance(batch, np.ndarray) and batch.shape == (b,)
    assert batch.tolist() == singles
    np.testing.assert_array_equal(rhos, before)


def test_relative_entropy_of_diagonal_states():
    assert c_relative_entropy(np.diag([0.3, 0.7])) == 0.0


def test_relative_entropy_of_maximally_coherent_qubit():
    assert abs(c_relative_entropy(maximally_coherent(2)) - 1.0) < 1e-12


def test_relative_entropy_of_lopsided_pure_state():
    psi = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
    expected = -0.2 * np.log2(0.2) - 0.8 * np.log2(0.8)
    assert abs(c_relative_entropy(np.outer(psi, psi.conj())) - expected) < 1e-12


def test_relative_entropy_nonnegative_on_samples():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(20):
            assert c_relative_entropy(random_density_matrix(d, rng)) >= 0.0


def test_dephase_fixes_diagonal_states():
    rho = np.diag([0.2, 0.8]).astype(complex)
    assert np.array_equal(dephase(rho), rho)


def test_dephase_plus_state():
    assert np.abs(dephase(maximally_coherent(2)) - np.eye(2) / 2).max() < 1e-15


def test_dephase_output_has_no_coherence():
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert c_l1(dephase(random_density_matrix(4, rng))) == 0.0


def test_dephase_is_idempotent():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(3, rng)
    once = dephase(rho)
    assert np.array_equal(dephase(once), once)


def test_is_incoherent_state():
    assert is_incoherent_state(np.eye(3) / 3)
    assert not is_incoherent_state(maximally_coherent(2))
    noisy = np.diag([0.5, 0.5]).astype(complex)
    noisy[0, 1] = noisy[1, 0] = 1e-12
    assert is_incoherent_state(noisy, tol=1e-10)
    with pytest.raises(ValueError):
        is_incoherent_state(noisy, tol=0.0)


def test_coherence_monotone_under_certified_incoherent_channels(corpus):
    rng = np.random.default_rng(4)
    for name, channel in corpus:
        ok, _ = is_incoherent_kraus(channel)
        if not ok:
            continue
        for _ in range(20):
            rho = random_density_matrix(channel.dim, rng)
            out = apply(channel, rho)
            assert c_l1(out) <= c_l1(rho) + 1e-9, name
            assert c_relative_entropy(out) <= c_relative_entropy(rho) + 1e-9, name


def test_c_l1_is_convex_on_mixtures():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho = random_density_matrix(d, rng)
        sigma = random_density_matrix(d, rng)
        lam = float(rng.uniform())
        mix = lam * rho + (1 - lam) * sigma
        assert c_l1(mix) <= lam * c_l1(rho) + (1 - lam) * c_l1(sigma) + 1e-10
