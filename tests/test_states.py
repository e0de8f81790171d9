import json

import numpy as np
import pytest

from cohbreak.errors import (
    BlochOutOfBallError,
    DimensionMismatchError,
    InvalidDimensionError,
    NonFiniteError,
)
from cohbreak.linalg import generalized_gell_mann
from cohbreak.states import (
    bloch_vector,
    complex_matrix_from_json,
    from_bloch,
    from_generalized_bloch,
    haar_random_kets,
    haar_random_pure,
    maximally_coherent,
    state_from_json,
    state_to_json,
    to_generalized_bloch,
)
from conftest import BAD_DIMS, random_density_matrix


def test_from_bloch_center_is_maximally_mixed():
    assert np.abs(from_bloch(np.zeros(3)) - np.eye(2) / 2).max() == 0.0


def test_from_bloch_pole_is_ground_state():
    rho = from_bloch(np.array([0.0, 0.0, 1.0]))
    assert np.abs(rho - np.diag([1.0, 0.0])).max() == 0.0


def test_from_bloch_round_trips_coordinates():
    r = np.array([0.3, 0.5, 0.2])
    assert np.abs(bloch_vector(from_bloch(r)) - r).max() < 1e-14


def test_from_bloch_rejects_long_vectors():
    with pytest.raises(BlochOutOfBallError):
        from_bloch(np.array([0.8, 0.8, 0.8]))


@pytest.mark.parametrize("r", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
def test_from_bloch_rejects_non_finite_components(r):
    with pytest.raises(NonFiniteError):
        from_bloch(np.array(r))


def test_generalized_bloch_of_maximally_mixed():
    basis = generalized_gell_mann(3)
    coords = to_generalized_bloch(np.eye(3) / 3, basis)
    assert coords.chi == 0.0
    assert coords.unit_dir is None
    assert np.abs(coords.coords).max() < 1e-15


def test_generalized_bloch_matches_pauli_expectations():
    basis = generalized_gell_mann(2)
    coords = to_generalized_bloch(from_bloch(np.array([0.3, 0.5, 0.2])), basis)
    assert np.abs(coords.coords - [0.3, 0.5, 0.2]).max() < 1e-14
    assert abs(coords.chi - np.sqrt(0.38)) < 1e-14


def test_generalized_bloch_round_trip():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        basis = generalized_gell_mann(d)
        for _ in range(10):
            rho = random_density_matrix(d, rng)
            coords = to_generalized_bloch(rho, basis)
            assert np.abs(from_generalized_bloch(coords.coords, basis) - rho).max() < 1e-12


def test_generalized_bloch_dimension_check():
    with pytest.raises(DimensionMismatchError):
        to_generalized_bloch(np.eye(2) / 2, generalized_gell_mann(3))


def test_maximally_coherent_plus_state():
    rho = maximally_coherent(2)
    assert np.abs(rho - np.full((2, 2), 0.5)).max() < 1e-15


def test_maximally_coherent_diagonal_entries():
    for d in (2, 3, 5):
        rho = maximally_coherent(d, np.linspace(0.0, 1.0, d))
        assert np.abs(np.diag(rho) - 1.0 / d).max() < 1e-14


def test_maximally_coherent_sign_flip():
    rho = maximally_coherent(2, np.array([0.0, np.pi]))
    assert abs(rho[0, 1] + 0.5) < 1e-15
    assert abs(rho[1, 0] + 0.5) < 1e-15


def test_maximally_coherent_rejects_dimension():
    with pytest.raises(InvalidDimensionError):
        maximally_coherent(1)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_maximally_coherent_saturates_chi_bound(d):
    basis = generalized_gell_mann(d)
    coords = to_generalized_bloch(maximally_coherent(d), basis)
    assert abs(coords.chi - np.sqrt(2.0 * (d - 1) / d)) < 1e-9


def test_chi_never_exceeds_its_bound_on_samples():
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        basis = generalized_gell_mann(d)
        for _ in range(20):
            coords = to_generalized_bloch(random_density_matrix(d, rng), basis)
            assert coords.chi <= np.sqrt(2.0 * (d - 1) / d) + 1e-9
            if coords.unit_dir is not None:
                assert abs(np.linalg.norm(coords.unit_dir) - 1.0) < 1e-10
                assert np.abs(coords.coords - coords.chi * coords.unit_dir).max() < 1e-10


def test_haar_random_pure_is_pure():
    for seed in (0, 1, 99):
        rho = haar_random_pure(5, seed)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_haar_random_pure_is_deterministic():
    a = haar_random_pure(4, 1234)
    b = haar_random_pure(4, 1234)
    assert np.array_equal(a, b)
    c = haar_random_pure(4, 1235)
    assert not np.array_equal(a, c)


def test_haar_mean_bloch_vector_is_small():
    # Haar average is the maximally mixed state; 1e5 samples put the mean
    # Bloch norm near 1/sqrt(1e5) ~ 0.003, far below the 0.02 gate.
    rng = np.random.default_rng(77)
    kets = haar_random_kets(2, 100_000, rng)
    x = 2.0 * (kets[:, 0] * kets[:, 1].conj()).real
    y = -2.0 * (kets[:, 0] * kets[:, 1].conj()).imag
    z = np.abs(kets[:, 0]) ** 2 - np.abs(kets[:, 1]) ** 2
    mean = np.array([x.mean(), y.mean(), z.mean()])
    assert np.linalg.norm(mean) <= 0.02


def test_haar_distribution_is_unitarily_invariant():
    # Sample means of |<0|psi>|^2 with and without a fixed rotation agree
    # within Monte Carlo error at 1e4 samples (stderr ~ 0.003).
    from cohbreak.channels import haar_unitary

    rng = np.random.default_rng(123)
    u = haar_unitary(3, rng)
    kets = haar_random_kets(3, 10_000, rng)
    stat = np.abs(kets[:, 0]) ** 2
    stat_rotated = np.abs((kets @ u.T)[:, 0]) ** 2
    assert abs(stat.mean() - stat_rotated.mean()) < 0.02


def test_state_json_round_trip():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(3, rng)
    text = json.dumps(state_to_json(rho))
    back = state_from_json(json.loads(text))
    assert np.abs(back - rho).max() < 1e-15


def test_state_json_bloch_shorthand():
    rho = state_from_json({"bloch": [0.3, 0.5, 0.2]})
    assert np.abs(rho - from_bloch(np.array([0.3, 0.5, 0.2]))).max() == 0.0


def test_state_json_rejects_garbage():
    with pytest.raises(ValueError):
        state_from_json({"matrix": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        state_from_json({"dim": 3, "matrix": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError):
        state_from_json({"matrix": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]})
    with pytest.raises(ValueError):
        state_from_json({})


MIXED = state_to_json(np.eye(2) / 2)


@pytest.mark.parametrize("obj", [
    {**MIXED, "dim": None},
    {**MIXED, "dim": float("inf")},
    {**MIXED, "dim": [2]},
    {"bloch": {"x": 0.1}},
    {"matrix": [[[10**400, 0.0]]]},
    *({**MIXED, "dim": dim} for dim in BAD_DIMS.values()),
], ids=["dim-null", "dim-infinity", "dim-list", "bloch-object", "entry-overflow", *BAD_DIMS])
def test_state_json_conversion_failures_are_value_errors(obj):
    with pytest.raises(ValueError):
        state_from_json(obj)


@pytest.mark.parametrize("data", [
    [[[10**400, 0.0]]], [[[0.0, -10**400]]], [[None]], 5,
], ids=["re-overflow", "im-overflow", "entry-null", "not-a-list"])
def test_complex_matrix_json_failures_are_value_errors(data):
    with pytest.raises(ValueError):
        complex_matrix_from_json(data)
