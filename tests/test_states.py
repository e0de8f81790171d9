import json

import numpy as np
import pytest

from cohbreak.coherence import is_incoherent_state
from cohbreak.errors import (
    BlochOutOfBallError,
    DimensionMismatchError,
    InvalidDimensionError,
    NonFiniteError,
)
from cohbreak.linalg import PAULIS, generalized_gell_mann, trace_distance
from cohbreak.states import (
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
from conftest import BAD_DIMS, BLOCH_STRING, random_density_matrix


def test_from_bloch_center_is_maximally_mixed():
    assert np.abs(from_bloch(np.zeros(3)) - np.eye(2) / 2).max() == 0.0


def test_from_bloch_pole_is_ground_state():
    rho = from_bloch(np.array([0.0, 0.0, 1.0]))
    assert np.abs(rho - np.diag([1.0, 0.0])).max() == 0.0


def test_from_bloch_round_trips_coordinates():
    r = np.array([0.3, 0.5, 0.2])
    coords = [np.trace(from_bloch(r) @ sigma).real for sigma in PAULIS]  # Tr[rho sigma]
    assert np.abs(np.array(coords) - r).max() < 1e-14


def test_from_bloch_rejects_long_vectors():
    with pytest.raises(BlochOutOfBallError):
        from_bloch(np.array([0.8, 0.8, 0.8]))


@pytest.mark.parametrize("r", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
def test_from_bloch_rejects_non_finite_components(r):
    with pytest.raises(NonFiniteError):
        from_bloch(np.array(r))


NON_FINITE_CALLS = {
    "trace_distance-rho": lambda x: trace_distance([[x, 0], [0, 1]], np.eye(2) / 2),
    "trace_distance-sigma": lambda x: trace_distance(np.eye(2) / 2, [[x, 0], [0, 1]]),
    "to_generalized_bloch": lambda x: to_generalized_bloch(np.diag([x, 0.5, 0.5]),
                                                           generalized_gell_mann(3)),
    "maximally_coherent": lambda x: maximally_coherent(3, [0.0, x, 0.0]),
    "from_generalized_bloch": lambda x: from_generalized_bloch(np.full(8, x),
                                                               generalized_gell_mann(3)),
    "to_generalized_bloch-basis": lambda x: to_generalized_bloch(
        np.eye(2) / 2, np.where(generalized_gell_mann(2) == 1.0, x, generalized_gell_mann(2))),
    "from_generalized_bloch-basis": lambda x: from_generalized_bloch(
        np.zeros(3), np.where(generalized_gell_mann(2) == 1.0, x, generalized_gell_mann(2))),
    "is_incoherent_state-off-diagonal": lambda x: is_incoherent_state([[0.5, x], [0, 0.5]]),
    "is_incoherent_state-diagonal": lambda x: is_incoherent_state([[x, 0], [0, 0.5]]),
}


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_argument_is_rejected(call, entry):
    with pytest.raises(NonFiniteError):
        call(entry)


def test_generalized_bloch_of_maximally_mixed():
    basis = generalized_gell_mann(3)
    coords = to_generalized_bloch(np.eye(3) / 3, basis)
    assert np.linalg.norm(coords) == 0.0
    assert np.abs(coords).max() < 1e-15


def test_generalized_bloch_matches_pauli_expectations():
    basis = generalized_gell_mann(2)
    coords = to_generalized_bloch(from_bloch(np.array([0.3, 0.5, 0.2])), basis)
    assert np.abs(coords - [0.3, 0.5, 0.2]).max() < 1e-14
    assert abs(np.linalg.norm(coords) - np.sqrt(0.38)) < 1e-14


def test_generalized_bloch_round_trip():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        basis = generalized_gell_mann(d)
        for _ in range(10):
            rho = random_density_matrix(d, rng)
            coords = to_generalized_bloch(rho, basis)
            assert np.abs(from_generalized_bloch(coords, basis) - rho).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_generalized_bloch_coordinates_are_the_traces_against_each_generator(d):
    # The definition, one generator at a time: x_i = Tr[rho L_i] and
    # rho = I/d + (1/2) sum_i x_i L_i.
    rho = random_density_matrix(d, np.random.default_rng(40 + d))
    basis = generalized_gell_mann(d)
    coords = to_generalized_bloch(rho, basis)
    expected = np.array([np.trace(rho @ g).real for g in basis])
    assert coords.shape == (d * d - 1,) and coords.dtype == float
    assert np.abs(coords - expected).max() < 1e-14
    rebuilt = np.eye(d) / d + 0.5 * sum(x * g for x, g in zip(expected, basis))
    assert np.abs(from_generalized_bloch(expected, basis) - rebuilt).max() < 1e-14


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
    assert abs(np.linalg.norm(coords) - np.sqrt(2.0 * (d - 1) / d)) < 1e-9


def test_chi_never_exceeds_its_bound_on_samples():
    rng = np.random.default_rng(42)
    for d in (2, 3, 4):
        basis = generalized_gell_mann(d)
        for _ in range(20):
            coords = to_generalized_bloch(random_density_matrix(d, rng), basis)
            chi = np.linalg.norm(coords)
            assert chi <= np.sqrt(2.0 * (d - 1) / d) + 1e-9
            if chi > 0.0:
                unit_dir = coords / chi
                assert abs(np.linalg.norm(unit_dir) - 1.0) < 1e-10
                assert np.abs(coords - chi * unit_dir).max() < 1e-10


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
    BLOCH_STRING,
], ids=["dim-null", "dim-infinity", "dim-list", "bloch-object", "entry-overflow", *BAD_DIMS,
        "bloch-string"])
def test_state_json_conversion_failures_are_value_errors(obj):
    with pytest.raises(ValueError):
        state_from_json(obj)


@pytest.mark.parametrize("data", [
    [[[10**400, 0.0]]], [[[0.0, -10**400]]], [[None]], 5,
], ids=["re-overflow", "im-overflow", "entry-null", "not-a-list"])
def test_complex_matrix_json_failures_are_value_errors(data):
    with pytest.raises(ValueError):
        complex_matrix_from_json(data)


def test_haar_random_kets_are_the_normalized_gaussian_draw():
    # No phase convention: the seeded draw, each row divided by its norm.
    rng = np.random.default_rng(5)
    z = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    expected = z / np.linalg.norm(z, axis=1)[:, None]
    assert haar_random_kets(4, 7, np.random.default_rng(5)).tobytes() == expected.tobytes()
