import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from cohbreak.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NotDensityMatrixError,
    NotHermitianError,
)
from cohbreak.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    density_eigenvalues,
    generalized_gell_mann,
    partial_trace,
    partial_transpose,
    trace_distance,
    von_neumann_entropy,
)
from conftest import random_density_matrix

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def test_trace_distance_identical_states():
    rho = np.outer(KET0, KET0.conj())
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_orthogonal_pure_states():
    rho = np.outer(KET0, KET0.conj())
    sigma = np.outer(KET1, KET1.conj())
    assert abs(trace_distance(rho, sigma) - 2.0) < 1e-12


def test_trace_distance_equals_bloch_distance():
    from cohbreak.states import from_bloch

    r1 = np.array([0.3, 0.5, 0.2])
    value = trace_distance(from_bloch(r1), from_bloch(np.zeros(3)))
    assert abs(value - np.sqrt(0.38)) < 1e-12
    # independent oracle: sum of |eigenvalues| of the difference
    diff = from_bloch(r1) - from_bloch(np.zeros(3))
    assert abs(value - np.abs(np.linalg.eigvalsh(diff)).sum()) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(np.eye(2) / 2, np.eye(3) / 3)


def test_trace_distance_is_a_metric_on_samples():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        for _ in range(20):
            a, b, c = (random_density_matrix(d, rng) for _ in range(3))
            assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-13
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(np.outer(KET0, KET0.conj())) == 0.0


def test_entropy_maximally_mixed_qubit():
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12


def test_entropy_binary_distribution():
    expected = -0.25 * np.log2(0.25) - 0.75 * np.log2(0.75)
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75])) - expected) < 1e-12


def test_entropy_range_on_samples():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        for _ in range(20):
            s = von_neumann_entropy(random_density_matrix(d, rng))
            assert -1e-12 <= s <= np.log2(d) + 1e-9


def test_entropy_rejects_invalid_inputs():
    with pytest.raises(NotDensityMatrixError):
        von_neumann_entropy(np.eye(2))  # trace 2
    with pytest.raises(NotDensityMatrixError):
        von_neumann_entropy(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(NotDensityMatrixError):
        von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


@pytest.mark.parametrize("call", [density_eigenvalues, von_neumann_entropy])
def test_an_empty_matrix_fails_the_square_check(call):
    # Not numpy's zero-size reduction ValueError from the Hermiticity check.
    with pytest.raises(NotDensityMatrixError, match=r"side >= 1, got shape \(0, 0\)"):
        call(np.zeros((0, 0)))


def test_gell_mann_qubit_is_pauli():
    basis = generalized_gell_mann(2)
    assert np.array_equal(basis[0], SIGMA_X)
    assert np.array_equal(basis[1], SIGMA_Y)
    assert np.array_equal(basis[2], SIGMA_Z)


def test_gell_mann_qutrit_layout():
    basis = generalized_gell_mann(3)
    assert basis.shape == (8, 3, 3) and basis.dtype == complex
    assert not basis.flags.writeable
    # three symmetric/antisymmetric pairs first, two diagonal generators last
    for r, (j, k) in enumerate([(0, 1), (0, 2), (1, 2)]):
        sym, asym = basis[2 * r], basis[2 * r + 1]
        assert sym[j, k] == 1.0 and sym[k, j] == 1.0
        assert asym[j, k] == -1.0j and asym[k, j] == 1.0j
    for g in basis[6:]:
        assert np.abs(g - np.diag(np.diag(g))).max() == 0.0


def _gell_mann_by_loop(d):
    """The ordering contract built one generator at a time."""
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k], asym[k, j] = -1.0j, 1.0j
            gens += [sym, asym]
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[:l, :l] = np.eye(l)
        diag[l, l] = -l
        gens.append(diag * np.sqrt(2.0 / (l * (l + 1))))
    return np.stack(gens)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16])
def test_gell_mann_is_bit_identical_to_the_generator_by_generator_construction(d):
    basis = generalized_gell_mann(d)
    expected = _gell_mann_by_loop(d)
    assert basis.dtype == expected.dtype and basis.shape == expected.shape
    assert basis.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_gell_mann_invariants(d):
    gens = generalized_gell_mann(d)
    assert len(gens) == d * d - 1
    gram = np.array([[np.trace(a @ b) for b in gens] for a in gens])
    assert np.abs(gram - 2.0 * np.eye(d * d - 1)).max() < 1e-12
    for g in gens:
        assert abs(np.trace(g)) < 1e-12
        assert np.abs(g - g.conj().T).max() < 1e-12
    # pairing contract: slot 2r is real symmetric, slot 2r+1 imaginary
    for r in range(d * (d - 1) // 2):
        assert np.abs(gens[2 * r].imag).max() == 0.0
        assert np.abs(gens[2 * r + 1].real).max() == 0.0


def test_gell_mann_rejects_small_dimension():
    with pytest.raises(InvalidDimensionError):
        generalized_gell_mann(1)


def test_partial_transpose_product_state():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(3, rng)
    sigma = random_density_matrix(3, rng)
    out = partial_transpose(np.kron(rho, sigma), 3)
    assert np.abs(out - np.kron(rho, sigma.T)).max() < 1e-14


def test_partial_transpose_maximally_entangled():
    beta = np.zeros(4, dtype=complex)
    beta[0] = beta[3] = 1.0 / np.sqrt(2.0)
    out = partial_transpose(np.outer(beta, beta.conj()), 2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(out)), [-0.5, 0.5, 0.5, 0.5])


def test_partial_transpose_fixes_diagonals():
    diag = np.diag(np.arange(9.0))
    assert np.array_equal(partial_transpose(diag, 3), diag)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        assert np.abs(partial_transpose(partial_transpose(m, d), d) - m).max() <= 1e-12


def test_partial_transpose_dimension_check():
    with pytest.raises(DimensionMismatchError):
        partial_transpose(np.eye(6), 2)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng)
    sigma = random_density_matrix(2, rng)
    both = np.kron(rho, sigma)
    assert np.abs(partial_trace(both, 2, keep=0) - rho).max() < 1e-14
    assert np.abs(partial_trace(both, 2, keep=1) - sigma).max() < 1e-14


def test_trace_distance_rejects_a_non_hermitian_difference():
    # eigvalsh reads one triangle only: this pair would read as distance 0, not 1.
    with pytest.raises(NotHermitianError, match="hermiticity defect"):
        trace_distance([[0, 1], [0, 0]], np.zeros((2, 2)))
    with pytest.raises(NotHermitianError) as info:
        trace_distance([[0, 0.5], [0, 0]], np.zeros((2, 2)))
    assert str(info.value) == "hermiticity defect 5.000e-01 exceeds 1.000e-09"


def test_benchmark_per_layer_names_are_public_functions():
    # perfbench's tracer wraps each public function a module defines; a pinned
    # `<module>.<function>.calls` metric it cannot find fails every traced run.
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    pinned = [m["name"].split(".")[:2] for m in spec["per_layer"]
              if m["name"].endswith(".calls") and m["name"].count(".") == 2]
    assert pinned
    for module, name in pinned:
        fn = getattr(importlib.import_module(f"cohbreak.{module}"), name, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"cohbreak.{module}", (module, name)
        assert not name.startswith("_"), (module, name)
