"""Density-matrix construction and coordinates.

Bloch coordinates, generalized-Bloch coordinates in a `generalized_gell_mann`
basis, maximally coherent phase states, Haar-random pure states, and the
JSON wire format for states. The reference (incoherent) basis is always the
computational basis.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BlochOutOfBallError, InvalidDimensionError, NotDensityMatrixError
from .linalg import PAULIS, _require_array, _require_int, _require_shape, density_eigenvalues


def from_bloch(r: np.ndarray) -> np.ndarray:
    """Qubit density matrix (I + r.sigma)/2 for a Bloch vector |r| <= 1."""
    r = _require_array(r, (3,), "Bloch vector r", float)
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-12:
        raise BlochOutOfBallError(f"|r| = {norm} exceeds 1")
    rho = 0.5 * np.eye(2, dtype=complex)
    for comp, sigma in zip(r, PAULIS):
        rho += 0.5 * comp * sigma
    return rho


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch coordinates (Tr[rho sigma_x], Tr[rho sigma_y], Tr[rho sigma_z])."""
    rho = _require_array(rho, (2, 2), "rho")
    return np.array([np.trace(rho @ sigma).real for sigma in PAULIS])


def maximally_coherent(d: int, thetas: np.ndarray | None = None) -> np.ndarray:
    """Projector of the phase state (1/sqrt d) sum_j exp(i theta_j) |j>.

    Every diagonal entry equals 1/d and the l1 coherence is d - 1; d is an integer >= 2.
    """
    d = _require_int(d, 2, "d", InvalidDimensionError)
    if thetas is None:
        thetas = np.zeros(d)
    thetas = _require_array(thetas, (d,), "thetas", float)
    psi = np.exp(1j * thetas) / np.sqrt(d)
    return np.outer(psi, psi.conj())


def haar_random_kets(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unit vectors as rows of an (n, d) complex array; integers d >= 2, n >= 0.

    Standard complex Gaussian components normalized to unit length, global
    phase left as drawn: a seeded rng repeats the draw bit for bit.
    """
    d = _require_int(d, 2, "d", InvalidDimensionError)
    n = _require_int(n, 0, "n")
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return z


def _rng(seed: int) -> np.random.Generator:
    seed = _require_int(seed, 0, "seed")
    return np.random.default_rng(seed)


def haar_random_pure(d: int, seed: int) -> np.ndarray:
    """Projector of one Haar-random pure state, deterministic for an integer seed >= 0."""
    psi = haar_random_kets(d, 1, _rng(seed))[0]
    return np.outer(psi, psi.conj())


def _require_basis(basis) -> np.ndarray:
    """basis as a finite complex (d^2 - 1, d, d) array, d >= 2 read off its last axis."""
    basis = _require_shape(basis, ..., "basis")
    d = max(basis.shape[-1:] + (2,))
    return _require_array(basis, (d * d - 1, d, d), "basis")


def to_generalized_bloch(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates x_i = Tr[rho L_i] in a `generalized_gell_mann` basis, so that
    rho = I/d + (1/2) sum_i x_i L_i; |x| is the generalized Bloch length chi."""
    basis = _require_basis(basis)
    d = basis.shape[-1]
    rho = _require_array(rho, (d, d), "rho")
    return np.einsum("ijk,kj->i", basis, rho).real


def from_generalized_bloch(coords: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Inverse of to_generalized_bloch: I/d + (1/2) sum_i x_i L_i."""
    basis = _require_basis(basis)
    d = basis.shape[-1]
    coords = _require_array(coords, (d * d - 1,), "coords", float)
    return np.eye(d, dtype=complex) / d + 0.5 * np.einsum("i,ijk->jk", coords, basis)


# --- JSON wire format -------------------------------------------------------
#
# {"dim": d, "matrix": [[[re, im], ...], ...]}  or, for qubits,
# {"bloch": [x, y, z]}
# Complex numbers are always [re, im] pairs.


def complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def json_parser(parse):
    """Re-raise a conversion's TypeError or OverflowError as ValueError."""
    @functools.wraps(parse)
    def wrapped(obj):
        try:
            return parse(obj)
        except (TypeError, OverflowError) as exc:
            raise ValueError(str(exc)) from exc
    return wrapped


def _wire_dim(obj: dict, size: int | None = None) -> int | None:
    """The optional "dim" of a wire form: a JSON integer >= 1 (not a bool) that
    equals size, the form's matrix size, when one is given. None when absent."""
    if "dim" not in obj:
        return None
    d = obj["dim"]
    if type(d) is not int or d < 1:
        raise ValueError(f'"dim" must be a positive integer, got {d!r}')
    if size is not None and d != size:
        raise ValueError(f'"dim" = {d} does not match matrix size {size}')
    return d


def _wire_form(obj: dict, keys: tuple[str, ...], name: str) -> str:
    """The one key of `keys` that `obj`, a JSON `name` object, holds."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} JSON must be an object")
    present = [k for k in keys if k in obj]
    if len(present) != 1:
        raise ValueError(f'{name} JSON needs exactly one of {keys}, found {present or "none"}')
    return present[0]


def _json_numbers(form: dict, keys: tuple[str, ...], name: str) -> list:
    """The `keys` entries of `form`, a JSON `name` object: numbers or lists of numbers
    but no string, since float() reads "0.5" where complex(re, im) refuses it."""
    if not all(k in form for k in keys):
        raise ValueError(f'"{name}" needs keys ' + " and ".join(f'"{k}"' for k in keys))
    values = [form[k] for k in keys]
    if any(np.asarray(v).dtype.kind in "US" for v in values):
        raise ValueError(f'"{name}" needs numbers, not strings: {values!r}')
    return values


@json_parser
def complex_matrix_from_json(data: list) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed complex matrix: {exc}") from exc


def state_to_json(rho: np.ndarray) -> dict:
    rho = np.asarray(rho, dtype=complex)
    return {"dim": rho.shape[0], "matrix": complex_matrix_to_json(rho)}


@json_parser
def state_from_json(obj: dict) -> np.ndarray:
    """Parse the JSON state format; validates the result is a density matrix."""
    if _wire_form(obj, ("matrix", "bloch"), "state") == "bloch":
        _wire_dim(obj, 2)
        return from_bloch(np.asarray(_json_numbers(obj, ("bloch",), "state")[0], dtype=float))
    rho = complex_matrix_from_json(obj["matrix"])
    _wire_dim(obj, len(rho))
    try:
        density_eigenvalues(rho)
    except NotDensityMatrixError as exc:
        raise ValueError(f'"matrix" is not a density matrix: {exc}') from exc
    return rho
