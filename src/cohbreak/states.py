"""Density-matrix construction and coordinates.

Bloch and generalized-Bloch coordinates, maximally coherent phase states,
Haar-random pure states, and the JSON wire format for states. The reference
(incoherent) basis is always the computational basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (BlochOutOfBallError, InvalidDimensionError, NotDensityMatrixError,
                     ParameterOutOfRangeError)
from .linalg import PAULIS, HermitianBasis, _require_shape, assert_density_matrix, require_finite


def from_bloch(r: np.ndarray) -> np.ndarray:
    """Qubit density matrix (I + r.sigma)/2 for a Bloch vector |r| <= 1."""
    r = _require_shape(r, (3,), "Bloch vector r", float)
    require_finite(r, "Bloch vector")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-12:
        raise BlochOutOfBallError(f"|r| = {norm} exceeds 1")
    rho = 0.5 * np.eye(2, dtype=complex)
    for comp, sigma in zip(r, PAULIS):
        rho += 0.5 * comp * sigma
    return rho


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch coordinates (Tr[rho sigma_x], Tr[rho sigma_y], Tr[rho sigma_z])."""
    rho = _require_shape(rho, (2, 2), "rho")
    return np.array([np.trace(rho @ sigma).real for sigma in PAULIS])


def maximally_coherent(d: int, thetas: np.ndarray | None = None) -> np.ndarray:
    """Projector of the phase state (1/sqrt d) sum_j exp(i theta_j) |j>.

    Every diagonal entry equals 1/d and the l1 coherence is d - 1.
    """
    if d < 2:
        raise InvalidDimensionError(f"need d >= 2, got {d}")
    if thetas is None:
        thetas = np.zeros(d)
    thetas = _require_shape(thetas, (d,), "thetas", float)
    require_finite(thetas, "thetas")
    psi = np.exp(1j * thetas) / np.sqrt(d)
    return np.outer(psi, psi.conj())


def haar_random_kets(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unit vectors as rows of an (n, d) complex array.

    Standard complex Gaussian components normalized to unit length; the
    global phase is fixed by making the first nonzero amplitude real
    nonnegative so repeated runs are bit-reproducible.
    """
    if d < 2:
        raise InvalidDimensionError(f"need d >= 2, got {d}")
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    lead = z[:, 0].copy()
    lead[lead == 0] = 1.0  # Gaussian draws are never exactly zero; keeps division safe
    z *= (lead.conj() / np.abs(lead))[:, None]
    return z


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterOutOfRangeError(f"need seed >= 0, got {seed}")
    return np.random.default_rng(seed)


def haar_random_pure(d: int, seed: int) -> np.ndarray:
    """Projector of one Haar-random pure state, deterministic for a seed >= 0."""
    psi = haar_random_kets(d, 1, _rng(seed))[0]
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class GeneralizedBloch:
    """Coordinates x_i = Tr[rho L_i] in a HermitianBasis.

    coords = chi * unit_dir with |unit_dir| = 1; unit_dir is None when
    chi = 0 (maximally mixed input, direction undefined).
    """

    dim: int
    coords: np.ndarray
    chi: float
    unit_dir: np.ndarray | None


def to_generalized_bloch(rho: np.ndarray, basis: HermitianBasis) -> GeneralizedBloch:
    """Expand rho = I/d + (1/2) sum_i x_i L_i and split x into chi * n."""
    d = basis.dim
    rho = _require_shape(rho, (d, d), "rho")
    require_finite(rho, "rho")
    coords = np.array([np.trace(rho @ g).real for g in basis.generators])
    chi = float(np.linalg.norm(coords))
    unit = coords / chi if chi > 0.0 else None
    return GeneralizedBloch(dim=d, coords=coords, chi=chi, unit_dir=unit)


def from_generalized_bloch(coords: np.ndarray, basis: HermitianBasis) -> np.ndarray:
    """Inverse of to_generalized_bloch: I/d + (1/2) sum_i x_i L_i."""
    d = basis.dim
    coords = _require_shape(coords, (d * d - 1,), "coords", float)
    require_finite(coords, "coords")
    rho = np.eye(d, dtype=complex) / d
    for x, g in zip(coords, basis.generators):
        rho += 0.5 * x * g
    return rho


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
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    if "bloch" in obj:
        return from_bloch(np.asarray(_json_numbers(obj, ("bloch",), "state")[0], dtype=float))
    if "matrix" not in obj:
        raise ValueError('state JSON needs a "matrix" or "bloch" key')
    rho = complex_matrix_from_json(obj["matrix"])
    _wire_dim(obj, len(rho))
    try:
        assert_density_matrix(rho)
    except NotDensityMatrixError as exc:
        raise ValueError(f'"matrix" is not a density matrix: {exc}') from exc
    return rho
