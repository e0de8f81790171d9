"""Dense linear-algebra kernels shared by the rest of the package.

Everything here is plain numpy on small complex matrices: the argument
checks, density-matrix eigenvalues, trace distance, von Neumann entropy
(base-2 logs), partial transpose/trace on a d x d bipartition, and the
generalized Gell-Mann basis of su(d) as one read-only array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NonFiniteError,
    NotDensityMatrixError,
    NotHermitianError,
    ParameterOutOfRangeError,
)

# Numerical tolerances (double precision, dimensions up to a few hundred).
TOL_HERM = 1e-9    # max |A_ij - conj(A_ji)| accepted as Hermitian
TOL_PSD = 1e-9     # eigenvalues >= -TOL_PSD count as nonnegative
TOL_TRACE = 1e-10  # unit-trace slack for density matrices

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
_REALS = (int, float, np.integer, np.floating)  # and not bool, in `_require_real`


def require_finite(a, what: str) -> None:
    """Raise NonFiniteError on a NaN or infinite entry (NaN > tol is False)."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} has a NaN or infinite entry")


def _require_real(value, what: str, low: float, high=math.inf, above=False) -> float:
    """value as a float: a finite Python or NumPy real, not a bool, in [low, high] (in
    (low, high] if `above`), else ParameterOutOfRangeError stating the rule."""
    try:
        x = float(value) if isinstance(value, _REALS) and not isinstance(value, bool) else math.nan
    except OverflowError:  # a Python int past the largest float
        x = math.nan
    if (low < x if above else low <= x) and x <= high and math.isfinite(x):
        return x
    if high < math.inf:
        interval = f"{'(' if above else '['}{low:g}, {high:g}]"
        rule = f"|{what}| <= {high:g}" if low == -high else f"{what} in {interval}"
    else:
        rule = f"a finite {what} {'>' if above else '>='} {low:g}"
    raise ParameterOutOfRangeError(f"need {rule}, got {value!r}")


def _require_tol(tol) -> float:
    """tol as a float, finite and > 0."""
    return _require_real(tol, "tol", 0.0, above=True)


def _require_int(value, low: int, what: str, error=ParameterOutOfRangeError) -> int:
    """value as an int >= low, else raises `error`; a Python or NumPy integer, not a bool."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"need an integer {what} >= {low}, got {value!r}")
    if value < low:
        raise error(f"need {what} >= {low}, got {value}")
    return int(value)


def _require_shape(a, shape: tuple | None, what: str, dtype=complex) -> np.ndarray:
    """a as a `dtype` array of numbers, real ones if dtype is float (bools read as 0 and 1;
    else ParameterOutOfRangeError, also for a ragged nesting), of exactly `shape`, where a
    leading None matches any length, else DimensionMismatchError. shape=None means square,
    of its own size, with side >= 1 (InvalidDimensionError if empty); shape=... any shape."""
    rule, kinds = ("real", "biuf") if dtype is float else ("numeric", "biufc")
    try:
        got = np.asarray(a)
    except ValueError:  # numpy refuses a ragged nesting
        got = None
    if got is None or got.dtype.kind not in kinds:
        given = "a ragged nesting" if got is None else f"dtype {got.dtype}"
        raise ParameterOutOfRangeError(f"need a {rule} {what}, got {given}")
    shape = got.shape if shape is ... else shape
    if shape is None:  # square, of its own size
        if got.size == 0:
            raise InvalidDimensionError(f"{what} has shape {got.shape}: need d >= 1, got 0")
        shape = (math.isqrt(got.size),) * 2
    elif shape[:1] == (None,):
        shape = got.shape[:1] + shape[1:]
    if got.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {got.shape}, expected {shape}")
    return got.astype(dtype, copy=False)


def _require_array(a, shape: tuple | None, what: str, dtype=complex) -> np.ndarray:
    """`_require_shape`, then NonFiniteError on a NaN or infinite entry."""
    a = _require_shape(a, shape, what, dtype)
    require_finite(a, what)
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-abs deviation of a from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """||rho - sigma||_1 = sum |eig(rho - sigma)|, in [0, 2] for states.

    Note there is no factor 1/2: orthogonal pure states are at distance 2,
    and for qubits the value equals the Euclidean Bloch-vector distance.
    Raises NotHermitianError if rho - sigma is not Hermitian within TOL_HERM.
    """
    rho = _require_array(rho, None, "rho")
    sigma = _require_array(sigma, rho.shape, "sigma")
    diff = rho - sigma
    defect = hermiticity_defect(diff)  # eigvalsh reads one triangle only
    if defect > TOL_HERM:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {TOL_HERM:.3e}")
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, validated and clamped.

    Checks Hermiticity (TOL_HERM), unit trace (TOL_TRACE) and positivity
    (eigenvalues >= -TOL_PSD); round-off negatives are clamped to 0.
    Raises NonFiniteError on a NaN or infinite entry and
    NotDensityMatrixError on any other violation.
    """
    rho = _require_shape(rho, ..., "rho")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise NotDensityMatrixError(f"expected a square matrix of side >= 1, got shape {rho.shape}")
    require_finite(rho, "density matrix")
    if hermiticity_defect(rho) > TOL_HERM:
        raise NotDensityMatrixError("matrix is not Hermitian within tolerance")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(TOL_TRACE, 1e-12 * rho.shape[0]):
        raise NotDensityMatrixError(f"trace {tr} differs from 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -TOL_PSD:
        raise NotDensityMatrixError(f"negative eigenvalue {w.min():.3e}")
    return np.clip(w, 0.0, None)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -sum lambda log2 lambda, with 0 log 0 = 0."""
    w = density_eigenvalues(rho)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def partial_transpose(mat: np.ndarray, d: int) -> np.ndarray:
    """Transpose the second factor of a (d x d) otimes (d x d) matrix.

    An involution: applying it twice returns the input. d is an integer >= 1.
    """
    d = _require_int(d, 1, "d", InvalidDimensionError)
    mat = _require_shape(mat, (d * d, d * d), "mat")
    t = mat.reshape(d, d, d, d)
    return t.transpose(0, 3, 2, 1).reshape(d * d, d * d)


def partial_trace(mat: np.ndarray, d: int, keep: int) -> np.ndarray:
    """Trace out one factor of a (d x d) otimes (d x d) matrix.

    keep=0 keeps the first tensor factor, keep=1 the second; d is an integer >= 1.
    """
    d = _require_int(d, 1, "d", InvalidDimensionError)
    mat = _require_shape(mat, (d * d, d * d), "mat")
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)) or keep not in (0, 1):
        raise ParameterOutOfRangeError(f"need keep 0 or 1, got {keep!r}")
    return np.einsum("ikjk->ij" if keep == 0 else "kikj->ij", mat.reshape(d, d, d, d))


def generalized_gell_mann(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis of su(d): a read-only complex (d^2 - 1, d, d) array of
    traceless Hermitian generators L_i with Tr[L_i L_j] = 2 delta_ij; d is an integer >= 2.

    Ordering contract: the d(d-1)/2 off-diagonal index pairs (j, k), j < k, come first in
    lexicographic order, each contributing its symmetric generator |j><k| + |k><j|
    immediately followed by its antisymmetric partner -i|j><k| + i|k><j|; the d-1
    diagonal generators come last. d=2 yields (sigma_x, sigma_y, sigma_z).
    """
    d = _require_int(d, 2, "d", InvalidDimensionError)
    gens = np.zeros((d * d - 1, d, d), dtype=complex)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for r, (j, k) in enumerate(pairs):
        gens[2 * r, [j, k], [k, j]] = 1.0
        gens[2 * r + 1, [j, k], [k, j]] = -1.0j, 1.0j
    for l in range(1, d):
        scale = np.sqrt(2.0 / (l * (l + 1)))
        gens[d * d - d + l - 1] = np.diag([scale] * l + [-l * scale] + [0.0] * (d - l - 1))
    gens.flags.writeable = False
    return gens
