"""Dense linear-algebra kernels shared by the rest of the package.

Everything here is plain numpy on small complex matrices: Hermitian
eigendecompositions, trace norms, von Neumann entropy (base-2 logs
throughout), partial transpose/trace on a d x d bipartition, and the
generalized Gell-Mann generator basis of su(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _require_shape(a, shape: tuple, what: str, dtype=complex) -> np.ndarray:
    """np.asarray(a, dtype); raises DimensionMismatchError unless it has exactly that shape."""
    a = np.asarray(a, dtype=dtype)
    if a.shape != shape:
        raise DimensionMismatchError(f"{what} has shape {a.shape}, expected {shape}")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Max-abs deviation of a from its conjugate transpose."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max())


def hermitian_eigendecomposition(
    a: np.ndarray, tol: float = TOL_HERM
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Raises NotHermitianError if the Hermiticity defect exceeds tol (a finite real > 0).
    """
    tol = _require_tol(tol)
    a = _require_shape(a, (math.isqrt(np.size(a)),) * 2, "matrix a")  # square, of its size
    require_finite(a, "matrix a")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    w, v = np.linalg.eigh(a)
    return w, v


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """||rho - sigma||_1 = sum |eig(rho - sigma)|, in [0, 2] for states.

    Note there is no factor 1/2: orthogonal pure states are at distance 2,
    and for qubits the value equals the Euclidean Bloch-vector distance.
    """
    rho = _require_shape(rho, (math.isqrt(np.size(rho)),) * 2, "rho")  # square, of its size
    sigma = _require_shape(sigma, rho.shape, "sigma")
    require_finite(rho, "rho")
    require_finite(sigma, "sigma")
    return float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, validated and clamped.

    Checks Hermiticity (TOL_HERM), unit trace (TOL_TRACE) and positivity
    (eigenvalues >= -TOL_PSD); round-off negatives are clamped to 0.
    Raises NonFiniteError on a NaN or infinite entry and
    NotDensityMatrixError on any other violation.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotDensityMatrixError(f"expected a square matrix, got shape {rho.shape}")
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


def assert_density_matrix(rho: np.ndarray) -> None:
    """Raise NotDensityMatrixError unless rho is a valid density matrix."""
    density_eigenvalues(rho)


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
    t = mat.reshape(d, d, d, d)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ParameterOutOfRangeError(f"need keep 0 or 1, got {keep!r}")


@dataclass(frozen=True)
class HermitianBasis:
    """Ordered traceless Hermitian generators of su(d), Tr[L_i L_j] = 2 delta_ij.

    Ordering contract: the (d^2-d)/2 off-diagonal index pairs (j, k), j < k,
    come first in lexicographic order, each contributing its symmetric
    generator |j><k| + |k><j| immediately followed by its antisymmetric
    partner -i|j><k| + i|k><j|; the d-1 diagonal generators come last.
    """

    dim: int
    generators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != self.dim * self.dim - 1:
            raise InvalidDimensionError(
                f"su({self.dim}) needs {self.dim ** 2 - 1} generators, "
                f"got {len(self.generators)}"
            )

    @property
    def n_offdiag_pairs(self) -> int:
        return (self.dim * self.dim - self.dim) // 2


def generalized_gell_mann(d: int) -> HermitianBasis:
    """Generalized Gell-Mann basis of su(d) under the ordering contract above.

    d=2 yields (sigma_x, sigma_y, sigma_z); d is an integer >= 2.
    """
    d = _require_int(d, 2, "d", InvalidDimensionError)
    gens: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = 1.0
            sym[k, j] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            gens.append(sym)
            gens.append(asym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[:l, :l] = np.eye(l)
        diag[l, l] = -l
        gens.append(diag * np.sqrt(2.0 / (l * (l + 1))))
    return HermitianBasis(dim=d, generators=tuple(g for g in gens))
