"""Coherence quantifiers in the fixed computational reference basis.

The reference basis is global and never a parameter: to study coherence in
another basis, rotate the states or channels instead.
"""

from __future__ import annotations

import numpy as np

from .linalg import _require_tol, von_neumann_entropy

DEFAULT_INCOHERENCE_TOL = 1e-9


def c_l1(rho: np.ndarray) -> float | np.ndarray:
    """l1 norm of coherence: sum of |rho_ij| over off-diagonal entries.

    Ranges from 0 (diagonal states) to d - 1 (maximally coherent states).
    One d x d matrix gives a float, a (b, d, d) batch an array of b values.
    """
    mags = np.abs(np.asarray(rho, dtype=complex))
    diag = np.arange(min(mags.shape[-2:]))
    mags[..., diag, diag] = 0.0
    return float(mags.sum()) if mags.ndim == 2 else mags.sum(axis=(-2, -1))


def dephase(rho: np.ndarray) -> np.ndarray:
    """Diagonal part of rho in the reference basis; idempotent."""
    rho = np.asarray(rho, dtype=complex)
    return np.diag(np.diag(rho))


def c_relative_entropy(rho: np.ndarray) -> float:
    """Relative entropy of coherence S(Delta(rho)) - S(rho), in bits."""
    entropy = von_neumann_entropy(rho)  # validates rho before it is dephased
    return max(von_neumann_entropy(dephase(rho)) - entropy, 0.0)


def is_incoherent_state(rho: np.ndarray, tol: float = DEFAULT_INCOHERENCE_TOL) -> bool:
    """True iff every off-diagonal magnitude is at most tol, a finite tol > 0."""
    tol = _require_tol(tol)
    rho = np.asarray(rho, dtype=complex)
    off = np.abs(rho - np.diag(np.diag(rho)))
    return bool(off.max() <= tol) if off.size else True
