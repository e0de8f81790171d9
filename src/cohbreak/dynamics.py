"""Iterated-channel coherence dynamics.

Coherence breaking indices (the least power of a channel that destroys all
coherence), stroboscopic trajectories with sudden-death detection, and the
exact multiplicative law relating the coherence of a channel output to the
coherence of a probe state sharing the input's generalized-Bloch direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    KrausChannel,
    QubitAffine,
    affine_iterate,
    apply,
    choi_to_kraus,
    kraus_to_choi,
)
from .classifiers import DEFAULT_TOL, _unit_image_maxima, is_cbc_affine, is_incoherent_kraus
from .coherence import c_l1, is_incoherent_state
from .errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    IncoherentInputError,
    NotIncoherentChannelError,
    ParameterOutOfRangeError,
)
from .linalg import HermitianBasis, generalized_gell_mann
from .states import from_generalized_bloch, to_generalized_bloch

DEFAULT_INDEX_CAP = 64
DEFAULT_SUDDEN_DEATH_TOL = 1e-9


@dataclass(frozen=True)
class IndexResult:
    """Outcome of a breaking-index search.

    value is the least n <= cap whose n-th channel power maps every matrix
    unit to a diagonal matrix, or None when the cap was exhausted.
    residuals[k] is the largest off-diagonal residual of the (k+1)-th power,
    so value = n implies residuals[n-1] <= tol < residuals[n-2].
    """

    value: int | None
    cap: int
    residuals: tuple[float, ...]

    @property
    def exceeded(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return f"exceeds cap {self.cap}" if self.exceeded else str(self.value)


def certify_incoherent(channel: KrausChannel, tol: float = DEFAULT_TOL) -> str:
    """Certify the incoherent Kraus pattern on the given or canonical set.

    Returns "given" or "canonical"; raises NotIncoherentChannelError with
    the pattern witness when neither decomposition certifies.
    """
    ok, witness = is_incoherent_kraus(channel, tol)
    if ok:
        return "given"
    canonical = choi_to_kraus(kraus_to_choi(channel))
    ok, witness_c = is_incoherent_kraus(canonical, tol)
    if ok:
        return "canonical"
    raise NotIncoherentChannelError(
        f"no incoherent Kraus pattern found (given: {witness}, canonical: {witness_c})"
    )


def coherence_breaking_index(
    channel: KrausChannel, cap: int = DEFAULT_INDEX_CAP, tol: float = DEFAULT_TOL
) -> IndexResult:
    """Least n with an all-diagonal matrix-unit image for the n-th power.

    The channel must certify incoherent. The n-th power is the transfer
    matrix T^n = T^(n-1) T, and its residual is the largest off-diagonal
    entry of any matrix-unit image, as in `is_cbc`. Exhausting the cap is a
    result, not an error.
    """
    if cap < 1:
        raise ParameterOutOfRangeError(f"need cap >= 1, got {cap}")
    certify_incoherent(channel, tol)
    residuals: list[float] = []
    t = power = channel.transfer
    for n in range(1, cap + 1):
        if n > 1:
            power = power @ t
        residual = float(_unit_image_maxima(power, channel.dim)[0].max())
        residuals.append(residual)
        if residual <= tol:
            return IndexResult(value=n, cap=cap, residuals=tuple(residuals))
    return IndexResult(value=None, cap=cap, residuals=tuple(residuals))


def coherence_breaking_index_affine(
    rep: QubitAffine, cap: int = DEFAULT_INDEX_CAP, tol: float = DEFAULT_TOL
) -> IndexResult:
    """Breaking index computed entirely on the qubit affine pair."""
    if cap < 1:
        raise ParameterOutOfRangeError(f"need cap >= 1, got {cap}")
    residuals: list[float] = []
    for n in range(1, cap + 1):
        power = affine_iterate(rep, n)
        residual = max(
            float(np.abs(power.m[:2, :]).max()), float(np.abs(power.shift[:2]).max())
        )
        residuals.append(residual)
        if is_cbc_affine(power, tol):
            return IndexResult(value=n, cap=cap, residuals=tuple(residuals))
    return IndexResult(value=None, cap=cap, residuals=tuple(residuals))


@dataclass(frozen=True)
class CoherenceTrajectory:
    """l1 coherence after 0..J channel applications.

    sudden_death_step is the first step whose coherence is at most tol, or
    None if coherence stays above tol for the whole horizon. Raw values are
    recorded so a different threshold can be re-applied afterwards.
    """

    steps: tuple[tuple[int, float], ...]
    sudden_death_step: int | None
    tolerance: float

    def values(self) -> np.ndarray:
        return np.array([c for _, c in self.steps])


def evolve(
    state: np.ndarray,
    channel: KrausChannel,
    steps: int,
    tol: float = DEFAULT_SUDDEN_DEATH_TOL,
) -> CoherenceTrajectory:
    """Track c_l1 under repeated channel application (a stroboscopic run)."""
    if steps < 1:
        raise ParameterOutOfRangeError(f"need steps >= 1, got {steps}")
    state = np.asarray(state, dtype=complex)
    if state.shape != (channel.dim, channel.dim):
        raise DimensionMismatchError(
            f"state shape {state.shape} does not match channel dimension {channel.dim}"
        )
    values = [c_l1(state)]
    rho = state
    for _ in range(steps):
        rho = apply(channel, rho)
        values.append(c_l1(rho))
    death = next((j for j, c in enumerate(values) if c <= tol), None)
    return CoherenceTrajectory(
        steps=tuple(enumerate(values)), sudden_death_step=death, tolerance=tol
    )


@dataclass(frozen=True)
class ProbeState:
    """Unit-coherence companion of a state along its generalized-Bloch direction.

    rho_P = I/d + (chi_P / 2) n . Lambda where n is the source direction and
    chi_P = 1 / sum_r sqrt(n_{2r-1}^2 + n_{2r}^2) over the off-diagonal
    generator pairs, which makes c_l1(rho_P) exactly 1. For strongly mixed
    sources with a large diagonal direction component the probe may leave
    the state set (an indefinite matrix); the factorization law is linear
    and unaffected.
    """

    state: np.ndarray
    chi_p: float


def probe_state(state: np.ndarray, basis: HermitianBasis | None = None) -> ProbeState:
    """Probe along the source's direction, normalized to unit coherence.

    Raises IncoherentInputError when the source has no off-diagonal
    component (chi_P would divide by zero).
    """
    state = np.asarray(state, dtype=complex)
    if basis is None:
        basis = generalized_gell_mann(state.shape[0])
    coords = to_generalized_bloch(state, basis)
    if coords.chi == 0.0 or coords.unit_dir is None:
        raise IncoherentInputError("maximally mixed input has no direction")
    n = coords.unit_dir
    pair_sum = 0.0
    for r in range(basis.n_offdiag_pairs):
        pair_sum += float(np.hypot(n[2 * r], n[2 * r + 1]))
    if pair_sum <= 0.0:
        raise IncoherentInputError("input has no off-diagonal direction component")
    chi_p = 1.0 / pair_sum
    return ProbeState(state=from_generalized_bloch(chi_p * n, basis), chi_p=chi_p)


class FactorizationResult(NamedTuple):
    """Both sides of c_l1(Phi(rho)) = c_l1(rho) c_l1(Phi(rho_P))."""

    lhs: float
    rhs: float
    residual: float
    certification: str  # "incoherent-kraus" or "diagonal-fixed-point"


def factorization_check(
    state: np.ndarray, channel: KrausChannel, tol: float = DEFAULT_TOL
) -> FactorizationResult:
    """Evaluate the multiplicative coherence law on one state/channel pair.

    The law needs Phi(I/d) diagonal, which every incoherent channel
    satisfies; the result records whether the stronger Kraus-pattern
    certificate held or only the diagonal-fixed-point hypothesis.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (channel.dim, channel.dim):
        raise DimensionMismatchError(
            f"state shape {state.shape} does not match channel dimension {channel.dim}"
        )
    try:
        certify_incoherent(channel, tol)
        certification = "incoherent-kraus"
    except NotIncoherentChannelError:
        certification = "diagonal-fixed-point"
    mixed_image = apply(channel, np.eye(channel.dim, dtype=complex) / channel.dim)
    if not is_incoherent_state(mixed_image, tol):
        raise HypothesisViolatedError(
            "channel does not map the maximally mixed state to a diagonal state "
            f"(residual {c_l1(mixed_image):.3e})"
        )
    if is_incoherent_state(state, tol):
        raise IncoherentInputError("factorization needs a coherent input state")
    probe = probe_state(state)
    lhs = c_l1(apply(channel, state))
    rhs = c_l1(state) * c_l1(apply(channel, probe.state))
    return FactorizationResult(
        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), certification=certification
    )
