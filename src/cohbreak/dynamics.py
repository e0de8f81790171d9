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

from .channels import _CHUNK_BYTES, KrausChannel, QubitAffine, _apply, _coherent_rows, apply
from .classifiers import DEFAULT_TOL, _given_or_canonical, is_incoherent_kraus
from .coherence import _l1, c_l1
from .errors import HypothesisViolatedError, IncoherentInputError, NotIncoherentChannelError
from .linalg import _require_array, _require_int, _require_shape, _require_tol, require_finite

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
    """Certify the incoherent Kraus pattern on the ladder that `classify` uses:
    returns "given", "via-cbc" or "canonical", else raises NotIncoherentChannelError
    with the pattern witnesses of the given and the canonical set. tol must be
    finite and > 0 (ParameterOutOfRangeError otherwise)."""
    tol = _require_tol(tol)
    decomposition, witnesses = _incoherent_ladder(channel, tol)
    if decomposition is None:
        raise NotIncoherentChannelError(
            "no incoherent Kraus pattern found "
            f"(given: {witnesses['given']}, canonical: {witnesses['canonical']})"
        )
    return decomposition


def _incoherent_ladder(channel: KrausChannel, tol: float):
    """The incoherent-Kraus ladder via CBC, run once per channel and tol: the channel keeps it."""
    if tol not in channel._ladder:
        channel._ladder[tol] = _given_or_canonical(is_incoherent_kraus, channel, tol, cbc=True)
    return channel._ladder[tol]


def _first_breaking_power(t: np.ndarray, rows, cap: int, tol: float) -> IndexResult:
    """Least n <= cap whose power t^n = t^(n-1) t has every entry of the
    coherent output rows at most tol; the residual is their largest entry."""
    cap = _require_int(cap, 1, "cap")
    residuals: list[float] = []
    power = t
    for n in range(1, cap + 1):
        if n > 1:
            power = power @ t
        residuals.append(float(np.abs(power[rows]).max(initial=0.0)))
        if residuals[-1] <= tol:
            return IndexResult(value=n, cap=cap, residuals=tuple(residuals))
    return IndexResult(value=None, cap=cap, residuals=tuple(residuals))


def coherence_breaking_index(
    channel: KrausChannel, cap: int = DEFAULT_INDEX_CAP, tol: float = DEFAULT_TOL
) -> IndexResult:
    """Least n with an all-diagonal matrix-unit image for the n-th power.

    The channel must certify incoherent, which checks tol as
    `certify_incoherent` does. The residual of T^n is the largest
    off-diagonal entry of any matrix-unit image, as in `is_cbc`. Exhausting
    the cap, an integer >= 1, is a result, not an error.
    """
    certify_incoherent(channel, tol)
    return _first_breaking_power(channel.transfer, _coherent_rows(channel.dim), cap, tol)


def coherence_breaking_index_affine(
    rep: QubitAffine, cap: int = DEFAULT_INDEX_CAP, tol: float = DEFAULT_TOL
) -> IndexResult:
    """Breaking index on the powers of the pair's Pauli transfer matrix, as in
    `is_cbc_affine`; cap is an integer >= 1 and tol finite and > 0."""
    tol = _require_tol(tol)
    return _first_breaking_power(rep.transfer, rep.COHERENT_ROWS, cap, tol)


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


def evolve(state: np.ndarray, channel: KrausChannel, steps: int,
           tol: float = DEFAULT_SUDDEN_DEATH_TOL) -> CoherenceTrajectory:
    """Track c_l1 over `steps` (an integer >= 1) channel applications, a stroboscopic
    run; sudden death is the first step at most tol, a finite tol > 0. A step is T vec(rho)
    on the cached `transfer` if its d^4 multiply-adds undercut `apply`'s 2 n_ops d^3
    (d < 2 n_ops) and T fits `_CHUNK_BYTES`; otherwise it is `apply`, and no T is built."""
    steps = _require_int(steps, 1, "steps")
    tol = _require_tol(tol)
    d = channel.dim
    state = _require_array(state, (d, d), "state")
    t = channel.transfer if d < 2 * channel.n_ops and 16 * d**4 <= _CHUNK_BYTES else None
    values = [c_l1(state)]
    for _ in range(steps):
        state = apply(channel, state) if t is None else (t @ state.ravel()).reshape(d, d)
        values.append(c_l1(state))
    death = next((j for j, c in enumerate(values) if c <= tol), None)
    return CoherenceTrajectory(steps=tuple(enumerate(values)), sudden_death_step=death,
                               tolerance=tol)


@dataclass(frozen=True, eq=False)
class ProbeState:
    """Unit-coherence companion of a state along its traceless direction.

    With H the Hermitian part of the source and rho_0 = H - (Tr H / d) I,
    rho_P = I/d + rho_0 / c_l1(rho_0), so c_l1(rho_P) is exactly 1, and
    chi_P = sqrt(2) ||rho_0||_F / c_l1(rho_0) is the length of rho_P's
    generalized-Bloch vector. For strongly mixed sources with a large
    diagonal component the probe may leave the state set (an indefinite
    matrix); the factorization law is linear and unaffected.
    """

    state: np.ndarray
    chi_p: float


def probe_state(state: np.ndarray) -> ProbeState:
    """Probe along the source's traceless direction, normalized to unit coherence.

    Raises DimensionMismatchError unless the source is square (InvalidDimensionError
    if it is 0 x 0), NonFiniteError on a NaN or infinite entry, and
    IncoherentInputError when the source has no traceless component or no
    off-diagonal component (c_l1(rho_0) would divide by zero).
    """
    return _probe(_require_array(state, None, "state"))


def _probe(h: np.ndarray) -> ProbeState:
    """`probe_state` of a checked square complex state."""
    d, eye = len(h), np.eye(len(h))
    h = (h + h.conj().T) / 2
    rho_0 = h - h.trace().real / d * eye
    norm = float(np.linalg.norm(rho_0))
    if norm == 0.0:
        raise IncoherentInputError("maximally mixed input has no direction")
    coherence = _l1(np.abs(rho_0))
    if coherence <= 0.0:
        raise IncoherentInputError("input has no off-diagonal direction component")
    chi_p = 2.0**0.5 * norm / coherence
    return ProbeState(state=eye / d + rho_0 / coherence, chi_p=chi_p)


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
    certificate held or only the diagonal-fixed-point hypothesis. tol must
    be finite and > 0. The channel keeps both facts: the certificate per tol
    and Phi(I/d)'s largest off-diagonal magnitude. Checked in order: tol, the
    state's shape, the hypothesis, then a non-finite or incoherent input.
    """
    tol = _require_tol(tol)
    state = _require_shape(state, (channel.dim, channel.dim), "state")
    decomposition, _ = _incoherent_ladder(channel, tol)
    certification = "incoherent-kraus" if decomposition else "diagonal-fixed-point"
    image_coherence, image_residual = channel._mixed_image
    if image_residual > tol:
        raise HypothesisViolatedError(
            "channel does not map the maximally mixed state to a diagonal state "
            f"(residual {image_coherence:.3e})"
        )
    require_finite(state, "rho")
    mags = np.abs(state)
    coherence = _l1(mags)  # c_l1(state); mags keeps the off-diagonal magnitudes
    if mags.max() <= tol:
        raise IncoherentInputError("factorization needs a coherent input state")
    outputs = _apply(channel.kraus_ops[:, None], np.array([state, _probe(state).state]))
    lhs, probe_image = _l1(np.abs(outputs)).tolist()
    rhs = coherence * probe_image
    return FactorizationResult(
        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), certification=certification
    )
