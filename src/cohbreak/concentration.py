"""Concentration-of-measure experiments for coherence under noisy evolution.

Exponential tail bounds for Lipschitz functions of Haar-random pure states,
the Lipschitz constant of the scaled l1 coherence, Monte Carlo estimates of
the mean output coherence, and end-to-end tail experiments comparing
empirical frequencies against the bounds.

Channels may be passed either as a single KrausChannel or as any iterable of
KrausChannel tensor factors (left to right), applied leg by leg through each
leg's cached `transfer` (dk^4 entries). A single factor on pure inputs never
builds its d^4 transfer matrix. A rank-1 channel gives
c_l1 = (sum |w|)^2 - sum |w|^2 from w = K psi, elementwise for a diagonal K
(the identity, diagonal unitaries). Diagonal Kraus operators D[n] = diag(K_n)
make a Schur multiplier, Phi(rho)_ij = M_ij rho_ij with M = D^T conj(D), so
c_l1 = |psi|^T W |psi| with W = |M| off the diagonal: one (b, d) x (d, d)
product. Any other single factor goes through its (n_ops, d, d) `kraus_ops`
in one GEMM, and a product forms |psi><psi| in leg-pair order and runs the
legs in two alternating buffers. Those two run in chunks sized so that
everything a chunk holds at once fits the `_CHUNK_BYTES` byte budget, and
`coherence.c_l1` reads each chunk's outputs as one batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .channels import KrausChannel
from .coherence import c_l1
from .errors import InvalidDimensionError, ParameterOutOfRangeError
from .linalg import _require_int, _require_real, _require_shape, require_finite
from .states import _rng, haar_random_kets

DEFAULT_SAMPLES = 10_000
# Bytes a chunk holds at once; `_sample_entries` counts a sample's share.
_CHUNK_BYTES = 32 * 2**20


def levy_bound(d: int, epsilon: float, eta_c: float, eta_ch: float) -> float:
    """Tail bound 2 exp(-d eps^2 / (18 pi^3 eta_c^2 eta_ch^2 ln 2)), integer d >= 1, eps >= 0.

    eta_c > 0 is the Lipschitz constant of the coherence measure with respect to trace
    distance and eta_ch > 0 the channel's trace-norm contraction factor; all three are finite.
    """
    d = _require_int(d, 1, "d")
    epsilon = _require_real(epsilon, "epsilon", 0.0)
    eta_c = _require_real(eta_c, "eta_c", 0.0, above=True)
    eta_ch = _require_real(eta_ch, "eta_ch", 0.0, above=True)
    exponent = d * epsilon**2 / (18.0 * np.pi**3 * eta_c**2 * eta_ch**2 * np.log(2.0))
    return float(2.0 * np.exp(-exponent))


def corollary_bound(d: int, epsilon: float, eta_ch: float) -> float:
    """Scaled-l1 specialization: 2 exp(-(d-1)^2 eps^2 / (18 pi^3 eta_ch^2 d ln 2)).

    Algebraically identical to levy_bound, and its rules, at eta_c = d/(d-1); integer d >= 2.
    """
    d = _require_int(d, 2, "d")
    epsilon = _require_real(epsilon, "epsilon", 0.0)
    eta_ch = _require_real(eta_ch, "eta_ch", 0.0, above=True)
    exponent = (d - 1.0) ** 2 * epsilon**2 / (18.0 * np.pi**3 * eta_ch**2 * d * np.log(2.0))
    return float(2.0 * np.exp(-exponent))


def lipschitz_scaled_l1(d: int) -> float:
    """Lipschitz constant d/(d-1) of c_l1/(d-1) with respect to trace distance, integer d >= 2."""
    d = _require_int(d, 2, "d", InvalidDimensionError)
    return d / (d - 1.0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval, z = 3, for integers 0 <= successes <= trials, trials >= 1."""
    z = 3.0
    trials = _require_int(trials, 1, "trials")
    successes = _require_int(successes, 0, "successes")
    if successes > trials:
        raise ParameterOutOfRangeError(f"need successes <= trials, got {successes} > {trials}")
    p_hat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
    return max(0.0, center - half), min(1.0, center + half)


# --- batched channel application --------------------------------------------


def _normalize_factors(channel) -> tuple[list[KrausChannel], int]:
    """The tensor factors of a channel or of an iterable of them, and their total dimension."""
    factors = [channel] if isinstance(channel, KrausChannel) else list(channel)
    if not factors or not all(isinstance(f, KrausChannel) for f in factors):
        raise TypeError("channel must be a KrausChannel or a sequence of them")
    return factors, int(np.prod([f.dim for f in factors]))


def apply_batch(channel, rhos: np.ndarray) -> np.ndarray:
    """Apply a channel (or tensor factors, left to right) to a state batch.

    The batch is reordered once to (b, d1^2, d2^2, ...), so each leg's
    (row, col) pair is one axis, and each leg is one matmul with its cached
    `transfer`: dk^4 entries, the same array `classify` builds. A matmul
    moves its leg to the back, so after the last leg the order is restored.
    Raises DimensionMismatchError unless rhos is (b, d, d), NonFiniteError on NaN or inf.
    """
    factors, d = _normalize_factors(channel)
    dims = [f.dim for f in factors]
    rhos = _require_shape(rhos, np.shape(rhos)[:1] + (d, d), "batch")
    require_finite(rhos, "batch")
    pairs = rhos.reshape(len(rhos), *dims, *dims).transpose(_pair_order(len(dims)))
    return _apply_legs(factors, pairs.copy())  # a copy: _apply_legs overwrites it


def _pair_order(n: int) -> list[int]:
    """Axes that take (b, i1..in, j1..jn) to (b, i1, j1, ..., in, jn)."""
    return [0] + [ax for k in range(1, n + 1) for ax in (k, n + k)]


def _apply_legs(factors: list[KrausChannel], pairs: np.ndarray) -> np.ndarray:
    """`apply_batch` on a contiguous (b, d1, d1, d2, d2, ...) batch, which it
    overwrites: the legs and the final reorder alternate between it and one
    spare buffer, so a sample holds two d x d arrays here."""
    dims = [f.dim for f in factors]
    b, d = len(pairs), int(np.prod(dims))
    x, spare = pairs.reshape(b, d * d), np.empty((b, d * d), dtype=complex)
    for f in factors:
        a = f.dim**2
        np.matmul(x.reshape(b, a, d * d // a).transpose(0, 2, 1), f.transfer.T,
                  out=spare.reshape(b, d * d // a, a))
        x, spare = spare, x
    out = spare.reshape(b, *dims, *dims)
    out[...] = x.reshape(pairs.shape).transpose(np.argsort(_pair_order(len(dims))))
    return out.reshape(b, d, d)


def _chunk(entries: int) -> int:
    """Samples per chunk when a sample holds `entries` complex entries at once."""
    return max(1, _CHUNK_BYTES // (16 * entries))


def _sample_entries(factors: list[KrausChannel], d: int) -> int:
    """Complex entries a chunked pure sample holds at once: w, its conjugate and two
    d x d arrays for one factor, at most three d x d arrays for a product. The
    rank-1 and Schur (diagonal Kraus) paths hold no d x d array and run unchunked."""
    return 3 * d * d if len(factors) > 1 else 2 * d * (factors[0].n_ops + d)


def _pure_outputs(factors: list[KrausChannel], kets: np.ndarray) -> np.ndarray:
    """Phi(|psi><psi|) per ket; a single factor goes through W = kets K^T, a
    product builds |psi><psi| directly in the leg-pair order of `_apply_legs`."""
    b = len(kets)
    if len(factors) > 1:
        dims, n = [f.dim for f in factors], len(factors)
        pairs = np.einsum(kets.reshape(b, *dims), [0, *range(1, n + 1)],
                          kets.conj().reshape(b, *dims), [0, *range(n + 1, 2 * n + 1)],
                          _pair_order(n))
        return _apply_legs(factors, pairs)
    kstack = factors[0].kraus_ops
    m, d, _ = kstack.shape
    w = (kets @ kstack.reshape(m * d, d).T).reshape(b, m, d)
    return w.transpose(0, 2, 1) @ w.conj()


def _sample_output_coherences(channel, samples: int, seed: int) -> np.ndarray:
    factors, d = _normalize_factors(channel)
    kets = haar_random_kets(d, samples, _rng(seed))
    diag = factors[0].kraus_diagonals if len(factors) == 1 else None
    if len(factors) == 1 and factors[0].n_ops == 1:
        mags = np.abs(kets * diag[0] if diag is not None else kets @ factors[0].kraus_ops[0].T)
        return mags.sum(axis=1) ** 2 - (mags**2).sum(axis=1)
    if diag is not None:
        mags, weights = np.abs(kets), np.abs(diag.T @ diag.conj())
        np.fill_diagonal(weights, 0.0)
        return ((mags @ weights) * mags).sum(axis=1)
    step = _chunk(_sample_entries(factors, d))
    out = np.empty(samples)
    for start in range(0, samples, step):
        out[start:start + step] = c_l1(_pure_outputs(factors, kets[start:start + step]))
    return out


def estimate_mean_coherence(channel, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean of c_l1 over `samples` (an integer >= 1) Haar-random pure inputs.

    Returns (mean, standard error); deterministic for a fixed integer seed >= 0.
    """
    samples = _require_int(samples, 1, "samples")
    values = _sample_output_coherences(channel, samples, seed)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


@dataclass
class ConcentrationReport:
    """Empirical tail frequencies of the scaled coherence against both bounds.

    Tails count |c_l1/(d-1) - mean_scaled| > epsilon. The generic bound is
    evaluated at the scaled-l1 Lipschitz constant d/(d-1), so it must agree
    with the specialized bound up to round-off.
    """

    dim: int
    samples: int
    seed: int
    channel: str
    eta_channel: float
    mean_c_l1: float
    mean_scaled: float
    epsilons: list[float] = field(default_factory=list)
    tails: list[float] = field(default_factory=list)
    tail_wilson: list[tuple[float, float]] = field(default_factory=list)
    levy_bounds: list[float] = field(default_factory=list)
    corollary_bounds: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self) | {"tail_wilson": [list(iv) for iv in self.tail_wilson]}

    @classmethod
    def from_dict(cls, data: dict) -> "ConcentrationReport":
        return cls(**data | {"tail_wilson": [tuple(iv) for iv in data["tail_wilson"]]})


def run_concentration_experiment(
    channel,
    d: int,
    samples: int,
    epsilons: Sequence[float],
    seed: int,
    eta_channel: float = 1.0,
    label: str | None = None,
) -> ConcentrationReport:
    """Sample Haar inputs, push them through the channel, tabulate tails.

    samples is an integer >= 1 and seed an integer >= 0; epsilons and eta_channel are
    checked before sampling. eta_channel defaults to 1, which is always admissible
    because channels contract the trace norm; contraction_check confirms this numerically.
    """
    samples = _require_int(samples, 1, "samples")
    epsilons = [_require_real(eps, "epsilon", 0.0) for eps in epsilons]
    eta_channel = _require_real(eta_channel, "eta_channel", 0.0, above=True)
    if not epsilons:
        raise ParameterOutOfRangeError("need at least one epsilon")
    factors, dim = _normalize_factors(channel)
    if dim != d:
        raise ParameterOutOfRangeError(
            f"declared dimension {d!r} does not match channel dimension {dim}"
        )
    values = _sample_output_coherences(factors, samples, seed)
    scaled = values / (d - 1.0)
    mean_scaled = float(scaled.mean())
    report = ConcentrationReport(
        dim=dim,
        samples=samples,
        seed=int(seed),  # an integer, checked by _rng when sampling
        channel=label if label is not None else _describe(factors),
        eta_channel=eta_channel,
        mean_c_l1=float(values.mean()),
        mean_scaled=mean_scaled,
    )
    eta_c = lipschitz_scaled_l1(d)
    for eps in epsilons:
        exceed = int((np.abs(scaled - mean_scaled) > eps).sum())
        report.epsilons.append(eps)
        report.tails.append(exceed / samples)
        report.tail_wilson.append(wilson_interval(exceed, samples))
        report.levy_bounds.append(levy_bound(d, eps, eta_c, eta_channel))
        report.corollary_bounds.append(corollary_bound(d, eps, eta_channel))
    return report


def _describe(factors: list[KrausChannel]) -> str:
    return " (x) ".join(f"kraus(dim={f.dim}, ops={f.n_ops})" for f in factors)


def contraction_check(channel, samples: int, seed: int) -> float:
    """Largest sampled trace-norm contraction ratio of the channel.

    Ratio ||Phi(rho) - Phi(sigma)||_1 / ||rho - sigma||_1 maximized over
    sampled pure-state pairs; monotonicity of the trace norm keeps it at or
    below 1. samples is an integer >= 1 and seed an integer >= 0.
    """
    samples = _require_int(samples, 1, "samples")
    factors, d = _normalize_factors(channel)
    kets = haar_random_kets(d, 2 * samples, _rng(seed))
    worst = 0.0
    step = 2 * _chunk(2 * _sample_entries(factors, d))
    for start in range(0, 2 * samples, step):
        block = kets[start:start + step]
        rhos = np.einsum("bi,bj->bij", block, block.conj())
        outs = _pure_outputs(factors, block)
        # Trace norms of the input, then the output, pair differences: one eigvalsh.
        diffs = np.concatenate([rhos[0::2] - rhos[1::2], outs[0::2] - outs[1::2]])
        denom, numer = np.split(np.abs(np.linalg.eigvalsh(diffs)).sum(axis=1), 2)
        ratios = np.divide(numer, denom, out=np.zeros_like(numer), where=denom >= 1e-12)
        worst = max(worst, float(ratios.max()))
    return worst
