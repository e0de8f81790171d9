"""Concentration-of-measure experiments for coherence under noisy evolution.

Exponential tail bounds for Lipschitz functions of Haar-random pure states,
the Lipschitz constant of the scaled l1 coherence, Monte Carlo estimates of
the mean output coherence, and end-to-end tail experiments comparing
empirical frequencies against the bounds.

Channels may be passed either as a single KrausChannel or as any iterable of
KrausChannel tensor factors (left to right). A single factor never builds its
d^4 transfer matrix; a product runs `_product_blocks`. README's "Numerical
conventions" gives each path's formula and memory bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .channels import _CHUNK_BYTES, KrausChannel, _apply
from .coherence import c_l1
from .errors import InvalidDimensionError, ParameterOutOfRangeError
from .linalg import _require_array, _require_int, _require_real
from .states import _rng, haar_random_kets

DEFAULT_SAMPLES = 10_000
# Bytes a `_product_blocks` block holds at once, sized to one core's L2 cache.
_BLOCK_BYTES = 4 * 2**20


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
    """Apply a channel (or tensor factors, left to right) to a state batch. A single factor
    goes through its Kraus stack in chunks that fit `_CHUNK_BYTES`, a product through
    `_product_blocks`: the legs' cached `transfer`s (dk^4 entries, as `classify` builds).
    Raises DimensionMismatchError unless rhos is (b, d, d), NonFiniteError on NaN or inf."""
    factors, d = _normalize_factors(channel)
    rhos = _require_array(rhos, (None, d, d), "batch")
    if len(factors) > 1:
        return _product_blocks(factors, rhos, _natural)
    k = factors[0].kraus_ops[:, None]  # a state holds two (n_ops, d, d) products
    step = max(1, _CHUNK_BYTES // (32 * k.size))
    return np.concatenate([_apply(k, rhos[i:i + step]) for i in range(0, max(len(rhos), 1), step)])


def _product_blocks(factors: list[KrausChannel], inputs: np.ndarray, reduce, group: int = 1):
    """reduce(Phi(block), dims) on blocks of whole `group`s of (n, d) kets, each taken as
    |psi><psi|, or of (n, d, d) states, concatenated. Adjacent legs merge while their
    dimension D_g is at most 4. A block of b is laid out (D1, D1, D2, D2, ..., b): kets as
    rows (D1, 1, D2, 1, ..., b) times conjugate columns (1, D1, 1, D2, ..., b). Each group's
    GEMM with its transfer moves its pair behind the batch, so reduce gets (b, d^2) in pair
    order. A block fits `_BLOCK_BYTES` at three d x d arrays a ket; its two buffers are reused."""
    groups = []  # (D_g, the transfer of the group's legs' product)
    for f in factors:
        if groups and groups[-1][0] * f.dim <= 4:
            (a, t), c = groups.pop(), f.dim
            t = np.kron(t, f.transfer).reshape((a, a, c, c) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7)
            groups.append((a * c, t.reshape((a * c) ** 2, -1)))
        else:
            groups.append((f.dim, f.transfer))
    dims = [D for D, _ in groups]
    n, d, k, kets = len(inputs), int(np.prod(dims)), len(dims), inputs.ndim == 2
    pairs = [D for D in dims for _ in (0, 1)]
    inputs = inputs.T if kets else inputs.reshape(n, *dims, *dims).transpose(
        [ax for g in range(1, k + 1) for ax in (g, k + g)] + [0])
    step = group * max(1, _BLOCK_BYTES // (48 * d * d * group))
    x, spare = np.empty((2, min(step, n) * d * d), dtype=complex)
    results = []
    for start in range(0, max(n, 1), step):  # an empty batch runs one empty block
        block, b = inputs[..., start:start + step], min(step, n - start)
        xb, sb = x[:b * d * d], spare[:b * d * d]
        if kets:
            np.multiply(block.reshape(*[s for D in dims for s in (D, 1)], b),
                        block.conj().reshape(*[s for D in dims for s in (1, D)], b),
                        out=xb.reshape(*pairs, b))
        else:
            xb.reshape(*pairs, b)[...] = block
        for D, t in groups:
            np.matmul(xb.reshape(D * D, -1).T, t.T, out=sb.reshape(-1, D * D))
            xb, sb = sb, xb
        results.append(reduce(xb.reshape(b, d * d), dims))
    return np.concatenate(results)


def _natural(out: np.ndarray, dims: list[int]) -> np.ndarray:
    """Pair-order outputs (b, d^2) of `_product_blocks` as a new (b, d, d) array."""
    b, k, d = len(out), len(dims), int(np.prod(dims))
    pairs = out.reshape(b, *[D for D in dims for _ in (0, 1)])
    return pairs.transpose(0, *range(1, 2 * k, 2), *range(2, 2 * k + 1, 2)).copy().reshape(b, d, d)


def _pair_c_l1(out: np.ndarray, dims: list[int]) -> np.ndarray:
    """c_l1 of pair-order outputs (b, d^2): the sum of |x| less the diagonal, every
    (D_g + 1)-th entry along each group's pair axis."""
    mags = np.abs(out)
    diag = mags.reshape(len(out), *[D * D for D in dims])[
        (slice(None), *[slice(None, None, D + 1) for D in dims])]
    return mags.sum(axis=1) - diag.sum(axis=tuple(range(1, len(dims) + 1)))


def _pure_outputs(factors: list[KrausChannel], kets: np.ndarray) -> np.ndarray:
    """Phi(|psi><psi|) per ket for a single factor, through W = kets K^T."""
    b = len(kets)
    kstack = factors[0].kraus_ops
    m, d, _ = kstack.shape
    w = (kets @ kstack.reshape(m * d, d).T).reshape(b, m, d)
    return w.transpose(0, 2, 1) @ w.conj()


def _sample_output_coherences(channel, samples: int, seed: int) -> np.ndarray:
    """c_l1 of Phi(|psi><psi|) per Haar ket: (sum |w|)^2 - sum |w|^2, w = K psi, for one K;
    |psi|^T W |psi|, W = |D^T conj(D)| off the diagonal, for diagonal K_n; else `_by_chunk`."""
    factors, d = _normalize_factors(channel)
    kets = haar_random_kets(d, samples, _rng(seed))
    if len(factors) > 1:
        return _product_blocks(factors, kets, _pair_c_l1)
    diag = factors[0].kraus_diagonals
    if factors[0].n_ops == 1:
        mags = np.abs(kets * diag[0] if diag is not None else kets @ factors[0].kraus_ops[0].T)
        return mags.sum(axis=1) ** 2 - (mags**2).sum(axis=1)
    if diag is not None:
        mags, weights = np.abs(kets), np.abs(diag.T @ diag.conj())
        np.fill_diagonal(weights, 0.0)
        return ((mags @ weights) * mags).sum(axis=1)
    return _by_chunk(c_l1, factors, kets)


def _by_chunk(reduce, factors: list[KrausChannel], kets: np.ndarray, group: int = 1) -> np.ndarray:
    """reduce(Phi(|psi><psi|)) in natural order on chunks of whole `group`s of kets,
    concatenated; a product runs `_product_blocks`. For one factor a ket holds w, its
    conjugate and two d x d arrays; a chunk fits `_CHUNK_BYTES`, and its outputs are freed
    before the next chunk's are built. The rank-1 and Schur paths run unchunked."""
    if len(factors) > 1:
        return _product_blocks(factors, kets, lambda out, dims: reduce(_natural(out, dims)), group)
    d = kets.shape[1]
    step = group * max(1, _CHUNK_BYTES // (16 * group * 2 * d * (factors[0].n_ops + d)))
    return np.concatenate([reduce(_pure_outputs(factors, kets[start:start + step]))
                           for start in range(0, len(kets), step)])


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

    d is an integer >= 2, samples an integer >= 1 and seed an integer >= 0. d, samples,
    epsilons (an iterable) and eta_channel are checked before sampling; eta_channel defaults
    to 1, admissible since channels contract the trace norm (contraction_check confirms it).
    """
    samples = _require_int(samples, 1, "samples")
    eta_c = lipschitz_scaled_l1(d)
    if not np.iterable(epsilons):
        raise ParameterOutOfRangeError(f"need an iterable of epsilons, got {epsilons!r}")
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
    below 1. samples is an integer >= 1 and seed an integer >= 0. Only outputs are
    diagonalized: an input pair's ||psi psi^+ - phi phi^+||_1 = 2 sqrt(1 - |c|^2),
    c = <phi|psi>, is read as 2 sqrt(g (2 - g)) with g = 1 - |c| = ||psi - e^{i arg c} phi||^2 / 2,
    which does not cancel for near-parallel pairs.
    """
    samples = _require_int(samples, 1, "samples")
    factors, d = _normalize_factors(channel)
    kets = haar_random_kets(d, 2 * samples, _rng(seed))
    psi, phi = kets[0::2], kets[1::2]
    phase = np.exp(1j * np.angle((phi.conj() * psi).sum(axis=1)))[:, None]
    g = (np.abs(psi - phase * phi) ** 2).sum(axis=1) / 2
    denom = 2.0 * np.sqrt(g * (2.0 - g))
    numer = _by_chunk(lambda outs: np.abs(np.linalg.eigvalsh(outs[0::2] - outs[1::2])).sum(1),
                      factors, kets, group=2)
    ratios = np.divide(numer, denom, out=np.zeros_like(numer), where=denom >= 1e-12)
    return float(ratios.max())
