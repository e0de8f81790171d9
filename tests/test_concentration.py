import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak import concentration
from cohbreak.channels import (
    apply,
    dephasing_channel,
    gad_channel,
    haar_unitary,
    identity_channel,
    kron_channel,
    make_channel,
    partial_dephasing_channel,
    random_channel,
    unitary_channel,
)
from cohbreak.coherence import c_l1
from cohbreak.concentration import (
    _CHUNK_BYTES,
    ConcentrationReport,
    _pure_outputs,
    _sample_output_coherences,
    apply_batch,
    contraction_check,
    corollary_bound,
    estimate_mean_coherence,
    levy_bound,
    lipschitz_scaled_l1,
    run_concentration_experiment,
    wilson_interval,
)
from cohbreak.errors import InvalidDimensionError, NonFiniteError, ParameterOutOfRangeError
from cohbreak.linalg import trace_distance
from cohbreak.states import haar_random_kets
from conftest import HADAMARD, random_density_matrix


def test_levy_bound_at_zero_epsilon():
    assert levy_bound(10, 0.0, 1.0, 1.0) == 2.0


def test_levy_bound_frozen_value():
    # direct evaluation of 2 exp(-1000 * 0.01 / (18 pi^3 ln 2))
    assert abs(levy_bound(1000, 0.1, 1.0, 1.0) - 1.948963444979266) < 1e-12


def test_levy_bound_monotonicity():
    for d in (4, 16, 256):
        assert levy_bound(2 * d, 0.3, 1.0, 1.0) < levy_bound(d, 0.3, 1.0, 1.0)
    for eps in (0.1, 0.3, 0.6):
        assert levy_bound(64, eps + 0.1, 1.0, 1.0) < levy_bound(64, eps, 1.0, 1.0)


def test_levy_bound_validation():
    with pytest.raises(ParameterOutOfRangeError):
        levy_bound(8, -0.1, 1.0, 1.0)
    with pytest.raises(ParameterOutOfRangeError):
        levy_bound(8, 0.1, 0.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bounds_reject_non_finite_parameters(bad):
    for args in ((8, bad, 1.0, 1.0), (8, 0.1, bad, 1.0), (8, 0.1, 1.0, bad)):
        with pytest.raises(ParameterOutOfRangeError):
            levy_bound(*args)
    for args in ((8, bad, 1.0), (8, 0.1, bad)):
        with pytest.raises(ParameterOutOfRangeError):
            corollary_bound(*args)


def test_corollary_bound_at_zero_epsilon():
    assert corollary_bound(16, 0.0, 1.0) == 2.0


def test_corollary_bound_frozen_values():
    # direct evaluations of 2 exp(-(d-1)^2 eps^2 / (18 pi^3 d ln 2)) at d=4096
    assert abs(corollary_bound(4096, 0.05, 1.0) - 1.9477798770279797) < 1e-12
    assert abs(corollary_bound(4096, 0.5, 1.0) - 0.14191160160733265) < 1e-12
    assert corollary_bound(4096, 0.5, 1.0) < 0.2


def test_corollary_equals_levy_at_scaled_lipschitz_constant():
    for d in (2, 3, 8, 64, 1024):
        for eps in (0.01, 0.1, 0.5, 1.0):
            a = levy_bound(d, eps, lipschitz_scaled_l1(d), 1.0)
            b = corollary_bound(d, eps, 1.0)
            assert abs(a - b) < 1e-12


def test_lipschitz_constant_values():
    assert lipschitz_scaled_l1(2) == 2.0
    assert abs(lipschitz_scaled_l1(10**6) - 1.0) < 1e-5
    with pytest.raises(InvalidDimensionError):
        lipschitz_scaled_l1(1)


def test_scaled_l1_lipschitz_inequality_on_samples():
    rng = np.random.default_rng(0)
    d = 3
    bound = lipschitz_scaled_l1(d)
    for _ in range(500):
        rho = random_density_matrix(d, rng)
        sigma = random_density_matrix(d, rng)
        lhs = abs(c_l1(rho) - c_l1(sigma)) / (d - 1)
        assert lhs <= bound * trace_distance(rho, sigma) + 1e-10


def test_wilson_interval_brackets_the_estimate():
    lo, hi = wilson_interval(10, 100)
    assert 0.0 <= lo <= 0.1 <= hi <= 1.0
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0


def test_wilson_interval_needs_successes_at_most_trials():
    # A negative or non-integer count is in tests/test_int_contract.py.
    with pytest.raises(ParameterOutOfRangeError) as exc:
        wilson_interval(5, 2)
    assert str(exc.value) == "need successes <= trials, got 5 > 2"


def test_mean_coherence_of_dephasing_is_zero():
    mean, stderr = estimate_mean_coherence(dephasing_channel(2), 500, seed=1)
    assert mean == 0.0 and stderr == 0.0


def test_mean_coherence_of_qubit_identity_matches_quarter_pi():
    mean, stderr = estimate_mean_coherence(identity_channel(2), 100_000, seed=2)
    assert abs(mean - np.pi / 4) < 3 * stderr


def test_mean_coherence_is_deterministic_and_seed_consistent():
    a = estimate_mean_coherence(identity_channel(3), 20_000, seed=3)
    b = estimate_mean_coherence(identity_channel(3), 20_000, seed=3)
    assert a == b
    c = estimate_mean_coherence(identity_channel(3), 20_000, seed=4)
    se = np.hypot(a[1], c[1])
    assert abs(a[0] - c[0]) < 5 * se


def test_apply_batch_matches_kron_oracle():
    gad = gad_channel(0.7, 1.0)
    full = kron_channel(kron_channel(gad, gad), gad)
    rng = np.random.default_rng(5)
    kets = haar_random_kets(8, 16, rng)
    rhos = np.einsum("bi,bj->bij", kets, kets.conj())
    fast = apply_batch([gad, gad, gad], rhos)
    from cohbreak.channels import apply

    naive = np.stack([apply(full, rho) for rho in rhos])
    assert np.abs(fast - naive).max() < 1e-12


def test_an_iterator_of_legs_gives_the_same_report_as_the_list():
    legs = [gad_channel(0.7, 0.4), gad_channel(0.6, 0.3)]
    expected = run_concentration_experiment(legs, d=4, samples=64, epsilons=[0.1], seed=3)
    report = run_concentration_experiment(iter(legs), d=4, samples=64, epsilons=[0.1], seed=3)
    assert report == expected
    assert report.channel == "kraus(dim=2, ops=4) (x) kraus(dim=2, ops=4)"


def test_apply_batch_heterogeneous_factors():
    gad = gad_channel(0.6, 0.2)
    delta3 = dephasing_channel(3)
    full = kron_channel(gad, delta3)
    rng = np.random.default_rng(6)
    kets = haar_random_kets(6, 8, rng)
    rhos = np.einsum("bi,bj->bij", kets, kets.conj())
    fast = apply_batch([gad, delta3], rhos)
    from cohbreak.channels import apply

    naive = np.stack([apply(full, rho) for rho in rhos])
    assert np.abs(fast - naive).max() < 1e-12


def test_apply_batch_rejects_a_non_finite_batch():
    with pytest.raises(NonFiniteError, match="batch has a NaN or infinite entry"):
        apply_batch(gad_channel(0.7, 0.3), np.full((3, 2, 2), np.nan))


def test_single_factor_apply_batch_builds_no_transfer():
    # The d^4 transfer of a d = 48 factor alone is 81 MiB; its Kraus stack is 1.7 MiB.
    channel = partial_dephasing_channel(48, 0.5)
    rho = random_density_matrix(48, np.random.default_rng(8))
    tracemalloc.start()
    try:
        out = apply_batch(channel, rho[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"
    assert "transfer" not in vars(channel)
    assert np.abs(out[0] - apply(channel, rho)).max() < 1e-12


def test_single_factor_apply_batch_chunks_match_apply(monkeypatch):
    channel = random_channel(3, 2, np.random.default_rng(9))
    rhos = np.stack([random_density_matrix(3, np.random.default_rng(s)) for s in range(7)])
    monkeypatch.setattr(concentration, "_CHUNK_BYTES", 3 * 32 * channel.kraus_ops.size)
    out = apply_batch(channel, rhos)  # chunks of 3, 3 and 1 states
    assert np.abs(out - np.stack([apply(channel, rho) for rho in rhos])).max() < 1e-12
    assert apply_batch(channel, rhos[:0]).shape == (0, 3, 3)


def test_experiment_report_invariants():
    report = run_concentration_experiment(
        identity_channel(8), d=8, samples=2000, epsilons=[0.05, 0.2, 0.5], seed=7
    )
    assert report.dim == 8 and report.samples == 2000
    for tail, (lo, hi), levy, coro in zip(
        report.tails, report.tail_wilson, report.levy_bounds, report.corollary_bounds
    ):
        assert 0.0 <= tail <= 1.0
        assert lo <= tail <= hi
        assert levy >= 0.0 and coro >= 0.0
        assert abs(levy - coro) < 1e-12
    assert report.epsilons == [0.05, 0.2, 0.5]


def test_experiment_dephasing_has_zero_tails():
    report = run_concentration_experiment(
        dephasing_channel(4), d=4, samples=1000, epsilons=[0.01, 0.1], seed=8
    )
    assert report.mean_c_l1 == 0.0
    assert report.tails == [0.0, 0.0]


def test_experiment_tails_shrink_with_dimension():
    tails = {}
    for d in (8, 64):
        report = run_concentration_experiment(
            identity_channel(d), d=d, samples=10_000, epsilons=[0.05], seed=9
        )
        tails[d] = report.tails[0]
    assert tails[64] < tails[8]


def test_experiment_tails_below_nonvacuous_bounds():
    report = run_concentration_experiment(
        identity_channel(16), d=16, samples=5000, epsilons=[0.05, 0.2, 0.5, 0.9], seed=10
    )
    for tail, bound, n in zip(report.tails, report.corollary_bounds, [5000] * 4):
        if bound < 1.0:
            sigma = np.sqrt(tail * (1 - tail) / n)
            assert tail - 3 * sigma <= bound


def test_experiment_validation():
    with pytest.raises(ParameterOutOfRangeError):
        run_concentration_experiment(identity_channel(4), d=4, samples=100,
                                     epsilons=[], seed=0)
    with pytest.raises(ParameterOutOfRangeError):
        run_concentration_experiment(identity_channel(4), d=8, samples=100,
                                     epsilons=[0.1], seed=0)


def test_report_round_trip():
    report = run_concentration_experiment(
        identity_channel(4), d=4, samples=500, epsilons=[0.1], seed=11
    )
    back = ConcentrationReport.from_dict(report.to_dict())
    assert back.to_dict() == report.to_dict()


def test_contraction_of_unitary_channel_is_one():
    ratio = contraction_check(unitary_channel(HADAMARD), samples=50, seed=12)
    assert abs(ratio - 1.0) < 1e-10


@pytest.mark.parametrize("channel", [
    gad_channel(0.7, 0.4),
    [gad_channel(0.6, 0.3), dephasing_channel(2)],
    partial_dephasing_channel(3, 0.5),
], ids=["gad", "product", "partial-dephasing"])
def test_contraction_check_matches_pairwise_trace_distances(channel):
    # The same ratio as one trace_distance per pair, on the same kets.
    factors = channel if isinstance(channel, list) else [channel]
    whole = factors[0] if len(factors) == 1 else kron_channel(*factors)
    kets = haar_random_kets(whole.dim, 2 * 40, np.random.default_rng(16))
    expected = 0.0
    for psi, phi in zip(kets[0::2], kets[1::2]):
        rho, sigma = np.outer(psi, psi.conj()), np.outer(phi, phi.conj())
        ratio = trace_distance(apply(whole, rho), apply(whole, sigma)) / trace_distance(rho, sigma)
        expected = max(expected, ratio)
    assert abs(contraction_check(channel, samples=40, seed=16) - expected) < 1e-12


def test_contraction_of_noisy_channels_is_below_one():
    for channel in (dephasing_channel(2), gad_channel(0.7, 1.0)):
        ratio = contraction_check(channel, samples=100, seed=13)
        assert ratio <= 1.0 + 1e-9


def test_coherence_difference_chain_inequality():
    # |C(Phi(psi)) - C(Phi(phi))| / (d-1) <= 2 (d/(d-1)) eta ||psi - phi||_2
    rng = np.random.default_rng(14)
    d = 4
    channel = gad_channel(0.6, 0.4)
    channel4 = kron_channel(channel, channel)
    eta = contraction_check(channel4, samples=100, seed=15)
    kets = haar_random_kets(d, 400, rng)
    from cohbreak.channels import apply

    for i in range(200):
        psi, phi = kets[2 * i], kets[2 * i + 1]
        out_a = apply(channel4, np.outer(psi, psi.conj()))
        out_b = apply(channel4, np.outer(phi, phi.conj()))
        lhs = abs(c_l1(out_a) - c_l1(out_b)) / (d - 1)
        rhs = 2.0 * lipschitz_scaled_l1(d) * eta * np.linalg.norm(psi - phi)
        assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("call", [
    lambda: run_concentration_experiment(identity_channel(4), d=4, samples=10,
                                         epsilons=[0.1], seed=-1),
    lambda: estimate_mean_coherence(identity_channel(4), 10, seed=-1),
    lambda: contraction_check(gad_channel(0.7, 1.0), samples=10, seed=-1),
])
def test_negative_seed_is_out_of_range(call):
    with pytest.raises(ParameterOutOfRangeError):
        call()


# At d = 1024 the corollary bound is 0.77 at eps = 0.6 and 0.14 at eps = 1.0,
# so these tails are checked against an informative bound.
BOUND_EPSILONS = [0.6, 1.0]


def _assert_tails_within_bounds(report):
    for tail, bound in zip(report.tails, report.corollary_bounds):
        assert bound < 1.0
        sigma = np.sqrt(tail * (1.0 - tail) / report.samples)
        assert tail - 3.0 * sigma <= bound


@pytest.fixture(scope="module")
def gad_product_1024():
    """The 10-leg damping product at d = 1024, with its tracemalloc peak."""
    tracemalloc.start()
    try:
        report = run_concentration_experiment(
            [gad_channel(0.7, 1.0)] * 10, d=1024, samples=32, epsilons=BOUND_EPSILONS, seed=21
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_identity_tails_below_informative_bound_at_d1024():
    report = run_concentration_experiment(
        identity_channel(1024), d=1024, samples=2000, epsilons=BOUND_EPSILONS, seed=20
    )
    _assert_tails_within_bounds(report)


def test_gad_product_tails_below_informative_bound_at_d1024(gad_product_1024):
    _assert_tails_within_bounds(gad_product_1024[0])


def test_many_operator_channel_memory_is_bounded_by_the_chunk_budget():
    # 65 Kraus operators at d = 64: w, its conjugate and the outputs of a
    # chunk all count against the budget, not just the largest array.
    tracemalloc.start()
    try:
        estimate_mean_coherence(partial_dephasing_channel(64, 0.5), samples=512, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _CHUNK_BYTES


def test_gad_product_memory_is_bounded_by_the_chunk_budget(gad_product_1024):
    # One d = 1024 sample is 16 MiB per d x d array; 512 of them would be 8 GiB.
    assert gad_product_1024[1] < 1.5 * _CHUNK_BYTES


@settings(max_examples=25, deadline=None)
@given(legs=st.lists(st.tuples(st.sampled_from([2, 3]), st.integers(1, 3),
                               st.integers(0, 2**32 - 1)), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_apply_batch_matches_kron_channel(legs, seed):
    factors = [random_channel(dk, rank, np.random.default_rng(s)) for dk, rank, s in legs]
    full = factors[0]
    for f in factors[1:]:
        full = kron_channel(full, f)
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_density_matrix(full.dim, rng) for _ in range(3)])
    fast = apply_batch(factors if len(factors) > 1 else factors[0], rhos)
    naive = np.stack([apply(full, rho) for rho in rhos])
    assert np.abs(fast - naive).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 5, 16]), seed=st.integers(0, 2**32 - 1))
def test_rank_one_coherence_matches_full_state(d, seed):
    u = haar_unitary(d, np.random.default_rng(seed))
    values = _sample_output_coherences(unitary_channel(u), 8, seed)
    kets = haar_random_kets(d, 8, np.random.default_rng(seed)) @ u.T
    expected = [c_l1(np.outer(ket, ket.conj())) for ket in kets]
    assert np.abs(values - expected).max() < 1e-12


def random_diagonal_channel(d: int, n_ops: int, rng: np.random.Generator):
    """n_ops diagonal Kraus operators with random complex entries, sum_n |K_n,ii|^2 = 1."""
    diag = rng.normal(size=(n_ops, d)) + 1j * rng.normal(size=(n_ops, d))
    diag /= np.linalg.norm(diag, axis=0)
    return make_channel([np.diag(row) for row in diag], dim=d)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_schur_coherences_match_the_output_states(data, d, seed):
    n_ops = data.draw(st.integers(1, d + 2), label="n_ops")
    channel = random_diagonal_channel(d, n_ops, np.random.default_rng(seed))
    assert channel.kraus_diagonals is not None
    values = _sample_output_coherences(channel, 8, seed)
    expected = c_l1(_pure_outputs([channel], haar_random_kets(d, 8, np.random.default_rng(seed))))
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d", [2, 64, 256])
def test_identity_coherences_are_bit_identical_to_the_kraus_product(d):
    kets = haar_random_kets(d, 256, np.random.default_rng(9001))
    mags = np.abs(kets @ identity_channel(d).kraus_ops[0].T)
    expected = mags.sum(axis=1) ** 2 - (mags**2).sum(axis=1)
    np.testing.assert_array_equal(_sample_output_coherences(identity_channel(d), 256, 9001),
                                  expected)


def test_one_off_diagonal_entry_takes_the_general_path(monkeypatch):
    dephasing = partial_dephasing_channel(3, 0.5)
    assert dephasing.kraus_diagonals.shape == (4, 3)
    with pytest.raises(ValueError):  # read-only
        dephasing.kraus_diagonals[0, 0] = 0.0
    stack = dephasing.kraus_ops.copy()
    theta = 1e-3  # a small rotation of the first two levels keeps the set CPTP
    rotation = np.eye(3, dtype=complex)
    rotation[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    stack[0] = stack[0] @ rotation
    channel = make_channel(stack, dim=3)
    assert channel.kraus_diagonals is None
    calls = []
    original = concentration._pure_outputs
    monkeypatch.setattr(concentration, "_pure_outputs",
                        lambda factors, kets: calls.append(len(kets)) or original(factors, kets))
    values = _sample_output_coherences(channel, 16, 4)
    assert calls == [16]
    expected = c_l1(original([channel], haar_random_kets(3, 16, np.random.default_rng(4))))
    np.testing.assert_array_equal(values, expected)


# Seeds fixed in advance; E c_l1 = (pi / 4d) sum_{i != j} |M_ij| = (pi / 4) q (d - 1)
# for Haar inputs, since (|psi_i|^2) is Dirichlet(1, ..., 1).
@pytest.mark.parametrize("d, q, seed", [(8, 0.5, 3), (64, 0.5, 2), (16, 0.3, 1)])
def test_partial_dephasing_mean_matches_the_exact_haar_moment(d, q, seed):
    mean, stderr = estimate_mean_coherence(partial_dephasing_channel(d, q), 4000, seed)
    assert abs(mean - np.pi / 4 * q * (d - 1)) < 4.0 * stderr


# Triples fixed in advance. A Schur multiplier's exact Haar mean is
# (pi / 4d) sum_{i != j} |M_ij| with M = D^T conj(D), D the Kraus diagonals.
@pytest.mark.parametrize("d, n_ops, seed", [(5, 2, 11), (16, 3, 12), (48, 6, 13)])
def test_schur_multiplier_mean_matches_the_exact_haar_moment(d, n_ops, seed):
    channel = random_diagonal_channel(d, n_ops, np.random.default_rng(seed))
    diag = channel.kraus_diagonals
    weights = np.abs(diag.T @ diag.conj())
    exact = np.pi / (4 * d) * (weights.sum() - np.trace(weights))
    mean, stderr = estimate_mean_coherence(channel, 4000, seed)
    assert abs(mean - exact) < 4.0 * stderr


@pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
def test_contraction_of_near_parallel_pairs_is_one_for_the_identity(monkeypatch, eps):
    # Pairs phi ~ psi + eps xi: the input distance read off the overlap must not
    # cancel, as 2 sqrt(1 - |c|^2) does, so that the exact ratio 1 holds.
    def near_parallel_kets(d, n, rng):
        psi, xi = haar_random_kets(d, n // 2, rng), haar_random_kets(d, n // 2, rng)
        phi = psi + eps * xi
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        return np.stack([psi, phi], axis=1).reshape(n, d)

    monkeypatch.setattr(concentration, "haar_random_kets", near_parallel_kets)
    assert abs(contraction_check(identity_channel(8), samples=64, seed=5) - 1.0) < 1e-6


@pytest.mark.parametrize("d", [2.0, np.float64(2.0), "2", 1, 0],
                         ids=["float", "numpy-float", "string", "one", "zero"])
def test_experiment_checks_the_dimension_before_sampling(monkeypatch, d):
    def no_sampling(*args, **kw):
        raise AssertionError("sampled before checking d")

    with pytest.raises(InvalidDimensionError) as expected:
        lipschitz_scaled_l1(d)
    monkeypatch.setattr(concentration, "haar_random_kets", no_sampling)
    with pytest.raises(InvalidDimensionError) as exc:
        run_concentration_experiment(gad_channel(0.7, 0.3), d=d, samples=2000,
                                     epsilons=[0.1], seed=1)
    assert str(exc.value) == str(expected.value)


def _legs_and_product(dims, seed):
    """random_channel legs (not phase-covariant, so every transfer entry counts) and
    their kron_channel."""
    rng = np.random.default_rng(seed)
    legs = [random_channel(dk, 2, rng) for dk in dims]
    full = legs[0]
    for leg in legs[1:]:
        full = kron_channel(full, leg)
    return legs, full


def _haar_inputs_and_outputs(full, samples, seed):
    """The seeded Haar inputs |psi><psi| of the sampling path and apply's outputs on them."""
    kets = haar_random_kets(full.dim, samples, np.random.default_rng(seed))
    rhos = np.einsum("bi,bj->bij", kets, kets.conj())
    return rhos, np.stack([apply(full, rho) for rho in rhos])


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2], [2, 3, 2], [3, 2, 2], [2, 2, 2, 2, 2]],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_grouped_legs_match_the_kron_channel(dims):
    legs, full = _legs_and_product(dims, seed=sum(dims))
    rng = np.random.default_rng(len(dims))
    rhos = np.stack([random_density_matrix(full.dim, rng) for _ in range(3)])
    naive = np.stack([apply(full, rho) for rho in rhos])
    assert np.abs(apply_batch(legs, rhos) - naive).max() < 1e-12
    _, outs = _haar_inputs_and_outputs(full, 8, 7)
    assert np.abs(_sample_output_coherences(legs, 8, 7) - c_l1(outs)).max() < 1e-12


def test_counts_either_side_of_a_block_give_the_per_ket_values():
    legs, full = _legs_and_product([2, 2, 2, 2, 2], seed=17)
    block = concentration._BLOCK_BYTES // (48 * full.dim**2)
    assert block > 2
    for samples in (block - 1, block + 1):
        rhos, outs = _haar_inputs_and_outputs(full, samples, 5)
        assert np.abs(_sample_output_coherences(legs, samples, 5) - c_l1(outs)).max() < 1e-12
        assert np.abs(apply_batch(legs, rhos) - outs).max() < 1e-12
    # A contraction_check block holds whole pairs: 2 * (block // 2) kets.
    for pairs in (block // 2 - 1, block // 2 + 1):
        rhos, outs = _haar_inputs_and_outputs(full, 2 * pairs, 6)
        ratios = [trace_distance(outs[i], outs[i + 1]) / trace_distance(rhos[i], rhos[i + 1])
                  for i in range(0, 2 * pairs, 2)]
        assert abs(contraction_check(legs, pairs, 6) - max(ratios)) < 1e-10


# Seeds fixed in advance. A product of Schur multipliers is the multiplier M = (x)_k M_k,
# so for Haar inputs E c_l1 = (pi / 4d) (prod_k sum_ij |M_k,ij| - d), read off the
# product path, not the single-factor Schur path.
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_dephasing_product_mean_matches_the_exact_haar_moment(seed):
    legs = [partial_dephasing_channel(2, 0.3), partial_dephasing_channel(2, 0.6),
            partial_dephasing_channel(3, 0.5)]
    total = np.prod([np.abs(leg.kraus_diagonals.T @ leg.kraus_diagonals.conj()).sum()
                     for leg in legs])
    exact = np.pi / (4 * 12) * (total - 12)
    assert abs(exact - 2.48186) < 1e-5
    mean, stderr = estimate_mean_coherence(legs, 4000, seed)
    assert abs(mean - exact) < 4.0 * stderr
