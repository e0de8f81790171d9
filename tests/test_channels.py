import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak.channels import (
    RANK_CUTOFF,
    KrausChannel,
    _sparse_kraus,
    QubitAffine,
    affine_from_kraus,
    affine_iterate,
    affine_to_kraus,
    apply,
    cbc_from_povm,
    channel_from_json,
    channel_to_json,
    choi_to_kraus,
    compose,
    dephasing_channel,
    gad_channel,
    haar_unitary,
    identity_channel,
    iterate,
    kraus_to_choi,
    kron_channel,
    make_channel,
    partial_dephasing_channel,
    random_channel,
    random_incoherent_channel,
    random_povm,
    unitary_channel,
    y_to_x_channel,
)
from cohbreak.coherence import c_l1, is_incoherent_state
from cohbreak.dynamics import probe_state
from cohbreak.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NotPOVMError,
    NotPSDError,
    NotTracePreservingError,
    ParameterOutOfRangeError,
)
from cohbreak.linalg import density_eigenvalues
from cohbreak.states import (
    from_bloch,
    maximally_coherent,
)
from conftest import (BAD_DIMS, FORM_DIMS, MALFORMED_SPARSE, STRING_NUMBERS, dense_channel_json,
                      random_density_matrix)


def matrix_units(d):
    units = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


def channels_act_alike(a, b, tol=1e-9):
    return all(
        np.abs(apply(a, e) - apply(b, e)).max() <= tol for e in matrix_units(a.dim)
    )


def test_construction_rejects_incomplete_kraus():
    with pytest.raises(NotTracePreservingError):
        make_channel([np.diag([1.0, 0.5]).astype(complex)])
    with pytest.raises(NotTracePreservingError):
        make_channel([])


def test_diagonal_stack_completeness_is_checked_on_its_diagonals():
    # Off by 2e-9 in one diagonal entry: over TOL_CPTP, with no off-diagonal entry to see.
    off = np.diag([np.sqrt(1.0 + 2e-9), 1.0, 1.0]).astype(complex)
    with pytest.raises(NotTracePreservingError, match="deviates from identity by 2.000e-09"):
        make_channel([off])
    within = make_channel([np.diag([np.sqrt(1.0 + 5e-10), 1.0, 1.0])])
    assert within.kraus_diagonals is not None


def test_non_diagonal_stack_takes_the_full_completeness_check():
    # sum_n |K_n,ii|^2 is 1 for each i, yet sum K^dag K has 0.01 in its (1, 1) entry.
    ops = [np.eye(2), np.array([[0.0, 0.1], [0.0, 0.0]])]
    with pytest.raises(NotTracePreservingError, match="deviates from identity by 1.000e-02"):
        make_channel(ops)


PLUS = np.full((2, 2), 0.5)


@pytest.mark.parametrize("build", [
    lambda: identity_channel(2),
    lambda: kraus_to_choi(identity_channel(2)),
    lambda: QubitAffine(m=np.eye(3), shift=np.zeros(3)),
    lambda: probe_state(PLUS),
], ids=["KrausChannel", "ChoiMatrix", "QubitAffine", "ProbeState"])
def test_array_holding_objects_compare_and_hash_by_identity(build):
    # Field-wise == would compare arrays, whose truth value is ambiguous.
    x, y = build(), build()
    assert x == x and x != y
    assert y not in [x]
    assert hash(x) == hash(x)


def test_apply_identity():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(3, rng)
    assert np.abs(apply(identity_channel(3), rho) - rho).max() < 1e-15


def test_apply_dephasing_kills_plus_state():
    out = apply(dephasing_channel(2), maximally_coherent(2))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-15


def test_apply_y_to_x_reproduces_reported_coherence():
    rho = from_bloch(np.array([0.3, 0.5, 0.2]))
    out = apply(y_to_x_channel(0.5), rho)
    assert abs(c_l1(out) - 0.25) < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(identity_channel(2), np.eye(3) / 3)


@pytest.mark.parametrize("d", range(1, 9))
def test_dephasing_kraus_ops_are_the_basis_projectors_bit_for_bit(d):
    projectors = np.array([np.outer(e, e) for e in np.eye(d, dtype=complex)])  # |i><i|
    ops = dephasing_channel(d).kraus_ops
    assert ops.shape == projectors.shape and ops.tobytes() == projectors.tobytes()


def test_compose_identity_is_neutral():
    ch = gad_channel(0.7, 0.3)
    assert channels_act_alike(compose(identity_channel(2), ch), ch, tol=1e-12)
    assert channels_act_alike(compose(ch, identity_channel(2)), ch, tol=1e-12)


def test_compose_dephasing_is_idempotent():
    delta = dephasing_channel(2)
    assert channels_act_alike(compose(delta, delta), delta, tol=1e-12)


def test_compose_breaking_with_incoherent_stays_breaking():
    from cohbreak.classifiers import is_cbc

    rng = np.random.default_rng(1)
    breaking = cbc_from_povm(random_povm(2, 2, rng))
    for other in (gad_channel(0.6, 0.2), partial_dephasing_channel(2, 0.5)):
        ok, _ = is_cbc(compose(other, breaking))
        assert ok
        ok, _ = is_cbc(compose(breaking, other))
        assert ok


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose(identity_channel(2), identity_channel(3))


def _many_op_channel(d: int, m: int, rng: np.random.Generator):
    """K_n = G_n S^(-1/2) for m Gaussian G_n, with S = sum G_n^dag G_n."""
    g = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    w, v = np.linalg.eigh(np.einsum("nji,njk->ik", g.conj(), g))
    return make_channel(g @ (v * w**-0.5) @ v.conj().T, dim=d)


def test_compose_many_ops_skips_the_product_list():
    import tracemalloc

    rng = np.random.default_rng(3)
    d = 8
    outer, inner = _many_op_channel(d, 200, rng), _many_op_channel(d, 200, rng)
    tracemalloc.start()
    try:
        result = compose(outer, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 40000 products alone would take 40000 d^2 * 16 B, about 41 MB.
    assert peak < 16 * d**4 * 16
    assert result.n_ops <= d**2
    for e in matrix_units(d):
        assert np.abs(apply(result, e) - apply(outer, apply(inner, e))).max() < 1e-12
    few = random_channel(d, 2, rng)
    products = make_channel([a @ b for a in outer.kraus_ops for b in few.kraus_ops], dim=d)
    assert channels_act_alike(compose(outer, few), products, tol=1e-12)


def test_iterate_once_is_identity_operation():
    ch = gad_channel(0.5, 0.5)
    assert channels_act_alike(iterate(ch, 1), ch, tol=0.0)


@pytest.mark.parametrize("p", [0.3, 0.7, 0.95])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_iterate_gad_semigroup(p, t):
    for n in (2, 5, 10):
        assert channels_act_alike(iterate(gad_channel(p, t), n), gad_channel(p**n, t))


def test_iterate_y_to_x_square_breaks_coherence():
    squared = iterate(y_to_x_channel(0.5), 2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        out = apply(squared, random_density_matrix(2, rng))
        assert is_incoherent_state(out, 1e-10)


def test_iterate_bounds_kraus_count():
    assert iterate(gad_channel(0.7, 0.5), 6).n_ops <= 4


def test_iterate_additivity():
    ch = gad_channel(0.8, 0.25)
    left = iterate(ch, 5)
    right = compose(iterate(ch, 2), iterate(ch, 3))
    assert channels_act_alike(left, right, tol=1e-8)


def test_choi_of_identity_is_maximally_entangled():
    choi = kraus_to_choi(identity_channel(2))
    beta = np.zeros(4, dtype=complex)
    beta[0] = beta[3] = 1.0 / np.sqrt(2.0)
    assert np.abs(choi.matrix - np.outer(beta, beta.conj())).max() < 1e-15
    w = np.linalg.eigvalsh(choi.matrix)
    assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_choi_of_dephasing():
    choi = kraus_to_choi(dephasing_channel(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(choi.matrix - expected).max() < 1e-15


def test_choi_reduced_state_is_maximally_mixed():
    from cohbreak.linalg import partial_trace

    rng = np.random.default_rng(3)
    for d, rank in ((2, 3), (3, 2)):
        choi = kraus_to_choi(random_channel(d, rank, rng))
        reduced = partial_trace(choi.matrix, d, keep=1)
        assert np.abs(reduced - np.eye(d) / d).max() < 1e-12


def test_choi_to_kraus_identity():
    ops = choi_to_kraus(kraus_to_choi(identity_channel(2))).kraus_ops
    assert len(ops) == 1
    k = ops[0]
    phase = k[0, 0] / abs(k[0, 0])
    assert np.abs(k / phase - np.eye(2)).max() < 1e-12


def test_choi_to_kraus_dephasing():
    ops = choi_to_kraus(kraus_to_choi(dephasing_channel(2))).kraus_ops
    assert len(ops) == 2
    for k in ops:
        assert np.abs(k - np.diag(np.diag(k))).max() < 1e-12
        assert np.linalg.matrix_rank(k, tol=1e-10) == 1


def test_choi_round_trip_on_random_channels():
    rng = np.random.default_rng(4)
    for d, rank in ((2, 2), (2, 4), (3, 3)):
        ch = random_channel(d, rank, rng)
        back = choi_to_kraus(kraus_to_choi(ch))
        assert back.n_ops <= d * d
        assert channels_act_alike(ch, back, tol=1e-9)
        choi_again = kraus_to_choi(back)
        assert np.abs(choi_again.matrix - kraus_to_choi(ch).matrix).max() < 1e-9


def test_transfer_matrix_acts_on_vectorized_states():
    from cohbreak.channels import transfer_matrix

    rng = np.random.default_rng(21)
    ch = random_channel(3, 2, rng)
    t = transfer_matrix(ch)
    rho = random_density_matrix(3, rng)
    out = (t @ rho.reshape(9)).reshape(3, 3)
    assert np.abs(out - apply(ch, rho)).max() < 1e-12


def test_affine_of_identity():
    rep = affine_from_kraus(identity_channel(2))
    assert np.abs(rep.m - np.eye(3)).max() < 1e-12
    assert np.abs(rep.shift).max() < 1e-12


@pytest.mark.parametrize("p,t", [(0.7, 1.0), (0.3, 0.0), (0.5, 0.5)])
def test_affine_of_gad(p, t):
    rep = affine_from_kraus(gad_channel(p, t))
    assert np.abs(rep.m - np.diag([np.sqrt(p), np.sqrt(p), p])).max() < 1e-12
    assert np.abs(rep.shift - [0.0, 0.0, (1 - p) * (2 * t - 1)]).max() < 1e-12


def test_affine_of_dephasing():
    rep = affine_from_kraus(dephasing_channel(2))
    assert np.abs(rep.m - np.diag([0.0, 0.0, 1.0])).max() < 1e-12
    assert np.abs(rep.shift).max() < 1e-12


def test_affine_is_consistent_with_apply():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ch = random_channel(2, 3, rng)
        rep = affine_from_kraus(ch)
        r = rng.normal(size=3)
        r /= max(1.0, np.linalg.norm(r)) * 1.01
        out = apply(ch, from_bloch(r))
        # entries of (I + r.sigma)/2: 5e-11 bounds each Bloch coordinate's error by 1e-10
        assert np.abs(out - from_bloch(rep.m @ r + rep.shift)).max() < 5e-11


def test_affine_rejects_non_qubit():
    with pytest.raises(DimensionMismatchError):
        affine_from_kraus(identity_channel(3))


def test_affine_iterate_once_is_input():
    rep = QubitAffine(m=np.diag([0.5, 0.5, 0.25]), shift=np.array([0.0, 0.0, 0.1]))
    power = affine_iterate(rep, 1)
    assert np.array_equal(power.m, rep.m)
    assert np.array_equal(power.shift, rep.shift)


def test_affine_iterate_gad_closed_form():
    p, t = 0.7, 1.0
    rep = affine_from_kraus(gad_channel(p, t))
    for n in (2, 3, 7):
        power = affine_iterate(rep, n)
        assert np.abs(power.m - np.diag([np.sqrt(p**n), np.sqrt(p**n), p**n])).max() < 1e-12
        assert np.abs(power.shift - [0.0, 0.0, (1 - p**n) * (2 * t - 1)]).max() < 1e-12


def test_affine_iterate_nilpotent_square():
    m = np.zeros((3, 3))
    m[0, 1] = 0.5
    power = affine_iterate(QubitAffine(m=m, shift=np.zeros(3)), 2)
    assert np.abs(power.m).max() == 0.0


def test_affine_iterate_matches_kraus_iterate():
    rng = np.random.default_rng(6)
    for _ in range(5):
        ch = random_channel(2, 2, rng)
        rep = affine_from_kraus(ch)
        for n in (2, 4):
            direct = affine_from_kraus(iterate(ch, n))
            powered = affine_iterate(rep, n)
            assert np.abs(direct.m - powered.m).max() < 1e-9
            assert np.abs(direct.shift - powered.shift).max() < 1e-9


def test_affine_transfer_follows_an_in_place_change_to_m():
    # QubitAffine keeps m and shift uncopied, so R is rebuilt on every read.
    rep = QubitAffine(m=np.diag([0.5, 0.5, 0.25]), shift=np.array([0.0, 0.0, 0.1]))
    assert rep.transfer[1, 1] == 0.5
    rep.m[0, 0] = 0.0
    expected = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0.5, 0], [0.1, 0, 0, 0.25]]
    assert np.array_equal(rep.transfer, expected)


def test_affine_to_kraus_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rep = affine_from_kraus(random_channel(2, 3, rng))
        back = affine_from_kraus(affine_to_kraus(rep))
        assert np.abs(back.m - rep.m).max() < 1e-9
        assert np.abs(back.shift - rep.shift).max() < 1e-9


def test_affine_to_kraus_rejects_transpose_map():
    # Bloch reflection (x, -y, z) is positive but not completely positive.
    rep = QubitAffine(m=np.diag([1.0, -1.0, 1.0]), shift=np.zeros(3))
    with pytest.raises(NotPSDError):
        affine_to_kraus(rep)


def test_representation_pipeline_consistency():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ch = random_channel(2, 4, rng)
        rep = affine_from_kraus(ch)
        pipeline = affine_from_kraus(choi_to_kraus(kraus_to_choi(ch)))
        assert np.abs(pipeline.m - rep.m).max() < 1e-8
        assert np.abs(pipeline.shift - rep.shift).max() < 1e-8


def test_gad_unit_p_is_identity():
    assert channels_act_alike(gad_channel(1.0, 0.3), identity_channel(2), tol=1e-12)


def test_gad_matrix_unit_action_matches_displayed_map():
    for p in (0.3, 0.7, 0.95):
        for t in (0.0, 0.5, 1.0):
            ch = gad_channel(p, t)
            for a, b, c in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.25, 0.3 + 0.1j, 0.75)):
                rho = np.array([[a, b], [np.conj(b), c]], dtype=complex)
                out = apply(ch, rho)
                assert abs(out[0, 0] - (p * a + t * (1 - p) * (a + c))) < 1e-12
                assert abs(out[0, 1] - np.sqrt(p) * b) < 1e-12
                assert abs(out[1, 1] - (-p * a + (1 - t + p * t) * (a + c))) < 1e-12


def test_gad_parameter_validation():
    with pytest.raises(ParameterOutOfRangeError):
        gad_channel(1.2, 0.5)
    with pytest.raises(ParameterOutOfRangeError):
        gad_channel(0.5, -0.1)


def test_gad_coherence_scaling_from_fig2_state():
    rho = from_bloch(np.array([0.3, 0.5, 0.2]))
    ch = gad_channel(0.7, 1.0)
    out = rho
    for j in range(1, 6):
        out = apply(ch, out)
        assert abs(c_l1(out) - 0.7 ** (j / 2) * np.sqrt(0.34)) < 1e-12


def test_cbc_from_projective_povm_is_dephasing():
    effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert channels_act_alike(cbc_from_povm(effects), dephasing_channel(2), tol=1e-12)


def test_cbc_from_trivial_povm_is_constant():
    effects = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    ch = cbc_from_povm(effects)
    rng = np.random.default_rng(9)
    for _ in range(5):
        out = apply(ch, random_density_matrix(2, rng))
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12


def test_cbc_from_random_povm_outputs_diagonal_states():
    rng = np.random.default_rng(10)
    ch = cbc_from_povm(random_povm(2, 2, rng))
    for _ in range(100):
        out = apply(ch, random_density_matrix(2, rng))
        assert is_incoherent_state(out, 1e-10)


def test_cbc_from_povm_validation():
    with pytest.raises(NotPOVMError):
        cbc_from_povm([np.diag([0.5, 0.5])])  # does not sum to identity
    with pytest.raises(NotPOVMError):
        cbc_from_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # not PSD
    with pytest.raises(NotPOVMError):
        cbc_from_povm([np.eye(2) / 3] * 3)  # more effects than basis states


def test_cbc_from_povm_reports_the_effect_count_before_a_bad_effect():
    with pytest.raises(NotPOVMError, match="^3 effects cannot prepare distinct basis states"):
        cbc_from_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0]), 0])


def loop_cbc_kraus(effects):
    """Reference Kraus stack of cbc_from_povm: one sqrt(lambda) |i><phi| per
    eigenvalue lambda > RANK_CUTOFF of each effect F_i, in eigh order."""
    d, ops = len(effects[0]), []
    for i, f in enumerate(effects):
        w, v = np.linalg.eigh(np.asarray(f, dtype=complex))
        for lam, phi in zip(w, v.T):
            if lam > RANK_CUTOFF:
                k = np.zeros((d, d), dtype=complex)
                k[i, :] = np.sqrt(lam) * phi.conj()
                ops.append(k)
    return np.array(ops)


def seeded_povms(count):
    """Wishart POVMs, and projectors onto groups of basis vectors (rank-deficient
    effects, with exact zeros) in the computational or a Haar-random basis."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        if seed % 3 == 0:
            yield random_povm(d, int(rng.integers(1, d + 1)), rng)
            continue
        u = haar_unitary(d, rng) if seed % 3 == 1 else np.eye(d)
        cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(0, d - 1)),
                                  replace=False))
        yield [u[:, g] @ u[:, g].conj().T for g in np.split(np.arange(d), cuts)]


def test_cbc_from_povm_matches_the_loop_reference_bytewise():
    # Byte equality pins signed zeros: the channel's sparse wire form writes -0.
    for effects in seeded_povms(300):
        assert cbc_from_povm(effects).kraus_ops.tobytes() == loop_cbc_kraus(effects).tobytes()


def test_y_to_x_channel_is_incoherent_patterned():
    ch = y_to_x_channel(0.5)
    for k in ch.kraus_ops:
        for col in range(2):
            assert (np.abs(k[:, col]) > 1e-12).sum() <= 1
    with pytest.raises(ParameterOutOfRangeError):
        y_to_x_channel(1.5)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_y_to_x_channel_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(ParameterOutOfRangeError, match=r"need \|alpha\| <= 1"):
        y_to_x_channel(alpha)


def test_kron_channel_matches_manual_tensor():
    a = gad_channel(0.7, 1.0)
    b = dephasing_channel(2)
    ab = kron_channel(a, b)
    rng = np.random.default_rng(11)
    rho = random_density_matrix(4, rng)
    expected = np.zeros((4, 4), dtype=complex)
    for ka in a.kraus_ops:
        for kb in b.kraus_ops:
            k = np.kron(ka, kb)
            expected += k @ rho @ k.conj().T
    assert np.abs(apply(ab, rho) - expected).max() < 1e-14


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(NotTracePreservingError):
        unitary_channel(np.diag([1.0, 0.5]))


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        for _ in range(10):
            ch = random_channel(d, int(rng.integers(1, d + 2)), rng)
            out = apply(ch, random_density_matrix(d, rng))
            density_eigenvalues(out)


def test_affine_maps_bloch_ball_into_itself():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rep = affine_from_kraus(random_channel(2, 3, rng))
        for _ in range(50):
            r = rng.normal(size=3)
            r /= max(np.linalg.norm(r), 1.0)
            if np.linalg.norm(r) > 1.0:
                r /= np.linalg.norm(r)
            assert np.linalg.norm(rep.m @ r + rep.shift) <= 1.0 + 1e-9


def test_channel_json_round_trip():
    rng = np.random.default_rng(12)
    ch = random_channel(3, 2, rng)
    text = json.dumps(channel_to_json(ch))
    back = channel_from_json(json.loads(text))
    assert channels_act_alike(ch, back, tol=1e-15)


def test_channel_json_affine_form():
    ch = channel_from_json({"affine": {"m": [[0.0, 0.5, 0.0], [0.0] * 3, [0.0] * 3],
                                       "n": [0.0, 0.0, 0.0]}})
    assert channels_act_alike(ch, y_to_x_channel(0.5), tol=1e-9)


def test_channel_json_gad_form():
    ch = channel_from_json({"gad": {"p": 0.7, "t": 1.0}})
    assert channels_act_alike(ch, gad_channel(0.7, 1.0), tol=0.0)


def test_channel_json_povm_form():
    obj = {"povm": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    assert channels_act_alike(channel_from_json(obj), dephasing_channel(2), tol=1e-12)


def test_channel_json_dispatch_errors():
    with pytest.raises(ValueError):
        channel_from_json({})
    with pytest.raises(ValueError):
        channel_from_json({"gad": {"p": 0.5, "t": 0.5}, "kraus": []})
    with pytest.raises(ValueError):
        channel_from_json({"dim": 3, "kraus": [[[[1.0, 0.0], [0.0, 0.0]],
                                                [[0.0, 0.0], [1.0, 0.0]]]]})
    with pytest.raises(ValueError):
        channel_from_json({"affine": {"m": [[1.0]]}})


@pytest.mark.parametrize("obj", [
    {**dense_channel_json(dephasing_channel(2)), "dim": None},
    {**dense_channel_json(dephasing_channel(2)), "dim": float("inf")},
    {"kraus": 5},
    {"kraus": [[[[10**400, 0.0]]]]},
    {"gad": {"p": None, "t": 0.5}},
    {"gad": {"p": 10**400, "t": 0.5}},
    {"gad": {"p": True, "t": 0.5}},
    {"gad": 3},
    {"povm": [[[[1.0, None]]]]},
    *({**dense_channel_json(dephasing_channel(2)), "dim": dim} for dim in BAD_DIMS.values()),
    *STRING_NUMBERS.values(),
    *FORM_DIMS.values(),
], ids=["dim-null", "dim-infinity", "kraus-int", "entry-overflow", "gad-p-null",
        "gad-p-overflow", "gad-p-true", "gad-int", "povm-entry-null", *BAD_DIMS, *STRING_NUMBERS,
        *FORM_DIMS])
def test_channel_json_conversion_failures_are_value_errors(obj):
    with pytest.raises(ValueError):
        channel_from_json(obj)


# --- sparse wire form ---------------------------------------------------------


@st.composite
def wire_channels(draw):
    """Random, random incoherent and gallery channels at d <= 8, some with
    an all-zero operator appended or +0 entries turned into -0."""
    kind = draw(st.sampled_from(["incoherent", "random", "dephasing", "partial",
                                 "identity", "unitary-minus", "povm", "gad", "y-to-x"]))
    d = 2 if kind in ("gad", "y-to-x") else draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channel = {
        "incoherent": lambda: random_incoherent_channel(d, rng),
        "random": lambda: random_channel(d, draw(st.integers(1, 3)), rng),
        "dephasing": lambda: dephasing_channel(d),
        "partial": lambda: partial_dephasing_channel(d, draw(st.floats(0, 1))),
        "identity": lambda: identity_channel(d),
        "unitary-minus": lambda: unitary_channel(-np.eye(d)),
        "povm": lambda: cbc_from_povm(random_povm(d, d, rng)),
        "gad": lambda: gad_channel(draw(st.floats(0, 1)), draw(st.floats(0, 1))),
        "y-to-x": lambda: y_to_x_channel(draw(st.floats(-1, 1))),
    }[kind]()
    ops = [k.copy() for k in channel.kraus_ops]
    if draw(st.booleans()):
        ops.append(np.zeros((d, d), dtype=complex))
    if draw(st.booleans()):
        k = ops[draw(st.integers(0, len(ops) - 1))]
        zeros = np.argwhere(k == 0)
        for i, j in zeros[rng.random(len(zeros)) < 0.5]:
            k[i, j] = complex(-0.0, draw(st.sampled_from([0.0, -0.0])))
    return make_channel(ops, dim=d)


@settings(max_examples=150, deadline=None)
@given(channel=wire_channels())
def test_channel_json_round_trip_is_bit_exact_in_the_smaller_form(channel):
    obj = channel_to_json(channel)
    back = channel_from_json(json.loads(json.dumps(obj)))
    assert back.n_ops == channel.n_ops
    for k, k_back in zip(channel.kraus_ops, back.kraus_ops):
        assert k_back.tobytes() == k.tobytes()  # signed zeros included
    stack = np.stack(channel.kraus_ops)
    nnz = np.count_nonzero((stack != 0) | np.signbit(stack.real) | np.signbit(stack.imag))
    sparse = 4 * nnz < 2 * channel.n_ops * channel.dim**2
    assert set(obj) == {"dim", "sparse" if sparse else "kraus"}


def test_channel_json_incoherent_channels_are_sparse():
    obj = channel_to_json(partial_dephasing_channel(64, 0.5))
    assert len(obj["sparse"]) == 65
    assert sum(map(len, obj["sparse"])) == 128
    assert [0, 0, np.sqrt(0.5), 0.0] in obj["sparse"][0]
    assert "kraus" in channel_to_json(random_channel(3, 2, np.random.default_rng(1)))


def test_channel_json_sparse_all_zero_operator_is_an_empty_list():
    channel = make_channel([np.eye(2), np.zeros((2, 2))])
    obj = channel_to_json(channel)
    assert obj == {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0]], []]}
    assert channel_from_json(obj).n_ops == 2


@pytest.mark.parametrize("obj", MALFORMED_SPARSE.values(), ids=MALFORMED_SPARSE.keys())
def test_malformed_sparse_channel_is_a_value_error(obj):
    with pytest.raises(ValueError):
        channel_from_json(obj)


def test_sparse_channel_must_be_trace_preserving():
    with pytest.raises(NotTracePreservingError):
        channel_from_json({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, 0.5, 0.0]]]})


def test_sparse_parse_keeps_one_copy_of_the_stack():
    # The parser hands its dense stack to the channel: no second (n_ops, d, d) copy.
    obj = channel_to_json(partial_dephasing_channel(64, 0.5))
    tracemalloc.start()
    try:
        channel = channel_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * channel.kraus_ops.nbytes, f"tracemalloc peak {peak / 2**20:.1f} MiB"
    assert not channel.kraus_ops.flags.writeable
    assert np.array_equal(channel.kraus_ops, partial_dephasing_channel(64, 0.5).kraus_ops)


def test_dense_parse_keeps_one_copy_of_the_stack():
    # Each dense operator is parsed into the stack the channel holds, and the completeness
    # check of a non-diagonal stack makes no conjugate copy of the whole of it.
    source = random_channel(64, 8, np.random.default_rng(4))
    obj = channel_to_json(source)
    assert "kraus" in obj
    tracemalloc.start()
    try:
        channel = channel_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * channel.kraus_ops.nbytes, f"tracemalloc peak {peak / 2**20:.2f} MiB"
    assert not channel.kraus_ops.flags.writeable
    assert np.array_equal(channel.kraus_ops, source.kraus_ops)


def test_sparse_dim_without_entries_is_rejected_before_allocating():
    with pytest.raises(ValueError, match="column 0 has no entry"):
        channel_from_json({"dim": 10**12, "sparse": [[]] * 1000})


def loop_sparse_kraus(d, ops):
    """Entry-by-entry reference for `_sparse_kraus`: the checks in scan order."""
    if not isinstance(ops, list) or not all(isinstance(op, list) for op in ops):
        raise ValueError('"sparse" must be a list of entry lists, one per Kraus operator')
    index, values = [], []
    for n, op in enumerate(ops):
        seen = set()
        for entry in op:
            if not isinstance(entry, list) or len(entry) != 4:
                raise ValueError(f"operator {n}: entry {entry!r} is not [i, j, re, im]")
            i, j, re, im = entry
            if not all(type(x) is int and 0 <= x < d for x in (i, j)):
                raise ValueError(f"operator {n}: index ({i!r}, {j!r}) is not in [0, {d})")
            if (i, j) in seen:
                raise ValueError(f"operator {n}: entry ({i}, {j}) appears twice")
            seen.add((i, j))
            index.append((n, i, j))
            values.append(complex(re, im))
    columns = {j for _, _, j in index}
    if len(columns) < d:
        missing = next(j for j in range(d) if j not in columns)
        raise ValueError(f"column {missing} has no entry, so the channel is not trace preserving")
    stack = np.zeros((len(ops), d, d), dtype=complex)
    for (n, i, j), z in zip(index, values):
        stack[n, i, j] = z
    return stack


def parse_outcome(parse, d, ops):
    """The array's bytes, or the exception's type and message."""
    try:
        return parse(d, ops).tobytes()
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def value_error_text(re, im):
    try:
        complex(re, im)
    except TypeError as exc:
        return str(exc)


SPARSE_MESSAGES = {
    "not-a-list": ({"dim": 2, "sparse": {"0": []}},
                   '"sparse" must be a list of entry lists, one per Kraus operator'),
    "operator-not-a-list": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], 5]},
                            '"sparse" must be a list of entry lists, one per Kraus operator'),
    "short-entry": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, 1.0]]]},
                    "operator 1: entry [1, 1, 1.0] is not [i, j, re, im]"),
    "entry-not-a-list": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0], 7], [[1, 1, 1.0, 0.0]]]},
                         "operator 0: entry 7 is not [i, j, re, im]"),
    "index-out-of-range": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 2, 1.0, 0.0]]]},
                           "operator 1: index (1, 2) is not in [0, 2)"),
    "index-bool": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[True, 1, 1.0, 0.0]]]},
                   "operator 1: index (True, 1) is not in [0, 2)"),
    "index-float": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1.0, 1, 1.0, 0.0]]]},
                    "operator 1: index (1.0, 1) is not in [0, 2)"),
    "repeat": ({"dim": 2, "sparse": [[[1, 1, 1.0, 0.0]], [[0, 0, 1.0, 0.0], [0, 0, 0.0, 0.0]]]},
               "operator 1: entry (0, 0) appears twice"),
    "value": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, None, 0.0]]]},
              value_error_text(None, 0.0)),
    "missing-column": ({"dim": 3, "sparse": [[[0, 0, 1.0, 0.0], [2, 2, 1.0, 0.0]]]},
                       "column 1 has no entry, so the channel is not trace preserving"),
    # Indices beyond 64 bits, valid under such a "dim", are compared exactly.
    "huge-dim-repeat": ({"dim": 2**70, "sparse": [[[2**65, 0, 1.0, 0.0], [2**65, 0, 1.0, 0.0]]]},
                        f"operator 0: entry ({2**65}, 0) appears twice"),
    "huge-dim-missing-column": ({"dim": 2**70, "sparse": [[[2**65, 0, 1.0, 0.0]]]},
                                "column 1 has no entry, so the channel is not trace preserving"),
    # Several faults: the one met first, entry by entry, is reported.
    "value-before-index": ({"dim": 2, "sparse": [[[0, 0, "1", 0.0]], [[5, 1, 1.0, 0.0]]]},
                           value_error_text("1", 0.0)),
    "index-before-value": ({"dim": 2, "sparse": [[[0, 5, None, 0.0]]]},
                           "operator 0: index (0, 5) is not in [0, 2)"),
    "repeat-before-shape": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0], [0, 0, 1.0, 0.0], []]]},
                            "operator 0: entry (0, 0) appears twice"),
    "first-of-two-repeats": ({"dim": 2, "sparse": [[[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0],
                                                    [1, 1, 1.0, 0.0], [0, 0, 1.0, 0.0]]]},
                             "operator 0: entry (1, 1) appears twice"),
    "repeat-before-later-index": ({"dim": 2, "sparse": [[[0, 0, 1, 0], [1, 1, 1, 0], [1, 1, 1, 0]],
                                                        [[5, 1, 1, 0]]]},
                                  "operator 0: entry (1, 1) appears twice"),
    "shape-before-index": ({"dim": 2, "sparse": [[[0, 0, 1.0]], [[9, 9, 1.0, 0.0]]]},
                           "operator 0: entry [0, 0, 1.0] is not [i, j, re, im]"),
    "index-before-missing-column": ({"dim": 4, "sparse": [[[0, 0, 1.0, 0.0], [0, -1, 1.0, 0.0]]]},
                                    "operator 0: index (0, -1) is not in [0, 4)"),
}


@pytest.mark.parametrize("obj, message", SPARSE_MESSAGES.values(), ids=SPARSE_MESSAGES.keys())
def test_sparse_parser_reports_the_first_fault_by_name(obj, message):
    with pytest.raises(ValueError) as caught:
        channel_from_json(obj)
    assert str(caught.value) == message
    assert parse_outcome(loop_sparse_kraus, obj["dim"], obj["sparse"])[1] == message


SPARSE_SCALARS = st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.0, None, "0", 2**70]),
                           st.floats(-1, 1))
SPARSE_JUNK = st.one_of(st.lists(SPARSE_SCALARS, min_size=4, max_size=4),
                        st.lists(SPARSE_SCALARS, max_size=5), SPARSE_SCALARS)
SPARSE_VALUES = st.one_of(st.floats(-2, 2), st.sampled_from([-0.0, 1, True, 2**70, None, "0"]))


@st.composite
def sparse_forms(draw):
    """Entries over few indices, so that repeats are common, with up to two
    junk entries inserted, so that files often hold several faults."""
    d = draw(st.integers(1, 3))
    index = st.integers(0, d - 1)
    entry = st.tuples(index, index, SPARSE_VALUES, st.floats(-2, 2)).map(list)
    ops = draw(st.lists(st.lists(entry, max_size=6), max_size=4))
    for _ in range(draw(st.integers(0, 2)) if ops else 0):
        op = draw(st.sampled_from(ops))
        op.insert(draw(st.integers(0, len(op))), draw(SPARSE_JUNK))
    return d, ops


@settings(max_examples=300, deadline=None)
@given(form=sparse_forms())
def test_sparse_parser_matches_the_entry_by_entry_scan(form):
    d, ops = form
    assert parse_outcome(_sparse_kraus, d, ops) == parse_outcome(loop_sparse_kraus, d, ops)


# --- transfer-matrix reshape conventions -------------------------------------


@pytest.mark.parametrize("d", [2, 3, 5])
def test_matrix_unit_images_match_apply(d):
    from cohbreak.classifiers import matrix_unit_images

    ch = random_channel(d, 3, np.random.default_rng(30 + d))
    images = matrix_unit_images(ch)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            assert np.abs(images[i, j] - apply(ch, unit)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_choi_is_vec_outer_product_sum(d):
    ch = random_channel(d, 3, np.random.default_rng(40 + d))
    expected = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ch.kraus_ops) / d
    assert np.abs(kraus_to_choi(ch).matrix - expected).max() < 1e-12


def test_affine_from_kraus_matches_pauli_traces():
    from cohbreak.linalg import PAULIS

    rng = np.random.default_rng(50)
    for rank in (1, 2, 4):
        ch = random_channel(2, rank, rng)
        rep = affine_from_kraus(ch)
        phi_id = apply(ch, np.eye(2, dtype=complex))
        for j, sj in enumerate(PAULIS):
            assert abs(rep.shift[j] - 0.5 * np.trace(sj @ phi_id).real) < 1e-12
            for k, sk in enumerate(PAULIS):
                assert abs(rep.m[j, k] - 0.5 * np.trace(sj @ apply(ch, sk)).real) < 1e-12


def test_transfer_matrix_is_cached_and_read_only():
    ch = random_channel(3, 2, np.random.default_rng(51))
    assert ch.transfer is ch.transfer
    with pytest.raises(ValueError):
        ch.transfer[0, 0] = 1.0


# --- the Kraus array -------------------------------------------------------------


@pytest.mark.parametrize("channel", [
    gad_channel(0.7, 0.4),
    random_incoherent_channel(3, np.random.default_rng(52)),
    make_channel([[[1, 0], [0, 1]]]),
    KrausChannel(dim=2, kraus_ops=(np.eye(2),)),
    channel_from_json(channel_to_json(partial_dephasing_channel(4, 0.5))),
], ids=["gad", "incoherent", "int-list", "direct-tuple", "sparse-file"])
def test_kraus_ops_is_one_read_only_complex_array(channel):
    k = channel.kraus_ops
    assert isinstance(k, np.ndarray) and k.dtype == complex
    assert k.shape == (channel.n_ops, channel.dim, channel.dim)
    with pytest.raises(ValueError):
        k[0, 0, 0] = 2.0


def test_make_channel_copies_its_input():
    ops = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    stack = np.array(ops)
    from_list, from_array = make_channel(ops), make_channel(stack)
    ops[0][0, 0] = 5.0
    ops[1][...] = 7.0
    ops.append(np.eye(2))
    stack[...] = 9.0
    for channel in (from_list, from_array):
        np.testing.assert_array_equal(channel.kraus_ops, [np.eye(2), np.zeros((2, 2))])


@pytest.mark.parametrize("ops, dim", [
    ([np.eye(2), np.eye(3)], None),
    ([np.eye(2)], 3),
    ([np.ones(2)], None),
    (np.zeros((1, 2, 3)), None),
], ids=["mixed-sizes", "declared-dim", "vector", "non-square-array"])
def test_wrong_shaped_operator_is_a_dimension_mismatch(ops, dim):
    with pytest.raises(DimensionMismatchError):
        make_channel(ops, dim=dim)


@pytest.mark.parametrize("build", [
    lambda: make_channel([np.zeros((0, 0))]),
    lambda: KrausChannel(dim=0, kraus_ops=np.zeros((1, 0, 0))),
], ids=["make_channel", "KrausChannel"])
def test_zero_dimension_is_an_invalid_dimension(build):
    with pytest.raises(InvalidDimensionError, match="need d >= 1, got 0"):
        build()


@pytest.mark.parametrize("op, error, message", [
    (1.0, DimensionMismatchError, "Kraus operator 0 has shape (), expected (1, 1)"),
    (np.float64(1), DimensionMismatchError, "Kraus operator 0 has shape (), expected (1, 1)"),
    ("ab", ParameterOutOfRangeError, "need a numeric Kraus operator 0, got dtype <U2"),
    ([[1, 0], [0]], ParameterOutOfRangeError,
     "need a numeric Kraus operator 0, got a ragged nesting"),
], ids=["float", "numpy-float", "string", "ragged"])
def test_make_channel_reads_dim_off_a_valid_first_operator(op, error, message):
    with pytest.raises(error) as exc:
        make_channel([op])
    assert str(exc.value) == message


def test_kraus_array_products_match_the_loops():
    rng = np.random.default_rng(53)
    a, b = random_channel(3, 2, rng), random_channel(3, 3, rng)
    np.testing.assert_array_equal(kron_channel(a, b).kraus_ops,
                                  [np.kron(x, y) for x in a.kraus_ops for y in b.kraus_ops])
    products = [x @ y for x in a.kraus_ops for y in b.kraus_ops]
    assert np.abs(compose(a, b).kraus_ops - products).max() <= 1e-15
    choi = kraus_to_choi(a)
    w, v = np.linalg.eigh(choi.matrix)
    loop = [np.sqrt(3 * lam) * v[:, i].reshape(3, 3) for i, lam in enumerate(w) if lam > 1e-10]
    np.testing.assert_array_equal(choi_to_kraus(choi).kraus_ops, loop)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), n_ops=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_the_einsum_oracle(d, n_ops, seed):
    rng = np.random.default_rng(seed)
    channel = random_channel(d, n_ops, rng)
    rho = random_density_matrix(d, rng)
    k = channel.kraus_ops
    expected = np.einsum("nij,jk,nlk->il", k, rho, k.conj())
    assert np.abs(apply(channel, rho) - expected).max() <= 1e-14


# --- non-finite input ----------------------------------------------------------


def test_non_finite_input_is_rejected():
    from cohbreak.channels import ChoiMatrix
    from cohbreak.errors import CohbreakError
    nan_op = np.eye(2, dtype=complex)
    nan_op[0, 1] = np.nan
    nan_choi = np.eye(4, dtype=complex) / 4
    nan_choi[1, 2] = np.nan
    cases = [
        lambda: make_channel([nan_op]),
        lambda: ChoiMatrix(dim=2, matrix=nan_choi),
        lambda: QubitAffine(m=np.diag([np.nan, 0.0, 0.0]), shift=np.zeros(3)),
        lambda: QubitAffine(m=np.zeros((3, 3)), shift=np.array([0.0, 0.0, np.inf])),
        lambda: density_eigenvalues(np.diag([np.nan, 1.0])),
        lambda: cbc_from_povm([np.diag([1.0, np.nan]), np.diag([0.0, 1.0])]),
    ]
    for build in cases:
        with pytest.raises(CohbreakError, match="NaN or infinite"):
            build()


@pytest.mark.parametrize("d", [1, 2, 5, 9])
def test_haar_unitary_is_the_square_ginibre_qr_draw(d):
    # The draw written out: QR of a Ginibre matrix, R's diagonal phases moved into Q.
    rng = np.random.default_rng(d)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    expected = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    assert haar_unitary(d, np.random.default_rng(d)).tobytes() == expected.tobytes()


def test_random_channel_draws_only_its_isometry():
    # A (d k) x d isometry, not a (d k) x (d k) unitary: 0.7 MB here, 26 MB per unitary copy.
    tracemalloc.start()
    try:
        random_channel(32, 40, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("d, k", [(2, 3), (3, 1), (4, 5)])
def test_random_channel_isometry_entry_has_the_haar_law(d, k):
    # |V_00|^2 of a Haar isometry C^d -> C^n, n = d k, is Beta(1, n - 1), with raw
    # moments E[x^j] = j! / (n (n + 1) ... (n + j - 1)): mean 1/n and variance
    # (n - 1) / (n^2 (n + 1)). Both sample estimates lie within 4 standard errors.
    n, draws, rng = d * k, 4000, np.random.default_rng(20261019)
    x = np.array([abs(random_channel(d, k, rng).kraus_ops[0, 0, 0]) ** 2 for _ in range(draws)])
    m = [math.factorial(j) / math.prod(range(n, n + j)) for j in range(5)]
    mean, var = m[1], (n - 1) / (n * n * (n + 1))
    assert math.isclose(m[2] - mean**2, var, rel_tol=1e-12)
    mu4 = m[4] - 4 * m[3] * mean + 6 * m[2] * mean**2 - 3 * mean**4
    assert abs(x.mean() - mean) <= 4 * math.sqrt(var / draws)
    assert abs(x.var(ddof=1) - var) <= 4 * math.sqrt((mu4 - var**2) / draws)
