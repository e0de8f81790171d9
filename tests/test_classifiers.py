import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak import channels
from cohbreak.channels import (
    QubitAffine,
    affine_from_kraus,
    affine_to_kraus,
    cbc_from_povm,
    dephasing_channel,
    gad_channel,
    haar_unitary,
    identity_channel,
    kraus_to_choi,
    make_channel,
    partial_dephasing_channel,
    random_channel,
    random_incoherent_channel,
    random_povm,
    unitary_channel,
)
from cohbreak.classifiers import (
    _unit_image_maxima,
    classify,
    is_cbc,
    is_cbc_affine,
    is_dio,
    is_entanglement_breaking,
    is_incoherent_kraus,
    is_qc,
    is_scbc,
    is_sio,
)
from cohbreak.dynamics import certify_incoherent, coherence_breaking_index, factorization_check
from cohbreak.errors import HypothesisViolatedError, NotIncoherentChannelError
from cohbreak.linalg import partial_transpose
from cohbreak.states import from_bloch
from conftest import (
    HADAMARD,
    cbc_by_phase_sweep,
    dio_cbc_form,
    random_density_matrix,
    rotated_dephasing_channel,
    second_example_affine,
    sio_cbc_form,
)


def test_incoherent_kraus_accepts_dephasing():
    ok, witness = is_incoherent_kraus(dephasing_channel(3))
    assert ok and witness["residual"] == 0.0


def test_incoherent_kraus_rejects_hadamard():
    ok, witness = is_incoherent_kraus(unitary_channel(HADAMARD))
    assert not ok
    assert witness["operator"] == 0 and "column" in witness


def test_incoherent_kraus_accepts_povm_construction():
    rng = np.random.default_rng(0)
    ok, _ = is_incoherent_kraus(cbc_from_povm(random_povm(3, 3, rng)))
    assert ok


def test_sio_accepts_permutation_unitary():
    perm = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ok, _ = is_sio(unitary_channel(perm))
    assert ok


def test_sio_rejects_row_violation():
    # K1 = (|0><0| + |0><1|)/sqrt(2) has two nonzeros in row 0; columns are fine.
    k1 = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    k2 = np.array([[0.0, 0.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    ch = make_channel([k1, k2])
    ok_col, _ = is_incoherent_kraus(ch)
    assert ok_col
    ok_sio, witness = is_sio(ch)
    assert not ok_sio and witness["axis"] == "row"


def test_sio_accepts_sub_permutation_form():
    rng = np.random.default_rng(1)
    ok, _ = is_sio(sio_cbc_form(3, rng))
    assert ok


def test_scbc_accepts_dephasing_and_rejects_identity():
    ok, _ = is_scbc(dephasing_channel(2))
    assert ok
    ok, _ = is_scbc(identity_channel(2))
    assert not ok


def test_scbc_accepts_povm_construction():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        ok, _ = is_scbc(cbc_from_povm(random_povm(d, d, rng)))
        assert ok


def test_cbc_accepts_dephasing():
    ok, witness = is_cbc(dephasing_channel(2))
    assert ok and witness["residual"] == 0.0


def test_cbc_rejects_identity_with_unit_witness():
    ok, witness = is_cbc(identity_channel(2))
    assert not ok
    assert witness["unit"] == [0, 1]
    assert witness["residual"] == 1.0


def test_cbc_accepts_z_only_affine_channel():
    rep = QubitAffine(m=np.diag([0.0, 0.0, 0.5]), shift=np.array([0.0, 0.0, 0.3]))
    ok, _ = is_cbc(affine_to_kraus(rep))
    assert ok


def test_cbc_affine():
    assert is_cbc_affine(QubitAffine(m=np.diag([0.0, 0.0, 1.0]), shift=np.zeros(3)))
    assert not is_cbc_affine(affine_from_kraus(gad_channel(0.7, 1.0)))
    m = np.zeros((3, 3))
    m[0, 1] = 0.5
    rep = QubitAffine(m=m, shift=np.zeros(3))
    assert not is_cbc_affine(rep)
    squared = QubitAffine(m=m @ m, shift=np.zeros(3))
    assert is_cbc_affine(squared)


def test_dio_accepts_dephasing_and_permutations():
    ok, _ = is_dio(dephasing_channel(3))
    assert ok
    perm = np.zeros((3, 3), dtype=complex)
    perm[[1, 2, 0], [0, 1, 2]] = 1.0
    ok, _ = is_dio(unitary_channel(perm))
    assert ok


def test_dio_cbc_form_is_dio_and_cbc():
    rng = np.random.default_rng(3)
    ch = dio_cbc_form(3, rng)
    ok_dio, _ = is_dio(ch)
    ok_cbc, _ = is_cbc(ch)
    assert ok_dio and ok_cbc


def test_dio_rejects_hadamard():
    ok, _ = is_dio(unitary_channel(HADAMARD))
    assert not ok


def test_qc_yes_for_breaking_channels():
    rng = np.random.default_rng(4)
    ok, _ = is_qc(cbc_from_povm(random_povm(2, 2, rng)))
    assert ok


def test_qc_yes_for_rotated_dephasing_but_cbc_no():
    ch = rotated_dephasing_channel()
    ok_qc, _ = is_qc(ch)
    ok_cbc, _ = is_cbc(ch)
    assert ok_qc and not ok_cbc


def test_qc_no_for_identity():
    ok, witness = is_qc(identity_channel(2))
    assert not ok and witness["max_commutator"] > 1.0


def test_eb_yes_for_qubit_dephasing():
    verdict, witness = is_entanglement_breaking(dephasing_channel(2))
    assert verdict == "yes" and witness["min_pt_eigenvalue"] >= -1e-12


def test_eb_no_for_qubit_identity():
    verdict, witness = is_entanglement_breaking(identity_channel(2))
    assert verdict == "no"
    assert abs(witness["min_pt_eigenvalue"] + 0.5) < 1e-12


def test_eb_never_no_for_qutrit_breaking_channels():
    rng = np.random.default_rng(5)
    for _ in range(10):
        verdict, _ = is_entanglement_breaking(cbc_from_povm(random_povm(3, 3, rng)))
        assert verdict in ("yes", "inconclusive")


def test_classify_dephasing_all_yes():
    report = classify(dephasing_channel(2))
    assert all(v == "yes" for v in report.verdicts.values())


def test_classify_identity():
    report = classify(identity_channel(2))
    assert report.verdicts["incoherent"] == "yes"
    assert report.verdicts["sio"] == "yes"
    assert report.verdicts["dio"] == "yes"
    for name in ("scbc", "cbc", "qc", "entanglement_breaking"):
        assert report.verdicts[name] == "no", name


def test_classify_gad():
    report = classify(gad_channel(0.7, 1.0))
    assert report.verdicts["incoherent"] == "yes"
    assert report.verdicts["cbc"] == "no"
    assert report.verdicts["qc"] == "no"


def test_classify_retries_with_canonical_decomposition():
    # Mix the two dephasing Kraus operators by a unitary: the rotated set is
    # not diagonal, but the canonical or constructive route restores "yes".
    delta = dephasing_channel(2)
    k0, k1 = delta.kraus_ops
    mixed = make_channel(
        [(k0 + k1) / np.sqrt(2.0), (k0 - k1) / np.sqrt(2.0)], dim=2
    )
    ok_given, _ = is_incoherent_kraus(mixed)
    report = classify(mixed)
    assert report.verdicts["incoherent"] == "yes"
    assert report.verdicts["scbc"] == "yes"
    assert report.verdicts["cbc"] == "yes"
    assert not ok_given or report.evidence["incoherent"]["decomposition"] == "given"


def count_extractions(monkeypatch) -> list:
    """Count `choi_to_kraus` calls, patched in every cohbreak module that holds it."""
    calls = []
    original = channels.choi_to_kraus

    def counting(choi):
        calls.append(choi.dim)
        return original(choi)

    for name, module in list(sys.modules.items()):
        if name.startswith("cohbreak") and getattr(module, "choi_to_kraus", None) is original:
            monkeypatch.setattr(module, "choi_to_kraus", counting)
    return calls


def test_classify_never_extracts_when_the_given_set_passes(monkeypatch):
    calls = count_extractions(monkeypatch)
    report = classify(dephasing_channel(4))
    assert {report.evidence[name]["decomposition"] for name in ("incoherent", "sio", "scbc")} \
        == {"given"}
    assert calls == []


def test_canonical_set_is_extracted_once_per_channel(monkeypatch):
    # Amplitude damping with its two Kraus operators mixed: the given set
    # fails the incoherent pattern, the canonical set passes it.
    k0, k1 = gad_channel(0.6, 1.0).kraus_ops
    mixed = make_channel([(k0 + k1) / np.sqrt(2.0), (k0 - k1) / np.sqrt(2.0)], dim=2)
    calls = count_extractions(monkeypatch)
    assert classify(mixed).evidence["incoherent"]["decomposition"] == "canonical"
    assert coherence_breaking_index(mixed, cap=4).exceeded
    assert factorization_check(from_bloch(np.array([0.3, 0.5, 0.2])), mixed).certification \
        == "incoherent-kraus"
    assert calls == [2]


# The Hadamard affine pair is the channel of the Hadamard unitary: not MIO, since it
# sends |0><0| to |+><+|.
HADAMARD_AFFINE = QubitAffine(m=np.array([[0.0, 0, 1], [0, -1, 0], [1, 0, 0]]), shift=np.zeros(3))


@pytest.mark.parametrize("build, incoherent", [
    (lambda rng: random_incoherent_channel(12, rng), "yes"),
    (lambda rng: random_channel(3, 2, rng), "no"),
    (lambda rng: affine_to_kraus(HADAMARD_AFFINE), "no"),
], ids=["incoherent-d12", "random-d3", "hadamard-affine"])
def test_classify_refutes_without_extracting(monkeypatch, build, incoherent):
    # No channel is CBC, so SCBC fails on the given set; the failing CBC
    # test refutes it without the canonical set, as the MIO test refutes
    # "incoherent" for a channel that is not incoherent.
    channel = build(np.random.default_rng(7))
    calls = count_extractions(monkeypatch)
    report = classify(channel)
    assert report.verdicts["cbc"] == "no" and report.verdicts["scbc"] == "no"
    assert report.verdicts["incoherent"] == incoherent
    assert calls == []


def haar_mixed(channel, rng):
    """The same channel from its Kraus set mixed by a Haar unitary: K'_m = sum_n U_mn K_n."""
    u = haar_unitary(channel.n_ops, rng)
    return make_channel(np.tensordot(u, channel.kraus_ops, axes=1), dim=channel.dim)


def random_sio_channel(d, rng):
    """An SIO Kraus set: `sio_cbc_form` (CBC), or three phased permutation unitaries."""
    return sio_cbc_form(d, rng) if rng.random() < 0.5 else make_channel(
        [np.eye(d)[rng.permutation(d)] * np.exp(1j * rng.uniform(0, 2 * np.pi, d)) / np.sqrt(3)
         for _ in range(3)], dim=d)


SOUNDNESS_KINDS = {
    "incoherent": random_incoherent_channel,
    "random": lambda d, rng: random_channel(d, int(rng.integers(1, 4)), rng),
    "povm": lambda d, rng: cbc_from_povm(random_povm(d, d, rng)),
    "mixed-io": lambda d, rng: haar_mixed(random_incoherent_channel(d, rng), rng),
    "mixed-sio": lambda d, rng: haar_mixed(random_sio_channel(d, rng), rng),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SOUNDNESS_KINDS)), d=st.integers(2, 6),
       tol=st.sampled_from([1e-8, 1e-4, 1e-2, 0.05]), seed=st.integers(0, 2**32 - 1))
def test_refuting_residuals_rule_out_the_canonical_set(kind, d, tol, seed):
    # A canonical set of n <= d^2 operators that passes a pattern test keeps
    # the matching residual within 2 sqrt(n) tol, so above 2 d^2 tol it fails.
    channel = SOUNDNESS_KINDS[kind](d, np.random.default_rng(seed))
    off, dio = _unit_image_maxima(channel.transfer, d)
    for residual, predicate in ((off.diagonal().max(), is_incoherent_kraus),
                                (dio.max(), is_sio), (off.max(), is_scbc)):
        if residual > 2 * d * d * tol:
            assert not predicate(channel.canonical, tol)[0]


def mixed_depolarizing_channel(d, rng):
    """rho -> I/d from the Kraus set of the uniform POVM, mixed by a Haar unitary. Its
    Choi matrix is I/d^2, so any basis is a canonical set, and the one `eigh` picks
    fails the incoherent pattern."""
    return haar_mixed(cbc_from_povm([np.eye(d) / d] * d), rng)


@pytest.mark.parametrize("d, seed", [(2, 2), (3, 3), (4, 4), (3, 7)],
                         ids=["2", "3", "4", "3-seed-7"])
def test_mixed_depolarizing_channel_is_incoherent_with_index_one(monkeypatch, d, seed):
    rng = np.random.default_rng(seed)
    channel = mixed_depolarizing_channel(d, rng)
    calls = count_extractions(monkeypatch)
    assert certify_incoherent(channel) == "via-cbc"
    assert coherence_breaking_index(channel).value == 1
    rho = random_density_matrix(d, rng)
    first = factorization_check(rho, channel)
    assert first.certification == "incoherent-kraus"
    assert factorization_check(rho, channel) == first  # read back off the channel
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SOUNDNESS_KINDS) + ["mixed-depolarizing"]),
       d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_index_and_factorization_law_certify_what_classify_says(kind, d, seed):
    rng = np.random.default_rng(seed)
    channel = {**SOUNDNESS_KINDS, "mixed-depolarizing": mixed_depolarizing_channel}[kind](d, rng)
    verdict = classify(channel).verdicts["incoherent"]
    try:
        certify_incoherent(channel)
    except NotIncoherentChannelError:
        assert verdict == "no"
    else:
        assert verdict != "no"
    try:
        label = factorization_check(random_density_matrix(d, rng), channel).certification
    except HypothesisViolatedError:  # Phi(I/d) not diagonal: not incoherent either
        label = None
    assert (label == "incoherent-kraus") == (verdict == "yes")


@pytest.mark.parametrize("channel", [
    *(partial_dephasing_channel(d, 6e-9) for d in (2, 3, 4)),
    affine_to_kraus(QubitAffine(m=np.diag([6e-9, 6e-9, 1.0]), shift=np.zeros(3))),
], ids=["2", "3", "4", "affine"])
def test_near_tolerance_breaking_channel_classifies(channel):
    # CBC residual 6e-9 is within tol, the largest commutator (1.2e-8) is not:
    # QC is implied by CBC instead of contradicting it.
    report = classify(channel)
    assert all(report.verdicts[name] == "yes" for name in ("cbc", "scbc", "qc"))
    assert report.evidence["qc"]["implied_by"] == "cbc"
    assert "max_commutator" in report.evidence["qc"]


def near_breaking_channel(d, rng, tol):
    """A measure-and-prepare Kraus set perturbed on the scale of tol, then made
    trace preserving again: K_n -> K_n S^(-1/2) with S = sum_n K_n^dag K_n."""
    ops = cbc_from_povm(random_povm(d, d, rng)).kraus_ops
    ops = ops + tol * 10 ** rng.uniform(-1, 1) * (rng.normal(size=ops.shape)
                                                  + 1j * rng.normal(size=ops.shape))
    w, v = np.linalg.eigh(np.einsum("nij,nik->jk", ops.conj(), ops))
    return make_channel(ops @ (v * w ** -0.5) @ v.conj().T, dim=d)


NEAR_TOLERANCE_KINDS = {
    "near-measure-prepare": near_breaking_channel,
    "near-dephasing": lambda d, rng, tol: partial_dephasing_channel(
        d, tol * 10 ** rng.uniform(-1, 1)),
}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(SOUNDNESS_KINDS) + sorted(NEAR_TOLERANCE_KINDS)),
       d=st.integers(2, 5), tol=st.sampled_from([1e-8, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_classify_verdicts_respect_the_class_chain(kind, d, tol, seed):
    rng = np.random.default_rng(seed)
    channel = (NEAR_TOLERANCE_KINDS[kind](d, rng, tol) if kind in NEAR_TOLERANCE_KINDS
               else SOUNDNESS_KINDS[kind](d, rng))
    v = classify(channel, tol).verdicts
    assert v["scbc"] == v["cbc"]
    if v["cbc"] == "yes":
        assert v["incoherent"] == v["scbc"] == v["qc"] == "yes"
    if v["qc"] == "yes":
        assert v["entanglement_breaking"] != "no"


@pytest.mark.parametrize("build", [
    lambda rng: dephasing_channel(4),
    lambda rng: cbc_from_povm(random_povm(3, 3, rng)),
], ids=["dephasing-d4", "povm-d3"])
def test_breaking_channel_classifies_without_extracting(monkeypatch, build):
    # The mixed set fails the SCBC pattern (and, for the POVM channel, the
    # incoherent one); CBC decides both without the canonical set.
    rng = np.random.default_rng(11)
    channel = haar_mixed(build(rng), rng)
    calls = count_extractions(monkeypatch)
    report = classify(channel)
    assert report.verdicts["scbc"] == "yes"
    assert report.evidence["scbc"]["decomposition"] == "via-cbc"
    assert calls == []


def test_report_dict_is_a_copy():
    report = classify(gad_channel(0.7, 0.4))
    before = json.dumps(report.to_dict())
    data = report.to_dict()
    data["verdicts"]["cbc"] = "yes"
    data["evidence"]["cbc"]["residual"] = -1.0
    data["evidence"]["qc"].clear()
    data["evidence"]["extra"] = {}
    assert json.dumps(report.to_dict()) == before


def test_classify_inclusion_chain_on_corpus(corpus):
    for name, channel in corpus:
        report = classify(channel)
        v = report.verdicts
        if v["cbc"] == "yes":
            assert v["qc"] == "yes", name
            assert v["entanglement_breaking"] != "no", name
        if v["qc"] == "yes":
            assert v["entanglement_breaking"] != "no", name
        assert v["scbc"] == v["cbc"], name


def test_phase_sweep_agrees_with_matrix_unit_test(corpus):
    rng = np.random.default_rng(6)
    for name, channel in corpus:
        ok_units, _ = is_cbc(channel)
        ok_sweep = cbc_by_phase_sweep(channel, rng, n_random=20)
        assert ok_units == ok_sweep, name


def test_scbc_equals_cbc_on_povm_and_random_channels():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for _ in range(20):
            ch = cbc_from_povm(random_povm(d, d, rng))
            ok_scbc, _ = is_scbc(ch)
            ok_cbc, _ = is_cbc(ch)
            assert ok_scbc and ok_cbc
    for d in (2, 3):
        for _ in range(20):
            ch = random_channel(d, 2, rng)
            ok_scbc, _ = is_scbc(ch)
            ok_cbc, _ = is_cbc(ch)
            assert ok_scbc == ok_cbc


def test_sio_cbc_equals_dio_cbc_on_generated_forms():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        for _ in range(25):
            for ch in (sio_cbc_form(d, rng), dio_cbc_form(d, rng)):
                ok_sio, _ = is_sio(ch)
                ok_dio, _ = is_dio(ch)
                ok_cbc, _ = is_cbc(ch)
                assert (ok_sio and ok_cbc) == (ok_dio and ok_cbc)
                assert ok_sio and ok_dio and ok_cbc


def test_second_example_channel_classification():
    from cohbreak.channels import affine_iterate

    m, shift = second_example_affine()
    rep = QubitAffine(m=m, shift=shift)
    ch = affine_to_kraus(rep)  # raises if the chosen constants were not CPTP
    ok, _ = is_cbc(ch)
    assert not ok
    assert not is_cbc_affine(rep)
    assert is_cbc_affine(affine_iterate(rep, 2))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 3]), kind=st.sampled_from(["random", "incoherent", "povm"]),
       seed=st.integers(0, 2**32 - 1))
def test_classify_verdicts_ignore_kraus_order(data, d, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        ch = random_channel(d, 3, rng)
    elif kind == "incoherent":
        ch = random_incoherent_channel(d, rng)
    else:
        ch = cbc_from_povm(random_povm(d, d, rng))
    order = data.draw(st.permutations(range(ch.n_ops)))
    permuted = make_channel([ch.kraus_ops[i] for i in order], dim=d)
    assert classify(permuted).verdicts == classify(ch).verdicts


def test_eb_witness_is_the_partial_transpose_of_the_choi_matrix(corpus):
    # The EB test's PT, built through linalg.partial_transpose, is that of kraus_to_choi.
    for name, ch in corpus:
        expected = np.linalg.eigvalsh(partial_transpose(kraus_to_choi(ch).matrix, ch.dim)).min()
        _, witness = is_entanglement_breaking(ch)
        assert witness["min_pt_eigenvalue"] == float(expected), name
