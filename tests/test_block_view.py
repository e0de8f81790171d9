"""The channel's coherent/diagonal block view of T, and the argument checks of the
tolerance- and seed-taking entry points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak import channels
from cohbreak.channels import (
    affine_from_kraus,
    dephasing_channel,
    gad_channel,
    identity_channel,
    make_channel,
    random_channel,
    random_incoherent_channel,
    unitary_channel,
)
from cohbreak.classifiers import (
    classify,
    is_cbc,
    is_cbc_affine,
    is_dio,
    is_entanglement_breaking,
    is_incoherent_kraus,
    is_qc,
    is_scbc,
    is_sio,
    matrix_unit_images,
)
from cohbreak.coherence import is_incoherent_state
from cohbreak.dynamics import (
    certify_incoherent,
    coherence_breaking_index,
    coherence_breaking_index_affine,
    evolve,
    factorization_check,
)
from cohbreak.errors import ParameterOutOfRangeError
from cohbreak.states import haar_random_pure, maximally_coherent
from conftest import HADAMARD


def count_maxima_builds(monkeypatch) -> list:
    """Count the builds of the per-unit CBC/DIO maxima."""
    calls = []
    original = channels._unit_image_maxima

    def counting(t, d):
        calls.append(d)
        return original(t, d)

    monkeypatch.setattr(channels, "_unit_image_maxima", counting)
    return calls


def test_a_channel_builds_its_unit_maxima_once(monkeypatch):
    # Amplitude damping with its two Kraus operators mixed: the given set fails
    # the incoherent pattern (so the ladder asks for CBC) and the outputs do not
    # commute (so is_qc falls back on CBC).
    k0, k1 = gad_channel(0.6, 1.0).kraus_ops
    channel = make_channel([(k0 + k1) / np.sqrt(2.0), (k0 - k1) / np.sqrt(2.0)], dim=2)
    calls = count_maxima_builds(monkeypatch)
    report = classify(channel)
    assert report.evidence["incoherent"]["decomposition"] == "canonical"
    assert report.verdicts["qc"] == "no" and report.verdicts["cbc"] == "no"
    assert not is_cbc(channel)[0] and not is_qc(channel)[0]
    assert is_dio(channel)[0]
    assert certify_incoherent(channel) == "canonical"
    factorization_check(maximally_coherent(2), channel)
    assert calls == [2]


def unit_maxima_by_loop(channel):
    """CBC and DIO residual of each unit from a plain loop over the unit images."""
    d = channel.dim
    images = np.abs(matrix_unit_images(channel))
    off, on = np.zeros((d, d)), np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            mags = images[i, j]
            off[i, j] = max((mags[u, v] for u in range(d) for v in range(d) if u != v),
                            default=0.0)
            on[i, j] = off[i, j] if i == j else max(mags[u, u] for u in range(d))
    return np.maximum(off, off.T), np.maximum(on, on.T)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 6), incoherent=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_cached_unit_maxima_match_a_loop_over_the_unit_images(d, incoherent, seed):
    rng = np.random.default_rng(seed)
    channel = (random_incoherent_channel(d, rng) if incoherent
               else random_channel(d, int(rng.integers(1, 4)), rng))
    cbc, dio = channel.unit_maxima
    expected_cbc, expected_dio = unit_maxima_by_loop(channel)
    np.testing.assert_array_equal(cbc, expected_cbc)
    np.testing.assert_array_equal(dio, expected_dio)
    assert channel.unit_maxima is channel.unit_maxima
    with pytest.raises(ValueError):
        cbc[0, 0] = 1.0


BAD_TOLS = [float("nan"), float("inf"), 0.0, -1e-8,
            "1e-8", None, True, np.True_, 1 + 0j, np.array(1e-8)]
BAD_TOL_IDS = ["nan", "inf", "zero", "negative",
               "string", "none", "bool", "numpy-bool", "complex", "zero-d-array"]

TOL_ENTRY_POINTS = {
    "classify": lambda tol: classify(identity_channel(3), tol=tol),
    "certify_incoherent": lambda tol: certify_incoherent(unitary_channel(HADAMARD), tol),
    "coherence_breaking_index": lambda tol: coherence_breaking_index(dephasing_channel(3),
                                                                     tol=tol),
    "coherence_breaking_index_affine": lambda tol: coherence_breaking_index_affine(
        affine_from_kraus(gad_channel(0.5, 1.0)), tol=tol),
    "evolve": lambda tol: evolve(maximally_coherent(2), dephasing_channel(2), 3, tol=tol),
    "factorization_check": lambda tol: factorization_check(maximally_coherent(2),
                                                           dephasing_channel(2), tol=tol),
    "is_incoherent_state": lambda tol: is_incoherent_state(np.eye(2) / 2, tol),
}


@pytest.mark.parametrize("tol", BAD_TOLS, ids=BAD_TOL_IDS)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_entry_points_reject_a_tolerance_that_is_not_finite_and_positive(entry, tol):
    with pytest.raises(ParameterOutOfRangeError, match="finite tol > 0"):
        TOL_ENTRY_POINTS[entry](tol)


PREDICATES = {
    "is_cbc": lambda tol: is_cbc(identity_channel(3), tol),
    "is_dio": lambda tol: is_dio(identity_channel(3), tol),
    "is_qc": lambda tol: is_qc(identity_channel(3), tol),
    "is_cbc_affine": lambda tol: is_cbc_affine(affine_from_kraus(dephasing_channel(2)), tol),
    "is_incoherent_kraus": lambda tol: is_incoherent_kraus(identity_channel(3), tol),
    "is_sio": lambda tol: is_sio(identity_channel(3), tol),
    "is_scbc": lambda tol: is_scbc(dephasing_channel(3), tol),
    "is_entanglement_breaking": lambda tol: is_entanglement_breaking(dephasing_channel(2), tol),
}


@pytest.mark.parametrize("tol", BAD_TOLS, ids=BAD_TOL_IDS)
@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_single_class_predicates_reject_a_tolerance_that_is_not_finite_and_positive(predicate,
                                                                                   tol):
    with pytest.raises(ParameterOutOfRangeError, match="finite tol > 0"):
        PREDICATES[predicate](tol)


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_haar_random_pure_rejects_a_negative_seed(seed):
    with pytest.raises(ParameterOutOfRangeError, match="seed >= 0"):
        haar_random_pure(2, seed)
