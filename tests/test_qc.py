"""The eigenbasis quantum-classical test against the exhaustive pairwise one."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak.channels import (
    cbc_from_povm,
    channel_from_json,
    haar_unitary,
    make_channel,
    partial_dephasing_channel,
    random_channel,
    random_povm,
)
from cohbreak.classifiers import _QC_BAND, DEFAULT_TOL, _qc_inputs, classify, is_cbc, is_qc
from cohbreak.linalg import generalized_gell_mann
from conftest import pairwise_commutator_oracle

TOL = DEFAULT_TOL


def measure_and_prepare(d: int, rng: np.random.Generator, povm: bool):
    """Measure (in a random basis, or a random POVM) and prepare into a
    randomly rotated basis: quantum-classical by construction."""
    if povm:
        effects = random_povm(d, int(rng.integers(1, d + 1)), rng)
    else:
        u = haar_unitary(d, rng)
        effects = [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]
    w = haar_unitary(d, rng)
    return make_channel([w @ k for k in cbc_from_povm(effects).kraus_ops], dim=d)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), povm=st.booleans())
def test_measure_and_prepare_channels_are_qc(d, seed, povm):
    channel = measure_and_prepare(d, np.random.default_rng(seed), povm)
    ok, witness = is_qc(channel)
    assert ok, witness
    assert ok == (pairwise_commutator_oracle(channel) <= TOL)


def test_near_threshold_mixtures_match_the_pairwise_test():
    # A QC channel mixed with a random one at weight w has commutators and
    # eigenbasis residuals of order w: these weights put the residual inside
    # the fallback band, on both sides of tol.
    rng = np.random.default_rng(31)
    verdicts = set()
    for d in (2, 3, 5, 8):
        for w in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7):
            base = measure_and_prepare(d, rng, povm=bool(rng.integers(2)))
            other = random_channel(d, 2, rng)
            channel = make_channel([np.sqrt(1.0 - w) * k for k in base.kraus_ops]
                                   + [np.sqrt(w) * k for k in other.kraus_ops], dim=d)
            ok, witness = is_qc(channel)
            assert TOL / _QC_BAND <= witness["residual"] <= TOL * _QC_BAND, (d, w)
            oracle = pairwise_commutator_oracle(channel)
            assert ok == (oracle <= TOL), (d, w, witness, oracle)
            assert abs(witness["max_commutator"] - oracle) < 1e-13
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_random_channels_match_the_pairwise_test():
    rng = np.random.default_rng(32)
    for d in (2, 3, 4, 6):
        for rank in (1, 2, 5):
            channel = random_channel(d, rank, rng)
            ok, witness = is_qc(channel)
            oracle = pairwise_commutator_oracle(channel)
            assert ok == (oracle <= TOL)
            assert 0.0 < witness["max_commutator"] <= oracle + 1e-12


@pytest.mark.parametrize("seed", [1, 9001])
def test_qc_verdicts_on_the_classify_index_corpus(tmp_path, seed):
    # The channel files of the classify-index benchmark workload.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    corpus.classify_index(seed, tmp_path)
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) > 30
    for path in files:
        channel = channel_from_json(json.loads(path.read_text()))
        expected = "yes" if pairwise_commutator_oracle(channel) <= TOL else "no"
        assert classify(channel).verdicts["qc"] == expected, path.name


def test_is_qc_takes_at_most_20_ms_at_d16():
    channel = random_channel(16, 4, np.random.default_rng(33))
    channel.transfer  # built once per channel, outside the QC test
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        is_qc(channel)
        best = min(best, time.perf_counter() - start)
    assert best <= 0.020, f"is_qc took {best * 1e3:.1f} ms at d = 16"


@pytest.mark.parametrize("ops", [[[[1.0]]], [[[0.6]], [[0.8j]]]], ids=["identity", "two-ops"])
def test_is_qc_at_dimension_one_needs_no_gell_mann_basis(ops):
    assert is_qc(make_channel(ops)) == (True, {"max_commutator": 0.0, "residual": 0.0})


@pytest.mark.parametrize("d", [2, 3, 4])
def test_is_qc_says_yes_where_is_cbc_does(d):
    # Coherences scaled by 6e-9 pass CBC within tol, while the commutators of
    # the outputs exceed it: CBC implies QC, so the public verdict is "yes".
    channel = partial_dephasing_channel(d, 6e-9)
    assert is_cbc(channel)[0]
    ok, witness = is_qc(channel)
    assert ok and witness["implied_by"] == "cbc", witness


@pytest.mark.parametrize("d", range(1, 17))
def test_qc_diagonal_weights_are_the_gell_mann_diagonals(d):
    # Closed-form weights: the diagonals of the d - 1 diagonal generators, then of I.
    _, mix, _ = _qc_inputs(d)
    if d == 1:
        assert mix.shape == (1, 1) and mix[0, 0] == 1.0
        return
    diagonal = [*generalized_gell_mann(d)[d * d - d:], np.eye(d)]
    expected = np.stack([g.diagonal().real for g in diagonal], 1)
    assert mix.dtype == expected.dtype and mix.shape == expected.shape
    assert mix.tobytes() == expected.tobytes()
