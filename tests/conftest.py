"""Shared test fixtures: the channel corpus and independent oracles."""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest
from hypothesis import settings

from cohbreak.channels import (
    KrausChannel,
    cbc_from_povm,
    dephasing_channel,
    gad_channel,
    identity_channel,
    make_channel,
    partial_dephasing_channel,
    random_channel,
    random_incoherent_channel,
    random_povm,
    unitary_channel,
    y_to_x_channel,
)
from cohbreak.coherence import is_incoherent_state
from cohbreak.channels import apply
from cohbreak.linalg import generalized_gell_mann
from cohbreak.states import complex_matrix_to_json, maximally_coherent

# With CI set (GitHub Actions sets it), property tests draw their examples
# from a fixed seed, so a failure there replays locally with CI=1.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def rotated_dephasing_channel() -> KrausChannel:
    """Dephase, then rotate into the Hadamard basis: QC but not CBC."""
    ops = [HADAMARD @ k for k in dephasing_channel(2).kraus_ops]
    return make_channel(ops, dim=2)


def constant_channel(d: int, target: int) -> KrausChannel:
    """Send every input to |target><target|."""
    effects = [np.zeros((d, d), dtype=complex) for _ in range(d)]
    effects[target] = np.eye(d, dtype=complex)
    return cbc_from_povm(effects)


def sio_cbc_form(d: int, rng: np.random.Generator, n_perms: int = 3) -> KrausChannel:
    """Kraus family d_ij |pi_i(j)><j| with sum_i |d_ij|^2 = 1 per column."""
    perms = [rng.permutation(d) for _ in range(n_perms)]
    coeff = rng.normal(size=(n_perms, d)) + 1j * rng.normal(size=(n_perms, d))
    coeff /= np.linalg.norm(coeff, axis=0)[None, :]
    ops = []
    for i, perm in enumerate(perms):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[perm[j], j] = coeff[i, j]
            ops.append(k)
    return make_channel(ops, dim=d)


def dio_cbc_form(d: int, rng: np.random.Generator) -> KrausChannel:
    """Kraus family sqrt(p_ij) |i><j| with column-stochastic p."""
    p = np.stack([rng.dirichlet(np.ones(d)) for _ in range(d)], axis=1)
    ops = []
    for i in range(d):
        for j in range(d):
            if p[i, j] <= 0.0:
                continue
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = np.sqrt(p[i, j])
            ops.append(k)
    return make_channel(ops, dim=d)


def cbc_by_phase_sweep(
    channel: KrausChannel,
    rng: np.random.Generator,
    n_random: int = 50,
    tol: float = 1e-8,
) -> bool:
    """Independent breaking test that only ever probes physical states.

    Incoherent output is required on every reference basis state (the
    action-level face of channel incoherence) and on maximally coherent
    states with random phases plus the d Fourier phase states. Without the
    basis-state leg the sweep is strictly weaker: a dephase-then-rotate
    channel sends every maximally coherent state to I/d while still
    creating coherence from |i><i|.
    """
    d = channel.dim
    for i in range(d):
        basis_state = np.zeros((d, d), dtype=complex)
        basis_state[i, i] = 1.0
        if not is_incoherent_state(apply(channel, basis_state), tol):
            return False
    for _ in range(n_random):
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=d)
        if not is_incoherent_state(apply(channel, maximally_coherent(d, thetas)), tol):
            return False
    for k in range(d):
        thetas = 2.0 * np.pi * k * np.arange(d) / d
        if not is_incoherent_state(apply(channel, maximally_coherent(d, thetas)), tol):
            return False
    return True


def pairwise_commutator_oracle(channel: KrausChannel) -> float:
    """Largest commutator entry over every pair of outputs of the Gell-Mann
    generators and the identity, each output summed over the Kraus operators:
    the exhaustive O(d^7) quantum-classical test."""
    d = channel.dim
    inputs = generalized_gell_mann(d).generators + (np.eye(d, dtype=complex),)
    ks = np.stack(channel.kraus_ops)
    outputs = np.stack([(ks @ x @ ks.conj().transpose(0, 2, 1)).sum(axis=0) for x in inputs])
    return max(float(np.abs(a @ outputs[k + 1:] - outputs[k + 1:] @ a).max())
               for k, a in enumerate(outputs[:-1]))


def second_example_affine(alpha: float = 0.4, beta: float = 0.25, nz: float = 0.2):
    """Second nilpotent-M qubit example: alpha at (x <- y), beta at (z <- x)."""
    m = np.zeros((3, 3))
    m[0, 1] = alpha
    m[2, 0] = beta
    return m, np.array([0.0, 0.0, nz])


def channel_corpus() -> list[tuple[str, KrausChannel]]:
    """Named deterministic corpus spanning every class combination we test."""
    rng = np.random.default_rng(20240817)
    corpus = [
        ("identity-d2", identity_channel(2)),
        ("identity-d3", identity_channel(3)),
        ("dephasing-d2", dephasing_channel(2)),
        ("dephasing-d3", dephasing_channel(3)),
        ("partial-dephasing-0.4", partial_dephasing_channel(2, 0.4)),
        ("partial-dephasing-d3-0.7", partial_dephasing_channel(3, 0.7)),
        ("hadamard", unitary_channel(HADAMARD)),
        ("gad-0.7-1.0", gad_channel(0.7, 1.0)),
        ("gad-0.3-0.5", gad_channel(0.3, 0.5)),
        ("gad-0.95-0.0", gad_channel(0.95, 0.0)),
        ("y-to-x-0.5", y_to_x_channel(0.5)),
        ("y-to-x-1.0", y_to_x_channel(1.0)),
        ("rotated-dephasing", rotated_dephasing_channel()),
        ("constant-to-0", constant_channel(2, 0)),
        ("constant-to-1-d3", constant_channel(3, 1)),
        ("povm-d2", cbc_from_povm(random_povm(2, 2, rng))),
        ("povm-d3", cbc_from_povm(random_povm(3, 3, rng))),
        ("incoherent-d2", random_incoherent_channel(2, rng)),
        ("incoherent-d3", random_incoherent_channel(3, rng)),
        ("sio-cbc-form-d3", sio_cbc_form(3, rng)),
        ("dio-cbc-form-d3", dio_cbc_form(3, rng)),
        ("random-cptp-d2", random_channel(2, 2, rng)),
        ("random-cptp-d3", random_channel(3, 2, rng)),
    ]
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, KrausChannel]]:
    return channel_corpus()


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from a normalized Wishart matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dense_channel_json(channel: KrausChannel) -> dict:
    """The dense "kraus" wire form, whichever form channel_to_json picks."""
    return {"dim": channel.dim, "kraus": [complex_matrix_to_json(k) for k in channel.kraus_ops]}


# "dim" values that are not a JSON integer equal to a 2x2 matrix's size: every
# wire form that reads "dim" rejects them (ValueError, CLI exit 2).
BAD_DIMS = {"dim-float": 2.0, "dim-fraction": 2.9, "dim-string": "2", "dim-bool": True}


# Sparse files that are each malformed in one way: the library raises
# ValueError and the CLI exits 2. The good base is the dephasing channel
# [[[0, 0, 1, 0]], [[1, 1, 1, 0]]]; a wrapped negative index would make
# the first two cases valid.
NAN = float("nan")
MALFORMED_SPARSE = {
    "negative-row": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[-1, 1, 1.0, 0.0]]]},
    "negative-column": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, -1, 1.0, 0.0]]]},
    "index-out-of-range": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[2, 1, 1.0, 0.0]]]},
    "index-float": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1.0, 1, 1.0, 0.0]]]},
    "index-bool": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[True, 1, 1.0, 0.0]]]},
    "duplicate-entry": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0], [0, 0, 0.0, 0.0]],
                                             [[1, 1, 1.0, 0.0]]]},
    "three-item-entry": {"dim": 2, "sparse": [[[0, 0, 1.0]], [[1, 1, 1.0, 0.0]]]},
    "dim-missing": {"sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, 1.0, 0.0]]]},
    "dim-null": {"dim": None, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, 1.0, 0.0]]]},
    "dim-infinity": {"dim": float("inf"), "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, 1.0, 0.0]]]},
    "value-nan": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, NAN, 0.0]]]},
    "value-null": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], [[1, 1, None, 0.0]]]},
    "empty-column": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]]]},
    "operator-not-list": {"dim": 2, "sparse": [[[0, 0, 1.0, 0.0]], 5]},
}
