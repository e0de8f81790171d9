"""Every count, dimension and seed goes through one check, `linalg._require_int`:
a Python or NumPy integer scalar (not a bool) at least the argument's minimum.
Anything else raises the entry point's error class with one of two messages."""

import pickle

import numpy as np
import pytest

from cohbreak.channels import (
    ChoiMatrix,
    KrausChannel,
    affine_from_kraus,
    affine_iterate,
    dephasing_channel,
    gad_channel,
    identity_channel,
    iterate,
    haar_unitary,
    partial_dephasing_channel,
    random_channel,
    random_incoherent_channel,
    random_povm,
)
from cohbreak.concentration import (
    contraction_check,
    corollary_bound,
    estimate_mean_coherence,
    levy_bound,
    lipschitz_scaled_l1,
    run_concentration_experiment,
    wilson_interval,
)
from cohbreak.dynamics import coherence_breaking_index, coherence_breaking_index_affine, evolve
from cohbreak.errors import InvalidDimensionError, ParameterOutOfRangeError
from cohbreak.linalg import generalized_gell_mann, partial_trace, partial_transpose
from cohbreak.states import haar_random_kets, haar_random_pure, maximally_coherent

GAD = gad_channel(0.7, 0.3)
PLUS = maximally_coherent(2)
DIM, COUNT = InvalidDimensionError, ParameterOutOfRangeError


def kets(d=2, n=3, seed=0):
    return haar_random_kets(d, n, np.random.default_rng(seed))


def rng():
    return np.random.default_rng(0)  # fresh in each call, so twin calls draw alike


# name: (call with the integer argument, argument name, minimum, error class,
#        a valid value to compare against its numpy.int64 twin)
CASES = {
    "KrausChannel-d": (lambda d: KrausChannel(d, [np.eye(2)]), "d", 1, DIM, 2),
    "ChoiMatrix-d": (lambda d: ChoiMatrix(d, np.eye(4) / 4), "d", 1, DIM, 2),
    "identity_channel-d": (identity_channel, "d", 1, DIM, 3),
    "dephasing_channel-d": (dephasing_channel, "d", 1, DIM, 3),
    "partial_dephasing_channel-d": (lambda d: partial_dephasing_channel(d, 0.5), "d", 1, DIM, 3),
    "generalized_gell_mann-d": (generalized_gell_mann, "d", 2, DIM, 3),
    "maximally_coherent-d": (maximally_coherent, "d", 2, DIM, 3),
    "haar_random_kets-d": (lambda d: kets(d=d), "d", 2, DIM, 3),
    "haar_random_kets-n": (lambda n: kets(n=n), "n", 0, COUNT, 2),
    "haar_random_pure-d": (lambda d: haar_random_pure(d, 1), "d", 2, DIM, 3),
    "haar_random_pure-seed": (lambda s: haar_random_pure(2, s), "seed", 0, COUNT, 9),
    "lipschitz_scaled_l1-d": (lipschitz_scaled_l1, "d", 2, DIM, 3),
    "iterate-n": (lambda n: iterate(GAD, n), "n", 1, COUNT, 3),
    "affine_iterate-n": (lambda n: affine_iterate(affine_from_kraus(GAD), n), "n", 1, COUNT, 3),
    "coherence_breaking_index-cap": (lambda c: coherence_breaking_index(GAD, cap=c),
                                     "cap", 1, COUNT, 4),
    "coherence_breaking_index_affine-cap": (
        lambda c: coherence_breaking_index_affine(affine_from_kraus(GAD), cap=c),
        "cap", 1, COUNT, 4),
    "evolve-steps": (lambda s: evolve(PLUS, GAD, steps=s), "steps", 1, COUNT, 3),
    "levy_bound-d": (lambda d: levy_bound(d, 0.1, 1.0, 1.0), "d", 1, COUNT, 3),
    "corollary_bound-d": (lambda d: corollary_bound(d, 0.1, 1.0), "d", 2, COUNT, 3),
    "wilson_interval-trials": (lambda t: wilson_interval(0, t), "trials", 1, COUNT, 5),
    "wilson_interval-successes": (lambda s: wilson_interval(s, 10), "successes", 0, COUNT, 3),
    "estimate_mean_coherence-samples": (lambda n: estimate_mean_coherence(GAD, n, 1),
                                        "samples", 1, COUNT, 8),
    "estimate_mean_coherence-seed": (lambda s: estimate_mean_coherence(GAD, 8, s),
                                     "seed", 0, COUNT, 9),
    "run_concentration_experiment-samples": (
        lambda n: run_concentration_experiment(GAD, 2, n, [0.1], 1), "samples", 1, COUNT, 8),
    "run_concentration_experiment-seed": (
        lambda s: run_concentration_experiment(GAD, 2, 8, [0.1], s), "seed", 0, COUNT, 9),
    "contraction_check-samples": (lambda n: contraction_check(GAD, n, 1), "samples", 1, COUNT, 4),
    "contraction_check-seed": (lambda s: contraction_check(GAD, 4, s), "seed", 0, COUNT, 9),
    "haar_unitary-d": (lambda d: haar_unitary(d, rng()), "d", 1, DIM, 3),
    "random_channel-d": (lambda d: random_channel(d, 2, rng()), "d", 1, DIM, 2),
    "random_channel-kraus_rank": (lambda k: random_channel(2, k, rng()),
                                  "kraus_rank", 1, COUNT, 2),
    "random_povm-d": (lambda d: random_povm(d, 2, rng()), "d", 1, DIM, 2),
    "random_povm-n_effects": (lambda n: random_povm(2, n, rng()), "n_effects", 1, COUNT, 3),
    "random_incoherent_channel-d": (lambda d: random_incoherent_channel(d, rng()), "d", 1, DIM, 3),
    "partial_transpose-d": (lambda d: partial_transpose(np.eye(4), d), "d", 1, DIM, 2),
    "partial_trace-d": (lambda d: partial_trace(np.eye(4), d, keep=0), "d", 1, DIM, 2),
}
NOT_INTEGERS = {"float": 2.5, "string": "3", "none": None, "bool": True, "nan": float("nan"),
                "float-integral": 2.0, "numpy-float": np.float64(3.0), "numpy-bool": np.True_,
                "zero-d-array": np.array(3)}


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize("call, what, low, error, _", CASES.values(), ids=CASES.keys())
def test_a_non_integer_is_an_error_naming_the_argument(call, what, low, error, _, value):
    with pytest.raises(error) as exc:
        call(value)
    assert str(exc.value) == f"need an integer {what} >= {low}, got {value!r}"


@pytest.mark.parametrize("call, what, low, error, _", CASES.values(), ids=CASES.keys())
def test_below_the_minimum_keeps_its_message(call, what, low, error, _):
    with pytest.raises(error) as exc:
        call(low - 1)
    assert str(exc.value) == f"need {what} >= {low}, got {low - 1}"


@pytest.mark.parametrize("call, what, low, error, valid", CASES.values(), ids=CASES.keys())
def test_a_numpy_integer_gives_the_same_result(call, what, low, error, valid):
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))


@pytest.mark.parametrize("keep", [2, -1, None, True, 1.0, np.float64(0.0)])
def test_partial_trace_keeps_factor_0_or_1(keep):
    with pytest.raises(ParameterOutOfRangeError) as exc:
        partial_trace(np.eye(4), 2, keep=keep)
    assert str(exc.value) == f"need keep 0 or 1, got {keep!r}"


def test_the_minimum_itself_is_accepted():
    assert kets(n=0).shape == (0, 2)
    assert wilson_interval(0, 1)[0] < 1e-12
    assert len(evolve(PLUS, GAD, steps=1).steps) == 2

