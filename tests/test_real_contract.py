"""Every real-valued argument goes through one check, `linalg._require_real`: a finite
Python or NumPy real scalar (not a bool) in the argument's range. Anything else raises
ParameterOutOfRangeError with the rule's one message, before any sampling."""

import pickle

import numpy as np
import pytest

from cohbreak import concentration
from cohbreak.channels import (QubitAffine, gad_channel, identity_channel,
                               partial_dephasing_channel, y_to_x_channel)
from cohbreak.classifiers import classify
from cohbreak.concentration import corollary_bound, levy_bound, run_concentration_experiment
from cohbreak.dynamics import evolve
from cohbreak.errors import ParameterOutOfRangeError
from cohbreak.states import maximally_coherent

GAD = gad_channel(0.7, 0.3)


def concentrate(epsilon=0.1, eta_channel=1.0):
    return run_concentration_experiment(GAD, 2, 8, [0.2, epsilon], 1, eta_channel=eta_channel)


# name: (call with the real argument, the rule's message, a value out of range,
#        a valid value to compare against its numpy.float64 twin)
CASES = {
    "gad_channel-p": (lambda p: gad_channel(p, 0.5), "need p in [0, 1]", 1.5, 0.3),
    "gad_channel-t": (lambda t: gad_channel(0.5, t), "need t in [0, 1]", -0.25, 0.3),
    "partial_dephasing_channel-q": (lambda q: partial_dephasing_channel(3, q),
                                    "need q in [0, 1]", 1.25, 0.5),
    "y_to_x_channel-alpha": (y_to_x_channel, "need |alpha| <= 1", -1.5, -0.4),
    "levy_bound-epsilon": (lambda e: levy_bound(4, e, 1.0, 1.0),
                           "need a finite epsilon >= 0", -0.1, 0.2),
    "levy_bound-eta_c": (lambda e: levy_bound(4, 0.1, e, 1.0),
                         "need a finite eta_c > 0", 0.0, 1.5),
    "levy_bound-eta_ch": (lambda e: levy_bound(4, 0.1, 1.0, e),
                          "need a finite eta_ch > 0", -1.0, 0.5),
    "corollary_bound-epsilon": (lambda e: corollary_bound(4, e, 1.0),
                                "need a finite epsilon >= 0", -0.1, 0.2),
    "corollary_bound-eta_ch": (lambda e: corollary_bound(4, 0.1, e),
                               "need a finite eta_ch > 0", 0.0, 0.5),
    "run_concentration_experiment-epsilon": (lambda e: concentrate(epsilon=e),
                                             "need a finite epsilon >= 0", -0.1, 0.05),
    "run_concentration_experiment-eta_channel": (lambda e: concentrate(eta_channel=e),
                                                 "need a finite eta_channel > 0", 0.0, 0.5),
}
NOT_REALS = {"string": "0.5", "none": None, "bool": True, "numpy-bool": np.True_,
             "complex": 1 + 0j, "zero-d-array": np.array(0.5), "array": np.array([0.5, 0.5]),
             "nan": float("nan"), "inf": float("inf"), "minus-inf": -float("inf"),
             "huge-int": 10**400}


@pytest.mark.parametrize("value", NOT_REALS.values(), ids=NOT_REALS.keys())
@pytest.mark.parametrize("call, rule, _, __", CASES.values(), ids=CASES.keys())
def test_a_value_that_is_not_a_finite_real_is_an_error_stating_the_rule(call, rule, _, __,
                                                                         value):
    with pytest.raises(ParameterOutOfRangeError) as exc:
        call(value)
    assert str(exc.value) == f"{rule}, got {value!r}"


@pytest.mark.parametrize("call, rule, outside, _", CASES.values(), ids=CASES.keys())
def test_a_value_out_of_range_is_an_error_stating_the_rule(call, rule, outside, _):
    with pytest.raises(ParameterOutOfRangeError) as exc:
        call(outside)
    assert str(exc.value) == f"{rule}, got {outside!r}"


@pytest.mark.parametrize("call, rule, _, valid", CASES.values(), ids=CASES.keys())
def test_a_numpy_float_gives_the_same_result(call, rule, _, valid):
    assert pickle.dumps(call(np.float64(valid))) == pickle.dumps(call(valid))


def test_a_numpy_or_int_tolerance_is_reported_as_a_float():
    expected = pickle.dumps(classify(identity_channel(2), tol=1.0))
    assert pickle.dumps(classify(identity_channel(2), tol=np.float64(1.0))) == expected
    assert pickle.dumps(classify(identity_channel(2), tol=1)) == expected
    assert evolve(maximally_coherent(2), GAD, 2, tol=1).tolerance.hex() == (1.0).hex()


@pytest.mark.parametrize("kwargs", [{"epsilon": -0.1}, {"epsilon": "0.1"},
                                    {"eta_channel": -1.0}, {"eta_channel": float("nan")}],
                         ids=["epsilon-negative", "epsilon-string", "eta-negative", "eta-nan"])
def test_concentration_rejects_a_bad_real_before_sampling(monkeypatch, kwargs):
    def no_sampling(*args, **kw):
        raise AssertionError("sampled before checking epsilon and eta_channel")

    monkeypatch.setattr(concentration, "haar_random_kets", no_sampling)
    with pytest.raises(ParameterOutOfRangeError):
        concentrate(**kwargs)


def test_the_range_ends_are_accepted():
    assert gad_channel(0, 1).dim == 2
    assert y_to_x_channel(-1).n_ops == 2
    assert levy_bound(4, 0, 1, 1) == 2.0
    assert partial_dephasing_channel(2, np.float32(1.0)).n_ops == 1


@pytest.mark.parametrize("m, shift, message", [
    (np.eye(3) * (0.5 + 0.5j), np.zeros(3), "need a real m, got dtype complex128"),
    (np.eye(3), np.zeros(3, dtype=complex), "need a real shift, got dtype complex128"),
    (np.full((3, 3), "0"), np.zeros(3), "need a real m, got dtype <U1"),
    (np.eye(3), [None, 0.0, 0.0], "need a real shift, got dtype object"),
], ids=["complex-m", "complex-shift", "string-m", "none-shift"])
def test_an_affine_pair_takes_only_real_arrays(m, shift, message):
    with pytest.raises(ParameterOutOfRangeError) as exc:
        QubitAffine(m=m, shift=shift)
    assert str(exc.value) == message


def test_an_affine_pair_reads_booleans_as_0_and_1():
    rep = QubitAffine(m=np.eye(3, dtype=bool), shift=np.zeros(3, dtype=bool))
    assert np.array_equal(rep.transfer, np.eye(4))
