"""Every array argument has one contract: numbers only (real ones for a real argument),
else ParameterOutOfRangeError; exactly its shape, or square of its own size with side >= 1,
else DimensionMismatchError (InvalidDimensionError when empty); finite, else NonFiniteError.
A wrong shape gives one message: the argument, the shape it was given and the shape it needs."""

import warnings

import numpy as np
import pytest

from cohbreak.channels import (ChoiMatrix, KrausChannel, QubitAffine, apply, cbc_from_povm,
                               gad_channel, identity_channel, make_channel)
from cohbreak.coherence import c_l1, dephase, is_incoherent_state
from cohbreak.concentration import apply_batch
from cohbreak.dynamics import evolve, factorization_check, probe_state
from cohbreak.errors import (DimensionMismatchError, InvalidDimensionError, NonFiniteError,
                             ParameterOutOfRangeError)
from cohbreak.linalg import (
    density_eigenvalues,
    generalized_gell_mann,
    partial_trace,
    partial_transpose,
    trace_distance,
)
from cohbreak.states import (
    bloch_vector,
    from_bloch,
    from_generalized_bloch,
    maximally_coherent,
    to_generalized_bloch,
)

MIXED_3 = np.eye(3) / 3
GM2 = generalized_gell_mann(2)

# name: (call with one wrong-shaped argument, argument, given shape, expected shape)
CASES = {
    "KrausChannel": (lambda: KrausChannel(dim=2, kraus_ops=[np.eye(2), np.eye(3)]),
                     "Kraus operator 1", (3, 3), (2, 2)),
    "ChoiMatrix": (lambda: ChoiMatrix(dim=2, matrix=MIXED_3), "Choi matrix", (3, 3), (4, 4)),
    "QubitAffine-m": (lambda: QubitAffine(m=np.eye(2), shift=np.zeros(3)), "m", (2, 2), (3, 3)),
    "QubitAffine-shift": (lambda: QubitAffine(m=np.eye(3), shift=np.zeros(2)),
                          "shift", (2,), (3,)),
    "apply": (lambda: apply(identity_channel(2), MIXED_3), "rho", (3, 3), (2, 2)),
    "apply_batch": (lambda: apply_batch(gad_channel(0.7, 0.3), np.ones((3, 3, 3))),
                    "batch", (3, 3, 3), (3, 2, 2)),
    "evolve": (lambda: evolve(MIXED_3, identity_channel(2), steps=1), "state", (3, 3), (2, 2)),
    "factorization_check": (lambda: factorization_check(MIXED_3, identity_channel(2)),
                            "state", (3, 3), (2, 2)),
    "trace_distance": (lambda: trace_distance(np.eye(2) / 2, MIXED_3), "sigma", (3, 3), (2, 2)),
    "trace_distance-vector": (lambda: trace_distance([0.5, 0.5], [0.5, 0.5]), "rho", (2,), (1, 1)),
    "trace_distance-rectangular": (lambda: trace_distance(np.ones((2, 3)), np.ones((2, 3))),
                                   "rho", (2, 3), (2, 2)),
    "partial_transpose": (lambda: partial_transpose(MIXED_3, 2), "mat", (3, 3), (4, 4)),
    "partial_trace": (lambda: partial_trace(MIXED_3, 2, keep=0), "mat", (3, 3), (4, 4)),
    "from_bloch": (lambda: from_bloch([0.1, 0.2]), "Bloch vector r", (2,), (3,)),
    "bloch_vector": (lambda: bloch_vector(MIXED_3), "rho", (3, 3), (2, 2)),
    "maximally_coherent": (lambda: maximally_coherent(3, [0.0, 1.0]), "thetas", (2,), (3,)),
    "to_generalized_bloch": (lambda: to_generalized_bloch(MIXED_3, generalized_gell_mann(2)),
                             "rho", (3, 3), (2, 2)),
    "from_generalized_bloch": (lambda: from_generalized_bloch(np.zeros(8),
                                                              generalized_gell_mann(2)),
                               "coords", (8,), (3,)),
    "to_generalized_bloch-basis": (lambda: to_generalized_bloch(MIXED_3, np.zeros((8, 2, 2))),
                                   "basis", (8, 2, 2), (3, 2, 2)),
    "from_generalized_bloch-basis": (lambda: from_generalized_bloch(np.zeros(3), GM2[0]),
                                     "basis", (2, 2), (3, 2, 2)),
    "c_l1-rectangular": (lambda: c_l1(np.ones((2, 3))), "rho", (2, 3), (2, 2)),
    "c_l1-vector": (lambda: c_l1(np.ones(3)), "rho", (3,), (1, 1)),
    "c_l1-batch": (lambda: c_l1(np.ones((4, 2, 3))), "rho", (4, 2, 3), (4, 2, 2)),
    "is_incoherent_state": (lambda: is_incoherent_state(np.ones((2, 3))), "rho", (2, 3), (2, 2)),
    "dephase-vector": (lambda: dephase(np.ones(3)), "rho", (3,), (1, 1)),
    "dephase-rectangular": (lambda: dephase(np.ones((2, 3))), "rho", (2, 3), (2, 2)),
    "probe_state": (lambda: probe_state(np.ones((2, 3))), "state", (2, 3), (2, 2)),
    "make_channel": (lambda: make_channel([np.ones((2, 3))]), "Kraus operator 0", (2, 3), (2, 2)),
}


@pytest.mark.parametrize("call, what, got, expected", CASES.values(), ids=CASES.keys())
def test_wrong_shape_names_the_argument_and_both_shapes(call, what, got, expected):
    with pytest.raises(DimensionMismatchError) as exc:
        call()
    assert str(exc.value) == f"{what} has shape {got}, expected {expected}"


# The entry points of CASES but c_l1 (which keeps its own conversion), each with one array
# argument left open: (call, argument, a valid shape, flags). Flags: "r" a real argument,
# "f" checked finite by the owner, "s" square of its own size (its size read off it),
# "o" optional (None stands for the default).
ARGUMENTS = {
    "KrausChannel": (lambda x: KrausChannel(dim=2, kraus_ops=[x]), "Kraus operator 0", (2, 2), ""),
    "make_channel": (lambda x: make_channel([x]), "Kraus operator 0", (2, 2), "s"),
    "ChoiMatrix": (lambda x: ChoiMatrix(dim=2, matrix=x), "Choi matrix", (4, 4), "f"),
    "QubitAffine-m": (lambda x: QubitAffine(m=x, shift=np.zeros(3)), "m", (3, 3), "rf"),
    "QubitAffine-shift": (lambda x: QubitAffine(m=np.eye(3), shift=x), "shift", (3,), "rf"),
    "apply": (lambda x: apply(identity_channel(2), x), "rho", (2, 2), ""),
    "apply_batch": (lambda x: apply_batch(gad_channel(0.7, 0.3), x), "batch", (3, 2, 2), "f"),
    "evolve": (lambda x: evolve(x, identity_channel(2), steps=1), "state", (2, 2), "f"),
    "factorization_check": (lambda x: factorization_check(x, identity_channel(2)),
                            "state", (2, 2), ""),
    "probe_state": (probe_state, "state", (2, 2), "fs"),
    "trace_distance-rho": (lambda x: trace_distance(x, np.eye(2) / 2), "rho", (2, 2), "fs"),
    "trace_distance-sigma": (lambda x: trace_distance(np.eye(2) / 2, x), "sigma", (2, 2), "f"),
    "partial_transpose": (lambda x: partial_transpose(x, 2), "mat", (4, 4), ""),
    "partial_trace": (lambda x: partial_trace(x, 2, keep=0), "mat", (4, 4), ""),
    "from_bloch": (from_bloch, "Bloch vector r", (3,), "rf"),
    "bloch_vector": (bloch_vector, "rho", (2, 2), "f"),
    "maximally_coherent": (lambda x: maximally_coherent(2, x), "thetas", (2,), "rfo"),
    "to_generalized_bloch": (lambda x: to_generalized_bloch(x, GM2), "rho", (2, 2), "f"),
    "from_generalized_bloch": (lambda x: from_generalized_bloch(x, GM2), "coords", (3,), "rf"),
    "to_generalized_bloch-basis": (lambda x: to_generalized_bloch(np.eye(2) / 2, x),
                                   "basis", (3, 2, 2), "f"),
    "from_generalized_bloch-basis": (lambda x: from_generalized_bloch(np.zeros(3), x),
                                     "basis", (3, 2, 2), "f"),
    "is_incoherent_state": (is_incoherent_state, "rho", (2, 2), "fs"),
    "dephase": (dephase, "rho", (2, 2), "fs"),
}
BAD_ARRAYS = {
    "strings": lambda shape: np.full(shape, "0"),
    "ragged": lambda shape: [[0.0], [0.0, 0.0]],
    "none": lambda shape: None,
    "complex-for-real": lambda shape: np.full(shape, 0.5j),
    "empty": lambda shape: np.zeros((0, 0)),
    "nan": lambda shape: np.full(shape, np.nan),
}


def _error_for(bad, what, flags):
    """The error and message a BAD_ARRAYS value must raise, or None where it is not checked."""
    rule = "real" if "r" in flags else "numeric"
    return {
        "strings": (ParameterOutOfRangeError, f"need a {rule} {what}, got dtype <U1"),
        "ragged": (ParameterOutOfRangeError, f"need a {rule} {what}, got a ragged nesting"),
        "none": (None if "o" in flags
                 else (ParameterOutOfRangeError, f"need a {rule} {what}, got dtype object")),
        "complex-for-real": ((ParameterOutOfRangeError, f"need a real {what}, got dtype complex128")
                             if "r" in flags else None),
        "empty": ((InvalidDimensionError, f"{what} has shape (0, 0): need d >= 1, got 0")
                  if "s" in flags else None),
        "nan": (NonFiniteError, f"{what} has a NaN or infinite entry") if "f" in flags else None,
    }[bad]


CONTRACT = {f"{name}-{bad}": (call, shape, bad, _error_for(bad, what, flags))
            for name, (call, what, shape, flags) in ARGUMENTS.items() for bad in BAD_ARRAYS
            if _error_for(bad, what, flags) is not None}


@pytest.mark.parametrize("call, shape, bad, expected", CONTRACT.values(), ids=CONTRACT.keys())
def test_every_array_argument_has_one_contract(call, shape, bad, expected):
    error, message = expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        with pytest.raises(error) as exc:
            call(BAD_ARRAYS[bad](shape))
    assert str(exc.value) == message


def test_arguments_cover_every_entry_point_but_c_l1():
    entry = {name.split("-")[0] for name in CASES if not name.startswith("c_l1")}
    assert entry == {name.split("-")[0] for name in ARGUMENTS}


# Entry points that own their shape errors (c_l1's own message, NotDensityMatrixError,
# NotPOVMError) still take numbers only, by the same rule and message.
NUMERIC_ONLY = {
    "c_l1": (lambda: c_l1([["1", "0.5"], ["0.5", "1"]]), "rho", "<U3"),
    "density_eigenvalues": (lambda: density_eigenvalues([["0.5", "0"], ["0", "0.5"]]),
                            "rho", "<U3"),
    "cbc_from_povm": (lambda: cbc_from_povm([[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]),
                      "effect 0", "<U1"),
}


@pytest.mark.parametrize("call, what, dtype", NUMERIC_ONLY.values(), ids=NUMERIC_ONLY.keys())
def test_numeric_strings_are_not_numbers(call, what, dtype):
    with pytest.raises(ParameterOutOfRangeError) as exc:
        call()
    assert str(exc.value) == f"need a numeric {what}, got dtype {dtype}"
