"""Every exact-shape check raises DimensionMismatchError with one message:
the argument, the shape it was given and the shape it needs."""

import numpy as np
import pytest

from cohbreak.channels import (ChoiMatrix, KrausChannel, QubitAffine, apply, gad_channel,
                               identity_channel)
from cohbreak.coherence import c_l1, is_incoherent_state
from cohbreak.concentration import apply_batch
from cohbreak.dynamics import evolve, factorization_check
from cohbreak.errors import DimensionMismatchError
from cohbreak.linalg import (
    generalized_gell_mann,
    hermitian_eigendecomposition,
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
    "hermitian_eigendecomposition": (lambda: hermitian_eigendecomposition(np.ones((2, 3))),
                                     "matrix a", (2, 3), (2, 2)),
    "c_l1-rectangular": (lambda: c_l1(np.ones((2, 3))), "rho", (2, 3), (2, 2)),
    "c_l1-vector": (lambda: c_l1(np.ones(3)), "rho", (3,), (1, 1)),
    "c_l1-batch": (lambda: c_l1(np.ones((4, 2, 3))), "rho", (4, 2, 3), (4, 2, 2)),
    "is_incoherent_state": (lambda: is_incoherent_state(np.ones((2, 3))), "rho", (2, 3), (2, 2)),
}


@pytest.mark.parametrize("call, what, got, expected", CASES.values(), ids=CASES.keys())
def test_wrong_shape_names_the_argument_and_both_shapes(call, what, got, expected):
    with pytest.raises(DimensionMismatchError) as exc:
        call()
    assert str(exc.value) == f"{what} has shape {got}, expected {expected}"
