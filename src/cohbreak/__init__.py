"""Coherence-breaking channel toolkit.

Channel representations (Kraus, Choi, qubit affine) and conversions,
coherence measures in the computational reference basis, channel-class
membership tests (incoherent, SIO, DIO, coherence breaking, selective
breaking, quantum-classical, entanglement breaking), coherence breaking
indices of iterated channels, stroboscopic coherence trajectories with
sudden-death detection, the multiplicative probe-state law for l1
coherence, and concentration-of-measure experiments against exponential
tail bounds.
"""

__version__ = "0.1.0"

from .channels import (
    ChoiMatrix,
    KrausChannel,
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
    identity_channel,
    iterate,
    kraus_to_choi,
    kron_channel,
    make_channel,
    partial_dephasing_channel,
    unitary_channel,
    y_to_x_channel,
)
from .classifiers import (
    ClassificationReport,
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
from .coherence import c_l1, c_relative_entropy, dephase, is_incoherent_state
from .concentration import (
    ConcentrationReport,
    contraction_check,
    corollary_bound,
    estimate_mean_coherence,
    levy_bound,
    lipschitz_scaled_l1,
    run_concentration_experiment,
)
from .dynamics import (
    CoherenceTrajectory,
    FactorizationResult,
    IndexResult,
    ProbeState,
    coherence_breaking_index,
    coherence_breaking_index_affine,
    evolve,
    factorization_check,
    probe_state,
)
from .linalg import (
    generalized_gell_mann,
    partial_transpose,
    trace_distance,
    von_neumann_entropy,
)
from .states import (
    from_bloch,
    from_generalized_bloch,
    haar_random_pure,
    maximally_coherent,
    state_from_json,
    state_to_json,
    to_generalized_bloch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
