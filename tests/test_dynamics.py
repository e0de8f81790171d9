import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohbreak.channels import (
    QubitAffine,
    affine_from_kraus,
    affine_iterate,
    apply,
    cbc_from_povm,
    dephasing_channel,
    gad_channel,
    iterate,
    make_channel,
    partial_dephasing_channel,
    random_incoherent_channel,
    random_povm,
    unitary_channel,
    y_to_x_channel,
)
from cohbreak.classifiers import is_cbc, is_cbc_affine
from cohbreak.coherence import c_l1
from cohbreak.dynamics import (
    certify_incoherent,
    coherence_breaking_index,
    coherence_breaking_index_affine,
    evolve,
    factorization_check,
    probe_state,
)
from cohbreak.errors import (
    DimensionMismatchError,
    HypothesisViolatedError,
    IncoherentInputError,
    NonFiniteError,
    NotIncoherentChannelError,
    ParameterOutOfRangeError,
)
from cohbreak.linalg import SIGMA_X, generalized_gell_mann
from cohbreak.states import (
    from_bloch,
    from_generalized_bloch,
    maximally_coherent,
    to_generalized_bloch,
)
from conftest import (
    random_density_matrix,
    rotated_dephasing_channel,
    second_example_affine,
)

FIG2_STATE = from_bloch(np.array([0.3, 0.5, 0.2]))


def test_index_of_dephasing_is_one():
    result = coherence_breaking_index(dephasing_channel(2))
    assert result.value == 1 and not result.exceeded
    assert str(result) == "1"


def test_index_of_y_to_x_is_two():
    result = coherence_breaking_index(y_to_x_channel(0.5))
    assert result.value == 2
    assert result.residuals[0] > 1e-8 >= result.residuals[1]


def test_index_of_gad_exceeds_cap():
    result = coherence_breaking_index(gad_channel(0.7, 1.0), cap=64)
    assert result.exceeded and result.value is None
    assert str(result) == "exceeds cap 64"
    # residuals decay like p^(n/2) and never reach the tolerance
    assert np.allclose(result.residuals, [0.7 ** ((n + 1) / 2) for n in range(64)],
                       atol=1e-9)


def test_index_requires_incoherent_certification():
    with pytest.raises(NotIncoherentChannelError):
        coherence_breaking_index(rotated_dephasing_channel())


def test_not_incoherent_error_names_both_witnesses():
    with pytest.raises(NotIncoherentChannelError,
                       match=r"given: \{'operator'.*'residual'.*\}, canonical: \{'operator'.*'residual'"):
        certify_incoherent(rotated_dephasing_channel())


def test_index_cap_validation():
    with pytest.raises(ParameterOutOfRangeError):
        coherence_breaking_index(dephasing_channel(2), cap=0)


def test_affine_index_examples():
    assert coherence_breaking_index_affine(
        QubitAffine(m=np.diag([0.0, 0.0, 1.0]), shift=np.zeros(3))
    ).value == 1
    m, shift = second_example_affine()
    assert coherence_breaking_index_affine(QubitAffine(m=m, shift=shift)).value == 2
    gad_rep = affine_from_kraus(gad_channel(0.7, 1.0))
    assert coherence_breaking_index_affine(gad_rep, cap=64).exceeded


def test_affine_and_kraus_indices_agree():
    cases = [
        dephasing_channel(2),
        partial_dephasing_channel(2, 0.0),
        y_to_x_channel(0.5),
        y_to_x_channel(1.0),
        gad_channel(0.7, 1.0),
        gad_channel(0.95, 0.5),
    ]
    for channel in cases:
        kraus_result = coherence_breaking_index(channel, cap=32)
        affine_result = coherence_breaking_index_affine(
            affine_from_kraus(channel), cap=32
        )
        assert kraus_result.value == affine_result.value


_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=25, deadline=None)
@given(m=st.lists(_UNIT, min_size=9, max_size=9), shift=st.lists(_UNIT, min_size=3, max_size=3))
def test_affine_index_residuals_match_affine_iterate(m, shift):
    rep = QubitAffine(m=np.reshape(m, (3, 3)), shift=np.array(shift))
    result = coherence_breaking_index_affine(rep, cap=8)
    for n, residual in enumerate(result.residuals, start=1):
        power = affine_iterate(rep, n)
        expected = max(np.abs(power.m[:2]).max(), np.abs(power.shift[:2]).max())
        scale = max(1.0, np.abs(power.m).max(), np.abs(power.shift).max())
        assert abs(residual - expected) <= 1e-12 * scale
    if not result.exceeded:
        assert is_cbc_affine(affine_iterate(rep, result.value))


def test_affine_index_at_large_cap_is_fast():
    start = time.perf_counter()
    result = coherence_breaking_index_affine(affine_from_kraus(gad_channel(0.999, 0.3)), cap=2000)
    elapsed = time.perf_counter() - start
    assert result.exceeded
    # The x and y rows of the n-th power are sqrt(p)^n on the diagonal.
    assert abs(result.residuals[-1] - 0.999**1000) < 1e-9
    assert elapsed < 0.5


def test_evolve_reproduces_sudden_death_line():
    trajectory = evolve(FIG2_STATE, y_to_x_channel(0.5), steps=10)
    values = trajectory.values()
    assert abs(values[0] - np.sqrt(0.34)) < 1e-12
    assert abs(values[0] - 0.5830) < 1e-4
    assert abs(values[1] - 0.25) < 1e-12
    assert np.abs(values[2:]).max() < 1e-9
    assert trajectory.sudden_death_step == 2


def test_evolve_reproduces_no_sudden_death_line():
    trajectory = evolve(FIG2_STATE, gad_channel(0.7, 1.0), steps=10)
    values = trajectory.values()
    expected = [0.7 ** (j / 2) * np.sqrt(0.34) for j in range(11)]
    assert np.abs(values - expected).max() < 1e-9
    assert trajectory.sudden_death_step is None


def test_evolve_incoherent_input_dies_at_step_zero():
    trajectory = evolve(np.diag([0.3, 0.7]).astype(complex), gad_channel(0.7, 1.0), 5)
    assert np.abs(trajectory.values()).max() == 0.0
    assert trajectory.sudden_death_step == 0


def test_evolve_records_initial_coherence():
    rng = np.random.default_rng(0)
    rho = random_density_matrix(3, rng)
    trajectory = evolve(rho, dephasing_channel(3), steps=3)
    assert trajectory.values()[0] == c_l1(rho)


def test_evolve_is_monotone_for_incoherent_channels():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        channel = random_incoherent_channel(d, rng)
        for _ in range(5):
            trajectory = evolve(random_density_matrix(d, rng), channel, steps=8)
            values = trajectory.values()
            assert np.all(np.diff(values) <= 1e-9)


def test_evolve_validation():
    with pytest.raises(ParameterOutOfRangeError):
        evolve(FIG2_STATE, gad_channel(0.5, 0.5), steps=0)
    with pytest.raises(DimensionMismatchError):
        evolve(np.eye(3) / 3, gad_channel(0.5, 0.5), steps=2)


def test_index_matches_sudden_death_step():
    # Finite index: every coherent state dies by step n; the common death
    # step certifies the power as breaking.
    rng = np.random.default_rng(2)
    channel = y_to_x_channel(0.5)
    index = coherence_breaking_index(channel).value
    death_steps = set()
    for _ in range(100):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r) * rng.uniform(1.05, 3.0)
        if abs(r[1]) < 1e-6 or np.hypot(r[0], r[1]) < 1e-6:
            continue  # coherence already absent after one step for r_y = 0
        trajectory = evolve(from_bloch(r), channel, steps=index + 3)
        assert trajectory.sudden_death_step is not None
        assert trajectory.sudden_death_step <= index
        death_steps.add(trajectory.sudden_death_step)
    assert death_steps == {index}
    ok, _ = is_cbc(iterate(channel, index))
    assert ok


def test_probe_of_planar_qubit_state_is_maximally_coherent():
    for scale in (0.2, 0.5, 1.0):
        rho = from_bloch(scale * np.array([0.3, 0.5, 0.0]) / np.linalg.norm([0.3, 0.5, 0.0]))
        probe = probe_state(rho)
        assert abs(c_l1(probe.state) - 1.0) < 1e-9
        assert abs(np.trace(probe.state @ probe.state).real - 1.0) < 1e-9
        # same off-diagonal phase as the source, no population imbalance
        assert abs(np.angle(probe.state[0, 1]) - np.angle(rho[0, 1])) < 1e-12
        assert abs(probe.state[0, 0] - 0.5) < 1e-12


def test_probe_of_x_axis_state_is_plus():
    probe = probe_state(from_bloch(np.array([0.5, 0.0, 0.0])))
    assert np.abs(probe.state - maximally_coherent(2)).max() < 1e-12


def test_probe_has_unit_coherence_in_higher_dimensions():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        for _ in range(10):
            rho = random_density_matrix(d, rng)
            probe = probe_state(rho)
            assert abs(c_l1(probe.state) - 1.0) < 1e-9


def _gell_mann_probe(state):
    """The probe built in generalized Gell-Mann coordinates: unit direction n,
    chi_P = 1 / sum_r hypot(n_2r, n_2r+1) over the off-diagonal pairs."""
    basis = generalized_gell_mann(state.shape[0])
    n = to_generalized_bloch(state, basis).unit_dir
    pair_sum = sum(np.hypot(n[2 * r], n[2 * r + 1]) for r in range(basis.n_offdiag_pairs))
    return from_generalized_bloch(n / pair_sum, basis), 1.0 / pair_sum


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_form_probe_matches_gell_mann_construction(d):
    rng = np.random.default_rng(70 + d)
    for _ in range(10):
        # Density matrices and non-Hermitian matrices: the coordinates see
        # only the Hermitian, traceless part.
        for state in (random_density_matrix(d, rng),
                      rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))):
            expected_state, expected_chi = _gell_mann_probe(state)
            probe = probe_state(state)
            assert np.abs(probe.state - expected_state).max() < 1e-12
            assert abs(probe.chi_p - expected_chi) < 1e-12


def test_probe_rejects_incoherent_input():
    with pytest.raises(IncoherentInputError):
        probe_state(np.diag([0.4, 0.6]).astype(complex))
    with pytest.raises(IncoherentInputError):
        probe_state(np.eye(2) / 2)


def test_factorization_vanishes_for_dephasing():
    result = factorization_check(FIG2_STATE, dephasing_channel(2))
    assert result.lhs == result.rhs == 0.0


def test_factorization_partial_dephasing_closed_form():
    result = factorization_check(FIG2_STATE, partial_dephasing_channel(2, 0.4))
    assert abs(result.lhs - 0.4 * np.sqrt(0.34)) < 1e-12
    assert result.residual < 1e-12
    assert result.certification == "incoherent-kraus"


def test_factorization_against_explicit_qubit_probe():
    # Independent route: the probe of a qubit state is the maximally
    # coherent state carrying the phase of rho_01 whenever z = 0; for
    # incoherent channels the law must give identical numbers either way.
    rng = np.random.default_rng(4)
    for _ in range(50):
        channel = random_incoherent_channel(2, rng)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r) * rng.uniform(1.1, 4.0)
        rho = from_bloch(r)
        if c_l1(rho) < 1e-6:
            continue
        result = factorization_check(rho, channel)
        assert result.residual <= 1e-8
        theta = np.angle(rho[0, 1])
        explicit = 0.5 * np.array([[1.0, np.exp(1j * theta)],
                                   [np.exp(-1j * theta), 1.0]])
        rhs_explicit = c_l1(rho) * c_l1(apply(channel, explicit))
        assert abs(result.lhs - rhs_explicit) < 1e-8


def test_factorization_holds_under_weak_hypothesis():
    # A unitary x-rotation has no incoherent Kraus pattern but fixes I/2;
    # the law still holds exactly, and only because the probe keeps the
    # diagonal direction components of the source.
    theta = 0.7
    u = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * SIGMA_X
    channel = unitary_channel(u)
    result = factorization_check(from_bloch(np.array([0.2, 0.4, 0.6])), channel)
    assert result.certification == "diagonal-fixed-point"
    assert result.residual < 1e-10


def test_factorization_rejects_bad_inputs():
    plus_prep = make_channel([
        np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0),
        np.array([[0.0, 1.0], [0.0, 1.0]]) / np.sqrt(2.0),
    ])
    with pytest.raises(HypothesisViolatedError):
        factorization_check(FIG2_STATE, plus_prep)
    with pytest.raises(IncoherentInputError):
        factorization_check(np.diag([0.3, 0.7]).astype(complex), dephasing_channel(2))
    with pytest.raises(DimensionMismatchError):
        factorization_check(np.eye(3) / 3, dephasing_channel(2))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    probe_state,
    lambda state: factorization_check(state, partial_dephasing_channel(2, 0.4)),
    lambda state: evolve(state, partial_dephasing_channel(2, 0.4), steps=3),
], ids=["probe_state", "factorization_check", "evolve"])
def test_non_finite_state_is_rejected(call, entry):
    state = FIG2_STATE.copy()
    state[0, 1] = entry
    with pytest.raises(NonFiniteError):
        call(state)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2), ()])
@pytest.mark.parametrize("call", [
    probe_state,
    lambda state: factorization_check(state, partial_dephasing_channel(2, 0.4)),
    lambda state: evolve(state, partial_dephasing_channel(2, 0.4), steps=3),
], ids=["probe_state", "factorization_check", "evolve"])
def test_non_square_state_is_a_dimension_mismatch(call, shape):
    with pytest.raises(DimensionMismatchError, match=re.escape(f"state has shape {shape},")):
        call(np.full(shape, 0.25))


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_factorization_law_holds_for_incoherent_channels(d, seed):
    rng = np.random.default_rng(seed)
    channel = random_incoherent_channel(d, rng)
    rho = random_density_matrix(d, rng)
    result = factorization_check(rho, channel)
    assert result.certification == "incoherent-kraus"
    assert result.residual < 1e-10


def test_strobe_factorization_along_trajectory():
    # c_l1(Phi^J(rho)) equals c_l1(rho) * c_l1(Phi^J(probe)) at every step.
    channel = gad_channel(0.8, 0.3)
    rho = FIG2_STATE
    probe = probe_state(rho).state
    for j in (1, 2, 5):
        power = iterate(channel, j)
        lhs = c_l1(apply(power, rho))
        rhs = c_l1(rho) * c_l1(apply(power, probe))
        assert abs(lhs - rhs) < 1e-8


def test_evolve_matches_gad_semigroup_at_every_step():
    p, t = 0.7, 0.5
    trajectory = evolve(FIG2_STATE, gad_channel(p, t), steps=8)
    for j, value in trajectory.steps:
        if j == 0:
            continue
        direct = c_l1(apply(gad_channel(p**j, t), FIG2_STATE))
        assert abs(value - direct) < 1e-9


def test_povm_channels_have_index_one():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for _ in range(5):
            channel = cbc_from_povm(random_povm(d, d, rng))
            assert coherence_breaking_index(channel).value == 1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_index_residuals_match_is_cbc_of_powers(d):
    rng = np.random.default_rng(60 + d)
    for channel in (random_incoherent_channel(d, rng), partial_dephasing_channel(d, 0.6)):
        result = coherence_breaking_index(channel, cap=6)
        for n, residual in enumerate(result.residuals, start=1):
            _, witness = is_cbc(iterate(channel, n))
            assert abs(residual - witness["residual"]) < 1e-9
