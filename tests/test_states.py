"""Domain type validation, channel application, and the test oracle's operator basis."""

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DegenerateSpectrum,
    DensityMatrix,
    DimensionMismatch,
    InvalidChannel,
    InvalidState,
    KrausChannel,
    NondegenerateObservable,
    Observable,
    apply_channel,
)

from skewinfo.states import require_complete, require_states

from conftest import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, ObservableBasis, gell_mann_basis


def test_density_matrix_accepts_valid():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidState) as err:
        DensityMatrix(np.diag([0.5, 0.6]))
    assert err.value.invariant == "unit trace"
    assert err.value.residual == pytest.approx(0.1)


def test_density_matrix_rejects_negative():
    with pytest.raises(InvalidState) as err:
        DensityMatrix(np.diag([1.2, -0.2]))
    assert err.value.invariant == "positive semidefiniteness"


def test_density_matrix_rejects_nonhermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(InvalidState) as err:
        DensityMatrix(m)
    assert err.value.invariant == "hermiticity"


def test_bipartite_factorization_check():
    rho = DensityMatrix(np.eye(4) / 4)
    state = BipartiteState(rho, 2, 2)
    assert state.dims == (2, 2)
    with pytest.raises(DimensionMismatch):
        BipartiteState(rho, 3, 2)


def test_observable_requires_hermitian():
    Observable(SIGMA_Y)
    with pytest.raises(InvalidState):
        Observable(np.array([[0, 1], [0, 0]], dtype=complex))


def test_nondegenerate_observable_matrix():
    obs = NondegenerateObservable(np.array([-1.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(obs.matrix, np.diag([-1.0, 1.0]))


def test_nondegenerate_observable_rejects_small_gap():
    with pytest.raises(DegenerateSpectrum):
        NondegenerateObservable(np.array([0.0, 1e-8]), np.eye(2))
    with pytest.raises(DegenerateSpectrum):
        NondegenerateObservable(np.array([1.0, 1.0]), np.eye(2))


def test_nondegenerate_observable_rejects_nonunitary_basis():
    with pytest.raises(InvalidState):
        NondegenerateObservable(np.array([-1.0, 1.0]), np.array([[1, 1], [0, 1]], dtype=complex))


def test_kraus_channel_completeness_enforced():
    KrausChannel([np.eye(2)])
    with pytest.raises(InvalidChannel):
        KrausChannel([0.9 * np.eye(2)])
    with pytest.raises(InvalidChannel):
        KrausChannel([])


def test_identity_channel_is_noop(rng):
    from skewinfo import ginibre_state

    rho = ginibre_state(3, rng=rng)
    out = apply_channel(KrausChannel([np.eye(3)]), rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_depolarizing_channel_on_ground_state():
    ops = [0.5 * np.eye(2), 0.5 * SIGMA_X, 0.5 * SIGMA_Y, 0.5 * SIGMA_Z]
    out = apply_channel(KrausChannel(ops), DensityMatrix(np.diag([1.0, 0.0])))
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_dephasing_channel_kills_coherences():
    ops = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply_channel(KrausChannel(ops), DensityMatrix(plus))
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_channel(KrausChannel([np.eye(2)]), DensityMatrix(np.eye(3) / 3))


def test_apply_channel_output_is_valid_state(rng):
    from skewinfo import ginibre_state, random_cptp

    for _ in range(25):
        channel = random_cptp(4, 3, rng)
        rho = ginibre_state(4, rng=rng)
        out = apply_channel(channel, rho)  # constructor revalidates invariants
        assert out.dim == 4


def test_gell_mann_qubit_is_scaled_pauli_set():
    basis = gell_mann_basis(2)
    mats = basis.matrices()
    expected = [SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2), SIGMA_Z / np.sqrt(2), np.eye(2) / np.sqrt(2)]
    for exp in expected:
        assert any(np.allclose(m, exp, atol=1e-12) for m in mats)


def test_gell_mann_gram_is_identity():
    basis = gell_mann_basis(3)
    flat = basis.matrices().reshape(9, 9)
    np.testing.assert_allclose(flat @ flat.conj().T, np.eye(9), atol=1e-10)


def test_gell_mann_squares_sum_to_n_identity():
    # brute-force sum, forced by completeness of an orthonormal operator basis
    for n in (2, 3, 4):
        mats = gell_mann_basis(n).matrices()
        total = sum(m @ m for m in mats)
        np.testing.assert_allclose(total, n * np.eye(n), atol=1e-9)


def test_gell_mann_element_count():
    for n in (1, 2, 3, 5):
        assert len(gell_mann_basis(n).elements) == n * n


def test_observable_basis_rejects_wrong_count():
    three_paulis = [Observable(p / np.sqrt(2)) for p in PAULIS]
    with pytest.raises(DimensionMismatch):
        ObservableBasis(three_paulis)


def test_observable_basis_rejects_nonorthonormal():
    mats = [Observable(p) for p in PAULIS] + [Observable(np.eye(2))]  # unnormalized
    with pytest.raises(InvalidState):
        ObservableBasis(mats)


def test_rotated_basis_still_valid(rng):
    from skewinfo import haar_unitary

    gell_mann_basis(3).rotated(haar_unitary(3, rng))  # passes orthonormality + completeness checks


def test_stacked_checks_reject_a_stack_with_one_bad_member():
    # a stacked check raises what its one-matrix form raises on the bad
    # member, and passes a stack of good members
    good = np.diag([0.25, 0.75]).astype(complex)
    for bad, invariant in ((np.diag([0.5, 0.6]), "unit trace"), (np.diag([1.1, -0.1]), "positive semidefiniteness")):
        stack = np.stack([good, bad.astype(complex), good])
        with pytest.raises(InvalidState) as err:
            require_states(stack)
        with pytest.raises(InvalidState) as alone:
            DensityMatrix(bad)
        assert err.value.invariant == alone.value.invariant == invariant
        assert err.value.residual == alone.value.residual
    assert require_states(np.stack([good, good])).shape == (2, 2, 2)
    ops = np.stack([np.stack([np.eye(2)]), np.stack([1.01 * np.eye(2)])]).astype(complex)  # (2 sets, 1, 2, 2)
    with pytest.raises(InvalidChannel, match="completeness residual"):
        require_complete(ops)
    require_complete(ops[:1])
