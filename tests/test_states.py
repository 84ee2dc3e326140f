"""Domain type validation, channel application, and the test oracle's operator basis."""

import warnings

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
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    stream,
)
from skewinfo.linalg import HERMITIAN_TOL, PSD_TOL
from skewinfo.states import TRACE_TOL, check_spectrum, require_complete, require_states

from conftest import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, ObservableBasis, gell_mann_basis


def eigvalsh_state_verdict(m):
    """Oracle for ``require_states``: ``None`` when every member of the stack
    is a state, else the ``(invariant, residual)`` of the first check the
    stack fails, in the order Hermiticity, unit trace, PSD, each taken over
    the whole stack; Hermiticity relative to each member's scale
    max(1, max|x|) where the absolute residual fails; PSD by each member's
    smallest eigenvalue."""
    members = m.reshape(-1, *m.shape[-2:])
    if len(members) == 0:
        return None
    with np.errstate(invalid="ignore"):
        herm = float(np.max([np.abs(x - x.conj().T).max() for x in members]))  # NaN if any is
        if not herm <= HERMITIAN_TOL:
            scaled = [x / np.maximum(1.0, np.abs(x).max()) for x in members]
            herm = float(np.max([np.abs(y - y.conj().T).max() for y in scaled]))
    if not herm <= HERMITIAN_TOL:
        return "hermiticity", herm
    tr = max(abs(np.trace(x).real - 1.0) + abs(np.trace(x).imag) for x in members)
    if tr > TRACE_TOL:
        return "unit trace", float(tr)
    min_eig = min(float(np.linalg.eigvalsh(x)[0]) for x in members)
    if min_eig < -PSD_TOL:
        return "positive semidefiniteness", -min_eig
    return None


def assert_same_verdict(stack):
    """``require_states`` passes or fails the stack as the oracle does, with
    the same message, and warns of nothing."""
    expected = eigvalsh_state_verdict(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            assert require_states(stack) is stack
            return
        with pytest.raises(InvalidState) as err:
            require_states(stack)
    assert err.value.invariant == expected[0]
    np.testing.assert_equal(err.value.residual, expected[1])  # NaN equals NaN
    assert str(err.value) == str(InvalidState(*expected))


def states_with_least_eigenvalue(n, least, count, seed):
    """``count`` unit-trace n x n Hermitian matrices U diag(w) U† with
    smallest eigenvalue ``least``, a random U and the other n - 1 of w
    positive."""
    rng = stream(seed, n)
    u = haar_unitaries(n, count, rng)
    w = rng.uniform(0.1, 1.0, (count, n))
    w[:, 0] = 0.0
    w *= (1.0 - least) / w.sum(axis=1, keepdims=True)
    w[:, 0] = least
    m = (u * w[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("n", [2, 3, 4, 9])
@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
def test_require_states_at_the_psd_boundary_is_the_eigvalsh_test(n, scale, side):
    # smallest eigenvalue just inside and just outside -PSD_TOL, where the
    # eigenvalues decide, and about -PSD_TOL/2, the Cholesky shift, where
    # the factorization passes or hands over to them; every verdict is the
    # eigvalsh test's
    stack = states_with_least_eigenvalue(n, -PSD_TOL * scale * side, 16, seed=int(1e6 * side) + n)
    for member in stack:
        assert_same_verdict(member)
    assert_same_verdict(stack)


def test_require_states_passes_pure_states_without_eigenvalues(monkeypatch):
    # rank-1 states (and full-rank Ginibre ones) pass at the Cholesky step:
    # no eigenvalue is computed
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called on a stack of states")

    rng = stream(52, 0)
    for n in (1, 2, 3, 4, 9):
        psi = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        pure = psi[:, :, None] * psi[:, None, :].conj()
        mixed = np.stack([ginibre_state(n, rng=rng).matrix for _ in range(8)])
        for stack in (pure, mixed):
            assert eigvalsh_state_verdict(stack) is None
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
                assert require_states(stack) is stack


def test_require_states_passes_an_empty_stack():
    assert_same_verdict(np.zeros((0, 3, 3), dtype=complex))


@pytest.mark.parametrize("least", [-PSD_TOL * (1 + 1e-3), -PSD_TOL * (1 - 1e-3), -1e-3])
def test_require_states_on_a_stack_with_one_bad_member(least):
    # 95 Ginibre 9x9 states and one with a negative eigenvalue, in the middle
    rng = stream(53, 0)
    stack = np.stack([ginibre_state(9, rng=rng).matrix for _ in range(96)])
    stack[40] = states_with_least_eigenvalue(9, least, 1, seed=54)[0]
    assert_same_verdict(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_require_states_rejects_non_finite_entries_by_hermiticity(bad, entry):
    # the Hermiticity check comes first and rejects a NaN or an infinite
    # entry, on or off the diagonal, without a NumPy warning
    stack = np.stack([np.eye(3, dtype=complex) / 3] * 4)
    stack[2][entry] = bad
    assert eigvalsh_state_verdict(stack)[0] == "hermiticity"
    assert_same_verdict(stack)


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


def test_observable_hermiticity_scales_with_the_matrix():
    # the rule of linalg.require_hermitian: a residual within HERMITIAN_TOL
    # times max(1, max|m|). At norm 1e8 the rounding residual of
    # U diag(-1, 0.3, 1) U† is a few 1e-9, above the absolute tolerance
    rng = stream(61, 0)
    for _ in range(200):
        u = haar_unitary(3, rng)
        Observable(1e8 * (u * [-1.0, 0.3, 1.0]) @ u.conj().T)
    with pytest.raises(InvalidState) as err:
        Observable(1e8 * np.array([[0, 1], [0, 0]], dtype=complex))
    assert (err.value.invariant, err.value.residual) == ("hermiticity", 1.0)
    # entries of at most 1 get the absolute check and its residual
    m = np.array([[0, 0.5], [0.5 + 2 * HERMITIAN_TOL, 0]], dtype=complex)
    with pytest.raises(InvalidState) as err:
        Observable(m)
    assert err.value.residual == np.abs(m - m.conj().T).max()


def test_nondegenerate_observable_matrix():
    obs = NondegenerateObservable(np.array([-1.0, 1.0]), np.eye(2))
    np.testing.assert_allclose(obs.matrix, np.diag([-1.0, 1.0]))


def test_nondegenerate_observable_rejects_small_gap():
    with pytest.raises(DegenerateSpectrum):
        NondegenerateObservable(np.array([0.0, 1e-8]), np.eye(2))
    with pytest.raises(DegenerateSpectrum):
        NondegenerateObservable(np.array([1.0, 1.0]), np.eye(2))


@pytest.mark.parametrize("spectrum", [[np.nan, 1.0], [-1.0, np.inf], [-np.inf, 0.0], [-1.0, 0.0, np.nan], [np.nan]])
def test_non_finite_spectrum_is_rejected(spectrum):
    # a NaN gap compares false with the minimum gap, so only the finiteness
    # test stops these; the observable's matrix would be all NaN
    with pytest.raises(DegenerateSpectrum, match="finite"):
        check_spectrum(np.array(spectrum))
    with pytest.raises(DegenerateSpectrum, match="finite"):
        NondegenerateObservable(np.array(spectrum), np.eye(len(spectrum)))


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
