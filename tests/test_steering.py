"""Steering ensembles, steered sums, and the basis maximizations."""

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    DimensionMismatch,
    InvalidState,
    MeasurementBasis,
    Observable,
    OptimizerOptions,
    average_steering_induced_q,
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    kron,
    q_local,
    q_total,
    random_nondegenerate_observable,
    skew_information,
    steer,
    steered_q_sum,
    steered_skew_sum,
    steering_induced_skew,
    stream,
    variance,
)

from skewinfo import steering
from skewinfo.linalg import psd_sqrt_eigh

from conftest import SIGMA_Z, gell_mann_basis, summed_q_total

Z_BASIS = MeasurementBasis(np.eye(2, dtype=complex))
X_BASIS = MeasurementBasis(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
FAST = OptimizerOptions(restarts=4, max_iters=600)


def product_state(n_a, n_b, rng):
    rho_a = ginibre_state(n_a, rng=rng)
    tau_b = ginibre_state(n_b, rng=rng)
    return (
        BipartiteState(DensityMatrix(kron(rho_a.matrix, tau_b.matrix)), n_a, n_b),
        tau_b,
    )


def test_measurement_basis_requires_orthonormal_columns():
    MeasurementBasis(np.eye(3))
    with pytest.raises(InvalidState):
        MeasurementBasis(np.array([[1, 1], [0, 1]], dtype=complex))


def test_measurement_basis_projectors_sum_to_identity(rng):
    basis = MeasurementBasis(haar_unitary(3, rng))
    total = sum(basis.projector(i) for i in range(3))
    np.testing.assert_allclose(total, np.eye(3), atol=1e-10)


def test_steer_bell_in_computational_basis(bell):
    ensemble = steer(bell, Z_BASIS)
    assert ensemble.skipped == []
    np.testing.assert_allclose(ensemble.probabilities, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(ensemble.states[0], np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ensemble.states[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_steer_product_state_conditions_to_marginal(rng):
    state, tau_b = product_state(2, 2, rng)
    for basis in (Z_BASIS, X_BASIS, MeasurementBasis(haar_unitary(2, rng))):
        for rho_i in steer(state, basis).states:
            np.testing.assert_allclose(rho_i, tau_b.matrix, atol=1e-10)


def test_steer_probabilities_sum_to_one(rng):
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
        for _ in range(10):
            ensemble = steer(state, MeasurementBasis(haar_unitary(n_a, rng)))
            assert sum(ensemble.probabilities) == pytest.approx(1.0, abs=1e-9)


def test_steer_skips_null_outcomes():
    # rank-1 support confined to |0> on A: measuring in the z basis
    # leaves outcome 1 with zero probability
    rho = np.zeros((4, 4), dtype=complex)
    rho[:2, :2] = np.diag([0.5, 0.5])
    ensemble = steer(BipartiteState(DensityMatrix(rho), 2, 2), Z_BASIS)
    assert ensemble.skipped == [1]
    assert len(ensemble.probabilities) == len(ensemble.states) == 1
    assert ensemble.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_steer_dimension_mismatch(bell):
    wide_basis, sz = MeasurementBasis(np.eye(3)), Observable(SIGMA_Z)
    for call in (
        lambda: steer(bell, wide_basis),
        lambda: steered_q_sum(bell, wide_basis),
        lambda: steered_skew_sum(bell, wide_basis, sz),
        lambda: steered_skew_sum(bell, Z_BASIS, Observable(np.eye(3))),
    ):
        with pytest.raises(DimensionMismatch):
            call()


def test_steer_column_permutation_permutes_outcomes(rng):
    state = BipartiteState(ginibre_state(6, rng=rng), 3, 2)
    u = haar_unitary(3, rng)
    perm = [2, 0, 1]
    base = steer(state, MeasurementBasis(u))
    permuted = steer(state, MeasurementBasis(u[:, perm]))
    for new_idx, old_idx in enumerate(perm):
        assert permuted.probabilities[new_idx] == pytest.approx(base.probabilities[old_idx], abs=1e-12)
        np.testing.assert_allclose(permuted.states[new_idx], base.states[old_idx], atol=1e-12)


def test_steered_skew_sum_product_state(rng):
    state, tau_b = product_state(2, 2, rng)
    k_b = random_nondegenerate_observable(2, rng=rng)
    expected = skew_information(tau_b, k_b)
    for basis in (Z_BASIS, X_BASIS):
        assert steered_skew_sum(state, basis, k_b) == pytest.approx(expected, abs=1e-10)


def test_steered_skew_sum_bell_z_and_x(bell):
    sz = Observable(SIGMA_Z)
    assert steered_skew_sum(bell, Z_BASIS, sz) == pytest.approx(0.0, abs=1e-12)
    assert steered_skew_sum(bell, X_BASIS, sz) == pytest.approx(1.0, abs=1e-12)


def test_per_basis_core_lemma(rng):
    # the steered sum never exceeds the joint skew information, for every
    # basis and every Hermitian observable on B
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
        for _ in range(25):
            basis = MeasurementBasis(haar_unitary(n_a, rng))
            z = rng.standard_normal((n_b, n_b)) + 1j * rng.standard_normal((n_b, n_b))
            k_b = Observable(z + z.conj().T)
            joint = skew_information(state.state, Observable(kron(np.eye(n_a), k_b.matrix)))
            assert steered_skew_sum(state, basis, k_b) <= joint + 1e-8


def test_per_basis_averaged_lemma(rng):
    for n_a, n_b in ((2, 2), (3, 2)):
        state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
        bound = q_local(state, "B")
        for _ in range(25):
            theta = MeasurementBasis(haar_unitary(n_a, rng))
            assert steered_q_sum(state, theta) <= bound + 1e-8


def test_steered_q_sum_matches_summed_oracle(rng):
    # the closed form equals the skew information of each conditional state
    # summed over a Gell-Mann basis of B, weighted by the outcome probability
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        basis_b = gell_mann_basis(n_b)
        state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
        for _ in range(10):
            theta = MeasurementBasis(haar_unitary(n_a, rng))
            ensemble = steer(state, theta)
            expected = sum(
                p * summed_q_total(rho_i, basis_b) for p, rho_i in zip(ensemble.probabilities, ensemble.states)
            )
            assert steered_q_sum(state, theta) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_steered_sums_are_exact_on_pure_states(dims):
    # the conditionals of a pure joint state are pure: their total
    # uncertainty is n_B - 1 and their skew information is their variance,
    # values that need no root. The conditionals' null eigenvalues are
    # rounding of the whole state, which a per-conditional floor lets through
    n_a, n_b = dims
    rng = stream(97, 10 * n_a + n_b)
    k_b = random_nondegenerate_observable(n_b, rng=rng)
    for _ in range(5):
        state = BipartiteState(ginibre_state(n_a * n_b, rank=1, rng=rng), n_a, n_b)
        bases = haar_unitaries(n_a, 20, rng)
        values = steering._steered_q(steering._tensor(state), bases[None])
        np.testing.assert_allclose(values, n_b - 1.0, rtol=0.0, atol=1e-12)
        for u in bases:
            theta = MeasurementBasis(u)
            ensemble = steer(state, theta)
            expected = sum(
                p * variance(DensityMatrix(rho_i), k_b) for p, rho_i in zip(ensemble.probabilities, ensemble.states)
            )
            assert abs(steered_skew_sum(state, theta, k_b) - expected) <= 1e-12


def classical_quantum_state(n_a, n_b, rng):
    """sum_i p_i |i><i| x rho_i with Haar conjugates rho_i of known spectra,
    one of them rank-deficient, and the exact n_B - sum_i p_i (Tr sqrt(rho_i))^2."""
    p = rng.dirichlet(np.ones(n_a))
    spectra = rng.dirichlet(np.ones(n_b), size=n_a)
    spectra[0, 0] = 0.0
    spectra[0] /= spectra[0].sum()
    u = haar_unitaries(n_b, n_a, rng)
    blocks = (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)
    rho = np.zeros((n_a, n_b, n_a, n_b), dtype=complex)
    for i in range(n_a):
        rho[i, :, i, :] = p[i] * blocks[i]
    rho = rho.reshape(n_a * n_b, n_a * n_b)
    return BipartiteState(DensityMatrix(0.5 * (rho + rho.conj().T)), n_a, n_b), n_b - p @ np.sqrt(spectra).sum(-1) ** 2


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_steered_q_equals_exact_oracles_on_pure_and_classical_quantum_states(dims):
    # a pure joint state has rank-1 conditionals, whose steered Q is n_B - 1
    # in every basis; a classical-quantum state measured in its classical
    # basis (up to phases and the order of the outcomes) has conditionals
    # p_i rho_i, whose roots the known spectra give exactly
    n_a, n_b = dims
    rng = stream(101, 10 * n_a + n_b)
    for _ in range(5):
        pure = BipartiteState(ginibre_state(n_a * n_b, rank=1, rng=rng), n_a, n_b)
        values = steering._steered_q(steering._tensor(pure), haar_unitaries(n_a, 20, rng)[None])
        np.testing.assert_allclose(values, n_b - 1.0, rtol=0.0, atol=1e-13)
        cq, expected = classical_quantum_state(n_a, n_b, rng)
        phases = np.exp(2j * np.pi * rng.random((4, n_a)))
        bases = np.array([np.diag(ph)[:, np.roll(np.arange(n_a), s)] for s, ph in enumerate(phases)])
        values = steering._steered_q(steering._tensor(cq), bases[None])
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-13)


def test_steering_induced_skew_product_saturates(rng):
    state, tau_b = product_state(2, 2, rng)
    k_b = random_nondegenerate_observable(2, rng=rng)
    result = steering_induced_skew(state, k_b, opts=FAST, rng=rng)
    assert result.value == pytest.approx(skew_information(tau_b, k_b), abs=1e-8)


def test_steering_induced_skew_bell_saturates_bound(bell):
    k_b = random_nondegenerate_observable(2, rng=stream(41, 0))
    result = steering_induced_skew(bell, k_b, opts=FAST, rng=stream(41, 1))
    assert result.value == pytest.approx(1.0, abs=1e-6)


def test_steering_induced_skew_below_joint_skew(rng):
    for _ in range(5):
        state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
        k_b = random_nondegenerate_observable(2, rng=rng)
        joint = skew_information(state.state, Observable(kron(np.eye(2), k_b.matrix)))
        result = steering_induced_skew(state, k_b, opts=FAST, rng=rng)
        assert result.value <= joint + 1e-8


def test_average_steering_q_product_state(rng):
    state, tau_b = product_state(2, 2, rng)
    result = average_steering_induced_q(state, opts=FAST, rng=rng)
    assert result.value == pytest.approx(q_total(tau_b), abs=1e-8)


def test_average_steering_q_bell(bell):
    result = average_steering_induced_q(bell, opts=FAST, rng=stream(41, 2))
    assert result.value == pytest.approx(1.0, abs=1e-6)


def test_average_steering_q_below_q_local(rng):
    for _ in range(5):
        state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
        result = average_steering_induced_q(state, opts=FAST, rng=rng)
        assert result.value <= q_local(state, "B") + 1e-8


def test_maximizer_is_a_valid_basis(rng):
    state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
    k_b = random_nondegenerate_observable(2, rng=rng)
    result = steering_induced_skew(state, k_b, opts=FAST, rng=rng)
    # reconstructing from the returned maximizer reproduces the value
    assert steered_skew_sum(state, result.maximizer, k_b) == pytest.approx(result.value, abs=1e-9)


def _skipping_states_and_bases(n_a, n_b, rng):
    """A product state whose A part is the pure |0>, with a stack of bases in
    which different members skip different outcomes (permutations move the
    one nonzero outcome, Haar members skip none), and a pure joint state."""
    e0 = np.zeros((n_a, n_a), dtype=complex)
    e0[0, 0] = 1.0
    product = BipartiteState(DensityMatrix(kron(e0, ginibre_state(n_b, rng=rng).matrix)), n_a, n_b)
    pure = BipartiteState(ginibre_state(n_a * n_b, rank=1, rng=rng), n_a, n_b)
    perms = [np.eye(n_a, dtype=complex)[:, np.roll(np.arange(n_a), s)] for s in range(n_a)]
    bases = np.concatenate([np.array(perms), haar_unitaries(n_a, 5, rng)])
    return (product, pure, BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)), bases


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (1, 3)])
def test_stacked_steered_q_equals_per_basis_sum_bit_for_bit(dims):
    n_a, n_b = dims
    rng = stream(83, 10 * n_a + n_b)
    states, bases = _skipping_states_and_bases(n_a, n_b, rng)
    for state in states:
        per_basis = np.array([steered_q_sum(state, MeasurementBasis(u)) for u in bases])
        np.testing.assert_array_equal(steering._steered_q(steering._tensor(state), bases[None])[0], per_basis)
    if n_a > 1:
        # the product state really has null outcomes, and not the same ones in every basis
        skipped = {tuple(steer(states[0], MeasurementBasis(u)).skipped) for u in bases}
        assert len(skipped) > 2 and any(skipped)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (1, 3)])
def test_steered_q_of_the_avg_harness_stack_equals_per_basis_sum_bit_for_bit(dims):
    # the avg harness conditions T states on (T, 20) bases, so each state's
    # 20 bases fold into the rows of one product (60 rows at 3x3); every
    # member still equals the per-basis sum bit for bit, in that stack and
    # in a stack of one state
    n_a, n_b = dims
    rng = stream(97, 10 * n_a + n_b)
    states, bases = _skipping_states_and_bases(n_a, n_b, rng)
    stacks = np.array([np.concatenate([bases[:n_a], haar_unitaries(n_a, 20 - n_a, rng)]) for _ in states])
    per_basis = np.array(
        [[steered_q_sum(state, MeasurementBasis(u)) for u in row] for state, row in zip(states, stacks)]
    )
    r4 = np.concatenate([steering._tensor(state) for state in states])
    np.testing.assert_array_equal(steering._steered_q(r4, stacks), per_basis)
    for t, state in enumerate(states):
        values = steering._steered_q(steering._tensor(state), stacks[t : t + 1])
        np.testing.assert_array_equal(values, per_basis[t : t + 1])


def eigh_steered_q(state: BipartiteState, u: np.ndarray) -> float:
    """n_B - sum_i (Tr sqrt(c_i))^2 for the basis ``u``, one outcome at a
    time: c_i = (<u_i| x I) rho (|u_i> x I) from the joint matrix, rooted
    through its full eigendecomposition, with eigenvalues below the noise
    floor n_A n_B eps Tr rho taken as 0."""
    n_a, n_b = state.n_a, state.n_b
    floor = n_a * n_b * np.finfo(float).eps * np.trace(state.matrix).real
    total = 0.0
    for i in range(n_a):
        bra = np.kron(u[:, i].conj()[None, :], np.eye(n_b))
        w, _ = np.linalg.eigh(bra @ state.matrix @ bra.conj().T)
        total += np.sqrt(np.where(w < floor, 0.0, w)).sum() ** 2
    return n_b - total


def kron_conditionals(rho: np.ndarray, u: np.ndarray, n_b: int) -> np.ndarray:
    """(<u_i| x I) rho (|u_i> x I) for each column u_i of the basis ``u``,
    built from the joint matrix with ``np.kron``."""
    bras = [np.kron(u[:, i].conj()[None, :], np.eye(n_b)) for i in range(u.shape[1])]
    return np.array([bra @ rho @ bra.conj().T for bra in bras])


@pytest.mark.parametrize("dims", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_condition_equals_a_kron_oracle_in_every_layout(dims):
    # the stacks its callers pass: one basis of one state (the single
    # calls), k bases of one state, k bases of each of T states (the avg
    # harness) and one basis of each of T states (the search costs); each
    # conditional equals the kron-built one, on a full-rank, a pure and a
    # product state
    n_a, n_b = dims
    rng = stream(89, 10 * n_a + n_b)
    product, _ = product_state(n_a, n_b, rng)
    states = [
        ginibre_state(n_a * n_b, rng=rng).matrix,
        ginibre_state(n_a * n_b, rank=1, rng=rng).matrix,
        product.state.matrix,
    ]
    bases = haar_unitaries(n_a, 4 * len(states), rng).reshape(len(states), 4, n_a, n_a)
    r4 = np.array(states).reshape(len(states), n_a, n_b, n_a, n_b)
    expected = np.array([[kron_conditionals(rho, u, n_b) for u in row] for rho, row in zip(states, bases)])

    def check(got, want):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    for t in range(len(states)):
        check(steering._condition(r4[t : t + 1], bases[t : t + 1, :1]), expected[t : t + 1, :1])
        check(steering._condition(r4[t : t + 1], bases[t : t + 1]), expected[t : t + 1])
    check(steering._condition(r4, bases), expected)
    check(steering._condition(r4, bases[:, :1]), expected[:, :1])


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (1, 3)])
def test_eigenvalue_only_steered_q_equals_an_eigh_oracle(dims):
    # the steered Q reads only the roots' eigenvalues, so it takes them from
    # the eigenvalue-only solver; an eigendecomposition of each conditional
    # gives the same sum on a full-rank state, a pure one, and a product
    # state whose bases skip different outcomes. Solver rounding of order
    # eps in an eigenvalue lambda moves its root by eps / (2 sqrt(lambda)),
    # so 1e-14 holds here, where the nonzero eigenvalues of the
    # conditionals are above 1e-3
    n_a, n_b = dims
    rng = stream(79, 10 * n_a + n_b)
    states, bases = _skipping_states_and_bases(n_a, n_b, rng)
    for state in states:
        expected = [eigh_steered_q(state, u) for u in bases]
        values = steering._steered_q(steering._tensor(state), bases[None])[0]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_steered_skew_sum_equals_per_outcome_oracle(dims, monkeypatch):
    # the oracle validates each conditional as a DensityMatrix and takes its
    # skew information one outcome at a time; the sum roots them all with
    # one call to the root kernel, or with none on a qubit B, where it is
    # the closed form
    n_a, n_b = dims
    rng = stream(89, 10 * n_a + n_b)
    states, bases = _skipping_states_and_bases(n_a, n_b, rng)
    k_b = random_nondegenerate_observable(n_b, rng=rng)
    roots = []
    monkeypatch.setattr(steering, "psd_sqrt_eigh", lambda m, scale: roots.append(m) or psd_sqrt_eigh(m, scale))
    for state in states:
        for u in bases:
            theta = MeasurementBasis(u)
            ensemble = steer(state, theta)
            expected = sum(
                p * skew_information(DensityMatrix(rho_i), k_b)
                for p, rho_i in zip(ensemble.probabilities, ensemble.states)
            )
            roots.clear()
            assert abs(steered_skew_sum(state, theta, k_b) - expected) <= 1e-12
            assert len(roots) == (n_b > 2)
    assert steer(states[0], MeasurementBasis(bases[0])).skipped == list(range(1, n_a))
