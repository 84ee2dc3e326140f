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
)

from skewinfo import steering
from skewinfo.optim import UnitarySearchResult

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
    probs = [p for p, _ in ensemble.outcomes]
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(ensemble.outcomes[0][1].matrix, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(ensemble.outcomes[1][1].matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_steer_product_state_conditions_to_marginal(rng):
    state, tau_b = product_state(2, 2, rng)
    for basis in (Z_BASIS, X_BASIS, MeasurementBasis(haar_unitary(2, rng))):
        for _, rho_i in steer(state, basis).outcomes:
            np.testing.assert_allclose(rho_i.matrix, tau_b.matrix, atol=1e-10)


def test_steer_probabilities_sum_to_one(rng):
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
        for _ in range(10):
            ensemble = steer(state, MeasurementBasis(haar_unitary(n_a, rng)))
            assert sum(p for p, _ in ensemble.outcomes) == pytest.approx(1.0, abs=1e-9)


def test_steer_skips_null_outcomes():
    # rank-1 support confined to |0> on A: measuring in the z basis
    # leaves outcome 1 with zero probability
    rho = np.zeros((4, 4), dtype=complex)
    rho[:2, :2] = np.diag([0.5, 0.5])
    ensemble = steer(BipartiteState(DensityMatrix(rho), 2, 2), Z_BASIS)
    assert ensemble.skipped == [1]
    assert len(ensemble.outcomes) == 1
    assert ensemble.outcomes[0][0] == pytest.approx(1.0, abs=1e-12)


def test_steer_dimension_mismatch(bell):
    with pytest.raises(DimensionMismatch):
        steer(bell, MeasurementBasis(np.eye(3)))


def test_steer_column_permutation_permutes_outcomes(rng):
    state = BipartiteState(ginibre_state(6, rng=rng), 3, 2)
    u = haar_unitary(3, rng)
    perm = [2, 0, 1]
    base = steer(state, MeasurementBasis(u))
    permuted = steer(state, MeasurementBasis(u[:, perm]))
    for new_idx, old_idx in enumerate(perm):
        p_old, rho_old = base.outcomes[old_idx]
        p_new, rho_new = permuted.outcomes[new_idx]
        assert p_new == pytest.approx(p_old, abs=1e-12)
        np.testing.assert_allclose(rho_new.matrix, rho_old.matrix, atol=1e-12)


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
            expected = sum(
                p * summed_q_total(rho_i.matrix, basis_b) for p, rho_i in steer(state, theta).outcomes
            )
            assert steered_q_sum(state, theta) == pytest.approx(expected, abs=1e-10)


def _search_cost(search, monkeypatch, *args):
    """The cost a steering maximization hands to the unitary search: U to
    (value, Riemannian gradient) of the negated gain."""
    captured = []

    def capture(cost, n, opts, rng=None):
        captured.append(cost)
        return UnitarySearchResult(0.0, np.eye(n, dtype=complex), 1, True)

    monkeypatch.setattr(steering, "minimize_over_unitaries", capture)
    search(*args)
    return captured[0]


def test_steering_cost_matches_steered_sum_on_pure_state(rng, monkeypatch):
    # rank-1 joint states give rank-1 conditionals, whose roots need the
    # kernel's noise floor: an unfloored root is off by ~1e-9
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        state = BipartiteState(ginibre_state(n_a * n_b, rank=1, rng=rng), n_a, n_b)
        k_b = random_nondegenerate_observable(n_b, rng=rng)
        cost = _search_cost(steering_induced_skew, monkeypatch, state, k_b)
        for _ in range(10):
            u = haar_unitary(n_a, rng)
            assert abs(-cost(u)[0] - steered_skew_sum(state, MeasurementBasis(u), k_b)) <= 1e-12


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
        np.testing.assert_array_equal(steering._steered_q(state, bases), per_basis)
    if n_a > 1:
        # the product state really skips outcomes, and not the same ones in every basis
        _, kept, _ = steering._condition(states[0], bases)
        assert not kept.all()
        assert len({tuple(row) for row in kept}) > 2
