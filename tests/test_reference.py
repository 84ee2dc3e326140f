"""Reference checks of the harnesses: each record recomputed from the
paper's definitions, one trial, basis and outcome at a time.

Each trial is redrawn from its own stream ``stream(master_seed, t)`` with
the public samplers, in the order the harnesses document. The channel
output is the explicit Kraus sum, the conditional states are built
explicitly as (<u_i| x I) rho (|u_i> x I), and every square root is
SciPy's ``sqrtm`` (the qubit-side LQU oracle of ``conftest`` roots with
SciPy's ``eigh``); nothing is stacked. The package values used are the
searched LQU minimizers, claim1's on a larger side A and claim2's
``argmin_K`` observable, which the public ``lqu`` recomputes from the
trial's own draws: the record must be the least of the skew information
at claim1's and at K_A, and claim2's enters a one-sided check.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import oracle_lqu_qubit
from skewinfo import (
    BipartiteState,
    DensityMatrix,
    apply_channel,
    commuting_kraus_channel,
    ginibre_state,
    haar_unitaries,
    lqu,
    random_nondegenerate_observable,
    stream,
    verify_avg_bound,
    verify_claim1,
    verify_claim2,
)
from skewinfo.metrics import _gell_mann, _real_forms, local_skew_forms
from skewinfo.optim import restart_bases
from skewinfo.rand import default_spectrum
from skewinfo.verify import CLAIM1_OPTS, HARNESS_OPTS

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
TRIALS = 32
MASTER_SEED = 5
# the closed-form sides (avg, claim1 rhs, claim2 random_K rhs, and the LQU
# on a qubit side): SciPy's roots and the package's stacked roots agree to
# a few 1e-15 on full-rank Ginibre states
EXACT_TOL = 1e-13
# the searched sides: claim1's lhs is the searched LQU capped by its value
# at K_A, so lhs is at most I(eps(sigma), K_A x I); the steering search
# starts at each restart basis, or on two qubits at the best of them, and
# never ends below its start, so claim2 lhs is at least the steered sum at
# each of them
SEARCH_TOL = 1e-12


def root(m: np.ndarray) -> np.ndarray:
    """Principal square root by SciPy, made exactly Hermitian."""
    r = scipy.linalg.sqrtm(m)
    return 0.5 * (r + r.conj().T)


def conditionals(rho: np.ndarray, u: np.ndarray, n_b: int) -> list[np.ndarray]:
    """The unnormalized conditional states (<u_i| x I) rho (|u_i> x I) of B for
    each column u_i of the basis ``u``."""
    bras = [np.kron(u[:, i].conj()[None, :], np.eye(n_b)) for i in range(u.shape[1])]
    return [bra @ rho @ bra.conj().T for bra in bras]


def steered_q(rho: np.ndarray, u: np.ndarray, n_b: int) -> float:
    """sum_i p_i (n_B - (Tr sqrt(rho_i))^2) over the outcomes of ``u``."""
    total = 0.0
    for c in conditionals(rho, u, n_b):
        p = np.trace(c).real
        total += p * (n_b - np.trace(root(c / p)).real ** 2)
    return total


def skew(rho: np.ndarray, k: np.ndarray) -> float:
    """Wigner-Yanase skew information Tr(rho K^2) - Tr(sqrt(rho) K sqrt(rho) K)."""
    s = root(rho)
    return np.trace(rho @ k @ k).real - np.trace(s @ k @ s @ k).real


def steered_skew(rho: np.ndarray, u: np.ndarray, k: np.ndarray, n_b: int) -> float:
    """sum_i p_i I(rho_i, K) over the outcomes of ``u``."""
    total = 0.0
    for c in conditionals(rho, u, n_b):
        p = np.trace(c).real
        total += p * skew(c / p, k)
    return total


def q_local_b(rho: np.ndarray, n_a: int, n_b: int) -> float:
    """n_B - Tr[(Tr_B sqrt(rho))^2]: the partial trace removes B itself, so
    the matrix squared is on A."""
    on_a = np.trace(root(rho).reshape(n_a, n_b, n_a, n_b), axis1=1, axis2=3)
    return n_b - np.trace(on_a @ on_a).real


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_real_form_is_the_skew_information_of_traceless_observables(n, side):
    # the Gell-Mann matrices are a trace-orthogonal traceless Hermitian basis,
    # and for K = sum_i x_i G_i, x^T Q x is I(rho, K x I), or I(rho, I x K)
    basis = _gell_mann(n)
    assert basis.shape == (n * n - 1, n, n)
    np.testing.assert_array_equal(basis, basis.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(np.einsum("iab,jba->ij", basis, basis), 2.0 * np.eye(n * n - 1), atol=1e-15)
    np.testing.assert_allclose(np.trace(basis, axis1=-2, axis2=-1), 0.0, atol=1e-15)
    rng = stream(MASTER_SEED, n)
    dims = (n, 2) if side == "A" else (2, n)
    for _ in range(4):
        rho = ginibre_state(2 * n, rng=rng).matrix
        g = rng.standard_normal((2, n, n))
        k = (g[0] + 1j * g[1]) + (g[0] + 1j * g[1]).conj().T
        k -= np.trace(k).real / n * np.eye(n)
        x = np.einsum("iab,ba->i", basis, k).real / 2.0
        np.testing.assert_allclose(np.einsum("i,iab->ab", x, basis), k, atol=1e-13)
        q = _real_forms(local_skew_forms(rho, dims, side), n)
        embedded = np.kron(k, np.eye(2)) if side == "A" else np.kron(np.eye(2), k)
        assert abs(x @ q @ x - skew(rho, embedded)) <= EXACT_TOL * max(1.0, x @ x)


@pytest.mark.parametrize("dims", DIMS)
def test_avg_records_equal_the_definitions(dims):
    # per trial: ginibre_state, then haar_unitaries(n_A, bases_per_trial)
    n_a, n_b = dims
    _, records = verify_avg_bound(n_a, n_b, trials=TRIALS, master_seed=MASTER_SEED, workers=1)
    for record in records:
        rng = stream(MASTER_SEED, record.trial_index)
        rho = ginibre_state(n_a * n_b, rng=rng).matrix
        bases = haar_unitaries(n_a, 20, rng)
        lhs = max(steered_q(rho, u, n_b) for u in bases)
        assert abs(record.lhs - lhs) <= EXACT_TOL, (record.trial_index, record.lhs - lhs)
        assert abs(record.rhs - q_local_b(rho, n_a, n_b)) <= EXACT_TOL, record.trial_index


@pytest.mark.parametrize("dims", DIMS)
def test_claim1_records_against_the_definitions(dims):
    # per trial: ginibre_state on A, then on B, random_nondegenerate_observable
    # K_A, commuting_kraus_channel(K_A, n_B, kraus_count); on a larger side A
    # lqu recomputes the search's minimizer at the claim1 budget, which
    # draws no restart bases, and lhs is the least of its value and K_A's
    n_a, n_b = dims
    _, records = verify_claim1(n_a, n_b, trials=TRIALS, master_seed=MASTER_SEED, workers=1)
    lam = default_spectrum(n_a)
    for record in records:
        rng = stream(MASTER_SEED, record.trial_index)
        rho_a, tau_b = ginibre_state(n_a, rng=rng).matrix, ginibre_state(n_b, rng=rng).matrix
        observable = random_nondegenerate_observable(n_a, rng=rng)
        k_a, sigma = observable.matrix, np.kron(rho_a, tau_b)
        channel = commuting_kraus_channel(observable, n_b, 2, rng)
        evolved = sum(e @ sigma @ e.conj().T for e in channel.kraus_ops)
        assert abs(record.rhs - skew(rho_a, k_a)) <= EXACT_TOL, record.trial_index
        start = skew(evolved, np.kron(k_a, np.eye(n_b)))
        assert record.lhs <= start + SEARCH_TOL, (record.trial_index, record.lhs - start)
        if n_a == 2:
            exact = oracle_lqu_qubit(evolved, dims, "A", lam)
            assert abs(record.lhs - exact) <= EXACT_TOL, (record.trial_index, record.lhs - exact)
        else:
            state = BipartiteState(apply_channel(channel, DensityMatrix(sigma)), n_a, n_b)
            k = lqu(state, lam, "A", opts=CLAIM1_OPTS, rng=rng).minimizer.matrix
            least = min(start, skew(evolved, np.kron(k, np.eye(n_b))))
            assert abs(record.lhs - least) <= EXACT_TOL, (record.trial_index, record.lhs - least)


@pytest.mark.parametrize("mode", ["argmin_K", "random_K"])
@pytest.mark.parametrize("dims", DIMS)
def test_claim2_lhs_is_at_least_the_steered_sum_at_each_restart_basis(dims, mode):
    # per trial: ginibre_state; then in argmin_K mode the LQU search's
    # restart bases on B (none on a qubit B; its minimizer K is recomputed
    # by lqu from the same draws), or in random_K mode
    # random_nondegenerate_observable; then the steering search's restart
    # bases on A
    n_a, n_b = dims
    _, records = verify_claim2(n_a, n_b, trials=TRIALS, master_seed=MASTER_SEED, mode=mode, workers=1)
    lam = default_spectrum(n_b)
    for record in records:
        rng = stream(MASTER_SEED, record.trial_index)
        state = ginibre_state(n_a * n_b, rng=rng)
        rho = state.matrix
        if mode == "argmin_K":
            k = lqu(BipartiteState(state, n_a, n_b), lam, "B", opts=HARNESS_OPTS, rng=rng).minimizer.matrix
            if n_b == 2:
                exact = oracle_lqu_qubit(rho, dims, "B", lam)
                assert abs(record.rhs - exact) <= EXACT_TOL, (record.trial_index, record.rhs - exact)
        else:
            k = random_nondegenerate_observable(n_b, rng=rng).matrix
            assert abs(record.rhs - skew(rho, np.kron(np.eye(n_a), k))) <= EXACT_TOL, record.trial_index
        for u in restart_bases(n_a, HARNESS_OPTS, rng=rng):
            start = steered_skew(rho, u, k, n_b)
            assert record.lhs >= start - SEARCH_TOL, (record.trial_index, record.lhs - start)
