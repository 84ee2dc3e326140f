"""Reference checks of the steering harnesses: each record recomputed from
the paper's definitions, one trial, basis and outcome at a time.

Each trial is redrawn from its own stream ``stream(master_seed, t)`` with
the public samplers, in the order the harnesses document. The conditional
states are built explicitly as (<u_i| x I) rho (|u_i> x I), and every
square root is SciPy's ``sqrtm``; nothing is stacked. The one package
value used is claim2's ``argmin_K`` observable, which the public ``lqu``
recomputes from the trial's own draws: the check it enters is one-sided.
"""

import numpy as np
import pytest
import scipy.linalg

from skewinfo import (
    BipartiteState,
    ginibre_state,
    haar_unitaries,
    lqu,
    random_nondegenerate_observable,
    stream,
    verify_avg_bound,
    verify_claim2,
)
from skewinfo.optim import restart_bases
from skewinfo.rand import default_spectrum
from skewinfo.verify import HARNESS_OPTS

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
TRIALS = 32
MASTER_SEED = 5
# avg: both sides are closed forms; SciPy's Schur root and the package's
# stacked eigenvalue roots agree to a few 1e-15 on full-rank Ginibre states
EXACT_TOL = 1e-13
# claim2: the steering search starts at each restart basis and never ends
# below its start, so lhs is at least the steered sum at each of them
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
        else:
            k = random_nondegenerate_observable(n_b, rng=rng).matrix
            assert abs(record.rhs - skew(rho, np.kron(np.eye(n_a), k))) <= EXACT_TOL, record.trial_index
        for u in restart_bases(n_a, HARNESS_OPTS, rng=rng):
            start = steered_skew(rho, u, k, n_b)
            assert record.lhs >= start - SEARCH_TOL, (record.trial_index, record.lhs - start)
