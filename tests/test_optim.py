"""The phase-free unitary chart and the objectives' phase invariance."""

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    ginibre_state,
    haar_unitary,
    lqu,
    partial_trace,
    random_nondegenerate_observable,
    skew_information,
    steering_induced_skew,
    stream,
)
from skewinfo.metrics import LocalSkewObjective
from skewinfo.optim import antihermitian_from_params, unitary_exp
from skewinfo.steering import _steered_skew


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_antihermitian_from_params_is_zero_diagonal(n, rng):
    theta = rng.standard_normal(n * (n - 1))
    a = antihermitian_from_params(theta, n)
    assert a.shape == (n, n)
    np.testing.assert_array_equal(np.diag(a), np.zeros(n))
    np.testing.assert_array_equal(a, -a.conj().T)
    # every parameter lands in the strict upper triangle, row by row
    np.testing.assert_array_equal(a[np.triu_indices(n, 1)], theta[0::2] + 1j * theta[1::2])
    u = unitary_exp(a)
    assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12


def random_phases(n, rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_objectives_ignore_column_phases(dims, rng):
    # the chart's precondition: U and U·D give the same value for diagonal D
    n_a, n_b = dims
    state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
    for side, n_side in (("A", n_a), ("B", n_b)):
        obj = LocalSkewObjective(state, side)
        lam = np.sort(rng.standard_normal(n_side))
        for _ in range(10):
            u = haar_unitary(n_side, rng)
            ud = u * random_phases(n_side, rng)
            # the search cost of the LQU: I(rho, U diag(lam) U^dagger on the side)
            assert abs(obj.skew((u * lam) @ u.conj().T) - obj.skew((ud * lam) @ ud.conj().T)) <= 1e-12
    km = random_nondegenerate_observable(n_b, rng=rng).matrix
    for _ in range(10):
        u = haar_unitary(n_a, rng)
        ud = u * random_phases(n_a, rng)
        assert abs(_steered_skew(state, u, km) - _steered_skew(state, ud, km)) <= 1e-12


def test_one_dimensional_side_evaluates_the_only_point():
    # a 1-dim side has no basis to choose, so the searches evaluate their base
    # points; the values are those of the n^2-parameter chart, which ran the
    # simplex along the phase
    rng = stream(5, 0)
    state = BipartiteState(ginibre_state(3, rng=rng), 1, 3)
    k_b = random_nondegenerate_observable(3, rng=rng)
    steered = steering_induced_skew(state, k_b, rng=stream(5, 1))
    rho_b = DensityMatrix(partial_trace(state.matrix, state.dims, "A"))
    assert steered.value == pytest.approx(0.38152677985817507, abs=1e-12)
    assert steered.value == pytest.approx(skew_information(rho_b, k_b), abs=1e-12)
    assert (steered.restarts_used, steered.converged) == (16, True)

    local = lqu(state, np.array([0.5]), "A", rng=stream(5, 2))
    assert abs(local.value) <= 1e-12  # a multiple of the identity
    assert (local.restarts_used, local.converged) == (1, True)  # the floor stops the restarts
