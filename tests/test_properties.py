"""Property tests of the metric inequalities and symmetries on random states,
including low-rank and pure ones."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gell_mann_basis, summed_q_local, summed_q_total
from skewinfo import (
    BipartiteState,
    DensityMatrix,
    Observable,
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    q_local,
    q_total,
    skew_information,
    stream,
    variance,
)
from skewinfo.steering import _steered_q

# Observables are scaled to spectral radius 1, so absolute tolerances apply.
TOL = 1e-10

seeds = st.integers(0, 2**32 - 1)


def unit_observable(n, rng):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = h + h.conj().T
    return h / np.abs(np.linalg.eigvalsh(h)).max()


def rotated(u, m):
    r = u @ m @ u.conj().T
    return 0.5 * (r + r.conj().T)


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n=st.integers(1, 4), rank_frac=st.floats(0.0, 1.0))
def test_skew_information_is_between_zero_and_variance(seed, n, rank_frac):
    rng = stream(seed, 0)
    rho = ginibre_state(n, rank=1 + int(rank_frac * (n - 1)), rng=rng)
    k = Observable(unit_observable(n, rng))
    value = skew_information(rho, k)
    assert 0.0 <= value <= variance(rho, k) + TOL


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n=st.integers(1, 4), rank_frac=st.floats(0.0, 1.0))
def test_skew_information_and_q_are_unitarily_covariant(seed, n, rank_frac):
    rng = stream(seed, 0)
    rho = ginibre_state(n, rank=1 + int(rank_frac * (n - 1)), rng=rng)
    k = unit_observable(n, rng)
    u = haar_unitary(n, rng)
    moved = DensityMatrix(rotated(u, rho.matrix))
    assert abs(skew_information(moved, Observable(rotated(u, k))) - skew_information(rho, Observable(k))) <= TOL
    assert abs(q_total(moved) - q_total(rho)) <= TOL


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    dims=st.sampled_from(((1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (1, 3), (4, 2))),
    rank_frac=st.floats(0.0, 1.0),
    product=st.booleans(),
    count=st.integers(1, 12),
)
def test_steered_q_of_every_basis_is_bounded_by_q_local(seed, dims, rank_frac, product, count):
    rng = stream(seed, 0)
    n_a, n_b = dims
    if product:  # the bound holds with equality on product states
        rho_a = ginibre_state(n_a, rank=1 + int(rank_frac * (n_a - 1)), rng=rng).matrix
        rho_b = ginibre_state(n_b, rank=1 + int(rank_frac * (n_b - 1)), rng=rng).matrix
        state = BipartiteState(DensityMatrix(np.kron(rho_a, rho_b)), n_a, n_b)
    else:
        n = n_a * n_b
        state = BipartiteState(ginibre_state(n, rank=1 + int(rank_frac * (n - 1)), rng=rng), n_a, n_b)
    values = _steered_q(state, haar_unitaries(n_a, count, rng))
    assert values.shape == (count,)
    assert values.max() <= q_local(state, "B") + 1e-12


def spectral_state(n, rank, rng):
    """A state V diag(p) V† with ``rank`` nonzero weights, and its root
    V diag(sqrt p) V† taken from the construction, not from an eigensolver:
    on rank-deficient states scipy's root is off by ~1e-8."""
    v = haar_unitary(n, rng)
    p = np.zeros(n)
    p[:rank] = rng.uniform(0.05, 1.0, rank)
    p /= p.sum()
    return (v * p) @ v.conj().T, (v * np.sqrt(p)) @ v.conj().T


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n_a=st.integers(1, 3), n_b=st.integers(1, 3), rank_frac=st.floats(0.0, 1.0))
def test_q_closed_forms_equal_the_gell_mann_sums(seed, n_a, n_b, rank_frac):
    # rank_frac = 0 draws pure joint states
    n = n_a * n_b
    matrix, root = spectral_state(n, 1 + int(rank_frac * (n - 1)), stream(seed, 0))
    rho = DensityMatrix(matrix)
    state = BipartiteState(rho, n_a, n_b)
    assert abs(q_total(rho) - summed_q_total(matrix, gell_mann_basis(n), root)) <= 1e-8
    for side, n_side in (("A", n_a), ("B", n_b)):
        oracle = summed_q_local(matrix, (n_a, n_b), side, gell_mann_basis(n_side), root)
        assert abs(q_local(state, side) - oracle) <= 1e-8
