"""Property tests of the metric inequalities and symmetries on random states,
including low-rank and pure ones."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gell_mann_basis, oracle_q_total, oracle_sqrtm, summed_q_local, summed_q_total
from skewinfo import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    Observable,
    apply_channel,
    commuting_kraus_channel,
    default_spectrum,
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    kron,
    lqu,
    q_local,
    q_total,
    random_nondegenerate_observable,
    skew_information,
    steered_skew_sum,
    stream,
    variance,
)
from skewinfo.states import MIN_SPECTRAL_GAP
from skewinfo.steering import _steered_q, _tensor
from skewinfo.verify import HARNESS_OPTS

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
    values = _steered_q(_tensor(state), haar_unitaries(n_a, count, rng))
    assert values.shape == (count,)
    assert values.max() <= q_local(state, "B") + 1e-12


def spectral_state(n, rank, rng):
    """A state V diag(p) V† with ``rank`` nonzero weights, and its root
    V diag(sqrt p) V† taken from the construction, not from an eigensolver."""
    v = haar_unitary(n, rng)
    p = np.zeros(n)
    p[:rank] = rng.uniform(0.05, 1.0, rank)
    p /= p.sum()
    return (v * p) @ v.conj().T, (v * np.sqrt(p)) @ v.conj().T


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n=st.integers(1, 9), rank_frac=st.floats(0.0, 1.0))
def test_oracle_root_is_exact_on_pure_and_low_rank_states(seed, n, rank_frac):
    # rank_frac = 0 draws pure states, whose zero eigenvalues come out of an
    # eigensolver as ~1e-16 noise with ~1e-8 square roots
    rank = 1 + int(rank_frac * (n - 1))
    matrix, root = spectral_state(n, rank, stream(seed, 0))
    assert np.abs(oracle_sqrtm(matrix) - root).max() <= 1e-12
    assert abs(oracle_q_total(matrix) - (n - np.trace(root).real ** 2)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(seed=seeds, n_a=st.integers(1, 3), n_b=st.integers(1, 3), rank_frac=st.floats(0.0, 1.0))
def test_q_closed_forms_equal_the_gell_mann_sums(seed, n_a, n_b, rank_frac):
    # rank_frac = 0 draws pure joint states
    n = n_a * n_b
    matrix, _ = spectral_state(n, 1 + int(rank_frac * (n - 1)), stream(seed, 0))
    rho = DensityMatrix(matrix)
    state = BipartiteState(rho, n_a, n_b)
    assert abs(q_total(rho) - summed_q_total(matrix, gell_mann_basis(n))) <= 1e-8
    for side, n_side in (("A", n_a), ("B", n_b)):
        oracle = summed_q_local(matrix, (n_a, n_b), side, gell_mann_basis(n_side))
        assert abs(q_local(state, side) - oracle) <= 1e-8


def boundary_spectrum(n, at_gap):
    """The default spectrum, or one whose lowest gap is exactly the minimum
    the validators accept (on a qubit that scales every value to ~1e-12)."""
    lam = default_spectrum(n) + 1.0
    if at_gap:
        lam[:2] = (0.0, MIN_SPECTRAL_GAP)
    return lam


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    dims=st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3))),
    rank_frac=st.floats(0.0, 1.0),
    kraus_count=st.integers(1, 3),
    at_gap=st.booleans(),
)
def test_bounds_hold_on_boundary_states(seed, dims, rank_frac, kraus_count, at_gap):
    # rank-deficient joint states, a pure rho_A, and spectra at the minimum gap
    rng = stream(seed, 0)
    n_a, n_b = dims
    rho_a = ginibre_state(n_a, rank=1, rng=rng)
    tau_b = ginibre_state(n_b, rank=1 + int(rank_frac * (n_b - 1)), rng=rng)
    k_a = random_nondegenerate_observable(n_a, boundary_spectrum(n_a, at_gap), rng)
    channel = commuting_kraus_channel(k_a, n_b, kraus_count, rng)
    evolved = apply_channel(channel, DensityMatrix(kron(rho_a.matrix, tau_b.matrix)))
    mid = skew_information(evolved, Observable(kron(k_a.matrix, np.eye(n_b))))
    low = lqu(BipartiteState(evolved, n_a, n_b), k_a.spectrum, "A", opts=HARNESS_OPTS, seeds=(k_a,), rng=rng).value
    assert low <= mid + 1e-8
    assert mid <= skew_information(rho_a, k_a) + 1e-8

    n = n_a * n_b
    state = BipartiteState(ginibre_state(n, rank=1 + int(rank_frac * (n - 2)), rng=rng), n_a, n_b)
    k_b = random_nondegenerate_observable(n_b, boundary_spectrum(n_b, at_gap), rng)
    joint = skew_information(state.state, Observable(kron(np.eye(n_a), k_b.matrix)))
    bases = haar_unitaries(n_a, 8, rng)
    for u in bases:
        assert steered_skew_sum(state, MeasurementBasis(u), k_b) <= joint + 1e-8
    assert _steered_q(_tensor(state), bases).max() <= q_local(state, "B") + 1e-8
