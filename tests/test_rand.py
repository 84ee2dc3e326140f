"""Seeded generator tests: Haar unitaries, Ginibre states, random channels."""

import numpy as np
import pytest

from skewinfo import (
    DegenerateSpectrum,
    DimensionMismatch,
    NondegenerateObservable,
    apply_channel,
    commuting_kraus_channel,
    default_spectrum,
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    kron,
    random_cptp,
    random_nondegenerate_observable,
    stream,
)

# Frozen once from stream(7, 0): the determinism contract of the seeding scheme.
HAAR_7_0_N2 = np.array(
    [
        [-0.6837276888945586 + 0.645786490572487j, 0.30913799547733056 - 0.14110264272944936j],
        [0.24004336698615242 - 0.24053157380877874j, 0.8436703617147071 - 0.4156249086991764j],
    ]
)


def test_haar_scalar_case():
    u = haar_unitary(1, stream(3, 0))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_columns_normalized():
    u = haar_unitary(4, stream(11, 0))
    np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(4), atol=1e-10)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)


def test_haar_seed_reproducibility():
    np.testing.assert_allclose(haar_unitary(2, stream(7, 0)), HAAR_7_0_N2, atol=1e-15)
    np.testing.assert_array_equal(haar_unitary(2, stream(7, 0)), haar_unitary(2, stream(7, 0)))


def test_haar_unitaries_equal_sequential_draws():
    # one stacked draw is bit-identical to k successive single draws and
    # consumes exactly the same part of the stream
    for n in (1, 2, 3, 4):
        for k in (1, 2, 7, 20):
            single, stacked = stream(29, 10 * n + k), stream(29, 10 * n + k)
            expected = np.array([haar_unitary(n, single) for _ in range(k)])
            got = haar_unitaries(n, k, stacked)
            assert got.shape == (k, n, n)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(stacked.standard_normal(4), single.standard_normal(4))


def test_haar_unitaries_rejects_bad_sizes():
    with pytest.raises(DimensionMismatch):
        haar_unitaries(0, 3, stream(0, 0))
    with pytest.raises(DimensionMismatch):
        haar_unitaries(2, 0, stream(0, 0))


def test_streams_differ_across_trial_index():
    a = haar_unitary(2, stream(7, 0))
    b = haar_unitary(2, stream(7, 1))
    assert np.max(np.abs(a - b)) > 1e-3


def test_ginibre_rank1_is_pure(rng):
    for _ in range(10):
        rho = ginibre_state(3, rank=1, rng=rng)
        np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-9)


def test_ginibre_mean_is_maximally_mixed():
    # Monte Carlo mean over 10^4 full-rank qubit samples
    rng = stream(8, 0)
    acc = np.zeros((2, 2), dtype=complex)
    n_samples = 10_000
    for _ in range(n_samples):
        acc += ginibre_state(2, rng=rng).matrix
    np.testing.assert_allclose(acc / n_samples, np.eye(2) / 2, atol=0.01)


def test_ginibre_rank_bounds():
    with pytest.raises(DimensionMismatch):
        ginibre_state(2, rank=3, rng=stream(0, 0))
    with pytest.raises(DimensionMismatch):
        ginibre_state(2, rank=0, rng=stream(0, 0))


def test_ginibre_passes_state_invariants(rng):
    for n in (2, 3, 6):
        for _ in range(20):
            ginibre_state(n, rng=rng)  # constructor validates


def test_default_spectrum():
    np.testing.assert_allclose(default_spectrum(2), [-1.0, 1.0])
    np.testing.assert_allclose(default_spectrum(3), [-1.0, 0.0, 1.0])


def test_random_observable_default_qubit(rng):
    obs = random_nondegenerate_observable(2, rng=rng)
    assert abs(np.trace(obs.matrix)) < 1e-9
    np.testing.assert_allclose(obs.matrix @ obs.matrix, np.eye(2), atol=1e-9)


def test_random_observable_spectrum_preserved(rng):
    lam = np.array([-2.0, 0.5, 3.0])
    obs = random_nondegenerate_observable(3, lam, rng)
    np.testing.assert_allclose(np.linalg.eigvalsh(obs.matrix), lam, atol=1e-10)


def test_random_observable_qutrit_traceless(rng):
    obs = random_nondegenerate_observable(3, rng=rng)
    assert abs(np.trace(obs.matrix)) < 1e-9


def test_random_observable_rejects_degenerate(rng):
    with pytest.raises(DegenerateSpectrum):
        random_nondegenerate_observable(2, np.array([1.0, 1.0]), rng)


def test_random_cptp_single_kraus_is_unitary(rng):
    channel = random_cptp(3, 1, rng)
    (e,) = channel.kraus_ops
    np.testing.assert_allclose(e.conj().T @ e, np.eye(3), atol=1e-10)


def test_random_cptp_completeness(rng):
    channel = random_cptp(4, 3, rng)
    total = sum(e.conj().T @ e for e in channel.kraus_ops)
    assert np.max(np.abs(total - np.eye(4))) < 1e-9


def test_random_cptp_preserves_trace(rng):
    channel = random_cptp(3, 2, rng)
    rho = ginibre_state(3, rng=rng)
    out = apply_channel(channel, rho)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-9


def test_commuting_channel_phase_case():
    rng = stream(5, 0)
    k = NondegenerateObservable(np.array([-1.0, 1.0]), np.eye(2))
    channel = commuting_kraus_channel(k, 1, 1, rng)
    (e,) = channel.kraus_ops
    assert np.max(np.abs(e - np.diag(np.diagonal(e)))) < 1e-12


@pytest.mark.parametrize("spectrum", [[0.0, 5e-7, 1.0], [1.0, 0.0, -1.0]])
def test_commuting_channel_rejects_spectrum_degenerated_after_construction(rng, spectrum):
    k = random_nondegenerate_observable(3, rng=rng)
    k.spectrum = np.array(spectrum)  # a gap below the minimum, or a descending order
    with pytest.raises(DegenerateSpectrum):
        commuting_kraus_channel(k, 2, 2, rng)


def test_commuting_channel_commutes_and_complete():
    # exact commutation on 100+ random instances across small dims
    count = 0
    for idx in range(28):
        for n_a in (2, 3):
            for n_b in (2, 3):
                rng = stream(100 + idx, n_a * 10 + n_b)
                k = random_nondegenerate_observable(n_a, rng=rng)
                channel = commuting_kraus_channel(k, n_b, 2, rng)
                k_full = kron(k.matrix, np.eye(n_b))
                for e in channel.kraus_ops:
                    assert np.max(np.abs(e @ k_full - k_full @ e)) < 1e-10
                total = sum(e.conj().T @ e for e in channel.kraus_ops)
                assert np.max(np.abs(total - np.eye(n_a * n_b))) < 1e-8
                count += 1
    assert count >= 100


def looped_commuting_kraus_ops(k, n_b, kraus_count, rng):
    """The channel's Kraus operators built one np.kron term at a time,
    E_j = sum_k |u_k><u_k| ⊗ B_j^(k) summed from zero in ascending k, from
    the same per-eigenvector random_cptp draws."""
    u = k.eigenbasis
    block_sets = [random_cptp(n_b, kraus_count, rng).kraus_ops for _ in range(k.dim)]
    ops = []
    for j in range(kraus_count):
        e = np.zeros((k.dim * n_b, k.dim * n_b), dtype=np.complex128)
        for col in range(k.dim):
            e += np.kron(np.outer(u[:, col], u[:, col].conj()), block_sets[col][j])
        ops.append(e)
    return ops


@pytest.mark.parametrize("n_a,n_b,kraus_count", [(3, 2, 3), (2, 2, 2), (3, 3, 1), (2, 3, 3), (2, 1, 2)])
def test_commuting_channel_equals_the_term_by_term_sum(n_a, n_b, kraus_count):
    # the broadcast build does the same products and additions in the same
    # order as the loop, so the operators agree bit for bit and the stream
    # is left in the same state
    for idx in range(20):
        rng, ref_rng = stream(300 + idx, n_a), stream(300 + idx, n_a)
        k = random_nondegenerate_observable(n_a, rng=rng)
        random_nondegenerate_observable(n_a, rng=ref_rng)
        ops = commuting_kraus_channel(k, n_b, kraus_count, rng).kraus_ops
        expected = looped_commuting_kraus_ops(k, n_b, kraus_count, ref_rng)
        assert len(ops) == kraus_count
        for e, ref in zip(ops, expected):
            assert e.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()
