"""Seeded generator tests: Haar unitaries, Ginibre states, random channels."""

import numpy as np
import pytest

from skewinfo import (
    DegenerateSpectrum,
    DimensionMismatch,
    NondegenerateObservable,
    UsageError,
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
from skewinfo.rand import _isometries, cptp_from_gaussians, haar_from_gaussians, streams

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


@pytest.mark.parametrize("master_seed,index", [(7, 0), (-3, 2), (2**64 + 5, 2**64 + 1)])
def test_stream_draws_what_numpys_keyed_philox_draws(master_seed, index):
    # the re-keyed generator behind stream and streams is the Philox that
    # NumPy builds from the key (master_seed, index), both reduced mod 2^64;
    # a generator taken from streams draws the same after another stream
    # left values in its buffer
    key = np.array([master_seed % 2**64, index % 2**64], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(9)
    np.testing.assert_array_equal(stream(master_seed, index).standard_normal(9), expected)
    gens = streams(master_seed, (index + 1, index))
    next(gens).integers(0, 2**32, size=3)
    np.testing.assert_array_equal(next(gens).standard_normal(9), expected)


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
        haar_unitaries(2, -1, stream(0, 0))
    # a count of 0 is the empty stack, and draws nothing from the stream
    drawn, fresh = stream(0, 0), stream(0, 0)
    empty = haar_unitaries(2, 0, drawn)
    assert empty.shape == (0, 2, 2) and empty.dtype == np.complex128
    np.testing.assert_array_equal(drawn.standard_normal(4), fresh.standard_normal(4))


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


@pytest.mark.parametrize("n,kraus_count,stack", [(3, 1, (4,)), (2, 3, (64, 3)), (3, 4, (5,))])
def test_cptp_isometry_is_the_haar_unitarys_first_columns(n, kraus_count, stack):
    # the Kraus blocks come from the first n Gaussian columns alone; they
    # are bit for bit the first n columns of the full Haar unitary, in the
    # square case (one Kraus operator) and in tall ones
    d = n * kraus_count
    g = stream(31, d).standard_normal((*stack, 2, d, d))
    expected = haar_from_gaussians(g)[..., :n].reshape(*stack, kraus_count, n, n)
    np.testing.assert_array_equal(cptp_from_gaussians(g, n), expected)


def test_cptp_isometry_at_128_dimensions_is_the_haar_unitarys_first_columns():
    # column j of the Gram-Schmidt pass reads only the first j Gaussian
    # columns, with the same arithmetic whatever the number of columns
    # taken, so thin and full agree bit for bit at large sizes too
    n, kraus_count = 2, 64
    d = n * kraus_count
    g = stream(31, d).standard_normal((2, 2, d, d))
    expected = haar_from_gaussians(g)[..., :n].reshape(2, kraus_count, n, n)
    np.testing.assert_array_equal(cptp_from_gaussians(g, n), expected)


def householder_isometries(g, n):
    """Oracle for ``_isometries``: LAPACK's Householder QR of the first n
    columns of each complex Gaussian Z = g_re + i g_im, with each member's
    R-diagonal phases moved into Q, so that R's diagonal is positive and
    real. Also returns Z."""
    z = g[..., 0, :, :n] + 1j * g[..., 1, :, :n]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :], z


# Q of a QR with a positive real R diagonal is unique, and a backward-stable
# factorization moves it by about n eps cond(Z), so each member is held to
# ORACLE_SPREAD n eps cond(Z). Over these draws the two differ by at most
# 2.3 eps cond(Z) (the 1x1 members, cond 1) and by at most 1e-14 in any
# entry.
ORACLE_SPREAD = 10.0


@pytest.mark.parametrize(
    "m,n,count",
    [(1, 1, 500), (2, 2, 500), (3, 3, 500), (4, 4, 500), (12, 12, 100), (40, 40, 20), (6, 3, 500), (128, 2, 10)],
)
def test_isometries_match_householder_qr(m, n, count):
    # square shapes through haar_from_gaussians, tall ones (n < m) through
    # cptp_from_gaussians, whose Kraus blocks stack the isometry's rows
    g = stream(43, 1000 * m + n).standard_normal((count, 2, m, m))
    got = haar_from_gaussians(g) if n == m else cptp_from_gaussians(g, n).reshape(count, m, n)
    expected, z = householder_isometries(g, n)
    spread = np.abs(got - expected).max(axis=(-2, -1)) / (n * np.finfo(float).eps * np.linalg.cond(z))
    assert spread.max() <= ORACLE_SPREAD
    # orthonormal columns within the 1e-14 the 3x3 test below asks of 10^5 draws
    assert np.abs(got.conj().swapaxes(-1, -2) @ got - np.eye(n)).max() <= 1e-14


def test_haar_3x3_draws_are_unitary_to_working_precision():
    # projecting twice keeps Gram-Schmidt orthonormal to working precision
    # (Giraud, Langou and Rozloznik, 2005), with no growth in the tail of
    # 10^5 draws
    u = haar_from_gaussians(stream(44, 0).standard_normal((100_000, 2, 3, 3)))
    assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(3)).max() <= 1e-14


@pytest.mark.parametrize(
    "shape,n",
    [((3, 2, 0, 0), 2), ((2, 0, 0), 2), ((0, 2, 3, 3), 3), ((0, 2, 3, 3), 2), ((4, 0, 2, 3, 3), 3), ((2, 2, 3, 3), 0)],
)
def test_isometries_of_zero_size_shapes_are_the_oracles(shape, n):
    # empty stacks, zero-dimensional spaces and zero columns come out with
    # the shape and dtype LAPACK's QR gives them; (3, 2, 0, 0) is the draw
    # of kraus_count = 0, whose empty Kraus sets then fail completeness (see
    # test_failed_trial_becomes_diagnostic_record)
    g = np.ones(shape)
    got = _isometries(g, n)
    expected, _ = householder_isometries(g, n)
    assert got.shape == expected.shape and got.dtype == expected.dtype


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


@pytest.mark.parametrize("draw", [ginibre_state, random_nondegenerate_observable])
def test_an_omitted_rng_is_a_usage_error(draw):
    with pytest.raises(UsageError, match="an explicit rng stream is required"):
        draw(2)
