"""Seeded generators for states, observables, and channels.

Randomness is drawn from counter-based Philox streams keyed by
``(master_seed, index)``, so every trial gets an independent stream
that does not depend on scheduling or worker count.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch
from .states import (
    DensityMatrix,
    KrausChannel,
    NondegenerateObservable,
    check_spectrum,
)

_MASK64 = (1 << 64) - 1


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Philox generator keyed by (master_seed, index), both reduced mod 2^64."""
    key = np.array([master_seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitaries(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries stacked into ``(count, n, n)``,
    via one stacked QR with each member's R-diagonal phases fixed.

    Draws the real then the imaginary Gaussian block of each member in
    turn, so the stack equals ``count`` successive ``haar_unitary`` draws
    and leaves ``rng`` in the same state.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    if count < 1:
        raise DimensionMismatch(f"count must be >= 1, got {count}")
    g = rng.standard_normal((count, 2, n, n))
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: one member of :func:`haar_unitaries`."""
    return haar_unitaries(n, 1, rng)[0]


def ginibre_state(n: int, rank: int | None = None, rng: np.random.Generator | None = None) -> DensityMatrix:
    """Random density matrix GG†/Tr(GG†) with G an n x rank complex Gaussian.

    Defaults to full rank; lower ranks probe boundary states.
    """
    if rng is None:
        raise ValueError("an explicit rng stream is required")
    r = n if rank is None else rank
    if not 1 <= r <= n:
        raise DimensionMismatch(f"rank must satisfy 1 <= rank <= {n}, got {r}")
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    w = g @ g.conj().T
    w = 0.5 * (w + w.conj().T)
    return DensityMatrix(w / np.trace(w).real)


def default_spectrum(n: int) -> np.ndarray:
    """Equally spaced spectrum on [-1, +1]; {-1, +1} for n=2."""
    return np.linspace(-1.0, 1.0, n)


def random_nondegenerate_observable(
    n: int,
    spectrum: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> NondegenerateObservable:
    """Haar-rotated observable with the given (default equally spaced) spectrum."""
    if rng is None:
        raise ValueError("an explicit rng stream is required")
    lam = default_spectrum(n) if spectrum is None else check_spectrum(spectrum)
    if lam.size != n:
        raise DimensionMismatch(f"spectrum length {lam.size} does not match dimension {n}")
    return NondegenerateObservable(lam, haar_unitary(n, rng))


def random_cptp(n: int, kraus_count: int, rng: np.random.Generator) -> KrausChannel:
    """Random CPTP channel: Kraus blocks of a Stinespring isometry.

    The isometry is the first n columns of a Haar unitary on n·J dimensions.
    """
    if kraus_count < 1:
        raise DimensionMismatch(f"kraus_count must be >= 1, got {kraus_count}")
    u = haar_unitary(n * kraus_count, rng)
    v = u[:, :n]
    ops = [v[j * n : (j + 1) * n, :] for j in range(kraus_count)]
    return KrausChannel(ops)


def commuting_kraus_channel(
    k_obs: NondegenerateObservable,
    n_b: int,
    kraus_count: int,
    rng: np.random.Generator,
) -> KrausChannel:
    """Random channel on A tensor B whose Kraus operators commute with K ⊗ I_B.

    Each Kraus operator is block diagonal over K's eigenprojectors,
    E_j = sum_k |u_k><u_k| ⊗ B_j^(k), with an independent random CPTP
    Kraus set {B_j^(k)} on B per eigenvector. For nondegenerate K this
    family is exactly the commutant of K ⊗ I_B intersected with Kraus
    sets, so commutation holds by construction.
    """
    if k_obs.spectrum.size > 1 and float(np.min(np.diff(k_obs.spectrum))) < 1e-6:
        raise DegenerateSpectrum("observable spectrum is degenerate")
    n_a = k_obs.dim
    u = k_obs.eigenbasis
    block_sets = [random_cptp(n_b, kraus_count, rng).kraus_ops for _ in range(n_a)]
    ops = []
    for j in range(kraus_count):
        e = np.zeros((n_a * n_b, n_a * n_b), dtype=np.complex128)
        for k in range(n_a):
            proj = np.outer(u[:, k], u[:, k].conj())
            e += np.kron(proj, block_sets[k][j])
        ops.append(e)
    return KrausChannel(ops)
