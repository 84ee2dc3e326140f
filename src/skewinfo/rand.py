"""Seeded generators for states, observables, and channels.

Randomness is drawn from counter-based Philox streams keyed by
``(master_seed, index)``, so every trial gets an independent stream
that does not depend on scheduling or worker count.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatch, UsageError
from .states import (
    DensityMatrix,
    KrausChannel,
    NondegenerateObservable,
    check_spectrum,
    require_complete,
)

_MASK64 = (1 << 64) - 1


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Philox generator keyed by (master_seed, index), both reduced mod 2^64."""
    return next(streams(master_seed, (index,)))


def restart_stream(rng: np.random.Generator | None) -> np.random.Generator:
    """``rng``, or the fixed ``stream(0x5EED, 0)`` when it is None: what a search draws its restarts from."""
    return stream(0x5EED, 0) if rng is None else rng


def streams(master_seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """``stream(master_seed, t)`` for each t of ``indices`` in turn, as one
    generator that is re-keyed in place: each yielded stream draws what a
    fresh ``stream(master_seed, t)`` draws until the next one is taken.

    The Philox is built once per call, from a fixed seed, so no OS entropy
    is read (a Philox built from a key alone reads it for a seed sequence
    that the key then overrides). Each re-keying writes the state of a
    fresh generator: the key (master_seed, t) mod 2^64, a zero counter and
    an empty buffer.
    """
    gen = np.random.Generator(np.random.Philox(0))
    for t in indices:
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([master_seed & _MASK64, t & _MASK64], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def _isometries(g: np.ndarray, n: int) -> np.ndarray:
    """The first n columns ``(..., m, n)`` of the Haar unitaries of the
    Gaussian blocks ``(..., 2, m, m)`` (real, then imaginary part of each
    member): the Q of the QR with a positive real R diagonal of those
    columns of the complex Gaussian Z = g_re + i g_im, which is Haar
    distributed (Mezzadri, Notices AMS 54, 592, 2007). Q does not depend on
    Z's scale, so Z is not scaled to unit variance.

    Q is built by classical Gram-Schmidt with the projection applied twice,
    which leaves it orthonormal to working precision (Giraud, Langou and
    Rozloznik, Numer. Math. 101, 87, 2005): column j is
    z_j - Q_{<j}(Q_{<j}^† z_j), taken twice, then normalized. Each step is
    one stacked matmul pair, so the work is O(n) NumPy calls whatever the
    stack. Column j reads only Z's first j columns and the same arithmetic
    produces it whatever n is, so these are the full unitary's first n
    columns bit for bit at every m."""
    z = g[..., 0, :, :n] + 1j * g[..., 1, :, :n]
    q = np.empty_like(z)
    for j in range(z.shape[-1]):
        v = z[..., j : j + 1]
        if j:
            prev = q[..., :j]
            prev_h = prev.conj().swapaxes(-1, -2)
            for _ in range(2):
                v = v - prev @ (prev_h @ v)
        q[..., j : j + 1] = v / np.linalg.norm(v, axis=-2, keepdims=True)
    return q


def haar_from_gaussians(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries ``(..., n, n)`` from Gaussian blocks
    ``(..., 2, n, n)`` (real, then imaginary part of each member), by one
    stacked Gram-Schmidt pass over each member's columns (``_isometries``)."""
    return _isometries(g, g.shape[-1])


def haar_unitaries(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries stacked into ``(count, n, n)``:
    ``haar_from_gaussians`` on one ``(count, 2, n, n)`` draw.

    The draw takes the real then the imaginary Gaussian block of each
    member in turn, so the stack equals ``count`` successive
    ``haar_unitary`` draws and leaves ``rng`` in the same state. A count
    of 0 draws nothing and returns the empty ``(0, n, n)`` stack.
    """
    if n < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {n}")
    if count < 0:
        raise DimensionMismatch(f"count must be >= 0, got {count}")
    return haar_from_gaussians(rng.standard_normal((count, 2, n, n)))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: one member of :func:`haar_unitaries`."""
    return haar_unitaries(n, 1, rng)[0]


def ginibre_from_gaussians(g: np.ndarray) -> np.ndarray:
    """The Ginibre states GG†/Tr(GG†) ``(..., n, n)`` of Gaussian blocks
    ``(..., 2, n, rank)``, the real then the imaginary part of each G; the
    states are not checked."""
    z = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    w = z @ z.conj().swapaxes(-1, -2)
    w = 0.5 * (w + w.conj().swapaxes(-1, -2))
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]


def ginibre_state(n: int, rank: int | None = None, rng: np.random.Generator | None = None) -> DensityMatrix:
    """Random density matrix GG†/Tr(GG†) with G an n x rank complex Gaussian:
    ``ginibre_from_gaussians`` on one ``(2, n, rank)`` draw.

    Defaults to full rank; lower ranks probe boundary states.
    """
    if rng is None:
        raise UsageError("an explicit rng stream is required")
    r = n if rank is None else rank
    if not 1 <= r <= n:
        raise DimensionMismatch(f"rank must satisfy 1 <= rank <= {n}, got {r}")
    return DensityMatrix(ginibre_from_gaussians(rng.standard_normal((2, n, r))))


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
        raise UsageError("an explicit rng stream is required")
    lam = default_spectrum(n) if spectrum is None else check_spectrum(spectrum)
    if lam.size != n:
        raise DimensionMismatch(f"spectrum length {lam.size} does not match dimension {n}")
    return NondegenerateObservable(lam, haar_unitary(n, rng))


def _check_kraus_count(kraus_count: int) -> None:
    if kraus_count < 1:
        raise DimensionMismatch(f"kraus_count must be >= 1, got {kraus_count}")


def cptp_from_gaussians(g: np.ndarray, n: int) -> np.ndarray:
    """Random CPTP Kraus sets ``(..., J, n, n)``: the blocks of the Stinespring
    isometry formed by the first n columns of the Haar unitary on n·J
    dimensions of each member of ``g`` ``(..., 2, n·J, n·J)``, built from
    those Gaussian columns alone (``_isometries``: bit for bit the full
    unitary's columns); each set is checked for completeness."""
    v = _isometries(g, n)
    return require_complete(v.reshape(*v.shape[:-2], -1, n, n))


def random_cptp(n: int, kraus_count: int, rng: np.random.Generator) -> KrausChannel:
    """Random CPTP channel: Kraus blocks of a Stinespring isometry, one member
    of ``cptp_from_gaussians``."""
    _check_kraus_count(kraus_count)
    d = n * kraus_count
    return KrausChannel(list(cptp_from_gaussians(rng.standard_normal((2, d, d)), n)))


def commuting_kraus_from_gaussians(u: np.ndarray, g: np.ndarray, n_b: int) -> np.ndarray:
    """The Kraus operators ``(..., J, n_A n_B, n_A n_B)`` of random channels on
    A tensor B that commute with K ⊗ I_B, for K with the eigenbasis ``u``
    ``(..., n_A, n_A)``: eigenvector k gets the CPTP set of ``g[..., k, :, :, :]``
    (``cptp_from_gaussians``), and the operators are checked for completeness.

    Each Kraus operator is block diagonal over K's eigenprojectors,
    E_j = sum_k |u_k><u_k| ⊗ B_j^(k). For nondegenerate K this family is
    exactly the commutant of K ⊗ I_B intersected with Kraus sets, so
    commutation holds by construction.
    """
    n_a = u.shape[-1]
    blocks = cptp_from_gaussians(g, n_b)  # (..., k, j, b, d)
    kraus_count = blocks.shape[-3]
    ut = u.swapaxes(-1, -2)
    projs = ut[..., :, :, None] * ut.conj()[..., :, None, :]  # |u_k><u_k|, (..., k, a, c)
    shape = (*u.shape[:-2], kraus_count, n_a * n_b, n_a * n_b)
    ops = np.zeros(shape, dtype=np.complex128)
    for k in range(n_a):  # from zero in ascending k: an einsum would reorder the additions
        # |u_k><u_k| ⊗ B_j^(k), entry (a b, c d) = P_k[a, c] B_j^(k)[b, d]
        term = projs[..., k, None, :, None, :, None] * blocks[..., k, :, None, :, None, :]
        ops += term.reshape(shape)
    return require_complete(ops)


def commuting_kraus_channel(
    k_obs: NondegenerateObservable,
    n_b: int,
    kraus_count: int,
    rng: np.random.Generator,
) -> KrausChannel:
    """Random channel on A tensor B whose Kraus operators commute with K ⊗ I_B:
    ``commuting_kraus_from_gaussians`` on one ``(n_A, 2, n_B J, n_B J)``
    draw, which equals n_A successive ``random_cptp`` draws, one per
    eigenvector of K."""
    check_spectrum(k_obs.spectrum)
    _check_kraus_count(kraus_count)
    d = n_b * kraus_count
    g = rng.standard_normal((k_obs.dim, 2, d, d))
    return KrausChannel(list(commuting_kraus_from_gaussians(k_obs.eigenbasis, g, n_b)))
