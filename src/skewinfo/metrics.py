"""Skew information, total/local uncertainty, and local quantum uncertainty.

Skew information is computed in the expanded form
Tr(rho X^2) - Tr(sqrt(rho) X sqrt(rho) X), which equals
-1/2 Tr [sqrt(rho), X]^2 with a single matrix square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import optim
from .errors import DimensionMismatch
from .linalg import Side, partial_trace, side_dim, sqrtm_psd
from .optim import OptimizerOptions, SearchResult, restart_bases
from .states import (
    BipartiteState,
    DensityMatrix,
    NondegenerateObservable,
    Observable,
    check_spectrum,
    require_unitary,
)

CLAMP_WINDOW = 1e-10

ObservableLike = Union[Observable, NondegenerateObservable]

def _clamp(value):
    """Values in [-CLAMP_WINDOW, 0) set to 0, elementwise for an array."""
    return np.where((-CLAMP_WINDOW <= value) & (value < 0.0), 0.0, value)


def skew_informations(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """I(rho, X) for a state and an observable matrix, or member by member for
    ``(..., n, n)`` stacks of both, clamped as ``skew_information``."""
    rx = sqrtm_psd(rho) @ x
    t1 = np.trace(rho @ x @ x, axis1=-2, axis2=-1).real
    t2 = (rx * rx.swapaxes(-1, -2)).sum(axis=(-2, -1)).real  # Tr(root X root X)
    return _clamp(t1 - t2)


def skew_information(rho: DensityMatrix, x: ObservableLike) -> float:
    """Information content of rho relative to the observable x: one member of
    ``skew_informations``.

    Zero iff sqrt(rho) and x commute; bounded above by the variance and
    equal to it on pure states. Values in [-1e-10, 0) are clamped to 0.
    """
    xm = x.matrix
    if xm.shape[0] != rho.dim:
        raise DimensionMismatch(f"observable dim {xm.shape[0]} vs state dim {rho.dim}")
    return float(skew_informations(rho.matrix, xm))


def variance(rho: DensityMatrix, x: ObservableLike) -> float:
    """Tr(rho X^2) - (Tr rho X)^2."""
    xm = x.matrix
    if xm.shape[0] != rho.dim:
        raise DimensionMismatch(f"observable dim {xm.shape[0]} vs state dim {rho.dim}")
    mean = np.trace(rho.matrix @ xm).real
    return np.trace(rho.matrix @ xm @ xm).real - mean * mean


def q_total(rho: DensityMatrix) -> float:
    """Total uncertainty n - (Tr sqrt(rho))^2.

    This is the skew information summed over any trace-orthonormal basis
    of n^2 observables (Luo, PRA 73, 022324, 2006), so no basis is needed.
    """
    tr = np.trace(sqrtm_psd(rho.matrix)).real
    return float(_clamp(rho.dim - tr * tr))


def q_locals(rho: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """``q_local`` of a joint state matrix on A ⊗ B, or of each member of an
    ``(..., d, d)`` stack."""
    n_side = side_dim(dims, side)
    reduced = partial_trace(sqrtm_psd(rho), dims, side)
    return _clamp(n_side - np.trace(reduced @ reduced, axis1=-2, axis2=-1).real)


def q_local(rho_ab: BipartiteState, side: Side) -> float:
    """Information content of a bipartite state in one side's local observables.

    Closed form n_S - Tr[(Tr_S sqrt(rho))^2]: the partial trace removes the
    named side S itself, leaving a matrix on the other side.
    """
    return float(q_locals(rho_ab.matrix, rho_ab.dims, side))


def local_skew_forms(rho: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """I(rho_AB, K ⊗ I) (or I ⊗ K) as a quadratic form in the local
    observable K, ``I = vec(K)^T form vec(K)``: the one model of a side-local
    skew value, behind the LQU's search and qubit closed form and, through
    ``_eigenbasis_cost``, the claim harnesses' values at a given K. The form
    of a joint state matrix on A ⊗ B, or of each member of an ``(..., d,
    d)`` stack, is ``(..., n^2, n^2)`` for the side's dimension n; it is
    built from the reduced state and a rank-4 contraction of the state's
    square root, so an evaluation touches only side-local matrices."""
    n = side_dim(dims, side)
    root = sqrtm_psd(rho)
    lead = rho.shape[:-2]
    s = root.reshape(*lead, dims[0], dims[1], dims[0], dims[1])
    if side == "A":
        marginal = partial_trace(rho, dims, "B")
        cross = np.einsum("...pxqy,...rysx->...pqrs", s, s)
    else:
        marginal = partial_trace(rho, dims, "A")
        cross = np.einsum("...xpyq,...yrxs->...pqrs", s, s)
    # I(K) = vec(K)^T form vec(K): Tr(M K^2) pairs K_jk with K_ki
    # through M_ij, and the cross term pairs K_qr with K_sp through C_pqrs.
    n2 = n * n
    form = np.einsum("...ij,kl->...jkli", marginal, np.eye(n)).reshape(*lead, n2, n2)
    form -= np.moveaxis(cross, -4, -1).reshape(*lead, n2, n2)
    return 0.5 * (form + form.swapaxes(-1, -2))


def _eigenbasis_cost(u: np.ndarray, form: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The skew information at K = U diag(lam) U^dagger under the quadratic
    form ``local_skew_forms`` and its Riemannian gradient in U, member by
    member for an ``(m, n, n)`` stack of U with ``(m, n^2, n^2)`` forms and
    ``(m, n)`` spectra (the cost contract of ``optim.search``).

    With vec(B) = form vec(K), dI = Tr(D dK) for D = 2 B^T, which is
    KM + MK - 2 A^T with A_qr = sum_ps C_pqrs K_sp (the cross term is
    symmetric in its two K). Along U exp(t Omega), dK = U [Omega, Lambda]
    U^dagger, so with H = U^dagger D U the derivative is
    Tr([Lambda, H] Omega) and the gradient is [H, Lambda]:
    H_ij (lam_j - lam_i), zero on the diagonal.
    """
    n = u.shape[-1]
    lam = lam[..., None, :]
    uh = u.conj().swapaxes(-1, -2)
    vec = ((u * lam) @ uh).reshape(*u.shape[:-2], n * n, 1)
    b = form @ vec
    h = uh @ b.reshape(u.shape).swapaxes(-1, -2) @ u
    h = h + h.conj().swapaxes(-1, -2)  # U^dagger D U, made exactly Hermitian
    value = (vec.swapaxes(-1, -2) @ b)[..., 0, 0].real
    return value, h * (lam - lam.swapaxes(-1, -2))


def _gell_mann(n: int) -> np.ndarray:
    """The generalized Gell-Mann matrices ``(n^2 - 1, n, n)``, a traceless
    Hermitian basis with Tr(G_i G_j) = 2 delta_ij: for each j < k the
    symmetric e_jk + e_kj, then for each j < k the antisymmetric
    -i e_jk + i e_kj, then for l = 1 .. n-1 the diagonal sqrt(2 / (l (l+1)))
    (e_00 + ... + e_(l-1)(l-1) - l e_ll). At n = 2 they are the Pauli
    matrices x, y, z."""
    rows, cols = np.triu_indices(n, 1)
    k = np.arange(rows.size)
    g = np.zeros((n * n - 1, n, n), dtype=np.complex128)
    g[k, rows, cols] = g[k, cols, rows] = 1.0
    g[rows.size + k, rows, cols], g[rows.size + k, cols, rows] = -1j, 1j
    level = np.arange(1, n)[:, None]
    diagonal = np.where(np.arange(n) < level, 1.0, np.where(np.arange(n) == level, -level, 0.0))
    g[2 * rows.size :, np.arange(n), np.arange(n)] = np.sqrt(2.0 / (level * (level + 1))) * diagonal
    return g


def _real_forms(forms: np.ndarray, n: int) -> np.ndarray:
    """The real symmetric block Q_ij = Re vec(G_i)^T form vec(G_j) of each
    local skew form of a stack (``local_skew_forms``, side dimension n) on
    the Gell-Mann basis G_i (``_gell_mann``): for a traceless Hermitian
    K = sum_i x_i G_i, I(rho_AB, K_S) = x^T Q x."""
    flat = _gell_mann(n).reshape(n * n - 1, n * n)
    q = (flat @ forms @ flat.T).real
    return 0.5 * (q + q.swapaxes(-1, -2))


def _spectral_seeds(forms: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The spectral seed of each local skew form of a stack (side dimension
    n): the least eigenvalue of its real form Q (``_real_forms``), which is
    the least skew information of a traceless Hermitian K with Tr K^2 = 2,
    and the eigenbasis ``(n, n)``, eigenvalues ascending, of
    sum_i x_i G_i for Q's bottom eigenvector x. At n = 2 every observable
    of a fixed spectrum is such a K up to scale and shift, so the seed is
    the LQU's minimizer (``_lqu_qubit``); above, the search starts there.
    Each member's seed depends only on that member."""
    q_eigs, q_vecs = np.linalg.eigh(_real_forms(forms, n))
    _, bases = np.linalg.eigh(np.einsum("...i,ijk->...jk", q_vecs[..., :, 0], _gell_mann(n)))
    return q_eigs[..., 0], bases


def lqu_is_exact(n: int) -> bool:
    """Whether the LQU on an n-level side is exact, so that no search runs and no restarts are drawn."""
    return n <= 2


@dataclass
class LquResult:
    """Best found local quantum uncertainty and the observable attaining it."""

    value: float
    minimizer: NondegenerateObservable
    restarts_used: int
    converged: bool


def lqu(
    rho_ab: BipartiteState,
    spectrum: np.ndarray,
    side: Side = "A",
    opts: OptimizerOptions | None = None,
    seeds: tuple[NondegenerateObservable, ...] = (),
    rng: np.random.Generator | None = None,
) -> LquResult:
    """Minimize skew information over side-local observables with fixed spectrum.

    Where ``lqu_is_exact`` holds, the value is exact (see ``_lqus``),
    ``restarts_used`` is 0, and no draws are taken from ``rng``. On a larger
    side a restarted Riemannian BFGS descent (see :mod:`skewinfo.optim`)
    searches the eigenbases U of K = U diag(spectrum) U† on the chosen side,
    from the spectral seed first (``_spectral_seeds``), then from the seed
    observables' eigenbases, then from Haar draws from ``rng`` (a fixed
    internal stream when omitted, so results are reproducible), as many as
    bring the starts to ``opts.restarts``; ``restarts_used`` counts every
    start. The searched value is an upper bound on the true minimum, never
    above the value at any start.
    """
    n_side = side_dim(rho_ab.dims, side)
    lam = check_spectrum(spectrum)
    if lam.size != n_side:
        raise DimensionMismatch(f"spectrum length {lam.size} vs side {side} dim {n_side}")
    for s in seeds:
        if s.dim != n_side:
            raise DimensionMismatch(f"seed observable dim {s.dim} vs side dim {n_side}")
    opts = opts or OptimizerOptions()
    seeded = [s.eigenbasis for s in seeds]
    exact = lqu_is_exact(n_side)
    bases = np.empty((0, n_side, n_side)) if exact else restart_bases(n_side, opts, seeded, rng, leading=1)
    found = _lqus(local_skew_forms(rho_ab.matrix, rho_ab.dims, side)[None], lam, opts, bases[None])
    minimizer = NondegenerateObservable(lam, found.unitaries[0])
    return LquResult(float(found.values[0]), minimizer, 0 if exact else 1 + len(bases), bool(found.converged[0]))


def _lqus(forms: np.ndarray, lam: np.ndarray, opts: OptimizerOptions, bases: np.ndarray) -> SearchResult:
    """The LQU on the side of the ascending spectrum ``lam`` for each local
    skew form of the stack ``forms`` (``local_skew_forms``): one search
    result, its values clamped. Where ``lqu_is_exact`` holds, ``opts`` and
    ``bases`` are unused, and each problem reads converged after no
    evaluations, steps or rounds: the LQU is 0 on one level, where every
    observable is a multiple of the identity, and ``_lqu_qubit`` on two.
    On a larger side, each problem's spectral seed (``_spectral_seeds``)
    and then its restart bases of ``bases`` ``(T, R, n, n)`` follow
    ``_eigenbasis_cost`` downhill along geodesics of the unitary group, in
    quasi-Newton directions built from its analytic gradient, for at most
    ``opts.max_iters`` accepted steps, all in one stacked ``optim.search``
    of R + 1 restarts per problem.
    """
    t, n = len(forms), lam.size
    if not lqu_is_exact(n):
        starts = np.concatenate([_spectral_seeds(forms, n)[1][:, None], bases], axis=1)
        found = optim.search(_eigenbasis_cost, (forms, np.broadcast_to(lam, (t, n))), starts, opts)
        return found._replace(values=_clamp(found.values))
    values, units = _lqu_qubit(forms, lam) if n == 2 else (np.zeros(t), np.ones((t, 1, 1), dtype=np.complex128))
    return SearchResult(values, units, np.ones(t, dtype=bool), *np.zeros((2, t), dtype=int), 0)


def _lqu_qubit(forms: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact LQU on a 2-level side S with ascending spectrum {a, b}, for each
    local skew form of the stack ``forms`` ``(T, 4, 4)``: the values and the
    minimizers' eigenbases (checked to be unitary).

    Every such observable is K = (a+b)/2 I + (b-a)/2 n·sigma for a unit
    vector n, and the identity part commutes with the state's root, so
    I(rho_AB, K_S) = ((b-a)/2)^2 n^T Q n, with Q the real form of
    ``_real_forms`` on the Pauli matrices. The minimum is ((b-a)/2)^2
    lambda_min(Q) at the bottom eigenvector of Q, whose n·sigma has the
    spectral seed as its eigenbasis (eigenvalues -1, +1 in ascending order,
    like the spectrum): the closed form of Girolami, Tufarelli, Adesso
    (PRL 110, 240402, 2013), whose W_ij = Tr[sqrt(rho) sigma_i sqrt(rho)
    sigma_j] is 1 - Q.
    """
    bottom, bases = _spectral_seeds(forms, 2)
    half_gap = 0.5 * (lam[1] - lam[0])
    return _clamp(half_gap * half_gap * bottom), require_unitary(bases, "unitary eigenbasis")
