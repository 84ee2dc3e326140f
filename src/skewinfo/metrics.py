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
LQU_FLOOR = 1e-11

ObservableLike = Union[Observable, NondegenerateObservable]

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128)


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
    observable K, ``I = vec(K)^T form vec(K)``: the model behind both the
    LQU search and the qubit-side closed form. The form of a joint state
    matrix on A ⊗ B, or of each member of an ``(..., d, d)`` stack, is
    ``(..., n^2, n^2)`` for the side's dimension n; it is built from the
    reduced state and a rank-4 contraction of the state's square root, so
    an evaluation touches only side-local matrices."""
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

    On a 2-level side the minimum is the closed form ``_lqu_qubit`` on the
    local skew form: the value is exact, ``restarts_used`` is 0, and ``opts``,
    ``seeds`` and ``rng`` are unused (no draws are taken from ``rng``). On a
    larger side it runs a restarted Riemannian BFGS descent (see
    :mod:`skewinfo.optim`) over the eigenbases U of K = U diag(spectrum) U†
    on the chosen side.
    Caller-supplied seed observables contribute their eigenbases as the
    first restart points; the remaining restarts are Haar draws from ``rng``
    (a fixed internal stream when omitted, so results are reproducible).
    The searched value is an upper bound on the true minimum, never above
    the value at the first seed.
    """
    n_side = side_dim(rho_ab.dims, side)
    lam = check_spectrum(spectrum)
    if lam.size != n_side:
        raise DimensionMismatch(f"spectrum length {lam.size} vs side {side} dim {n_side}")
    for s in seeds:
        if s.dim != n_side:
            raise DimensionMismatch(f"seed observable dim {s.dim} vs side dim {n_side}")
    if n_side == 2:
        (value,), (basis,) = _lqu_qubit(local_skew_forms(rho_ab.matrix, rho_ab.dims, side)[None], lam)
        return LquResult(float(value), NondegenerateObservable(lam, basis), restarts_used=0, converged=True)
    return _lqu_searched(rho_ab, lam, side, opts, seeds, rng)


def _lqu_searched(
    rho_ab: BipartiteState,
    lam: np.ndarray,
    side: Side,
    opts: OptimizerOptions | None,
    seeds: tuple[NondegenerateObservable, ...],
    rng: np.random.Generator | None,
) -> LquResult:
    """``lqu`` by its search, on a side of any size: one member of
    ``_lqu_search``."""
    opts = opts or OptimizerOptions()
    bases = restart_bases(lam.size, opts, [s.eigenbasis for s in seeds], rng)
    form = local_skew_forms(rho_ab.matrix, rho_ab.dims, side)
    (value,), (basis,), found = _lqu_search(form[None], lam, opts, bases[None])
    return LquResult(
        float(value), NondegenerateObservable(lam, basis), int(found.restarts_used[0]), bool(found.converged[0])
    )


def _lqu_search(
    forms: np.ndarray, lam: np.ndarray, opts: OptimizerOptions, bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, SearchResult]:
    """LQU by restarted Riemannian BFGS descent over the eigenbases of the
    side's observables with the ascending spectrum ``lam``, for each local
    skew form of the stack ``forms`` (``local_skew_forms``), from its
    restart bases ``bases[t]`` (``bases`` is ``(T, restarts, n, n)``), all
    in one stacked search: the clamped values, the minimizers' eigenbases
    (checked to be unitary) and the search result.

    Each restart follows ``_eigenbasis_cost`` downhill along geodesics of
    the unitary group, in quasi-Newton directions built from its analytic
    gradient, for at most ``opts.max_iters`` accepted steps; restarts stop
    early once the value reaches ``LQU_FLOOR``.
    """
    spectra = np.broadcast_to(lam, (len(forms), lam.size))
    found = optim.search(_eigenbasis_cost, (forms, spectra), bases, opts, LQU_FLOOR)
    return _clamp(found.values), require_unitary(found.unitaries, "unitary eigenbasis"), found


def _lqu_qubit(forms: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact LQU on a 2-level side S with ascending spectrum {a, b}, for each
    local skew form of the stack ``forms`` ``(T, 4, 4)``: the values and the
    minimizers' eigenbases (checked to be unitary).

    Every such observable is K = (a+b)/2 I + (b-a)/2 n·sigma for a unit
    vector n, and the identity part commutes with the state's root, so
    I(rho_AB, K_S) = ((b-a)/2)^2 n^T Q n, with Q the real symmetric block
    Q_ij = Re vec(sigma_i)^T form vec(sigma_j) of ``local_skew_forms``
    on the Pauli directions. The minimum is ((b-a)/2)^2 lambda_min(Q) at the
    bottom eigenvector of Q: the closed form of Girolami, Tufarelli, Adesso
    (PRL 110, 240402, 2013), whose W_ij = Tr[sqrt(rho) sigma_i sqrt(rho)
    sigma_j] is 1 - Q.
    """
    paulis = _PAULI.reshape(3, 4)
    q = (paulis @ forms @ paulis.T).real
    q_eigs, q_vecs = np.linalg.eigh(0.5 * (q + q.swapaxes(-1, -2)))
    # n·sigma has eigenvalues -1, +1 in ascending order, like the spectrum
    _, bases = np.linalg.eigh(np.einsum("...i,ijk->...jk", q_vecs[..., :, 0], _PAULI))
    half_gap = 0.5 * (lam[1] - lam[0])
    return _clamp(half_gap * half_gap * q_eigs[..., 0]), require_unitary(bases, "unitary eigenbasis")
