"""Projective-measurement steering and steering-induced uncertainty.

Measuring side A of a shared state in a rank-1 projective basis steers
side B into an ensemble of conditional states. The quantities here
weight the conditionals' skew information (or total uncertainty) by the
outcome probabilities; maximizations over measurement bases reuse the
unitary-manifold search from :mod:`skewinfo.optim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidState
from .linalg import psd_sqrt_eigh, sqrtm_psd
from .metrics import ObservableLike, _obs_matrix, skew_information
from .optim import OptimizerOptions, minimize_over_unitaries
from .states import BipartiteState, DensityMatrix, require_unitary

SKIP_EPS = 1e-12


@dataclass
class MeasurementBasis:
    """Rank-1 projective basis on A given by the columns of a unitary."""

    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatch(f"basis unitary must be square, got {u.shape}")
        self.unitary = require_unitary(u, "orthonormal columns")

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def projector(self, i: int) -> np.ndarray:
        v = self.unitary[:, i]
        return np.outer(v, v.conj())


@dataclass
class SteeringEnsemble:
    """Outcome probabilities and conditional states of B, with near-null
    outcomes (p below the skip threshold) listed separately."""

    outcomes: list[tuple[float, DensityMatrix]]
    skipped: list[int]


def _condition(rho_ab: BipartiteState, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure A in the columns of ``u``, one basis or a ``(k, n_A, n_A)``
    stack of them.

    Returns the probabilities of all outcomes (``(n_A,)``, or ``(k, n_A)``
    for a stack), the mask of the outcomes at or above ``SKIP_EPS``, and
    the kept outcomes' normalized, Hermitized conditional states of B
    stacked basis by basis into one ``(kept, n_B, n_B)`` array.
    """
    r4 = rho_ab.matrix.reshape(rho_ab.n_a, rho_ab.n_b, rho_ab.n_a, rho_ab.n_b)
    cond = np.einsum("...ai,abcd,...ci->...ibd", u.conj(), r4, u)
    p = np.einsum("...ibb->...i", cond).real
    kept = p >= SKIP_EPS
    m = cond[kept] / p[kept][:, None, None]
    return p, kept, 0.5 * (m + m.conj().swapaxes(1, 2))


def steer(rho_ab: BipartiteState, theta: MeasurementBasis) -> SteeringEnsemble:
    """Condition B on the outcomes of measuring A in the given basis.

    Outcomes with probability below ``SKIP_EPS`` are recorded as skipped
    and contribute nothing downstream.
    """
    if theta.dim != rho_ab.n_a:
        raise DimensionMismatch(f"basis dim {theta.dim} vs side A dim {rho_ab.n_a}")
    p, kept, m = _condition(rho_ab, theta.unitary)
    residual = abs(float(np.sum(p)) - 1.0)
    if residual > 1e-9:
        raise InvalidState("probability normalization", residual)
    outcomes = [(float(p_i), DensityMatrix(m_i)) for p_i, m_i in zip(p[kept], m)]
    return SteeringEnsemble(outcomes, np.flatnonzero(~kept).tolist())


def _steered_q(rho_ab: BipartiteState, u: np.ndarray) -> np.ndarray:
    """Steered total uncertainty sum_i p_i (n_B - (Tr sqrt(rho_i))^2) for each
    basis of a ``(k, n_A, n_A)`` stack, given by the columns of its members.

    The kept conditionals of all bases share one ``sqrtm_psd`` call; skipped
    outcomes add exact zeros, so each value is the sum over its kept
    outcomes alone.
    """
    p, kept, m = _condition(rho_ab, u)
    tr = np.einsum("ibb->i", sqrtm_psd(m)).real
    terms = np.zeros(p.shape)
    terms[kept] = p[kept] * (rho_ab.n_b - tr * tr)
    return terms.sum(axis=-1)


def _basis_gradient(
    rho_ab: BipartiteState, u: np.ndarray, kept: np.ndarray, sw: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Riemannian gradient in ``u`` of const - sum_i h(c_i), where
    c_i = <u_i|rho|u_i> is the unnormalized conditional state of B and
    dh = Tr(Gamma_i dc_i) with Gamma_i the Daleckii-Krein map of W_i.

    ``sw`` and ``v`` are the root eigenvalues and eigenvectors of the kept
    normalized conditionals, and ``w`` holds W_i in that eigenbasis:
    Gamma_i = V (W_i / (sqrt(l_j) + sqrt(l_k))) V^dagger, taken as 0 where
    the denominator is 0. Gamma_i does not change when c_i is rescaled, so
    the normalized states serve. Along U exp(t Omega), dc_i =
    sum_j (Omega_ji R_ij - Omega_ij R_ji) with R_ij = <u_i|rho|u_j>, so the
    gradient is T^dagger - T for T_ij = -Tr(Gamma_i R_ij).
    """
    s = sw[..., :, None] + sw[..., None, :]
    gamma = v @ (w / np.where(s > 0.0, s, np.inf)) @ v.conj().swapaxes(-1, -2)
    r4 = rho_ab.matrix.reshape(rho_ab.n_a, rho_ab.n_b, rho_ab.n_a, rho_ab.n_b)
    minus_t = np.zeros((rho_ab.n_a, rho_ab.n_a), dtype=np.complex128)
    minus_t[kept] = np.einsum("ai,idb,abcd->ic", u[:, kept].conj(), gamma, r4) @ u
    g = minus_t - minus_t.conj().T
    np.fill_diagonal(g, 0.0)
    return g


def _skew_objective(rho_ab: BipartiteState, u: np.ndarray, km: np.ndarray) -> tuple[float, np.ndarray]:
    """Steered skew-information sum for the basis given by the columns of
    ``u``, and its Riemannian gradient.

    In the eigenbasis of rho_i, with kappa = V^dagger K V and root
    eigenvalues s, I(rho_i, K) = 1/2 sum_jk |kappa_jk|^2 (s_j - s_k)^2.
    With c_i unnormalized the sum is Tr(rho_B K^2) - sum_i
    Tr(sqrt(c_i) K sqrt(c_i) K), whose derivative in c_i is the
    Daleckii-Krein map of W = 2 K sqrt(c_i) K (see ``_basis_gradient``).
    """
    p, kept, m = _condition(rho_ab, u)
    sw, v = psd_sqrt_eigh(m)
    kappa = v.conj().swapaxes(-1, -2) @ km @ v
    gap = sw[..., :, None] - sw[..., None, :]
    value = 0.5 * float(np.sum(p[kept] * np.sum((kappa * kappa.conj()).real * gap * gap, axis=(-2, -1))))
    w = 2.0 * (kappa * sw[..., None, :]) @ kappa
    return value, _basis_gradient(rho_ab, u, kept, sw, v, w)


def _q_objective(rho_ab: BipartiteState, u: np.ndarray) -> tuple[float, np.ndarray]:
    """Steered total uncertainty (as ``_steered_q``) and its Riemannian gradient.

    With c_i unnormalized the sum is n_B - sum_i (Tr sqrt(c_i))^2, whose
    derivative in c_i is the Daleckii-Krein map of W = 2 Tr(sqrt(c_i)) I.
    """
    p, kept, m = _condition(rho_ab, u)
    sw, v = psd_sqrt_eigh(m)
    tr = sw.sum(axis=-1)
    value = float(np.sum(p[kept] * (rho_ab.n_b - tr * tr)))
    w = 2.0 * tr[:, None, None] * np.eye(rho_ab.n_b, dtype=np.complex128)
    return value, _basis_gradient(rho_ab, u, kept, sw, v, w)


def steered_skew_sum(rho_ab: BipartiteState, theta: MeasurementBasis, k_b: ObservableLike) -> float:
    """Probability-weighted skew information of the steered states of B."""
    km = _obs_matrix(k_b)
    if km.shape[0] != rho_ab.n_b:
        raise DimensionMismatch(f"observable dim {km.shape[0]} vs side B dim {rho_ab.n_b}")
    ensemble = steer(rho_ab, theta)
    return sum(p * skew_information(rho_i, k_b) for p, rho_i in ensemble.outcomes)


def steered_q_sum(rho_ab: BipartiteState, theta: MeasurementBasis) -> float:
    """Probability-weighted total uncertainty of the steered states of B."""
    if theta.dim != rho_ab.n_a:
        raise DimensionMismatch(f"basis dim {theta.dim} vs side A dim {rho_ab.n_a}")
    return float(_steered_q(rho_ab, theta.unitary[None])[0])


@dataclass
class SteeringSearchResult:
    """Best found value of a steering maximization and the basis attaining it.

    The value is a lower bound on the true maximum.
    """

    value: float
    maximizer: MeasurementBasis
    restarts_used: int
    converged: bool


def _maximize(
    gain: Callable[[np.ndarray], tuple[float, np.ndarray]],
    n_a: int,
    opts: OptimizerOptions | None,
    rng: np.random.Generator | None,
) -> SteeringSearchResult:
    """Maximize ``gain`` over the unitaries whose columns are A's measurement
    bases; ``gain`` returns its value and Riemannian gradient."""

    def loss(u: np.ndarray) -> tuple[float, np.ndarray]:
        value, g = gain(u)
        return -value, -g

    best = minimize_over_unitaries(loss, n_a, opts or OptimizerOptions(), rng=rng)
    return SteeringSearchResult(
        value=-best.value,
        maximizer=MeasurementBasis(best.unitary),
        restarts_used=best.restarts_used,
        converged=best.converged,
    )


def steering_induced_skew(
    rho_ab: BipartiteState,
    k_b: ObservableLike,
    opts: OptimizerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> SteeringSearchResult:
    """Maximize the steered skew-information sum over A's measurement bases."""
    km = _obs_matrix(k_b)
    if km.shape[0] != rho_ab.n_b:
        raise DimensionMismatch(f"observable dim {km.shape[0]} vs side B dim {rho_ab.n_b}")
    return _maximize(lambda u: _skew_objective(rho_ab, u, km), rho_ab.n_a, opts, rng)


def average_steering_induced_q(
    rho_ab: BipartiteState,
    opts: OptimizerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> SteeringSearchResult:
    """Maximize the steered total-uncertainty sum over A's measurement bases."""
    return _maximize(lambda u: _q_objective(rho_ab, u), rho_ab.n_a, opts, rng)
