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
from .linalg import sqrtm_psd
from .metrics import ObservableLike, _obs_matrix, _skew_with_root, skew_information
from .optim import OptimizerOptions, minimize_over_unitaries
from .states import UNITARY_TOL, BipartiteState, DensityMatrix

SKIP_EPS = 1e-12


@dataclass
class MeasurementBasis:
    """Rank-1 projective basis on A given by the columns of a unitary."""

    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatch(f"basis unitary must be square, got {u.shape}")
        res = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        if res > UNITARY_TOL:
            raise InvalidState("orthonormal columns", res)
        self.unitary = u

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
    """Measure A in the columns of ``u``.

    Returns the probabilities of all outcomes, a mask of the outcomes at or
    above ``SKIP_EPS``, and the kept outcomes' normalized, Hermitized
    conditional states of B stacked into a ``(kept, n_B, n_B)`` array.
    """
    r4 = rho_ab.matrix.reshape(rho_ab.n_a, rho_ab.n_b, rho_ab.n_a, rho_ab.n_b)
    cond = np.einsum("ai,abcd,ci->ibd", u.conj(), r4, u)
    p = np.einsum("ibb->i", cond).real
    kept = p >= SKIP_EPS
    m = cond[kept] / p[kept, None, None]
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


def _steered_skew(rho_ab: BipartiteState, u: np.ndarray, km: np.ndarray) -> float:
    """Steered skew-information sum for the basis given by the columns of ``u``."""
    p, kept, m = _condition(rho_ab, u)
    return float(np.sum(p[kept] * _skew_with_root(m, sqrtm_psd(m), km)))


def _steered_q(rho_ab: BipartiteState, u: np.ndarray) -> float:
    """Steered total uncertainty sum_i p_i (n_B - (Tr sqrt(rho_i))^2) for the
    basis given by the columns of ``u``."""
    p, kept, m = _condition(rho_ab, u)
    tr = np.einsum("ibb->i", sqrtm_psd(m)).real
    return float(np.sum(p[kept] * (rho_ab.n_b - tr * tr)))


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
    return _steered_q(rho_ab, theta.unitary)


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
    gain: Callable[[np.ndarray], float],
    n_a: int,
    opts: OptimizerOptions | None,
    rng: np.random.Generator | None,
) -> SteeringSearchResult:
    """Maximize ``gain`` over the unitaries whose columns are A's measurement bases."""
    best = minimize_over_unitaries(lambda u: -gain(u), n_a, opts or OptimizerOptions(), rng=rng)
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
    return _maximize(lambda u: _steered_skew(rho_ab, u, km), rho_ab.n_a, opts, rng)


def average_steering_induced_q(
    rho_ab: BipartiteState,
    opts: OptimizerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> SteeringSearchResult:
    """Maximize the steered total-uncertainty sum over A's measurement bases."""
    return _maximize(lambda u: _steered_q(rho_ab, u), rho_ab.n_a, opts, rng)
