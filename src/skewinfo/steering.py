"""Projective-measurement steering and steering-induced uncertainty.

Measuring side A of a shared state in a rank-1 projective basis steers
side B into an ensemble of conditional states. The quantities here
weight the conditionals' skew information (or total uncertainty) by the
outcome probabilities. Each weighted term is 1-homogeneous in the
unnormalized conditional c_i = <u_i|rho|u_i>, so the steered sums are
taken on the c_i directly (Luo, PRA 73, 022324, 2006): a null outcome
adds an exact zero, and only ``steer``, which returns normalized states,
divides by the probabilities or skips outcomes. Maximizations over
measurement bases reuse the BFGS search on the unitary group from
:mod:`skewinfo.optim`. The steered costs have analytic gradients but no
cheap Hessian, so the search builds its curvature from the gradients it
has already evaluated.

On a qubit B the steered skew-information cost needs no eigensolver: a
conditional is (p I + beta . sigma) / 2, with roots sqrt((p -/+ |beta|) / 2),
and its skew information at K = k_0 I + k . sigma is the squared root gap
times |k x beta / |beta||^2 (Luo 2006). Every p, beta and gradient entry of
a basis is an entry of U^dagger M_k U for the four partial traces
M_k = Tr_B[(I x sigma_k) rho], so the cost is elementwise arithmetic on
the stack (``_bloch_skew_cost``). Larger B root each conditional's
eigensystem (``_eigen_skew_cost``), the route the tests hold the closed
form to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import optim
from .errors import DimensionMismatch, InvalidState
from .linalg import _psd_roots, psd_sqrt_eigh, psd_sqrt_eigvalsh
from .metrics import ObservableLike
from .optim import OptimizerOptions
from .rand import haar_unitaries, restart_stream
from .states import BipartiteState, require_unitary

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
    """The kept outcomes' probabilities ``(kept,)`` and conditional states of B
    ``(kept, n_B, n_B)`` in outcome order, with the indices of the near-null
    outcomes (p below ``SKIP_EPS``) listed separately."""

    probabilities: np.ndarray
    states: np.ndarray
    skipped: list[int]


def _tensor(rho_ab: BipartiteState) -> np.ndarray:
    """The joint state as the one-row stack r4[0, a, b, c, d] = <a b|rho|c d>."""
    return rho_ab.matrix.reshape(1, rho_ab.n_a, rho_ab.n_b, rho_ab.n_a, rho_ab.n_b)


def _condition(r4: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Hermitized unnormalized conditional states c_i = <u_i|rho|u_i> of
    B, ``(S, k, n_A, n_B, n_B)``, for measuring A of each state tensor of
    the stack ``r4`` ``(S, n_A, n_B, n_A, n_B)`` (see ``_tensor``) in the
    columns of each of its k bases ``u`` ``(S, k, n_A, n_A)``. Tr c_i is the
    probability of outcome i.

    With the blocks R[(a c), (b d)] = r4[a, b, c, d] of a state,
    c_i = sum_ac conj(u_ai) u_ci R_ac, so the conditionals of all the bases
    of a state are one matrix product: the weights W[(j i), (a c)] =
    conj(u_ai) u_ci of its bases j, times R. A row of the product does not
    depend on the rows beside it, so a stack of bases gives the
    conditionals of its members one by one bit for bit (the steering tests
    hold the BLAS to that, up to the 20 bases per state of the avg harness).
    """
    s, n_a, n_b = r4.shape[:3]
    r = r4.swapaxes(2, 3).reshape(s, n_a * n_a, n_b * n_b)
    ut = u.swapaxes(-1, -2)
    w = (ut.conj()[..., :, :, None] * ut[..., :, None, :]).reshape(s, -1, n_a * n_a)
    c = (w @ r).reshape(s, -1, n_a, n_b, n_b)
    return 0.5 * (c + c.conj().swapaxes(-1, -2))


def _root_scale(c: np.ndarray) -> np.ndarray:
    """The scale of the root noise floor of the conditionals ``c`` of
    ``_condition``, n_A Tr rho per basis (the root kernels of ``linalg``
    multiply it by n_B eps), shaped to broadcast against their eigenvalues.

    The product's rounding in c_i is absolute, of the order of eps Tr rho
    whatever Tr c_i is, and Tr rho = sum_i Tr c_i. A floor of n_B eps
    lambda_max(c_i) per conditional would let that rounding through on a
    low-probability outcome. A null outcome has all roots 0.
    """
    total = np.einsum("...ibb->...i", c).real.sum(axis=-1)
    return c.shape[-3] * total[..., None, None]


def _conditional_roots(r4: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root eigenvalues and eigenvectors of the conditionals of ``_condition``
    for one basis ``u[m]`` per state tensor ``r4[m]`` (the layout of the
    costs), floored as ``_root_scale`` says."""
    c = _condition(r4, u[:, None])[:, 0]
    return psd_sqrt_eigh(c, _root_scale(c))


def steer(rho_ab: BipartiteState, theta: MeasurementBasis) -> SteeringEnsemble:
    """Condition B on the outcomes of measuring A in the given basis.

    Outcomes with probability below ``SKIP_EPS`` are recorded as skipped;
    the kept conditionals are ``_condition``'s arrays divided by their
    probabilities and are not re-validated one by one.
    """
    _require_basis(rho_ab, theta)
    c = _condition(_tensor(rho_ab), theta.unitary[None, None])[0, 0]
    p = np.einsum("ibb->i", c).real
    residual = abs(float(np.sum(p)) - 1.0)
    if residual > 1e-9:
        raise InvalidState("probability normalization", residual)
    kept = p >= SKIP_EPS
    return SteeringEnsemble(p[kept], c[kept] / p[kept][:, None, None], np.flatnonzero(~kept).tolist())


def _steered_q(r4: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Steered total uncertainty sum_i p_i (n_B - (Tr sqrt(rho_i))^2) =
    n_B - sum_i (Tr sqrt(c_i))^2, ``(S, k)``, for each of the k bases ``u``
    of each state tensor of the stack ``r4``, in the layout of
    ``_condition``; null outcomes add exact zeros. Only the root
    eigenvalues enter, so no eigenvectors are computed; the roots have the
    floor of ``_conditional_roots``."""
    c = _condition(r4, u)
    tr = psd_sqrt_eigvalsh(c, _root_scale(c)).sum(axis=-1)
    return r4.shape[-1] - np.sum(tr * tr, axis=-1)


def _basis_gradient(r4: np.ndarray, u: np.ndarray, sw: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Riemannian gradient in each basis of the stack ``u`` (the layout of
    ``_conditional_roots``) of sum_i h(c_i), where c_i = <u_i|rho|u_i> is the
    unnormalized conditional state of B and dh = Tr(Gamma_i dc_i) with
    Gamma_i the Daleckii-Krein map of W_i.

    ``sw`` and ``v`` are the root eigenvalues and eigenvectors of the c_i,
    and ``w`` holds W_i in that eigenbasis: Gamma_i = V (W_i / (s_j + s_k))
    V^dagger, taken as 0 where the denominator is 0, so a null outcome has
    Gamma_i = 0. Along U exp(t Omega), dc_i = sum_j (Omega_ji R_ij -
    Omega_ij R_ji) with R_ij = <u_i|rho|u_j>, so the gradient is D^dagger - D
    for D_ij = Tr(Gamma_i R_ij).
    """
    s = sw[..., :, None] + sw[..., None, :]
    gamma = v @ (w / np.where(s > 0.0, s, np.inf)) @ v.conj().swapaxes(-1, -2)
    d = np.einsum("...ai,...idb,...abcd->...ic", u.conj(), gamma, r4) @ u
    g = d.conj().swapaxes(-1, -2) - d
    diag = np.arange(g.shape[-1])
    g[..., diag, diag] = 0.0
    return g


def _eigen_skew_cost(u: np.ndarray, r4: np.ndarray, km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_skew_objective`` on any B, from the conditionals' root eigensystems.

    In the eigenbasis of c_i, with kappa = V^dagger K V and root eigenvalues
    s, p_i I(rho_i, K) = 1/2 sum_jk |kappa_jk|^2 (s_j - s_k)^2. The sum is
    Tr(rho_B K^2) - sum_i Tr(sqrt(c_i) K sqrt(c_i) K), whose derivative in
    c_i is the Daleckii-Krein map of W = 2 K sqrt(c_i) K (see
    ``_basis_gradient``).
    """
    sw, v = _conditional_roots(r4, u)
    kappa = v.conj().swapaxes(-1, -2) @ km[..., None, :, :] @ v
    gap = sw[..., :, None] - sw[..., None, :]
    value = -0.5 * np.sum((kappa * kappa.conj()).real * gap * gap, axis=(-3, -2, -1))
    w = 2.0 * (kappa * sw[..., None, :]) @ kappa
    return value, _basis_gradient(r4, u, sw, v, w)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for broadcasting stacks of small matrices, as the sum over the
    inner index of outer products of columns and rows: for n <= 3 this is
    cheaper than a BLAS call per member, and each member's entries are
    elementwise operations on that member alone."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """1 / x where x > 0, and 0 where x is 0."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x > 0.0)


def _bloch_skew_cost(u: np.ndarray, r4: np.ndarray, km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_skew_objective`` on a qubit B, in closed form: no eigensolver.

    With sigma_0 = I and M_k = Tr_B[(I x sigma_k) rho], every entry the
    cost needs is one of A_k = U^dagger M_k U: c_i = (p_i I + beta_i .
    sigma) / 2 with p_i = (A_0)_ii and beta_ik = (A_k)_ii, and
    Tr(sigma_k R_ij) = (A_k)_ij for the R_ij of ``_basis_gradient``. The
    roots of c_i are s_0, s_1 = sqrt((p_i -/+ |beta_i|) / 2), with the
    checks and floor of ``_conditional_roots``, and for K = k_0 I + k .
    sigma, p_i I(rho_i, K) = (s_1 - s_0)^2 |k x beta_i / |beta_i||^2 (Luo
    2006). Its derivative gamma_ik in (p_i, beta_i) gives
    Gamma_i = sum_k gamma_ik sigma_k, so D_ij = sum_k gamma_ik (A_k)_ij.
    A floored root drops its 1/s terms, as the eigensystem route zeroes
    Gamma's kernel entry, and beta_i = 0 (so s_0 = s_1) adds 0 and no
    gradient.
    """
    m, n_a = u.shape[:2]
    (r00, r01), (r10, r11) = [[r4[:, :, b, :, d] for d in (0, 1)] for b in (0, 1)]
    mk = np.empty((m, 4, n_a, n_a), dtype=np.complex128)
    mk[:, 0], mk[:, 1], mk[:, 2], mk[:, 3] = r00 + r11, r01 + r10, 1j * (r01 - r10), r00 - r11
    a = _product(_product(u.conj().swapaxes(-1, -2)[:, None], mk), u[:, None])
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    p, beta = diag[:, 0], diag[:, 1:]
    norm = np.sqrt(np.sum(beta * beta, axis=1))
    lam = np.empty((m, n_a, 2))
    lam[..., 0], lam[..., 1] = 0.5 * (p - norm), 0.5 * (p + norm)
    s = _psd_roots(lam, n_a * p.sum(axis=-1)[:, None, None])
    s0, s1 = s[..., 0], s[..., 1]
    k = np.empty((m, 3, 1))
    k[:, 0, 0], k[:, 1, 0], k[:, 2, 0] = km[:, 1, 0].real, km[:, 1, 0].imag, 0.5 * (km[:, 0, 0] - km[:, 1, 1]).real
    inv_norm = _reciprocal(norm)
    axis = beta * inv_norm[:, None]
    kb = np.sum(k * axis, axis=1)
    across = np.sum(k * k, axis=1) - kb * kb  # |k x beta / |beta||^2
    gap = s1 - s0
    f = gap * gap
    d0, d1 = -gap * _reciprocal(s0), gap * _reciprocal(s1)  # d f / d lambda_0, d f / d lambda_1
    # gamma of the cost, the negated sum: lambda_0,1 = (p -/+ |beta|) / 2, and
    # |k x beta / |beta||^2 moves with the direction of beta
    gamma = np.empty((m, 4, n_a))
    gamma[:, 0] = -0.5 * across * (d0 + d1)
    along = 0.5 * across * (d1 - d0) + 2.0 * f * kb * kb * inv_norm
    gamma[:, 1:] = (2.0 * f * kb * inv_norm)[:, None] * k - along[:, None] * axis
    d = np.sum(gamma[..., None] * a, axis=1)
    g = d.conj().swapaxes(-1, -2) - d
    diag_idx = np.arange(n_a)
    g[..., diag_idx, diag_idx] = 0.0
    return -np.sum(f * across, axis=-1), g


def _skew_objective(u: np.ndarray, r4: np.ndarray, km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negated steered skew-information sum and its Riemannian gradient,
    for each basis (the columns of a member) of the ``(m, n_A, n_A)`` stack
    ``u`` with the ``(m, ...)`` rows of the state tensors ``r4`` and of the
    observables ``km`` on B (the cost contract of ``optim.search``): in
    closed form on a qubit B (``_bloch_skew_cost``), else from the
    conditionals' root eigensystems (``_eigen_skew_cost``)."""
    cost = _bloch_skew_cost if r4.shape[-1] == 2 else _eigen_skew_cost
    return cost(u, r4, km)


def _q_objective(u: np.ndarray, r4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negated steered total uncertainty (as ``_steered_q``) and its
    Riemannian gradient, in the layout of ``_skew_objective``.

    The sum is n_B - sum_i (Tr sqrt(c_i))^2, whose derivative in c_i is the
    Daleckii-Krein map of W = 2 Tr(sqrt(c_i)) I.
    """
    sw, v = _conditional_roots(r4, u)
    tr = sw.sum(axis=-1)
    n_b = r4.shape[-1]
    w = 2.0 * tr[..., None, None] * np.eye(n_b, dtype=np.complex128)
    return np.sum(tr * tr, axis=-1) - n_b, _basis_gradient(r4, u, sw, v, w)


def _require_basis(rho_ab: BipartiteState, theta: MeasurementBasis) -> None:
    if theta.dim != rho_ab.n_a:
        raise DimensionMismatch(f"basis dim {theta.dim} vs side A dim {rho_ab.n_a}")


def _observable_on_b(rho_ab: BipartiteState, k_b: ObservableLike) -> np.ndarray:
    """The observable on B as a one-row stack, like ``_tensor``."""
    km = k_b.matrix
    if km.shape[0] != rho_ab.n_b:
        raise DimensionMismatch(f"observable dim {km.shape[0]} vs side B dim {rho_ab.n_b}")
    return km[None]


def steered_skew_sum(rho_ab: BipartiteState, theta: MeasurementBasis, k_b: ObservableLike) -> float:
    """Probability-weighted skew information of the steered states of B: the
    value of the maximization's cost at ``theta``, negated."""
    _require_basis(rho_ab, theta)
    (value,), _ = _skew_objective(theta.unitary[None], _tensor(rho_ab), _observable_on_b(rho_ab, k_b))
    return -float(value)


def steered_q_sum(rho_ab: BipartiteState, theta: MeasurementBasis) -> float:
    """Probability-weighted total uncertainty of the steered states of B."""
    _require_basis(rho_ab, theta)
    return float(_steered_q(_tensor(rho_ab), theta.unitary[None, None])[0, 0])


@dataclass
class SteeringSearchResult:
    """Best found value of a steering maximization and the basis attaining it.

    The value is a lower bound on the true maximum.
    """

    value: float
    maximizer: MeasurementBasis
    restarts_used: int
    converged: bool


def _maximized(
    cost: Callable[..., tuple[np.ndarray, np.ndarray]],
    data: tuple[np.ndarray, ...],
    n_a: int,
    opts: OptimizerOptions | None,
    rng: np.random.Generator | None,
) -> SteeringSearchResult:
    """Maximize a gain over the unitaries whose columns are A's measurement
    bases, for the one-row data stacks ``data``, by searching ``cost(U,
    *data)``, the negated gain and its Riemannian gradient, from
    ``opts.restarts`` Haar bases drawn from ``rng`` (``rand.restart_stream``)."""
    opts = opts or OptimizerOptions()
    bases = haar_unitaries(n_a, opts.restarts, restart_stream(rng))
    found = optim.search(cost, data, bases[None], opts)
    return SteeringSearchResult(
        -float(found.values[0]), MeasurementBasis(found.unitaries[0]), opts.restarts, bool(found.converged[0])
    )


def steering_induced_skew(
    rho_ab: BipartiteState,
    k_b: ObservableLike,
    opts: OptimizerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> SteeringSearchResult:
    """Maximize the steered skew-information sum over A's measurement bases."""
    data = (_tensor(rho_ab), _observable_on_b(rho_ab, k_b))
    return _maximized(_skew_objective, data, rho_ab.n_a, opts, rng)


def average_steering_induced_q(
    rho_ab: BipartiteState,
    opts: OptimizerOptions | None = None,
    rng: np.random.Generator | None = None,
) -> SteeringSearchResult:
    """Maximize the steered total-uncertainty sum over A's measurement bases."""
    return _maximized(_q_objective, (_tensor(rho_ab),), rho_ab.n_a, opts, rng)
