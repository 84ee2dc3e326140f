"""Shared fixtures and independent oracle helpers."""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from skewinfo import BipartiteState, DensityMatrix, DimensionMismatch, InvalidState, Observable, stream
from skewinfo.metrics import _eigenbasis_cost, local_skew_forms
from skewinfo.optim import OptimizerOptions, restart_bases, search

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def bell_pair() -> BipartiteState:
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return BipartiteState(DensityMatrix(np.outer(v, v.conj())), 2, 2)


# Eigenvalues of a unit-trace state below this are taken as exact zeros.
ORACLE_NULL = 1e-13


def oracle_sqrtm(m: np.ndarray) -> np.ndarray:
    """State square root from scipy's Hermitian eigensolver, independent of
    the package kernel. Eigenvalues below ``ORACLE_NULL`` are the solver's
    noise around the zeros of a rank-deficient state (about 1e-16) and are
    set to 0: their square roots (about 1e-8) would swamp a 1e-12 check."""
    w, v = scipy.linalg.eigh(m)
    root = (v * np.sqrt(np.where(w < ORACLE_NULL, 0.0, w))) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def oracle_q_total(rho: np.ndarray) -> float:
    """Closed form n - (Tr sqrt(rho))^2."""
    n = rho.shape[0]
    return n - np.trace(oracle_sqrtm(rho)).real ** 2


def oracle_q_local(rho: np.ndarray, dims: tuple[int, int], side: str) -> float:
    """Closed form n_S - Tr[(Tr_S sqrt(rho))^2], tracing out the measured side."""
    n_a, n_b = dims
    root = oracle_sqrtm(rho).reshape(n_a, n_b, n_a, n_b)
    if side == "A":
        reduced = np.trace(root, axis1=0, axis2=2)
        n_s = n_a
    else:
        reduced = np.trace(root, axis1=1, axis2=3)
        n_s = n_b
    return n_s - np.trace(reduced @ reduced).real


BASIS_ORTHO_TOL = 1e-10
BASIS_COMPLETENESS_TOL = 1e-9


@dataclass
class ObservableBasis:
    """Trace-orthonormal basis of n^2 Hermitian observables on an n-dim space."""

    elements: list[Observable]

    def __post_init__(self):
        if not self.elements:
            raise DimensionMismatch("empty observable basis")
        n = self.elements[0].dim
        if len(self.elements) != n * n:
            raise DimensionMismatch(f"need {n * n} elements for dimension {n}, got {len(self.elements)}")
        stack = np.stack([o.matrix for o in self.elements])
        flat = stack.reshape(n * n, n * n)
        gram = flat @ flat.conj().T  # Tr(X_i X_j) for Hermitian X
        ortho_res = float(np.max(np.abs(gram - np.eye(n * n))))
        if ortho_res > BASIS_ORTHO_TOL:
            raise InvalidState("trace orthonormality", ortho_res)
        sq_sum = np.einsum("kij,kjl->il", stack, stack)
        comp_res = float(np.max(np.abs(sq_sum - n * np.eye(n))))
        if comp_res > BASIS_COMPLETENESS_TOL:
            raise InvalidState("basis completeness", comp_res)

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def matrices(self) -> np.ndarray:
        """All elements stacked into an (n^2, n, n) array."""
        return np.stack([o.matrix for o in self.elements])

    def rotated(self, u: np.ndarray) -> "ObservableBasis":
        """The basis U X_j U^dagger, again trace-orthonormal."""
        return ObservableBasis([Observable(u @ o.matrix @ u.conj().T) for o in self.elements])


def gell_mann_basis(n: int) -> ObservableBasis:
    """Generalized Gell-Mann basis scaled to unit Hilbert-Schmidt norm.

    Symmetric and antisymmetric off-diagonal families, the diagonal
    family, then identity/sqrt(n); n^2 elements in total. For n=2 this
    is the Pauli set over sqrt(2).
    """
    mats: list[np.ndarray] = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k] = -1.0j / np.sqrt(2.0)
            m[k, j] = 1.0j / np.sqrt(2.0)
            mats.append(m)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag).astype(np.complex128) / np.sqrt(l * (l + 1.0)))
    mats.append(np.eye(n, dtype=np.complex128) / np.sqrt(n))
    return ObservableBasis([Observable(m) for m in mats])


def summed_skew(rho: np.ndarray, ops) -> float:
    """Sum over ops X of the skew information Tr(rho X^2) - Tr(sqrt(rho) X sqrt(rho) X),
    with the oracle root."""
    root = oracle_sqrtm(rho)
    return sum(np.trace(rho @ x @ x).real - np.trace(root @ x @ root @ x).real for x in ops)


def summed_q_total(rho: np.ndarray, basis: ObservableBasis) -> float:
    """Total uncertainty by its definition: skew information summed over the basis."""
    return summed_skew(rho, basis.matrices())


def summed_q_local(rho: np.ndarray, dims: tuple[int, int], side: str, basis: ObservableBasis) -> float:
    """Local-observable content by its definition: skew information summed over
    the basis of the named side, embedded next to the identity on the other."""
    n_a, n_b = dims
    if side == "A":
        ops = [np.kron(x, np.eye(n_b)) for x in basis.matrices()]
    else:
        ops = [np.kron(np.eye(n_a), x) for x in basis.matrices()]
    return summed_skew(rho, ops)


def oracle_lqu_qubit(rho: np.ndarray, dims: tuple[int, int], side: str, spectrum: np.ndarray) -> float:
    """LQU on a 2-level side by the Girolami-Tufarelli-Adesso formula
    ((b-a)/2)^2 (1 - lambda_max(W)), W_ij = Tr[sqrt(rho) sigma_i sqrt(rho) sigma_j]
    with each Pauli embedded on the side and the oracle root."""
    n_a, n_b = dims
    root = oracle_sqrtm(rho)
    sigma = [np.kron(p, np.eye(n_b)) if side == "A" else np.kron(np.eye(n_a), p) for p in PAULIS]
    w = np.array([[np.trace(root @ si @ root @ sj).real for sj in sigma] for si in sigma])
    half_gap = 0.5 * (spectrum[1] - spectrum[0])
    return half_gap * half_gap * (1.0 - np.linalg.eigvalsh(0.5 * (w + w.T))[-1])


def searched_lqu(
    state: BipartiteState, spectrum: np.ndarray, side: str, opts: OptimizerOptions, rng: np.random.Generator
) -> float:
    """The LQU by the package's search on a side of any size, a qubit side
    (where ``lqu`` takes the closed form) included: ``optim.search`` of the
    eigenbasis cost, unclamped, from the ``restart_bases`` that ``rng`` draws."""
    form = local_skew_forms(state.matrix, state.dims, side)
    lam = np.asarray(spectrum, dtype=float)
    bases = restart_bases(lam.size, opts, rng=rng)
    return float(search(_eigenbasis_cost, (form[None], lam[None]), bases[None], opts).values[0])


@pytest.fixture
def bell() -> BipartiteState:
    return bell_pair()


@pytest.fixture
def rng() -> np.random.Generator:
    return stream(20240, 0)
