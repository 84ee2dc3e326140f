"""Domain types: states, observables, and channels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, InvalidChannel, InvalidState
from .linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    as_matrix,
    scaled_hermiticity_residual,
)

TRACE_TOL = 1e-9
UNITARY_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
MIN_SPECTRAL_GAP = 1e-6


def require_unitary(u: np.ndarray, invariant: str) -> np.ndarray:
    """Check that a matrix, or every matrix of an ``(..., n, n)`` stack, is
    unitary within ``UNITARY_TOL``; otherwise raise ``InvalidState`` with
    the caller's ``invariant`` label and the largest residual (NaN for a
    non-finite entry)."""
    with np.errstate(invalid="ignore"):
        res = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]))))
    if not res <= UNITARY_TOL:
        raise InvalidState(invariant, res)
    return u


def require_observables(m: np.ndarray) -> np.ndarray:
    """Check that a matrix, or every matrix of an ``(..., n, n)`` stack, is
    Hermitian by the rule of ``linalg.require_hermitian``: each member's
    residual within ``HERMITIAN_TOL`` times max(1, max|m|), so a matrix
    whose entries are at most 1 in modulus, a state among them, meets the
    absolute ``HERMITIAN_TOL``. Otherwise raise ``InvalidState`` with the
    largest scaled residual (NaN for a non-finite entry)."""
    res = scaled_hermiticity_residual(m)
    if not res <= HERMITIAN_TOL:
        raise InvalidState("hermiticity", res)
    return m


def require_states(m: np.ndarray) -> np.ndarray:
    """Check that a matrix, or every matrix of an ``(..., n, n)`` stack, is a
    density matrix: Hermitian (``require_observables``), of unit trace within
    ``TRACE_TOL`` and PSD within ``PSD_TOL``; otherwise raise
    ``InvalidState`` with the largest residual. An empty stack passes.

    PSD is first tried as a Cholesky factorization of m + (PSD_TOL/2) I.
    Where it succeeds, every member has lambda_min > -PSD_TOL: at unit
    trace the factorization's backward error is about n^2 eps, far below
    PSD_TOL/2. Only a stack it rejects has its smallest eigenvalues
    computed, which decides the verdict and gives the residual. Both read
    the lower triangle."""
    require_observables(m)
    tr = np.trace(m, axis1=-2, axis2=-1)
    tr = float(np.max(np.abs(tr.real - 1.0) + np.abs(tr.imag), initial=0.0))
    if tr > TRACE_TOL:
        raise InvalidState("unit trace", tr)
    try:
        np.linalg.cholesky(m + 0.5 * PSD_TOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(m)[..., 0].min())
        if min_eig < -PSD_TOL:
            raise InvalidState("positive semidefiniteness", -min_eig) from None
    return m


@dataclass
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix, checked by ``require_states``."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix is not square: {m.shape}")
        self.matrix = require_states(m)
        self.dim = m.shape[0]


@dataclass
class BipartiteState:
    """Density matrix with an (n_A, n_B) factorization; A is the outer factor."""

    state: DensityMatrix
    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1 or self.n_a * self.n_b != self.state.dim:
            raise DimensionMismatch(
                f"factorization {self.n_a}x{self.n_b} inconsistent with dim {self.state.dim}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    @property
    def dims(self) -> tuple[int, int]:
        return (self.n_a, self.n_b)


@dataclass
class Observable:
    """Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"observable is not square: {m.shape}")
        self.matrix = require_observables(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Validate a finite, strictly ascending spectrum with the minimum gap."""
    lam = np.asarray(spectrum, dtype=float).ravel()
    if lam.size < 1:
        raise DegenerateSpectrum("spectrum is empty")
    # a NaN gap compares false with the minimum, so non-finite entries would pass it
    if not np.isfinite(lam).all():
        raise DegenerateSpectrum(f"spectrum must be finite: {lam.tolist()}")
    if lam.size > 1 and float(np.min(np.diff(lam))) < MIN_SPECTRAL_GAP:
        raise DegenerateSpectrum(
            f"spectrum must ascend with gaps >= {MIN_SPECTRAL_GAP:.1e}: {lam.tolist()}"
        )
    return lam


@dataclass
class NondegenerateObservable:
    """Observable given by a strictly ascending spectrum and its eigenbasis."""

    spectrum: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self):
        self.spectrum = check_spectrum(self.spectrum)
        u = as_matrix(self.eigenbasis)
        n = self.spectrum.size
        if u.shape != (n, n):
            raise DimensionMismatch(f"eigenbasis shape {u.shape} does not match spectrum size {n}")
        self.eigenbasis = require_unitary(u, "unitary eigenbasis")

    @property
    def matrix(self) -> np.ndarray:
        return observable_matrices(self.eigenbasis, self.spectrum)

    @property
    def dim(self) -> int:
        return self.spectrum.size


def observable_matrices(u: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """The Hermitian U diag(spectrum) U† of an eigenbasis U, or of each
    member of an ``(..., n, n)`` stack of eigenbases."""
    m = (u * spectrum) @ u.conj().swapaxes(-1, -2)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def require_complete(ops: np.ndarray) -> np.ndarray:
    """Check the completeness relation sum_j E_j† E_j = I within
    ``COMPLETENESS_TOL`` for a Kraus set ``(J, n, n)``, or for every set of
    an ``(..., J, n, n)`` stack; otherwise raise ``InvalidChannel`` with the
    largest residual."""
    total = sum(e.conj().swapaxes(-1, -2) @ e for e in np.moveaxis(ops, -3, 0))
    res = float(np.max(np.abs(total - np.eye(ops.shape[-1]))))
    if res > COMPLETENESS_TOL:
        raise InvalidChannel(f"completeness residual {res:.3e} exceeds {COMPLETENESS_TOL:.1e}")
    return ops


@dataclass
class KrausChannel:
    """CPTP map given by Kraus operators satisfying the completeness relation,
    checked by ``require_complete``."""

    kraus_ops: list[np.ndarray]

    def __post_init__(self):
        ops = [as_matrix(e) for e in self.kraus_ops]
        if not ops:
            raise InvalidChannel("channel needs at least one Kraus operator")
        n = ops[0].shape[0]
        for e in ops:
            if e.shape != (n, n):
                raise DimensionMismatch(f"Kraus operators must all be {n}x{n}")
        require_complete(np.stack(ops))
        self.kraus_ops = ops

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def apply_kraus(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_j E_j rho E_j†, Hermitized, for a Kraus set ``(J, n, n)`` and a
    state ``(n, n)``, or member by member for ``(..., J, n, n)`` and
    ``(..., n, n)`` stacks. The output is not checked."""
    out = sum(e @ rho @ e.conj().swapaxes(-1, -2) for e in np.moveaxis(ops, -3, 0))
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a Kraus channel to a state."""
    if channel.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {channel.dim} vs state dim {rho.dim}")
    return DensityMatrix(apply_kraus(np.stack(channel.kraus_ops), rho.matrix))
