"""Domain types: states, observables, and channels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, InvalidChannel, InvalidState
from .linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    as_matrix,
    hermiticity_residual,
)

TRACE_TOL = 1e-9
UNITARY_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
MIN_SPECTRAL_GAP = 1e-6


@dataclass
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix is not square: {m.shape}")
        res = hermiticity_residual(m)
        if res > HERMITIAN_TOL:
            raise InvalidState("hermiticity", res)
        tr = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
        if tr > TRACE_TOL:
            raise InvalidState("unit trace", tr)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -PSD_TOL:
            raise InvalidState("positive semidefiniteness", -min_eig)
        self.matrix = m
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
        res = hermiticity_residual(m)
        if res > HERMITIAN_TOL:
            raise InvalidState("hermiticity", res)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_spectrum(spectrum: np.ndarray) -> np.ndarray:
    """Validate a strictly ascending spectrum with the minimum gap."""
    lam = np.asarray(spectrum, dtype=float).ravel()
    if lam.size < 1:
        raise DegenerateSpectrum("spectrum is empty")
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
        res = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
        if res > UNITARY_TOL:
            raise InvalidState("unitary eigenbasis", res)
        self.eigenbasis = u

    @property
    def matrix(self) -> np.ndarray:
        m = (self.eigenbasis * self.spectrum) @ self.eigenbasis.conj().T
        return 0.5 * (m + m.conj().T)

    @property
    def dim(self) -> int:
        return self.spectrum.size


@dataclass
class KrausChannel:
    """CPTP map given by Kraus operators satisfying the completeness relation."""

    kraus_ops: list[np.ndarray]

    def __post_init__(self):
        ops = [as_matrix(e) for e in self.kraus_ops]
        if not ops:
            raise InvalidChannel("channel needs at least one Kraus operator")
        n = ops[0].shape[0]
        for e in ops:
            if e.shape != (n, n):
                raise DimensionMismatch(f"Kraus operators must all be {n}x{n}")
        total = sum(e.conj().T @ e for e in ops)
        res = float(np.max(np.abs(total - np.eye(n))))
        if res > COMPLETENESS_TOL:
            raise InvalidChannel(f"completeness residual {res:.3e} exceeds {COMPLETENESS_TOL:.1e}")
        self.kraus_ops = ops

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a Kraus channel to a state."""
    if channel.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {channel.dim} vs state dim {rho.dim}")
    out = sum(e @ rho.matrix @ e.conj().T for e in channel.kraus_ops)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out)
