"""Dense complex linear-algebra kernel.

Matrices are plain ``numpy.ndarray`` of ``complex128``. Subsystem A is
always the outer (slow) tensor factor; ``partial_trace`` and every
bipartite helper in the package rely on that one convention.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD, UsageError

HERMITIAN_TOL = 1e-9
PSD_TOL = 1e-10
_EPS = np.finfo(np.float64).eps

Side = Literal["A", "B"]


class HermitianEigenSystem(NamedTuple):
    """Ascending eigenvalues and the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def _as_stack(m) -> np.ndarray:
    """Coerce input to a complex128 matrix or ``(..., n, m)`` stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    return a


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-abs deviation from Hermitian symmetry, over a whole stack."""
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max()) if m.size else 0.0


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Coerce a matrix or an (..., n, n) stack to complex128 and check it is Hermitian."""
    m = _as_stack(m)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"matrix is not square: {m.shape}")
    res = hermiticity_residual(m)
    if res > tol:
        raise NotHermitian(f"hermiticity residual {res:.3e} exceeds {tol:.1e}")
    return m


def _solve_hermitian(solver, m):
    """``solver`` (``np.linalg.eigh`` or ``eigvalsh``) on a checked Hermitian
    matrix or stack; a solver that does not converge raises ``NoConvergence``."""
    m = require_hermitian(m)
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def hermitian_eig(m) -> HermitianEigenSystem:
    """Eigendecompose a Hermitian matrix (or each matrix of a stack),
    eigenvalues ascending."""
    return HermitianEigenSystem(*_solve_hermitian(np.linalg.eigh, m))


def sqrtm_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix in an
    ``(..., n, n)`` stack.

    Eigenvalues in ``[-PSD_TOL, 0)`` are clamped to 0 before the root;
    anything below ``-PSD_TOL`` in any member raises ``NotPSD``. Positive
    eigenvalues below each member's eigensolver noise floor
    (n * eps * lambda_max) are zeroed too: their square roots would
    otherwise inject ~1e-8 artifacts into the root of a rank-deficient
    input.
    """
    sw, v = psd_sqrt_eigh(m)
    root = (v * sw[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return 0.5 * (root + root.conj().swapaxes(-1, -2))


def psd_sqrt_eigh(m, scale: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of ``sqrtm_psd(m)``, with its checks and noise floor:
    the square roots of the clamped and floored eigenvalues (ascending) and
    the eigenvectors, for callers that work in the eigenbasis of the root.

    The floor is ``n * eps * scale``; ``scale`` broadcasts against the
    eigenvalues ``(..., n)`` and defaults to each member's largest one.
    """
    w, v = hermitian_eig(m)
    return _psd_roots(w, scale), v


def psd_sqrt_eigvalsh(m, scale: np.ndarray | None = None) -> np.ndarray:
    """The eigenvalues of ``sqrtm_psd(m)``: ``psd_sqrt_eigh`` without the
    eigenvectors, from the cheaper eigenvalue-only solver, with the same
    checks and floor."""
    return _psd_roots(_solve_hermitian(np.linalg.eigvalsh, m), scale)


def _psd_roots(w: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """Square roots of the ascending eigenvalues ``w`` ``(..., n)`` of a PSD
    matrix or stack, overwriting ``w``: anything below ``-PSD_TOL`` raises
    ``NotPSD``, and eigenvalues below the noise floor ``n * eps * scale``
    (``scale`` defaults to each member's largest eigenvalue) become 0."""
    lowest = w[..., 0].min()
    if lowest < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {lowest:.3e} below -{PSD_TOL:.1e}")
    if scale is None:
        scale = np.maximum(w[..., -1:], 0.0)
    w[w < w.shape[-1] * _EPS * scale] = 0.0
    return np.sqrt(w)


def kron(a, b) -> np.ndarray:
    """Tensor product with the first factor outermost, of two matrices or
    member by member of two stacks (which broadcast)."""
    a, b = _as_stack(a), _as_stack(b)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def side_dim(dims: tuple[int, int], side: Side) -> int:
    """The dimension of the named side of A (outer) tensor B; a side other
    than 'A' or 'B' raises ``UsageError``."""
    if side not in ("A", "B"):
        raise UsageError(f"side must be 'A' or 'B', got {side!r}")
    return dims[side == "B"]


def partial_trace(m, dims: tuple[int, int], side: Side) -> np.ndarray:
    """Trace out the named factor of a matrix on A (outer) tensor B (inner),
    or of each matrix of an ``(..., d, d)`` stack.

    ``side='B'`` returns the n_A-dimensional matrix on A, ``side='A'``
    the n_B-dimensional matrix on B.
    """
    side_dim(dims, side)
    m = _as_stack(m)
    n_a, n_b = dims
    d = n_a * n_b
    if m.shape[-2:] != (d, d):
        raise DimensionMismatch(f"matrix shape {m.shape} does not factor as {n_a}x{n_b}")
    axis = int(side == "B") - 4
    return np.trace(m.reshape(*m.shape[:-2], n_a, n_b, n_a, n_b), axis1=axis, axis2=axis + 2)


def commutator(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0] or a.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"cannot commute shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def trace_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A† B); real when both are Hermitian."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))
