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
    """Max-abs deviation from Hermitian symmetry, over a whole stack; NaN,
    without a warning, when an entry is not finite."""
    with np.errstate(invalid="ignore"):
        return float(np.abs(m - m.conj().swapaxes(-1, -2)).max()) if m.size else 0.0


def require_hermitian(m) -> np.ndarray:
    """Coerce a matrix or an (..., n, n) stack to complex128 and check it is
    Hermitian: each member's residual within ``HERMITIAN_TOL`` times its
    scale max(1, max|m|), so a member whose entries are at most 1 in
    modulus meets the absolute ``HERMITIAN_TOL``. A non-finite entry has a
    NaN residual and fails the check."""
    m = _as_stack(m)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"matrix is not square: {m.shape}")
    res = hermiticity_residual(m)
    if not res <= HERMITIAN_TOL:  # within the absolute bound every member is within its own
        with np.errstate(invalid="ignore"):
            res = hermiticity_residual(m / np.maximum(1.0, np.abs(m).max(axis=(-2, -1), keepdims=True)))
        if not res <= HERMITIAN_TOL:
            raise NotHermitian(f"hermiticity residual {res:.3e} of max(1, max|m|) exceeds {HERMITIAN_TOL:.1e}")
    return m


def _solve_hermitian(solver, m):
    """``solver`` (``np.linalg.eigh`` or ``eigvalsh``) on a checked Hermitian
    matrix or stack; a solver that does not converge raises ``NoConvergence``."""
    return _solve(solver, require_hermitian(m))


def _solve(solver, m):
    """``_solve_hermitian`` on a matrix or stack already checked."""
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

    Eigenvalues in ``[-PSD_TOL s, 0)``, with s = max(1, lambda_max) the
    member's scale, are clamped to 0 before the root; anything below
    ``-PSD_TOL s`` in any member raises ``NotPSD``. Positive
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
    eigenvectors, with the same checks and floor.

    The eigenvalues come from a stacked closed form for n = 2 and n = 3
    (``_eigvalsh_closed``), which avoids LAPACK's call per matrix, and from
    ``np.linalg.eigvalsh`` for larger n and for the 3x3 members the closed
    form does not resolve as well as LAPACK: scalar matrices, near-degenerate
    spectra (whose cosine argument r has |r| >= 0.99) and spectra whose
    smallest eigenvalue is below 1e-3 of the largest.
    """
    m = require_hermitian(m)
    n = m.shape[-1]
    if n in (2, 3):
        w = _eigvalsh_closed(m.reshape(-1, n, n)).reshape(m.shape[:-1])
    else:
        w = _solve(np.linalg.eigvalsh, m)
    return _psd_roots(w, scale)


_FALLBACK_R = 0.99
_FALLBACK_LOW = 1e-3


def _eigvalsh_closed(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``(N, n)`` of a checked Hermitian ``(N, n, n)``
    stack with n = 2 or 3, member by member in closed form.

    For n = 2 they are (a + d) / 2 -/+ hypot((a - d) / 2, |b|) for the
    diagonal a, d and the off-diagonal entry b. For n = 3 they follow the
    trigonometric solution of the characteristic cubic (Smith, Comm. ACM 4,
    168, 1961): with q = Tr A / 3, B = A - q I, p^2 = Tr B^2 / 6,
    r = det B / (2 p^3) and phi = arccos(r) / 3, the smallest and the
    largest are q + 2 p cos(phi + 2 pi / 3) and q + 2 p cos(phi), and the
    middle one is 3 q less both, clamped between them (a nearly scalar
    member's three are equal to rounding, which could otherwise leave them
    out of order).

    Two kinds of 3x3 member go to ``eigvalsh`` instead. As |r| nears 1 two
    eigenvalues merge and arccos amplifies the rounding in r, so members
    with |r| >= 0.99, and p = 0, go there (Kopp, Int. J. Mod. Phys. C 19,
    523, 2008). The cancellation in q + 2 p cos leaves the smallest
    eigenvalue an absolute error of a few eps lambda_max, which its square
    root amplifies when it is small, so members whose smallest eigenvalue
    is below 1e-3 of the largest go there too, indefinite ones among them.
    Each member's result depends only on that member.
    """
    d = m.diagonal(axis1=-2, axis2=-1).real
    if m.shape[-1] == 2:
        mean = 0.5 * (d[:, 0] + d[:, 1])
        half = np.hypot(0.5 * (d[:, 0] - d[:, 1]), np.abs(m[:, 0, 1]))
        return np.stack([mean - half, mean + half], axis=-1)
    q = d.sum(axis=-1) / 3.0
    b = d - q[:, None]
    a01, a02, a12 = m[:, 0, 1], m[:, 0, 2], m[:, 1, 2]
    n01, n02, n12 = _abs2(a01), _abs2(a02), _abs2(a12)
    p = np.sqrt((b * b).sum(axis=-1) / 6.0 + (n01 + n02 + n12) / 3.0)
    det = (
        b[:, 0] * b[:, 1] * b[:, 2]
        + 2.0 * (a01 * a12 * a02.conj()).real
        - b[:, 0] * n12
        - b[:, 1] * n02
        - b[:, 2] * n01
    )
    two_p3 = 2.0 * p * p * p
    closed = np.abs(det) < _FALLBACK_R * two_p3
    phi = np.arccos(np.where(closed, det, 0.0) / np.where(closed, two_p3, 1.0)) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = np.minimum(np.maximum(3.0 * q - lo - hi, lo), hi)
    w = np.stack([lo, mid, hi], axis=-1)
    closed &= lo >= _FALLBACK_LOW * hi
    if not closed.all():
        w[~closed] = _solve(np.linalg.eigvalsh, m[~closed])
    return w


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2, without the square root of ``np.abs``."""
    return z.real * z.real + z.imag * z.imag


def _psd_roots(w: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """Square roots of the ascending eigenvalues ``w`` ``(..., n)`` of a PSD
    matrix or stack, overwriting ``w``: a member with an eigenvalue below
    ``-PSD_TOL max(1, lambda_max)`` raises ``NotPSD``, and eigenvalues below
    the noise floor ``n * eps * scale`` (``scale`` defaults to each member's
    largest eigenvalue) become 0."""
    lowest = (w[..., 0] / np.maximum(1.0, w[..., -1])).min()
    if lowest < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {lowest:.3e} of max(1, lambda_max) below -{PSD_TOL:.1e}")
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
