"""Gradient-free local search over the unitary group modulo column phases.

A point is parametrized as U0 · exp(A(theta)) where A(theta) is the
off-diagonal antihermitian matrix built from n(n-1) real parameters and
U0 is the restart base point (a caller-supplied seed or a Haar draw).
Leaving out the diagonal drops the n directions that only rephase the
columns of U, to which every objective here is blind. Each restart runs
an adaptive Nelder-Mead simplex from theta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize

from . import rand

_SIMPLEX_STEP = 0.5


@dataclass(frozen=True)
class OptimizerOptions:
    restarts: int = 16
    tol: float = 1e-8
    max_iters: int = 2000


class UnitarySearchResult(NamedTuple):
    value: float
    unitary: np.ndarray
    restarts_used: int
    converged: bool


@lru_cache(maxsize=None)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle, row by row
    (read-only, since every call for ``n`` shares them)."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def antihermitian_from_params(theta: np.ndarray, n: int) -> np.ndarray:
    """Pack n(n-1) real parameters into a zero-diagonal antihermitian n x n
    matrix: consecutive pairs are the real and imaginary parts of the
    strict upper triangle, read row by row."""
    upper = np.zeros((n, n), dtype=np.complex128)
    upper[_upper(n)] = theta[0::2] + 1j * theta[1::2]
    return upper - upper.conj().T


def unitary_exp(a: np.ndarray) -> np.ndarray:
    """exp(A) for antihermitian A, via the eigendecomposition of -iA."""
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)) @ v.conj().T


def _initial_simplex(n_params: int) -> np.ndarray:
    simplex = np.zeros((n_params + 1, n_params))
    for i in range(n_params):
        simplex[i + 1, i] = _SIMPLEX_STEP
    return simplex


def minimize_over_unitaries(
    objective: Callable[[np.ndarray], float],
    n: int,
    opts: OptimizerOptions,
    seed_unitaries: Sequence[np.ndarray] = (),
    rng: np.random.Generator | None = None,
    floor: float | None = None,
) -> UnitarySearchResult:
    """Minimize a function of an n x n unitary by restarted simplex search.

    Precondition: ``objective`` is invariant under U -> U · diag(e^{i phi})
    for every phase vector phi, so it depends only on the rank-1 projectors
    onto the columns of U. The search then moves only along the n(n-1)
    off-diagonal directions, which are exactly the directions in which
    those projectors change. For n = 1 there is a single projector, so
    each restart evaluates its base point without a simplex.

    The first restarts use the caller-supplied seed unitaries in order;
    the remainder (up to ``opts.restarts`` total) start from Haar draws.
    ``floor``, when given, stops restarting once the best value is at or
    below it (useful for objectives with a known lower bound).

    Returns the best value found, the unitary attaining it, the number
    of restarts executed, and a convergence flag (best two restarts
    agreeing within 10x tol, or the floor reached).
    """
    if rng is None:
        rng = rand.stream(0x5EED, 0)
    n_params = n * (n - 1)
    total = max(opts.restarts, len(seed_unitaries), 1)
    bases = list(seed_unitaries) + [
        rand.haar_unitary(n, rng) for _ in range(total - len(seed_unitaries))
    ]
    simplex = _initial_simplex(n_params)

    values: list[float] = []
    best_val = np.inf
    best_u = np.eye(n, dtype=np.complex128)
    floor_hit = False
    for base in bases:
        if n_params == 0:
            theta, val = np.zeros(0), float(objective(base))
        else:
            def local(theta: np.ndarray, _base=base) -> float:
                return objective(_base @ unitary_exp(antihermitian_from_params(theta, n)))

            res = minimize(
                local,
                np.zeros(n_params),
                method="Nelder-Mead",
                options={
                    "maxiter": opts.max_iters,
                    "xatol": 1e-6,
                    "fatol": opts.tol,
                    "adaptive": True,
                    "initial_simplex": simplex,
                },
            )
            theta, val = res.x, float(res.fun)
        values.append(val)
        if val < best_val:
            best_val = val
            best_u = base @ unitary_exp(antihermitian_from_params(theta, n))
        if floor is not None and best_val <= floor:
            floor_hit = True
            break

    if floor_hit or len(values) == 1:
        converged = floor_hit
    else:
        ordered = sorted(values)
        converged = (ordered[1] - ordered[0]) <= 10.0 * opts.tol
    return UnitarySearchResult(best_val, best_u, len(values), converged)
