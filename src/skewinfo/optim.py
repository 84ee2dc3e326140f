"""Gradient descent on the unitary group, restarted from several bases.

An objective maps an n x n unitary U to ``(value, G)``. ``G`` is its
Riemannian gradient: the antihermitian matrix with

    d/dt f(U · exp(t Ω)) at t = 0  =  Re Tr(G† Ω)

for every antihermitian Ω. Each restart walks the geodesics
U ← U · exp(-t G) (Abrudan, Eriksson, Koivunen, IEEE TSP 56(3), 2008;
Edelman, Arias, Smith, SIMAX 20(2), 1998), choosing t by Armijo
backtracking and doubling it after every accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import rand

# Sufficient-decrease constant of the Armijo test.
_ARMIJO = 1e-4
# Rotation angle of the first trial step of each restart, at the geodesic's
# fastest rate. The LQU cost is of order 4 in U, so along a geodesic it is
# almost periodic with period pi / (2 max|eig G|) (Abrudan, Eriksson,
# Koivunen 2008): the first trial spans one period.
_FIRST_ANGLE = np.pi / 2

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


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


def geodesic(u: np.ndarray, g: np.ndarray) -> tuple[Callable[[float], np.ndarray], float]:
    """The geodesic t -> U exp(-t G) of steepest descent for an antihermitian
    G, and its fastest rotation rate max |eig(G)|.

    One eigendecomposition of the Hermitian -iG = V diag(w) V† serves every
    t: U exp(-t G) = (U V) diag(exp(-i t w)) V†.
    """
    w, v = np.linalg.eigh(-1j * g)
    uv, vh = u @ v, v.conj().T
    return (lambda t: (uv * np.exp(-1j * t * w)) @ vh), float(np.abs(w).max())


def _descend(objective: Objective, u: np.ndarray, max_iters: int, stop_gain: float) -> tuple[float, np.ndarray]:
    """Steepest descent from ``u``; returns the last accepted value and point.

    The first trial step turns U by ``_FIRST_ANGLE`` at the geodesic's
    fastest rate. Stops after ``max_iters`` accepted steps, after a step
    that gains at most ``stop_gain``, or when no step can gain more than
    that: the first-order gain t·|G|² of the trial step is already that
    small.
    """
    value, g = objective(u)
    gg = float(np.vdot(g, g).real)
    step = None
    for _ in range(max_iters):
        if gg == 0.0:
            break
        path, rate = geodesic(u, g)
        if step is None:
            step = _FIRST_ANGLE / rate
        while step * gg > stop_gain:
            trial = path(step)
            trial_value, trial_g = objective(trial)
            if trial_value <= value - _ARMIJO * step * gg:
                break
            step *= 0.5
        else:
            break
        gain = value - trial_value
        u, value, g = trial, trial_value, trial_g
        gg = float(np.vdot(g, g).real)
        step *= 2.0
        if gain <= stop_gain:
            break
    return value, u


def minimize_over_unitaries(
    objective: Objective,
    n: int,
    opts: OptimizerOptions,
    seed_unitaries: Sequence[np.ndarray] = (),
    rng: np.random.Generator | None = None,
    floor: float | None = None,
) -> UnitarySearchResult:
    """Minimize a function of an n x n unitary by restarted gradient descent.

    ``objective(U)`` returns ``(value, G)`` with G the Riemannian gradient
    described in the module docstring. The objectives here depend only on
    the projectors onto the columns of U, so their G has a zero diagonal
    and the search never moves the column phases. For n = 1, G is 0 and
    each restart evaluates its base point.

    Each restart starts exactly at its base point and accepts only steps
    that lower the value, so it never ends above its start. The first
    restarts use the caller-supplied seed unitaries in order; the
    remainder (up to ``opts.restarts`` total) start from Haar draws.
    ``opts.max_iters`` caps the accepted steps of one restart, and a
    restart also ends on a step that gains at most ``opts.tol / 100``.
    ``floor``, when given, stops restarting once the best value is at or
    below it (useful for objectives with a known lower bound).

    Returns the best value found, the unitary attaining it, the number
    of restarts executed, and a convergence flag (best two restarts
    agreeing within 10x tol, or the floor reached).
    """
    if rng is None:
        rng = rand.stream(0x5EED, 0)
    total = max(opts.restarts, len(seed_unitaries), 1)
    bases = list(seed_unitaries) + [
        rand.haar_unitary(n, rng) for _ in range(total - len(seed_unitaries))
    ]
    stop_gain = 1e-2 * opts.tol

    values: list[float] = []
    best_val = np.inf
    best_u = np.eye(n, dtype=np.complex128)
    floor_hit = False
    for base in bases:
        val, u = _descend(objective, base, opts.max_iters, stop_gain)
        values.append(val)
        if val < best_val:
            best_val, best_u = val, u
        if floor is not None and best_val <= floor:
            floor_hit = True
            break

    if floor_hit or len(values) == 1:
        converged = floor_hit
    else:
        ordered = sorted(values)
        converged = (ordered[1] - ordered[0]) <= 10.0 * opts.tol
    return UnitarySearchResult(float(best_val), best_u, len(values), converged)
