"""Conjugate-gradient descent on the unitary group, restarted from several bases.

An objective maps an n x n unitary U to ``(value, G)``. ``G`` is its
Riemannian gradient: the antihermitian matrix with

    d/dt f(U · exp(t Ω)) at t = 0  =  Re Tr(G† Ω)

for every antihermitian Ω. Each restart walks the geodesics
U ← U · exp(-t H) (Edelman, Arias, Smith, SIMAX 20(2), 1998) along the
Polak-Ribière+ conjugate direction H = G + β H_prev, with
β = max(0, Re⟨G − G_prev, G⟩ / |G_prev|²) (Abrudan, Eriksson, Koivunen,
Signal Processing 89(9), 2009). G and H live in the Lie algebra, so H_prev
needs no transport to the new point. t is chosen by Armijo backtracking
and grows by ``_GROWTH`` after every accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import rand

# Sufficient-decrease constant of the Armijo test.
_ARMIJO = 1e-4
# Factor on the step after an accepted step. Of 1.25, 1.5, 1.75 and 2 it
# needs the fewest objective evaluations per trial on both optimized bench
# workloads (seeds 301-306); at 2 some restarts run to max_iters again.
_GROWTH = 1.25
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


def geodesic(u: np.ndarray, h: np.ndarray) -> tuple[Callable[[float], np.ndarray], float]:
    """The geodesic t -> U exp(-t H) along an antihermitian descent direction
    H, and its fastest rotation rate max |eig(H)|.

    One eigendecomposition of the Hermitian -iH = V diag(w) V† serves every
    t: U exp(-t H) = (U V) diag(exp(-i t w)) V†.
    """
    w, v = np.linalg.eigh(-1j * h)
    uv, vh = u @ v, v.conj().T
    return (lambda t: (uv * np.exp(-1j * t * w)) @ vh), float(np.abs(w).max())


def _descend(objective: Objective, u: np.ndarray, max_iters: int, stop_gain: float) -> tuple[float, np.ndarray]:
    """Conjugate-gradient descent from ``u``; returns the last accepted
    value and point.

    Each step walks the geodesic U exp(-t H) along the conjugate direction
    H, with Armijo slope Re⟨G, H⟩. The first trial step turns U by
    ``_FIRST_ANGLE`` at the direction's fastest rate. H restarts from G
    when that slope is not positive, when no step along H can gain more
    than ``stop_gain`` (its first-order gain t·Re⟨G, H⟩ is already that
    small), and after a step along H that gains at most ``stop_gain``: a
    direction almost orthogonal to G would otherwise end the restart far
    from a minimum. The restart stops after ``max_iters`` accepted steps,
    or when a steepest-descent step (H = G) meets either of those two
    small-gain conditions.
    """
    value, g = objective(u)
    h = g
    step = None
    for _ in range(max_iters):
        for h in (g,) if h is g else (h, g):
            slope = float(np.vdot(g, h).real)
            if slope <= 0.0:
                continue
            path, rate = geodesic(u, h)
            if step is None:
                step = _FIRST_ANGLE / rate
            while step * slope > stop_gain:
                trial = path(step)
                trial_value, trial_g = objective(trial)
                if trial_value <= value - _ARMIJO * step * slope:
                    break
                step *= 0.5
            else:
                continue  # no step along H gains more than stop_gain: try G
            break
        else:
            break
        gain = value - trial_value
        steepest = h is g
        beta = max(0.0, float(np.vdot(trial_g - g, trial_g).real) / float(np.vdot(g, g).real))
        u, value, g = trial, trial_value, trial_g
        h = g + beta * h
        step *= _GROWTH
        if gain <= stop_gain:
            if steepest:
                break
            h = g
    return value, u


def minimize_over_unitaries(
    objective: Objective,
    n: int,
    opts: OptimizerOptions,
    seed_unitaries: Sequence[np.ndarray] = (),
    rng: np.random.Generator | None = None,
    floor: float | None = None,
) -> UnitarySearchResult:
    """Minimize a function of an n x n unitary by restarted conjugate-gradient
    descent.

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
