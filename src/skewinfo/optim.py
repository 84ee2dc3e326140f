"""Conjugate-gradient descent on the unitary group, restarted from several bases,
for a whole stack of independent problems at once.

A cost maps a stack of n x n unitaries U, shape ``(m, n, n)``, and the
matching stacks of its data to ``(values, G)``: the ``(m,)`` values and
their Riemannian gradients, the antihermitian matrices with

    d/dt f(U · exp(t Ω)) at t = 0  =  Re Tr(G† Ω)

for every antihermitian Ω. Each restart walks the geodesics
U ← U · exp(-t H) (Edelman, Arias, Smith, SIMAX 20(2), 1998) along the
Polak-Ribière+ conjugate direction H = G + β H_prev, with
β = max(0, Re⟨G − G_prev, G⟩ / |G_prev|²) (Abrudan, Eriksson, Koivunen,
Signal Processing 89(9), 2009). G and H live in the Lie algebra, so H_prev
needs no transport to the new point. t is chosen by Armijo backtracking
and grows by ``_GROWTH`` after every accepted step.

Every restart of every problem in a :func:`search` call is one member of
a stack. Each member keeps its own point, direction, step and stop rule,
and a member's arithmetic never mixes with another's, so its result does
not depend on what else is in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Sequence, TypeVar

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


class UnitaryProblem(NamedTuple):
    """One minimization for :func:`search`: ``cost(U, *data)`` over n x n
    unitaries, restarted from each of ``bases`` (``(restarts, n, n)``) in
    order, stopping early once the best value is at or below ``floor``."""

    cost: Callable[..., tuple[np.ndarray, np.ndarray]]
    data: tuple[np.ndarray, ...]
    bases: np.ndarray
    opts: OptimizerOptions
    floor: float | None


def problem(
    cost: Callable[..., tuple[np.ndarray, np.ndarray]],
    data: tuple[np.ndarray, ...],
    n: int,
    opts: OptimizerOptions,
    seed_unitaries: Sequence[np.ndarray] = (),
    rng: np.random.Generator | None = None,
    floor: float | None = None,
) -> UnitaryProblem:
    """The problem of minimizing ``cost(U, *data)``: the first restarts use
    the caller-supplied seed unitaries in order; the remainder (up to
    ``opts.restarts`` total) start from Haar draws from ``rng`` (a fixed
    internal stream when omitted), all drawn here, before any descent."""
    if rng is None:
        rng = rand.stream(0x5EED, 0)
    draws = max(opts.restarts, len(seed_unitaries), 1) - len(seed_unitaries)
    bases = [np.asarray(s, dtype=np.complex128).reshape(-1, n, n) for s in seed_unitaries]
    if draws:
        bases.append(rand.haar_unitaries(n, draws, rng))
    return UnitaryProblem(cost, tuple(np.asarray(d) for d in data), np.concatenate(bases), opts, floor)


def geodesic(u: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The geodesics t -> U exp(-t H) along antihermitian directions H, for
    one U and H or for stacks of them, as the factors ``(U V, w, V†)`` of
    the Hermitian -iH = V diag(w) V†: U exp(-t H) = (U V) diag(exp(-i t w)) V†.
    One eigendecomposition serves every t; max |w| is the fastest rotation
    rate. :func:`walk` evaluates the points."""
    w, v = np.linalg.eigh(-1j * h)
    return u @ v, w, v.conj().swapaxes(-1, -2)


def walk(uv: np.ndarray, w: np.ndarray, vh: np.ndarray, t) -> np.ndarray:
    """The points at ``t`` (a scalar, or one per member of a stack) on the
    geodesics whose factors :func:`geodesic` returned."""
    return (uv * np.exp(-1j * np.asarray(t)[..., None] * w)[..., None, :]) @ vh


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(A† B) for each member of two C-contiguous stacks, summed member
    by member: the dot product of their real and imaginary parts."""
    return np.einsum("...ij,...ij->...", a.view(np.float64), b.view(np.float64))


def _descend(
    cost: Callable[..., tuple[np.ndarray, np.ndarray]],
    u: np.ndarray,
    data: tuple[np.ndarray, ...],
    max_iters: int,
    stop_gain: float,
    floor: np.ndarray | None = None,
    ends: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate-gradient descent of every member of the stack ``u`` (with
    its rows of ``data``); returns the last accepted values and points.

    Each step of a member walks the geodesic U exp(-t H) along its
    conjugate direction H, with Armijo slope Re⟨G, H⟩. The first trial
    step turns U by ``_FIRST_ANGLE`` at the direction's fastest rate. H
    restarts from G when that slope is not positive, when no step along H
    can gain more than ``stop_gain`` (its first-order gain t·Re⟨G, H⟩ is
    already that small), and after a step along H that gains at most
    ``stop_gain``: a direction almost orthogonal to G would otherwise end
    the restart far from a minimum. A member stops after ``max_iters``
    accepted steps, or when a steepest-descent step (H = G) meets either
    of those two small-gain conditions.

    The members advance in rounds. A round takes one stacked
    eigendecomposition for the members that turn to a new direction and
    one stacked ``cost`` call for every member in a line search. When a
    member stops at or below its ``floor``, the members after it up to
    ``ends`` (one past the last restart of its problem) are dropped: the
    restarts after one that reached the floor are never used.
    """
    m = len(u)
    u = u.copy()
    value, g = cost(u, *data)
    value = np.array(value, dtype=float)
    h = g.copy()  # the conjugate direction, then the direction walked
    uv, w, vh = np.empty_like(u), np.empty(u.shape[:-1]), np.empty_like(u)
    step = np.full(m, np.nan)  # NaN until the first direction sets it
    slope = np.zeros(m)
    on_h = np.zeros(m, dtype=bool)  # the line search runs along H, not G
    try_h = np.zeros(m, dtype=bool)  # H differs from G and is tried first
    iters = np.zeros(m, dtype=int)
    active = np.full(m, max_iters > 0)
    turning = active.copy()  # active members that choose a new direction this round
    while True:
        if floor is not None:
            was_active = active.copy()
        turn = np.flatnonzero(turning)
        if turn.size:
            turning[turn] = False
            d, st = g[turn], step[turn]
            sl = _inner(d, d)
            # G is admissible if it can gain more than stop_gain at the current
            # step; a NaN step (the first direction) always passes
            go = (sl > 0.0) & ~(st * sl <= stop_gain)
            use_h = try_h[turn]
            if use_h.any():
                h_turn = h[turn]
                slope_h = _inner(d, h_turn)
                use_h &= (slope_h > 0.0) & (st * slope_h > stop_gain)
                go |= use_h
                d = np.where(use_h[:, None, None], h_turn, d)
                sl = np.where(use_h, slope_h, sl)
            active[turn[~go]] = False
            sel = turn[go]
            if sel.size:
                h[sel] = d = d[go]
                uv[sel], w[sel], vh[sel] = geodesic(u[sel], d)
                slope[sel], on_h[sel] = sl[go], use_h[go]
                first = sel[np.isnan(st[go])]
                if first.size:
                    step[first] = _FIRST_ANGLE / np.abs(w[first]).max(axis=-1)
                    active[first[step[first] * slope[first] <= stop_gain]] = False

        lin = np.flatnonzero(active)
        if lin.size:
            t, sl, base = step[lin], slope[lin], value[lin]
            trial = walk(uv[lin], w[lin], vh[lin], t)
            trial_value, trial_g = cost(trial, *(x[lin] for x in data))
            ok = trial_value <= base - _ARMIJO * t * sl

            acc = lin[ok]
            if acc.size:
                new_g, old_g, steepest = trial_g[ok], g[acc], ~on_h[acc]
                beta = np.maximum(0.0, _inner(new_g - old_g, new_g) / _inner(old_g, old_g))
                small = base[ok] - trial_value[ok] <= stop_gain
                keep = ~small | steepest  # a step along H that gained nothing resets H to G
                h[acc] = np.where(keep[:, None, None], new_g + beta[:, None, None] * h[acc], new_g)
                u[acc], value[acc], g[acc] = trial[ok], trial_value[ok], new_g
                step[acc] = t[ok] * _GROWTH
                iters[acc] += 1
                try_h[acc] = keep
                done = (small & steepest) | (iters[acc] >= max_iters)
                active[acc[done]] = False
                turning[acc[~done]] = True

            rej, no = lin[~ok], ~ok
            if rej.size:
                step[rej] = 0.5 * t[no]
                spent = step[rej] * sl[no] <= stop_gain
                # H gained nothing: turn to G from the same point and step
                back = spent & on_h[rej]
                try_h[rej[back]], turning[rej[back]] = False, True
                active[rej[spent & ~back]] = False

        if floor is not None:
            for j in np.flatnonzero(was_active & ~active & (value <= floor)):
                active[j + 1 : ends[j]] = False
                turning[j + 1 : ends[j]] = False
        if not lin.size:
            return value, u


def search(problems: Sequence[UnitaryProblem]) -> list[UnitarySearchResult]:
    """Minimize every problem by restarted conjugate-gradient descent, with
    the restarts of all problems that share a cost, options and shapes
    descending side by side as one stack.

    ``cost(U, *data)`` takes a stack of unitaries with the matching stacks
    of the problem's data rows and returns the values and Riemannian
    gradients described in the module docstring. The objectives here
    depend only on the projectors onto the columns of U, so their G has a
    zero diagonal and the search never moves the column phases. For
    n = 1, G is 0 and each restart evaluates its base point.

    Each restart starts exactly at its base point and accepts only steps
    that lower the value, so it never ends above its start.
    ``opts.max_iters`` caps the accepted steps of one restart, and a
    restart also ends on a step that gains at most ``opts.tol / 100``.
    The restarts count in order, and the count stops at the first one
    that brings the best value to ``floor`` or below.

    Returns, per problem, the best value found (the first restart
    attaining it), its unitary, the number of restarts used, and a
    convergence flag (best two restarts agreeing within 10x tol, or the
    floor reached).
    """
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        key = (p.cost, p.opts, p.bases.shape[1:], tuple(d.shape for d in p.data))
        groups.setdefault(key, []).append(i)
    results: list[UnitarySearchResult] = [None] * len(problems)  # type: ignore[list-item]
    for members in groups.values():
        for i, result in zip(members, _search_stack([problems[i] for i in members])):
            results[i] = result
    return results


def _search_stack(problems: list[UnitaryProblem]) -> list[UnitarySearchResult]:
    first = problems[0]
    counts = [len(p.bases) for p in problems]
    owner = np.repeat(np.arange(len(problems)), counts)
    data = tuple(np.stack([p.data[k] for p in problems])[owner] for k in range(len(first.data)))
    floors = np.array([-np.inf if p.floor is None else p.floor for p in problems])
    ends = np.cumsum(counts)
    values, units = _descend(
        first.cost,
        np.concatenate([p.bases for p in problems]),
        data,
        first.opts.max_iters,
        1e-2 * first.opts.tol,
        floors[owner] if np.isfinite(floors).any() else None,
        ends[owner],
    )

    results = []
    for p, end, count in zip(problems, ends, counts):
        start = end - count
        best_val, best_u, used, floor_hit = np.inf, np.eye(p.bases.shape[-1], dtype=np.complex128), 0, False
        for j in range(start, end):
            used += 1
            if values[j] < best_val:
                best_val, best_u = values[j], units[j]
            if p.floor is not None and best_val <= p.floor:
                floor_hit = True
                break
        if floor_hit or used == 1:
            converged = floor_hit
        else:
            ordered = np.sort(values[start : start + used])
            converged = bool(ordered[1] - ordered[0] <= 10.0 * p.opts.tol)
        results.append(UnitarySearchResult(float(best_val), best_u, used, converged))
    return results


R = TypeVar("R")
Steps = Generator[UnitaryProblem, UnitarySearchResult, R]


def solve(steps: Steps[R]) -> R:
    """Run a computation that yields its unitary searches as problems and is
    sent back each one's result, one search at a time; returns its value."""
    try:
        pending = next(steps)
        while True:
            pending = steps.send(search([pending])[0])
    except StopIteration as stop:
        return stop.value
