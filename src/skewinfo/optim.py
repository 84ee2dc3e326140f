"""Quasi-Newton descent on the unitary group, restarted from several bases,
for a whole stack of independent problems at once.

A cost maps a stack of n x n unitaries U, shape ``(m, n, n)``, and the
matching stacks of its data to ``(values, G)``: the ``(m,)`` values and
their Riemannian gradients, the antihermitian matrices with

    d/dt f(U · exp(t Ω)) at t = 0  =  Re Tr(G† Ω)

for every antihermitian Ω. The objectives here see only the projectors
onto the columns of U, so G has a zero diagonal, and the search works in
the d = n(n−1) real coordinates x of Ω = Σ x_a E_a on the off-diagonal
basis E_a of the Lie algebra (e_jk − e_kj and i(e_jk + e_kj), j < k),
where the gradient is g_a = Re Tr(G† E_a).

Each restart is a Riemannian BFGS descent (Huang, Gallivan, Absil, SIAM J.
Optim. 25(3), 2015; Absil, Mahony, Sepulchre, *Optimization Algorithms on
Matrix Manifolds*, 2008). It keeps an inverse Hessian approximation Hinv
(d x d) and walks the geodesic U ← U · exp(t Σ p_a E_a) (Edelman, Arias,
Smith, SIMAX 20(2), 1998) along p = −Hinv·g, with t chosen by Armijo
backtracking from t = 1, or from the shorter t that turns U by
``_first_angle(n)`` (pi/2, or pi/4 at n = 2). g is read at U itself, in
the Lie algebra, so gradients at successive points compare without
transport. After a step s = t·p
that changes the gradient by y, Hinv takes the BFGS update when sᵀy > 0;
the first update after Hinv = I starts from (sᵀy / yᵀy)·I. No Hessian of
the cost is needed, and no evaluation beyond the line search's.

``search(cost, data, bases, opts)`` minimizes one cost for T
problems: their data as ``(T, ...)`` row stacks and their restart bases
as ``(T, R, n, n)``. Every restart of every problem is one member of a
stack of T·R. Each member keeps its own point, Hinv, step and stop rule,
and a member's arithmetic never mixes with another's, so its result does
not depend on what else is in the stack. The :class:`SearchResult` holds
``(T,)`` arrays, one entry per problem; a single problem is the stack
with T = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import rand
from .errors import UsageError
from .states import require_unitary

# Sufficient-decrease constant of the Armijo test.
_ARMIJO = 1e-4
# Rotation angle of the first trial step of each restart, at the geodesic's
# fastest rate max|w|, and the most any later trial step turns. Along the
# geodesic the projectors onto U's columns oscillate at the rate differences
# w_j - w_k, at most 2 max|w|, so a turn by pi/2 is half a period of the
# fastest of them, and a longer one would only come round again. The cap
# cuts the rounds per 32-trial chunk by 15-27% on the claim1 3x2 and claim2
# harnesses. At n = 2 the rates of a zero-diagonal direction are -|z| and
# |z|, and a turn by pi/2 is U times an off-diagonal unitary: the same basis
# with its columns swapped, a whole period of a cost that sums
# symmetrically over the columns, as the steered sums do, so it returns to
# its start value. Two-level steps turn by at most pi/4.
def _first_angle(n: int) -> float:
    """The most a trial step turns an n x n U at the geodesic's fastest rate."""
    return np.pi / 4 if n == 2 else np.pi / 2


@dataclass(frozen=True)
class OptimizerOptions:
    """Search budget: ``restarts`` starting bases per problem, a restart
    ending on a step that gains at most ``tol / 100`` or after ``max_iters``
    accepted steps, and restarts agreeing within ``10 * tol`` counting as
    converged."""

    restarts: int = 16
    tol: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        # a NaN or negative tol never meets the stop rule, so every restart
        # halves its steps until max_iters; an infinite one stops at the start
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise UsageError(f"tol must be finite and positive, got {self.tol!r}")
        if self.restarts < 1:
            raise UsageError(f"restarts must be at least 1, got {self.restarts!r}")
        if self.max_iters < 0:
            raise UsageError(f"max_iters must be non-negative, got {self.max_iters!r}")


class SearchResult(NamedTuple):
    """Per problem of a :func:`search` stack, ``(T,)`` arrays (the unitaries
    ``(T, n, n)``): the best value and its unitary, the convergence flag,
    and the work of all of the problem's restarts: cost evaluations and
    accepted steps. ``rounds`` counts the search's stacked cost calls, one
    number for the whole stack."""

    values: np.ndarray
    unitaries: np.ndarray
    converged: np.ndarray
    evals: np.ndarray
    steps: np.ndarray
    rounds: int


def restart_draws(opts: OptimizerOptions, seeds: int) -> int:
    """The Haar restarts a problem with ``seeds`` seed unitaries draws."""
    return max(opts.restarts, seeds, 1) - seeds


def restart_bases(
    n: int,
    opts: OptimizerOptions,
    seed_unitaries: Sequence[np.ndarray] = (),
    rng: np.random.Generator | None = None,
    leading: int = 0,
) -> np.ndarray:
    """The restart bases ``(restarts, n, n)`` of one problem, a row of
    :func:`search`'s ``bases``: the caller-supplied seed unitaries in order,
    then ``restart_draws`` Haar draws from ``rng`` (a fixed internal stream
    when omitted). ``leading`` starts that the caller puts ahead of these
    rows itself, as the LQU search does its spectral seed, count against
    ``opts.restarts`` too. The harnesses draw the same rows as stacks."""
    if rng is None:
        rng = rand.stream(0x5EED, 0)
    draws = restart_draws(opts, len(seed_unitaries) + leading)
    bases = [np.empty((0, n, n), dtype=np.complex128)]
    bases += [np.asarray(s, dtype=np.complex128).reshape(-1, n, n) for s in seed_unitaries]
    if draws:
        bases.append(rand.haar_unitaries(n, draws, rng))
    return np.concatenate(bases)


def best_starts(
    cost: Callable[..., tuple[np.ndarray, np.ndarray]], data: tuple[np.ndarray, ...], bases: np.ndarray
) -> np.ndarray:
    """Each problem's first basis of least ``cost`` among its rows of ``bases``
    ``(T, R, n, n)``, scored with the ``(T, ...)`` rows of ``data`` in one
    stacked call, as ``(T, 1, n, n)`` bases for :func:`search`. A search from
    it alone never ends above the cost at any of the R bases."""
    t, r, n = bases.shape[:3]
    if r == 1:
        return bases
    values = cost(bases.reshape(t * r, n, n), *(np.repeat(d, r, axis=0) for d in data))[0]
    return bases[np.arange(t), values.reshape(t, r).argmin(axis=1)][:, None]


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


def _coordinates(g: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The coordinates Re Tr(G† E_a) of a stack of zero-diagonal antihermitian
    G: twice the real, then the imaginary parts of the entries above the
    diagonal."""
    upper = g[:, rows, cols]
    return 2.0 * np.concatenate([upper.real, upper.imag], axis=-1)


def _direction(p: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """H = −Σ p_a E_a for a stack of coordinate vectors p, so that the
    geodesic U exp(-t H) of :func:`geodesic` walks along p."""
    k = rows.size
    z = p[:, :k] + 1j * p[:, k:]
    h = np.zeros((len(p), n, n), dtype=np.complex128)
    h[:, rows, cols] = -z
    h[:, cols, rows] = z.conj()
    return h


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two stacks of coordinate vectors."""
    return np.einsum("...i,...i->...", a, b)


def _bfgs_update(hinv: np.ndarray, fresh: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The BFGS update of a stack of inverse Hessians by steps s and gradient
    changes y with sᵀy > 0 (Nocedal, Wright, *Numerical Optimization*, 2006,
    eq. 6.17); a ``fresh`` member's Hinv = I is first scaled to (sᵀy / yᵀy)·I
    (their eq. 6.20)."""
    sy = _dot(s, y)
    hinv = np.where(fresh[:, None, None], (sy / _dot(y, y))[:, None, None] * hinv, hinv)
    hy = (hinv @ y[..., None])[..., 0]
    rho = (1.0 / sy)[:, None, None]
    sh = s[:, :, None] * hy[:, None, :]
    ss = s[:, :, None] * s[:, None, :]
    return hinv - rho * (sh + sh.swapaxes(-1, -2)) + (rho + rho * rho * _dot(y, hy)[:, None, None]) * ss


def _descend(
    cost: Callable[..., tuple[np.ndarray, np.ndarray]],
    u: np.ndarray,
    data: tuple[np.ndarray, ...],
    max_iters: int,
    stop_gain: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """BFGS descent of every member of the stack ``u`` (with its rows of
    ``data``); returns the last accepted values and points, per member its
    cost evaluations and accepted steps, and the rounds: the stacked cost
    calls, the first one at the starting points included.

    Each step of a member walks the geodesic along p = −Hinv·g, with Armijo
    slope −gᵀp. Its first trial is t = 1, shortened so that U turns by at
    most ``_first_angle(n)`` at the direction's fastest rate; the first step
    of a restart turns U by exactly that angle. A step fails when its slope
    is not positive, when it is spent (its first-order gain t·slope is at
    most ``stop_gain``, from the start or after halving), or when it is
    accepted but gains at most ``stop_gain``. A failed step resets Hinv to
    I, and the member turns to −g, from the point the step reached: a
    direction barely downhill would otherwise end the restart far from a
    minimum. A member stops after ``max_iters`` accepted steps, or when a
    step taken with Hinv = I fails.

    The members advance in rounds. A round takes one stacked
    eigendecomposition for the members that turn to a new direction and
    one stacked ``cost`` call for every member in a line search.
    """
    m, n = u.shape[0], u.shape[-1]
    rows, cols = np.triu_indices(n, 1)
    eye = np.eye(2 * rows.size)
    u = u.copy()
    value, g = cost(u, *data)
    value = np.array(value, dtype=float)
    g = _coordinates(g, rows, cols)
    hinv = np.broadcast_to(eye, (m, *eye.shape)).copy()
    fresh = np.ones(m, dtype=bool)  # Hinv = I
    p = np.zeros_like(g)  # the direction walked
    uv, w, vh = np.empty_like(u), np.empty(u.shape[:-1]), np.empty_like(u)
    step = np.zeros(m)
    slope = np.zeros(m)
    evals = np.ones(m, dtype=int)
    iters = np.zeros(m, dtype=int)
    rounds = 1
    active = np.full(m, max_iters > 0)
    turning = active.copy()  # active members that choose a new direction this round

    def fail(j: np.ndarray) -> None:
        stop, reset = j[fresh[j]], j[~fresh[j]]
        active[stop] = False
        hinv[reset], fresh[reset], turning[reset] = eye, True, True

    while True:
        turn = np.flatnonzero(turning)
        if turn.size:
            turning[turn] = False
            d = -(hinv[turn] @ g[turn][..., None])[..., 0]
            sl = -_dot(g[turn], d)
            down = sl > 0.0
            fail(turn[~down])
            sel = turn[down]
            if sel.size:
                p[sel], slope[sel] = d[down], sl[down]
                uv[sel], w[sel], vh[sel] = geodesic(u[sel], _direction(p[sel], rows, cols, n))
                t = _first_angle(n) / np.abs(w[sel]).max(axis=-1)
                step[sel] = np.where(iters[sel] == 0, t, np.minimum(t, 1.0))
                fail(sel[step[sel] * slope[sel] <= stop_gain])

        lin = np.flatnonzero(active & ~turning)
        if lin.size:
            t, sl, base = step[lin], slope[lin], value[lin]
            trial = walk(uv[lin], w[lin], vh[lin], t)
            trial_value, trial_g = cost(trial, *(x[lin] for x in data))
            rounds += 1
            evals[lin] += 1
            ok = trial_value <= base - _ARMIJO * t * sl

            acc = lin[ok]
            if acc.size:
                new_g = _coordinates(trial_g[ok], rows, cols)
                s, y = t[ok, None] * p[acc], new_g - g[acc]
                small = base[ok] - trial_value[ok] <= stop_gain
                update = ~small & (_dot(s, y) > 0.0)
                if update.any():
                    a = acc[update]
                    hinv[a] = _bfgs_update(hinv[a], fresh[a], s[update], y[update])
                    fresh[a] = False
                u[acc], value[acc], g[acc] = trial[ok], trial_value[ok], new_g
                iters[acc] += 1
                capped = iters[acc] >= max_iters
                active[acc[capped]] = False
                turning[acc[~capped]] = True
                fail(acc[~capped & small])

            rej = lin[~ok]
            if rej.size:
                step[rej] = 0.5 * t[~ok]
                fail(rej[step[rej] * sl[~ok] <= stop_gain])

        if not active.any():
            return value, u, evals, iters, rounds


def search(
    cost: Callable[..., tuple[np.ndarray, np.ndarray]],
    data: tuple[np.ndarray, ...],
    bases: np.ndarray,
    opts: OptimizerOptions,
) -> SearchResult:
    """Minimize ``cost`` for each of T problems by restarted Riemannian BFGS
    descent, all restarts of all problems descending side by side as one
    stack.

    ``data`` holds the problems' data as ``(T, ...)`` row stacks, and
    ``bases`` ``(T, R, n, n)`` their R restart bases each (rows of
    :func:`restart_bases`). ``cost(U, *data)`` takes a stack of unitaries
    with the matching stacks of data rows and returns the values and
    Riemannian gradients described in the module docstring. The
    objectives here depend only on the projectors onto the columns of U,
    so their G has a zero diagonal and the search never moves the column
    phases. For n = 1 there is no direction to move in, and each restart
    evaluates its base point.

    Each restart starts exactly at its base point and accepts only steps
    that lower the value, so it never ends above its start.
    ``opts.max_iters`` caps the accepted steps of one restart, and a
    restart also ends when a step from Hinv = I gains at most
    ``opts.tol / 100`` or has no room to.

    Returns, per problem, the least value over its R restarts (the first
    restart attaining it), its unitary (checked to be unitary), a
    convergence flag (best two restarts agreeing within 10x tol), and the
    cost evaluations and accepted steps of all its restarts; and the
    rounds of the whole stack.
    """
    t, r, n = bases.shape[:3]
    data = tuple(np.repeat(d, r, axis=0) for d in data)
    values, units, evals, steps, rounds = _descend(
        cost, bases.reshape(t * r, n, n), data, opts.max_iters, 1e-2 * opts.tol
    )
    values, units = values.reshape(t, r), units.reshape(t, r, n, n)
    best = values.argmin(axis=1)
    ordered = np.sort(values, axis=1)
    gap = ordered[:, 1] - ordered[:, 0] if r > 1 else np.full(t, np.inf)
    return SearchResult(
        values[np.arange(t), best],
        require_unitary(units[np.arange(t), best], "unitary search result"),
        gap <= 10.0 * opts.tol,
        evals.reshape(t, r).sum(axis=1),
        steps.reshape(t, r).sum(axis=1),
        rounds,
    )
