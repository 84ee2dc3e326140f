"""The gradient search on U(n): the objectives' gradients, the geodesic step,
the search's guarantees and quality, and the objectives' phase invariance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    NotPSD,
    OptimizerOptions,
    UsageError,
    ginibre_state,
    haar_unitaries,
    haar_unitary,
    kron,
    lqu,
    partial_trace,
    random_nondegenerate_observable,
    skew_information,
    steering_induced_skew,
    stream,
)
from skewinfo import optim
from skewinfo.metrics import _eigenbasis_cost, _eigenbasis_newton_cost, _spectral_seeds, local_skew_forms
from skewinfo.optim import geodesic, walk
from skewinfo.steering import _bloch_skew_cost, _eigen_skew_cost, _q_objective, _skew_objective, _tensor

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]
FD_STEP = 1e-5


def random_antihermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z - z.conj().T)


def central_difference(f, u, omega):
    """d/dt f(U exp(t Omega)) at t = 0, with the exponential taken by scipy."""
    step = scipy.linalg.expm(FD_STEP * omega)
    return (f(u @ step) - f(u @ step.conj().T)) / (2.0 * FD_STEP)


def pure_steered_skew(psi, dims, u, km):
    """Steered skew-information sum of a pure joint state: every conditional
    state is pure, where skew information is the variance. Unlike the search
    objective it takes no square root, so it has no eigensolver noise."""
    total = 0.0
    for phi in u.conj().T @ psi.reshape(dims):  # unnormalized conditionals of B
        p = np.vdot(phi, phi).real
        total += np.vdot(phi, km @ km @ phi).real - np.vdot(phi, km @ phi).real ** 2 / p
    return total


def at_one(cost, *rows):
    """``cost``, which takes a stack of U with one data row each (the cost
    contract of ``optim.search``), at one U with the one-row stacks ``rows``:
    that member's value and gradient."""
    return lambda u: tuple(x[0] for x in cost(u[None], *rows))


def assert_gradient(objective, n, rng, reference=None):
    """G is antihermitian with a zero diagonal, and Re Tr(G† Omega) is the
    derivative of ``reference`` (default: the objective's own value) along
    U exp(t Omega) for random antihermitian Omega."""
    reference = reference or (lambda u: objective(u)[0])
    for _ in range(5):
        u = haar_unitary(n, rng)
        omega = random_antihermitian(n, rng)
        _, g = objective(u)
        np.testing.assert_array_equal(g, -g.conj().T)
        np.testing.assert_array_equal(np.diag(g), np.zeros(n))
        predicted = np.vdot(g, omega).real
        measured = central_difference(reference, u, omega)
        assert abs(predicted - measured) <= 1e-6 * max(1.0, abs(measured)), (predicted, measured)


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("rank", [None, 1])
def test_lqu_gradient_matches_central_difference(dims, rank, rng):
    n_a, n_b = dims
    state = BipartiteState(ginibre_state(n_a * n_b, rank=rank, rng=rng), n_a, n_b)
    for side, n_side in (("A", n_a), ("B", n_b)):
        form = local_skew_forms(state.matrix, state.dims, side)
        lam = np.sort(rng.standard_normal(n_side))
        assert_gradient(at_one(_eigenbasis_cost, form[None], lam[None]), n_side, rng)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("rank", [None, 1])
def test_lqu_hessian_matches_central_differences_of_the_gradient(n, rank, rng):
    # the search's coordinates are Re Tr(G^dagger E_a) on optim's basis, and
    # the analytic Hessian is the symmetrized central difference of those
    # coordinates along U exp(h E_b): the antisymmetric part of the
    # difference, g([E_b, E_a]) / 2, is the frame turning, not curvature
    basis = optim.coordinate_basis(n)
    for dims, side in (((n, 2), "A"), ((2, n), "B")):
        state = BipartiteState(ginibre_state(2 * n, rank=rank, rng=rng), *dims)
        form = local_skew_forms(state.matrix, state.dims, side)[None]
        lam = np.sort(rng.standard_normal(n))[None]

        def coords(u):
            g = _eigenbasis_cost(u[None], form, lam)[1][0]
            direct = np.array([np.vdot(g, e).real for e in basis])
            np.testing.assert_array_equal(optim._coordinates(g[None], *np.triu_indices(n, 1))[0], direct)
            return direct

        for _ in range(2):
            u = haar_unitary(n, rng)
            value, g, hess = _eigenbasis_newton_cost(u[None], form, lam)
            expected_value, expected_g = _eigenbasis_cost(u[None], form, lam)
            np.testing.assert_array_equal(value, expected_value)
            np.testing.assert_array_equal(g, expected_g)
            np.testing.assert_array_equal(hess[0], hess[0].T)
            steps = [scipy.linalg.expm(FD_STEP * e) for e in basis]
            columns = [(coords(u @ step) - coords(u @ step.conj().T)) / (2.0 * FD_STEP) for step in steps]
            measured = np.array(columns).T
            measured = 0.5 * (measured + measured.T)
            scale = max(1.0, np.abs(measured).max())
            assert np.abs(hess[0] - measured).max() <= 1e-6 * scale, np.abs(hess[0] - measured).max()


@pytest.mark.parametrize("dims", DIMS)
def test_steering_gradients_match_central_difference(dims, rng):
    n_a, n_b = dims
    state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
    km = random_nondegenerate_observable(n_b, rng=rng).matrix
    r4 = _tensor(state)
    assert_gradient(at_one(_skew_objective, r4, km[None]), n_a, rng)
    assert_gradient(at_one(_q_objective, r4), n_a, rng)


@pytest.mark.parametrize("dims", DIMS)
def test_steering_gradients_on_pure_states(dims, rng):
    # the conditionals of a pure joint state are pure, so the gradients of
    # the costs (the negated gains) are checked against the variance form,
    # which takes no root, and the steered Q is the constant n_B - 1
    n_a, n_b = dims
    psi = np.linalg.eigh(ginibre_state(n_a * n_b, rank=1, rng=rng).matrix)[1][:, -1]
    state = BipartiteState(DensityMatrix(np.outer(psi, psi.conj())), n_a, n_b)
    km = random_nondegenerate_observable(n_b, rng=rng).matrix
    r4 = _tensor(state)
    assert_gradient(
        at_one(_skew_objective, r4, km[None]), n_a, rng, reference=lambda u: -pure_steered_skew(psi, dims, u, km)
    )
    assert_gradient(at_one(_q_objective, r4), n_a, rng, reference=lambda u: 1.0 - n_b)


def qubit_b_stack(n_a, rng):
    """A 64-member steering stack on a qubit B: 16 bases each of a full-rank
    state, a pure one (rank-1 conditionals), and a product |0><0| x tau
    measured in permutations of A's eigenbasis and in Haar bases (null
    outcomes, and conditionals tau times a probability), and a product
    with a maximally mixed B, whose conditionals have beta = 0."""
    e0 = np.zeros((n_a, n_a), dtype=complex)
    e0[0, 0] = 1.0
    states = [
        ginibre_state(2 * n_a, rng=rng).matrix,
        ginibre_state(2 * n_a, rank=1, rng=rng).matrix,
        kron(e0, ginibre_state(2, rng=rng).matrix),
        kron(ginibre_state(n_a, rng=rng).matrix, 0.5 * np.eye(2)),
    ]
    perms = np.array([np.eye(n_a, dtype=complex)[:, np.roll(np.arange(n_a), s)] for s in range(n_a)])
    bases = [haar_unitaries(n_a, 16, rng) for _ in states]
    bases[2][: len(perms)] = perms * np.exp(2j * np.pi * rng.random((len(perms), 1, n_a)))
    r4 = np.repeat(np.array(states).reshape(4, n_a, 2, n_a, 2), 16, axis=0)
    km = np.array([random_nondegenerate_observable(2, rng=rng).matrix for _ in range(64)])
    return np.concatenate(bases), r4, km


@pytest.mark.parametrize("n_a", [2, 3])
def test_qubit_b_cost_matches_the_eigensystem_route(n_a):
    # the closed form on a qubit B against the eigensystem route, value and
    # gradient, at full rank, at rank 1 and with null outcomes; their
    # central differences are checked by the steering gradient tests above,
    # which run it at (2, 2) and (3, 2), and here at the null outcomes
    rng = stream(67, n_a)
    u, r4, km = qubit_b_stack(n_a, rng)
    value, g = _bloch_skew_cost(u, r4, km)
    expected_value, expected_g = _eigen_skew_cost(u, r4, km)
    np.testing.assert_allclose(value, expected_value, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(g, expected_g, rtol=0.0, atol=1e-13)
    np.testing.assert_array_equal(_skew_objective(u, r4, km)[0], value)
    for j in (32, 33, 47, 48):
        cost = at_one(_bloch_skew_cost, r4[j : j + 1], km[j : j + 1])
        omega = random_antihermitian(n_a, rng)
        measured = central_difference(lambda v: cost(v)[0], u[j], omega)
        assert abs(np.vdot(g[j], omega).real - measured) <= 1e-6 * max(1.0, abs(measured))


@pytest.mark.parametrize("n_a", [2, 3])
def test_qubit_b_cost_of_a_member_does_not_depend_on_its_stack(n_a):
    # a member computed alone equals the same member in a 64-member stack,
    # bit for bit, so a trial's search does not depend on its chunk
    u, r4, km = qubit_b_stack(n_a, stream(71, n_a))
    value, g = _bloch_skew_cost(u, r4, km)
    for j in range(64):
        alone_value, alone_g = _bloch_skew_cost(u[j : j + 1], r4[j : j + 1], km[j : j + 1])
        assert alone_value[0] == value[j]
        np.testing.assert_array_equal(alone_g[0], g[j])


def test_qubit_b_cost_rejects_an_indefinite_conditional():
    # the closed-form roots keep the checks of the root kernel
    r4 = np.diag([0.7, -0.1, 0.5, -0.1]).astype(complex).reshape(1, 2, 2, 2, 2)
    with pytest.raises(NotPSD):
        _skew_objective(np.eye(2, dtype=complex)[None], r4, np.diag([1.0, -1.0]).astype(complex)[None])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geodesic_is_the_exponential_step(n, rng):
    u = haar_unitary(n, rng)
    g = random_antihermitian(n, rng)
    uv, w, vh = geodesic(u, g)
    assert np.abs(w).max() == pytest.approx(np.abs(np.linalg.eigvals(g)).max(), abs=1e-12)
    for t in (0.0, 0.3, 2.0):
        np.testing.assert_allclose(walk(uv, w, vh, t), u @ scipy.linalg.expm(-t * g), atol=1e-12)
    end = walk(uv, w, vh, 1.0)
    assert np.max(np.abs(end.conj().T @ end - np.eye(n))) <= 1e-12
    # a stack of geodesics, each walked to its own t
    us, gs, ts = np.stack([u, u.conj().T]), np.stack([g, 2.0 * g]), np.array([0.3, 2.0])
    for point, ui, gi, t in zip(walk(*geodesic(us, gs), ts), us, gs, ts):
        np.testing.assert_allclose(point, ui @ scipy.linalg.expm(-t * gi), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from(((2, 2), (2, 3), (3, 2))),
    pure=st.booleans(),
    kind=st.sampled_from(("lqu", "newton", "skew", "q")),
)
def test_search_returns_its_value_and_never_ends_above_the_seed(seed, dims, pure, kind):
    rng = stream(seed, 0)
    n_a, n_b = dims
    state = BipartiteState(ginibre_state(n_a * n_b, rank=1 if pure else None, rng=rng), n_a, n_b)
    if kind in ("lqu", "newton"):
        form = local_skew_forms(state.matrix, state.dims, "A")
        cost = _eigenbasis_cost if kind == "lqu" else _eigenbasis_newton_cost
        rows = (form[None], np.sort(rng.standard_normal(n_a))[None])
    elif kind == "skew":
        km = random_nondegenerate_observable(n_b, rng=rng).matrix
        cost, rows = _skew_objective, (_tensor(state), km[None])
    else:
        cost, rows = _q_objective, (_tensor(state),)
    objective = at_one(_eigenbasis_cost if kind == "newton" else cost, *rows)
    seed_u = haar_unitary(n_a, rng)
    opts = OptimizerOptions(restarts=2, tol=1e-7, max_iters=40)
    bases = np.concatenate([seed_u[None], haar_unitaries(n_a, opts.restarts - 1, rng)])
    found = optim.search(cost, rows, bases[None], opts)
    (value,), (unitary,) = found.values, found.unitaries
    assert abs(value - objective(unitary)[0]) <= 1e-12
    assert value <= objective(seed_u)[0]
    # every restart counts: the value is the least of the restarts run alone
    assert value == min(optim.search(cost, rows, base[None, None], opts).values[0] for base in bases)


def brockett(m, lam):
    """f(U) = Re Tr(M U diag(lam) U†) and its Riemannian gradient [U†MU, diag(lam)],
    which has a zero diagonal, for a stack of U. Its minimum is
    sum(lam ascending * eig(M) descending) (rearrangement inequality)."""

    def objective(u):
        a = u.conj().swapaxes(-1, -2) @ m @ u
        a = 0.5 * (a + a.conj().swapaxes(-1, -2))
        return np.diagonal(a, axis1=-2, axis2=-1).real @ lam, a * lam - lam[:, None] * a

    return objective


class Recorder:
    """Wraps an objective and the search's geodesic and walk for a one-member
    stack: records every evaluation, every trial step length, and per
    direction the value and gradient at the base point, the direction H of
    the geodesic U exp(-t H) and the base point. A second direction from
    the same base point (after the first failed) replaces the first."""

    def __init__(self, objective, monkeypatch):
        self.objective = objective
        self.evals = []
        self.steps = []
        self.lengths = []
        self.walks = 0  # trial steps before the last direction
        monkeypatch.setattr(optim, "geodesic", self.geodesic)
        monkeypatch.setattr(optim, "walk", self.walk)

    def walk(self, uv, w, vh, t):
        self.lengths.append(float(t[0]))
        return walk(uv, w, vh, t)

    def __call__(self, u):
        value, g = self.objective(u)
        self.evals.append((u[0].copy(), value[0], g[0].copy()))
        return value, g

    def geodesic(self, u, h):
        base, value, g = next(e for e in reversed(self.evals) if np.array_equal(e[0], u[0]))
        if self.steps and np.array_equal(self.steps[-1][3], base):
            self.steps[-1] = (value, g, h[0].copy(), base)
        else:
            self.steps.append((value, g, h[0].copy(), base))
        self.walks = len(self.lengths)
        return geodesic(u, h)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_reaches_the_brockett_minimum(n, monkeypatch):
    rng = stream(n, 7)
    stop_gain = 1e-14
    for _ in range(5):
        mu = rng.standard_normal(n)  # Haar eigenbasis, distinct eigenvalues
        v = haar_unitary(n, rng)
        m = (v * mu) @ v.conj().T
        lam = np.sort(rng.standard_normal(n))
        minimum = lam @ np.sort(mu)[::-1]
        opts = OptimizerOptions(restarts=2, tol=1e-12, max_iters=500)
        found = optim.search(brockett(m, lam), (), haar_unitaries(n, opts.restarts, rng)[None], opts)
        assert abs(found.values[0] - minimum) <= 1e-9
        assert found.converged[0]
        # one restart from a fresh start: every accepted step lowers the value
        with monkeypatch.context() as patch:
            rec = Recorder(brockett(m, lam), patch)
            (value,), (end,), (evals,), (steps,), rounds = optim._descend(
                rec, haar_unitary(n, rng)[None], (), 500, stop_gain
            )
        base_values = [step[0] for step in rec.steps]
        assert all(b < a for a, b in zip(base_values, base_values[1:]))
        assert value <= base_values[-1]
        assert abs(value - minimum) <= 1e-9
        assert evals == rounds == len(rec.evals) and steps < 500
        # the restart ends only on a step from Hinv = I, along -g (H = 2G),
        # that failed: it gained at most the stop gain, or it is spent, its
        # first-order gain t |g|^2 at its last step length being that small
        last_value, g, h, base = rec.steps[-1]
        np.testing.assert_array_equal(h, 2.0 * g)
        slope = 2.0 * np.vdot(g, g).real  # |g|^2 in the coordinates Re Tr(G^dagger E_a)
        if np.array_equal(end, base):
            tried = rec.lengths[rec.walks :]
            if tried:
                final_step = 0.5 * tried[-1]
            else:
                w = np.linalg.eigvalsh(-1j * h)
                final_step = min(1.0, optim._first_angle(n) / np.abs(w).max())
            assert final_step * slope <= stop_gain
        else:
            assert last_value - value <= stop_gain


def test_uphill_quasi_newton_direction_resets_to_the_gradient(monkeypatch):
    # n = 2 with M = sigma_z and lam = (-1, 1): f = -2 n_z for the Bloch vector
    # n of U's first column, and a zero-diagonal geodesic turns n along a great
    # circle, twice as fast as it turns U. From 30 degrees off the minimizer
    # the first trial step (U turns by pi/4, n by a quarter turn) rises to 60
    # degrees past it and is halved; the eighth turn overshoots to 15 degrees
    # past it, where the gradient points back (G1 = -c G0). The BFGS update
    # there is replaced by its negative, so the quasi-Newton direction is
    # uphill, and the search must walk -g from that point instead.
    lam = np.array([-1.0, 1.0])
    rec = Recorder(brockett(np.diag([1.0, -1.0]).astype(complex), lam), monkeypatch)
    update, updates = optim._bfgs_update, []

    def first_update_negated(hinv, fresh, s, y):
        updates.append(update(hinv, fresh, s, y) * (1.0 if updates else -1.0))
        return updates[-1]

    monkeypatch.setattr(optim, "_bfgs_update", first_update_negated)
    theta = np.pi / 6
    u0 = np.array([[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]], dtype=complex)
    (value,), *_ = optim._descend(rec, u0[None], (), 50, 1e-14)

    (v0, g0, h0, _), (v1, g1, h1, _) = rec.steps[:2]
    assert (v0, v1) == pytest.approx((-np.sqrt(3.0), -2.0 * np.cos(np.pi / 12)), abs=1e-12)
    rate = np.abs(np.linalg.eigvalsh(-1j * h0)).max()
    assert rec.lengths[0] * rate == pytest.approx(np.pi / 4, rel=1e-15)  # the first trial turns U by pi/4
    assert rec.lengths[1] == pytest.approx(0.5 * rec.lengths[0], rel=1e-15)  # it rose, and was halved
    np.testing.assert_array_equal(h0, 2.0 * g0)  # a restart starts along -g
    g1_coords = optim._coordinates(g1[None], *np.triu_indices(2, 1))[0]
    assert g1_coords @ updates[0][0] @ g1_coords < 0.0  # the quasi-Newton slope is negative: uphill
    np.testing.assert_array_equal(h1, 2.0 * g1)  # so the search walks -g instead
    base_values = [step[0] for step in rec.steps]
    assert all(b < a for a, b in zip(base_values, base_values[1:]))
    assert value == pytest.approx(-2.0, abs=1e-9)


def random_phases(n, rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


@pytest.mark.parametrize("dims", DIMS)
def test_objectives_ignore_column_phases(dims, rng):
    # the searches' premise: U and U·D give the same value for diagonal D
    n_a, n_b = dims
    state = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
    for side, n_side in (("A", n_a), ("B", n_b)):
        form = local_skew_forms(state.matrix, state.dims, side)
        # the search cost of the LQU: I(rho, U diag(lam) U^dagger on the side)
        cost = at_one(_eigenbasis_cost, form[None], np.sort(rng.standard_normal(n_side))[None])
        for _ in range(10):
            u = haar_unitary(n_side, rng)
            ud = u * random_phases(n_side, rng)
            assert abs(cost(u)[0] - cost(ud)[0]) <= 1e-12
    cost = at_one(_skew_objective, _tensor(state), random_nondegenerate_observable(n_b, rng=rng).matrix[None])
    for _ in range(10):
        u = haar_unitary(n_a, rng)
        ud = u * random_phases(n_a, rng)
        assert abs(cost(u)[0] - cost(ud)[0]) <= 1e-12


def assert_stack_is_its_restarts_alone(cost, data, bases, opts):
    """Each restart's descent in the stack ``bases`` is bit for bit the
    descent it makes alone, each result is the best of all its problem's
    restarts, the first attaining it, and so is the work the search counts,
    in any order of the problems."""
    found = optim.search(cost, data, bases, opts)
    reordered = optim.search(cost, tuple(d[::-1] for d in data), bases[::-1], opts)
    for k, restarts in enumerate(bases):
        rows = tuple(d[k : k + 1] for d in data)
        alone = [optim.search(cost, rows, base[None, None], opts) for base in restarts]
        best = min(alone, key=lambda r: r.values[0])
        assert found.values[k] == best.values[0]
        np.testing.assert_array_equal(found.unitaries[k], best.unitaries[0])
        single = optim.search(cost, rows, bases[k : k + 1], opts)
        work = (found.evals[k], found.steps[k])
        assert work == (single.evals[0], single.steps[0]) == (reordered.evals[-1 - k], reordered.steps[-1 - k])
        assert found.evals[k] > found.steps[k] >= 0
    return found


def test_search_stacks_problems_without_changing_their_results():
    # three LQU problems in one stack, one on a product state whose restarts
    # reach 0, and a steering problem in a stack of its own
    rng = stream(61, 0)
    lam = np.array([-1.0, 0.0, 1.0])
    rho_a = ginibre_state(3, rng=rng).matrix
    product = BipartiteState(DensityMatrix(np.kron(rho_a, ginibre_state(2, rng=rng).matrix)), 3, 2)
    states = [BipartiteState(ginibre_state(6, rng=rng), 3, 2) for _ in range(2)] + [product]
    opts = OptimizerOptions(restarts=4, tol=1e-7, max_iters=150)
    forms = np.stack([local_skew_forms(s.matrix, s.dims, "A") for s in states])
    bases = np.stack([haar_unitaries(3, opts.restarts, rng) for _ in states])
    # the product state's second restart starts at a minimizer, an
    # eigenbasis of its A marginal, while the other restarts still descend
    bases[2, :2] = [haar_unitary(3, rng), np.linalg.eigh(rho_a)[1]]
    lqu_data = (forms, np.broadcast_to(lam, (3, 3)))
    found = assert_stack_is_its_restarts_alone(_eigenbasis_cost, lqu_data, bases, opts)
    # every restart counts: the product's value is the least of all four,
    # and its work includes the two restarts after the one that starts at 0
    alone = [optim.search(_eigenbasis_cost, (forms[2:], lqu_data[1][2:]), b[None, None], opts) for b in bases[2]]
    assert found.values[2] == min(r.values[0] for r in alone) <= 1e-11
    assert found.evals[2] == sum(r.evals[0] for r in alone)
    km = random_nondegenerate_observable(2, rng=rng).matrix
    steering_data = (_tensor(states[0]), km[None])
    steering_bases = haar_unitaries(3, opts.restarts, rng)[None]
    assert_stack_is_its_restarts_alone(_skew_objective, steering_data, steering_bases, opts)


def test_newton_member_does_not_depend_on_its_stack():
    # 64 claim1-like LQU problems (3x2, a quarter of them pure) from their
    # spectral seeds and a Haar basis each: every restart of the stack is
    # bit for bit the Newton descent it makes alone, and none ends above
    # its start
    rng = stream(64, 0)
    rho = np.stack([ginibre_state(6, rank=1 if k % 4 == 0 else None, rng=rng).matrix for k in range(32)])
    forms = local_skew_forms(rho, (3, 2), "A")
    lam = np.broadcast_to([-1.0, 0.0, 1.0], (32, 3))
    bases = np.concatenate([_spectral_seeds(forms, 3)[1][:, None], haar_unitaries(3, 32, rng)[:, None]], axis=1)
    members, rows = bases.reshape(64, 3, 3), (np.repeat(forms, 2, axis=0), np.repeat(lam, 2, axis=0))
    values, units, evals, steps, rounds = optim._descend(_eigenbasis_newton_cost, members, rows, 150, 1e-9)
    assert (values <= _eigenbasis_cost(members, *rows)[0]).all() and rounds > 1
    for j in range(64):
        alone = optim._descend(_eigenbasis_newton_cost, members[j : j + 1], tuple(x[j : j + 1] for x in rows), 150, 1e-9)
        assert alone[0][0] == values[j]
        np.testing.assert_array_equal(alone[1][0], units[j])
        assert (alone[2][0], alone[3][0]) == (evals[j], steps[j])


def test_newton_steps_start_from_the_full_step(monkeypatch):
    # a Newton step's first trial is t = 1, shortened only by the turn cap,
    # from the very first step: no first step turns U by exactly the cap
    rng = stream(65, 0)
    forms = local_skew_forms(ginibre_state(6, rng=rng).matrix, (3, 2), "A")[None]
    lam = np.array([[-1.0, 0.0, 1.0]])
    trials = []

    def recorded_walk(uv, w, vh, t):
        trials.append((float(t[0]), np.abs(w[0]).max()))
        return walk(uv, w, vh, t)

    monkeypatch.setattr(optim, "walk", recorded_walk)
    firsts = []
    for base in (_spectral_seeds(forms, 3)[1], haar_unitaries(3, 1, rng)):
        trials.clear()
        optim._descend(_eigenbasis_newton_cost, base, (forms, lam), 150, 1e-9)
        first, rate = trials[0]
        assert first == min(1.0, optim._first_angle(3) / rate)
        firsts.append(first)
    # from the seed the full step turns U by less than the cap, where a BFGS
    # restart's first trial would turn it by exactly the cap
    assert firsts[0] == 1.0


def stacked_brockett(u, m, lam):
    """``brockett`` for a stack of U with one M and spectrum per member."""
    a = u.conj().swapaxes(-1, -2) @ m @ u
    a = 0.5 * (a + a.conj().swapaxes(-1, -2))
    value = np.einsum("...ii,...i->...", a, lam).real
    return value, a * lam[:, None, :] - lam[:, :, None] * a


def test_best_starts_picks_each_problems_first_least_basis():
    # per problem, the first basis of least cost among its rows, found in one
    # stacked call; a search from it alone never ends above the cost at any
    # row, one basis per problem is passed through unscored, and a member's
    # choice does not depend on the stack it is in
    rng = stream(63, 0)
    t, r, n = 4, 5, 3
    m = np.stack([(v * rng.standard_normal(n)) @ v.conj().T for v in haar_unitaries(n, t, rng)])
    lam = np.sort(rng.standard_normal((t, n)), axis=1)
    bases = haar_unitaries(n, t * r, rng).reshape(t, r, n, n)

    def scores(b):
        values = stacked_brockett(b.reshape(t * r, n, n), np.repeat(m, r, axis=0), np.repeat(lam, r, axis=0))[0]
        return values.reshape(t, r)

    first = scores(bases)[:, :-1].argmin(axis=1)
    # the last row ties the least one: its first column negated, which
    # leaves the cost bit for bit and the basis different
    bases[:, -1] = bases[np.arange(t), first] * np.array([-1.0, 1.0, 1.0])
    costs = scores(bases)
    assert (costs[np.arange(t), first] == costs[:, -1]).all() and (costs.argmin(axis=1) == first).all()
    chosen = optim.best_starts(stacked_brockett, (m, lam), bases)
    assert chosen.shape == (t, 1, n, n)
    np.testing.assert_array_equal(chosen[:, 0], bases[np.arange(t), first])
    assert not any(np.array_equal(chosen[k, 0], bases[k, -1]) for k in range(t))
    opts = OptimizerOptions(restarts=1, tol=1e-7, max_iters=60)
    found = optim.search(stacked_brockett, (m, lam), chosen, opts)
    assert (found.values[:, None] <= costs).all()
    for k in range(t):
        alone = optim.best_starts(stacked_brockett, (m[k : k + 1], lam[k : k + 1]), bases[k : k + 1])
        np.testing.assert_array_equal(alone[0], chosen[k])
    reordered = optim.best_starts(stacked_brockett, (m[::-1], lam[::-1]), bases[::-1])
    np.testing.assert_array_equal(reordered, chosen[::-1])

    def unscored(u, *data):
        raise AssertionError("one basis per problem was scored")

    single = bases[:, 2:3]
    assert optim.best_starts(unscored, (m, lam), single) is single


def test_search_counts_its_rounds_as_stacked_cost_calls():
    # rounds counts the search's stacked cost calls, the first at the starts
    # included; the members share them, so a stack takes at least as many
    # rounds as its longest restart takes evaluations, on the BFGS and on
    # the Newton path
    rng = stream(62, 0)
    forms = local_skew_forms(np.stack([ginibre_state(6, rng=rng).matrix for _ in range(6)]), (3, 2), "A")
    lam = np.broadcast_to([-1.0, 0.0, 1.0], (6, 3))
    opts = OptimizerOptions(restarts=3, tol=1e-7, max_iters=150)
    bases = np.stack([haar_unitaries(3, opts.restarts, rng) for _ in forms])
    for cost in (_eigenbasis_cost, _eigenbasis_newton_cost):
        calls = []

        def counted(u, *data):
            calls.append(len(u))
            return cost(u, *data)

        found = optim.search(counted, (forms, lam), bases, opts)
        assert found.rounds == len(calls) > 1 and calls[0] == 18
        assert sum(calls) == found.evals.sum()
        assert found.rounds >= max(found.evals // 3) >= 1
        alone = optim.search(counted, (forms[:1], lam[:1]), bases[:1, :1], opts)
        assert alone.rounds == alone.evals[0] == len(calls) - found.rounds


@pytest.mark.parametrize(
    "bad",
    [
        {"tol": float("nan")},
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": float("inf")},
        {"restarts": 0},
        {"max_iters": -3},
    ],
)
def test_options_reject_values_that_hang_or_void_the_search(bad):
    # a NaN, negative or zero tol is never met by the stop rule, so each
    # restart halves its step toward 0 until max_iters; an infinite tol
    # returns the start flagged converged; restarts=0 would run one restart
    # and a negative max_iters none of the descent
    with pytest.raises(UsageError):
        OptimizerOptions(**bad)


def test_one_dimensional_side_evaluates_the_only_point():
    # a 1-dim side has no basis to choose, so the steering search evaluates
    # its base points (the gradient is 0); the pinned values are those of the
    # earlier simplex search over all n^2 chart parameters, which moved the
    # phase only. The LQU there is exactly 0, and no search runs for it
    rng = stream(5, 0)
    state = BipartiteState(ginibre_state(3, rng=rng), 1, 3)
    k_b = random_nondegenerate_observable(3, rng=rng)
    steered = steering_induced_skew(state, k_b, rng=stream(5, 1))
    rho_b = DensityMatrix(partial_trace(state.matrix, state.dims, "A"))
    assert steered.value == pytest.approx(0.38152677985817507, abs=1e-12)
    assert steered.value == pytest.approx(skew_information(rho_b, k_b), abs=1e-12)
    assert (steered.restarts_used, steered.converged) == (16, True)

    local = lqu(state, np.array([0.5]), "A", rng=stream(5, 2))
    assert local.value == 0.0  # a multiple of the identity
    assert (local.restarts_used, local.converged) == (0, True)


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, skewinfo; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
