"""Local quantum uncertainty: the qubit-side closed form and the search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    DimensionMismatch,
    Observable,
    OptimizerOptions,
    ginibre_state,
    haar_unitaries,
    kron,
    lqu,
    random_nondegenerate_observable,
    skew_information,
    stream,
)
from skewinfo.metrics import (
    _clamp,
    _eigenbasis_cost,
    _eigenbasis_newton_cost,
    _gell_mann,
    _lqu_qubit,
    _lqus,
    _spectral_seeds,
    local_skew_forms,
    lqu_draws,
)
from skewinfo.optim import search
from conftest import PAULIS, oracle_lqu_qubit, searched_lqu


PM_ONE = np.array([-1.0, 1.0])


def product_state(n_a, n_b, rng):
    rho_a = ginibre_state(n_a, rng=rng)
    tau_b = ginibre_state(n_b, rng=rng)
    return BipartiteState(DensityMatrix(kron(rho_a.matrix, tau_b.matrix)), n_a, n_b)


def classical_quantum_state(n_a, n_b, rng):
    weights = rng.dirichlet(np.ones(n_a))
    blocks = np.zeros((n_a * n_b, n_a * n_b), dtype=complex)
    for k in range(n_a):
        proj = np.zeros((n_a, n_a))
        proj[k, k] = 1.0
        blocks += weights[k] * kron(proj, ginibre_state(n_b, rng=rng).matrix)
    return BipartiteState(DensityMatrix(blocks), n_a, n_b)


def test_lqu_product_state_is_zero(rng):
    state = product_state(2, 2, rng)
    result = lqu(state, PM_ONE, "A", rng=rng)
    assert 0.0 <= result.value < 1e-7
    assert result.converged


def test_lqu_bell_state_is_one(bell):
    result = lqu(bell, PM_ONE, "A", rng=stream(31, 0))
    assert result.value == pytest.approx(1.0, abs=1e-6)


def test_lqu_classical_quantum_state_is_zero(rng):
    state = classical_quantum_state(2, 2, rng)
    result = lqu(state, PM_ONE, "A", rng=rng)
    assert 0.0 <= result.value < 1e-7


def test_lqu_value_matches_skew_at_minimizer(rng):
    state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
    result = lqu(state, PM_ONE, "A", rng=rng)
    embedded = Observable(kron(result.minimizer.matrix, np.eye(2)))
    at_min = skew_information(state.state, embedded)
    assert result.value >= -1e-9
    assert result.value <= at_min + 1e-9


def test_lqu_never_exceeds_feasible_points(rng):
    # min over restarts is at most the skew information at any sampled observable
    state = BipartiteState(ginibre_state(6, rng=rng), 2, 3)
    result = lqu(state, PM_ONE, "A", rng=rng)
    for _ in range(20):
        k = random_nondegenerate_observable(2, PM_ONE, rng)
        embedded = Observable(kron(k.matrix, np.eye(3)))
        assert result.value <= skew_information(state.state, embedded) + 1e-9


def test_lqu_uses_caller_seed_as_feasible_start(rng):
    state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
    seed_obs = random_nondegenerate_observable(2, PM_ONE, rng)
    result = lqu(state, PM_ONE, "A", opts=OptimizerOptions(restarts=1, max_iters=1), seeds=(seed_obs,), rng=rng)
    seeded_value = skew_information(state.state, Observable(kron(seed_obs.matrix, np.eye(2))))
    assert result.value <= seeded_value + 1e-9


def test_lqu_search_uses_caller_seed_as_feasible_start_on_qutrit_side(rng):
    # a qutrit side has no closed form, so this covers the seeded search
    state = BipartiteState(ginibre_state(6, rng=rng), 3, 2)
    spectrum = np.array([-1.0, 0.0, 1.0])
    seed_obs = random_nondegenerate_observable(3, spectrum, rng)
    seeded_value = skew_information(state.state, Observable(kron(seed_obs.matrix, np.eye(2))))
    # one step, then a full descent: the search starts at the spectral seed
    # and at the caller's seed, both counted although opts asks for one
    for opts in (OptimizerOptions(restarts=1, max_iters=1), OptimizerOptions(restarts=1)):
        result = lqu(state, spectrum, "A", opts=opts, seeds=(seed_obs,), rng=rng)
        assert result.restarts_used == 2
        assert result.value <= seeded_value + 1e-9
    # a one-restart search counts its restart, the spectral seed, and with no
    # second restart to agree with, is not converged
    result = lqu(state, spectrum, "A", opts=OptimizerOptions(restarts=1), rng=rng)
    assert (result.restarts_used, result.converged) == (1, False)


def test_lqu_starts_at_its_spectral_seed_then_its_seeds_then_what_the_budget_leaves():
    # one rule: no Haar restarts where the LQU is exact, else what
    # opts.restarts leaves after the spectral seed and the caller's seeds,
    # never below 0; lqu draws exactly those from rng, in order, and counts
    # every start. Without rng it draws them from one fixed stream
    rng = stream(41, 0)
    state = BipartiteState(ginibre_state(8, rng=rng), 4, 2)
    spectrum = np.linspace(-1.0, 1.0, 4)
    seeds = tuple(random_nondegenerate_observable(4, spectrum, rng) for _ in range(3))
    for restarts in (1, 2, 3, 6):
        opts = OptimizerOptions(restarts=restarts, max_iters=20)
        for k in range(4):
            assert lqu_draws(1, opts, k) == lqu_draws(2, opts, k) == 0
            draws = lqu_draws(4, opts, k)
            assert draws == lqu_draws(3, opts, k) == max(restarts - 1 - k, 0)
            drawn = stream(42, restarts)
            result = lqu(state, spectrum, "A", opts=opts, seeds=seeds[:k], rng=drawn)
            assert result.restarts_used == 1 + k + draws
            after = stream(42, restarts)
            if draws:
                haar_unitaries(4, draws, after)
            assert drawn.standard_normal(4).tolist() == after.standard_normal(4).tolist()
            fixed = lqu(state, spectrum, "A", opts=opts, seeds=seeds[:k], rng=stream(0x5EED, 0))
            default = lqu(state, spectrum, "A", opts=opts, seeds=seeds[:k])
            assert default.value == fixed.value
            np.testing.assert_array_equal(default.minimizer.eigenbasis, fixed.minimizer.eigenbasis)


def test_lqu_spectrum_validation(rng):
    state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
    with pytest.raises(DimensionMismatch):
        lqu(state, np.array([-1.0, 0.0, 1.0]), "A", rng=rng)


def test_lqu_side_b(rng):
    state = product_state(2, 2, rng)
    result = lqu(state, PM_ONE, "B", rng=rng)
    assert 0.0 <= result.value < 1e-7


def test_closed_form_bell_is_one(bell):
    assert lqu(bell, PM_ONE, "A").value == pytest.approx(1.0, abs=1e-12)


def test_closed_form_product_is_zero(rng):
    tau_b = ginibre_state(3, rng=rng)
    joint = BipartiteState(
        DensityMatrix(kron(np.diag([1.0, 0.0]), tau_b.matrix)), 2, 3
    )
    assert lqu(joint, PM_ONE, "A").value == pytest.approx(0.0, abs=1e-9)


def test_lqu_agrees_with_closed_form_on_random_states():
    # small cross-oracle sample; the acceptance suite runs the full 100+100
    rng = stream(31, 1)
    for n_b in (2, 3):
        for _ in range(10):
            state = BipartiteState(ginibre_state(2 * n_b, rng=rng), 2, n_b)
            num = searched_lqu(state, PM_ONE, "A", OptimizerOptions(restarts=8), rng)
            assert num == pytest.approx(lqu(state, PM_ONE, "A").value, abs=1e-6)


def test_lqu_reports_spectrum_alongside_value(rng):
    state = BipartiteState(ginibre_state(4, rng=rng), 2, 2)
    result = lqu(state, np.array([0.0, 2.0]), "A", rng=rng)
    np.testing.assert_allclose(result.minimizer.spectrum, [0.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from(((2, 2), (2, 3), (3, 2), (2, 1), (1, 2), (2, 4), (4, 2))),
    pure=st.booleans(),
    low=st.floats(-3.0, 3.0),
    gap=st.floats(1e-3, 4.0),
)
def test_lqu_closed_form_is_the_minimum(seed, dims, pure, low, gap):
    rng = stream(seed, 0)
    n_a, n_b = dims
    state = BipartiteState(ginibre_state(n_a * n_b, rank=1 if pure else None, rng=rng), n_a, n_b)
    spectrum = np.array([low, low + gap])

    def embedded(k, side):
        return Observable(kron(k, np.eye(n_b)) if side == "A" else kron(np.eye(n_a), k))

    for side, n_side in (("A", n_a), ("B", n_b)):
        if n_side != 2:
            continue
        result = lqu(state, spectrum, side, opts=OptimizerOptions(restarts=5), rng=rng)
        assert (result.restarts_used, result.converged) == (0, True)  # no search ran
        assert abs(result.value - oracle_lqu_qubit(state.matrix, dims, side, spectrum)) <= 1e-10
        at_min = skew_information(state.state, embedded(result.minimizer.matrix, side))
        assert abs(result.value - at_min) <= 1e-12
        for _ in range(20):
            k = random_nondegenerate_observable(2, spectrum, rng)
            assert result.value <= skew_information(state.state, embedded(k.matrix, side)) + 1e-12


@pytest.mark.parametrize("side, dims", [("A", (1, 3)), ("B", (3, 1)), ("A", (1, 1))])
def test_lqu_on_a_one_level_side_is_exactly_zero(side, dims):
    # every observable on one level is a multiple of the identity, which
    # commutes with the state: the LQU is 0, with no search and no draws
    state = BipartiteState(ginibre_state(dims[0] * dims[1], rng=stream(6, 0)), *dims)
    rng = stream(6, 1)
    result = lqu(state, np.array([0.5]), side, rng=rng)
    assert result.value == 0.0
    assert (result.restarts_used, result.converged) == (0, True)
    assert rng.standard_normal(8).tolist() == stream(6, 1).standard_normal(8).tolist()


def test_lqu_routine_is_the_closed_form_and_the_search():
    # the stacked routine is bit for bit the qubit closed form at n = 2, with
    # no work done, and bit for bit the clamped direct Newton search at
    # n = 3, from the spectral seed and then the given bases
    rng = stream(7, 0)
    opts = OptimizerOptions(restarts=3, max_iters=60)
    for n in (2, 3):
        rho = np.stack([ginibre_state(2 * n, rng=rng).matrix for _ in range(5)])
        forms = local_skew_forms(rho, (2, n), "B")
        lam = np.linspace(-1.0, 1.0, n)
        # the Haar restarts after the spectral seed, which the closed form leaves unused at n = 2
        bases = np.stack([haar_unitaries(n, opts.restarts - 1, rng) for _ in forms])
        found = _lqus(forms, lam, opts, bases)
        if n == 2:
            values, units = _lqu_qubit(forms, lam)
            converged, evals, steps, rounds = np.ones(5, dtype=bool), *np.zeros((2, 5), dtype=int), 0
        else:
            spectra = np.tile(lam, (5, 1))
            starts = np.concatenate([_spectral_seeds(forms, n)[1][:, None], bases], axis=1)
            found_directly = search(_eigenbasis_newton_cost, (forms, spectra), starts, opts)
            values, units, converged, evals, steps, rounds = found_directly
            values = _clamp(values)
        assert len(found) == 6
        for got, want in zip(found, (values, units, converged, evals, steps, rounds)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("side", ["A", "B"])
def test_qubit_spectral_seed_attains_the_closed_form(side):
    # at n = 2 the Gell-Mann matrices are the Pauli matrices, and the value at
    # the spectral seed is the LQU of the Girolami-Tufarelli-Adesso oracle
    np.testing.assert_array_equal(_gell_mann(2), np.array(PAULIS))
    rng = stream(12, 0)
    dims = (2, 3) if side == "A" else (3, 2)
    for spectrum in (PM_ONE, np.array([-0.3, 2.5])):
        rho = np.stack([ginibre_state(6, rank=1 + k % 6, rng=rng).matrix for k in range(12)])
        forms = local_skew_forms(rho, dims, side)
        _, seeds = _spectral_seeds(forms, 2)
        values, _ = _eigenbasis_cost(seeds, forms, np.tile(spectrum, (len(forms), 1)))
        for r, value in zip(rho, values):
            assert abs(value - oracle_lqu_qubit(r, dims, side, spectrum)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectral_seed_of_a_member_does_not_depend_on_its_stack(n):
    # a trial's seed is the same whether its chunk holds it alone or 64 trials
    rng = stream(13, n)
    rho = np.stack([ginibre_state(2 * n, rng=rng).matrix for _ in range(64)])
    forms = local_skew_forms(rho, (n, 2), "A")
    bottom, seeds = _spectral_seeds(forms, n)
    assert seeds.shape == (64, n, n)
    for k in (0, 17, 63):
        alone_bottom, alone_seeds = _spectral_seeds(forms[k : k + 1], n)
        np.testing.assert_array_equal(alone_bottom[0], bottom[k])
        np.testing.assert_array_equal(alone_seeds[0], seeds[k])
