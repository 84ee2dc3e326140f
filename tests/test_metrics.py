"""Skew information, variance, and uncertainty-content properties."""

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    DimensionMismatch,
    Observable,
    SkewInfoError,
    commuting_kraus_channel,
    apply_channel,
    default_spectrum,
    ginibre_state,
    haar_unitary,
    kron,
    lqu,
    partial_trace,
    q_local,
    q_total,
    random_nondegenerate_observable,
    skew_information,
    stream,
    variance,
)
from skewinfo import metrics
from skewinfo.metrics import local_skew_forms

from conftest import (
    SIGMA_X,
    SIGMA_Z,
    bell_pair,
    gell_mann_basis,
    oracle_q_local,
    oracle_q_total,
    summed_q_total,
)


def random_observable(n, rng, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Observable(scale * (z + z.conj().T))


def test_skew_zero_when_commuting():
    rho = DensityMatrix(np.eye(2) / 2)
    assert skew_information(rho, Observable(SIGMA_Z)) == 0.0


def test_skew_equals_variance_on_pure_state():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    obs = Observable(SIGMA_X)
    assert skew_information(rho, obs) == pytest.approx(1.0, abs=1e-12)
    assert variance(rho, obs) == pytest.approx(1.0, abs=1e-12)


def test_skew_diagonal_mixture_analytic():
    # analytic value 1 - 2 sqrt(p(1-p)) for diag(p, 1-p) against sigma_x
    p = 0.9
    rho = DensityMatrix(np.diag([p, 1 - p]))
    expected = 1.0 - 2.0 * np.sqrt(p * (1 - p))
    assert skew_information(rho, Observable(SIGMA_X)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.4)


def test_skew_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        skew_information(DensityMatrix(np.eye(3) / 3), Observable(SIGMA_X))


def test_variance_examples():
    ground = DensityMatrix(np.diag([1.0, 0.0]))
    assert variance(ground, Observable(SIGMA_Z)) == pytest.approx(0.0, abs=1e-12)
    assert variance(ground, Observable(SIGMA_X)) == pytest.approx(1.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(2) / 2)
    assert variance(mixed, Observable(SIGMA_Z)) == pytest.approx(1.0, abs=1e-12)
    assert skew_information(mixed, Observable(SIGMA_Z)) == 0.0


def test_skew_bounded_by_variance():
    rng = stream(21, 0)
    for n in (2, 3, 4):
        for _ in range(60):
            rho = ginibre_state(n, rng=rng)
            obs = random_observable(n, rng)
            i_val = skew_information(rho, obs)
            v_val = variance(rho, obs)
            assert -1e-10 <= i_val <= v_val + 1e-9


def test_skew_equals_variance_for_random_pure_states():
    rng = stream(21, 1)
    for n in (2, 3, 4):
        for _ in range(30):
            rho = ginibre_state(n, rank=1, rng=rng)
            obs = random_observable(n, rng)
            assert abs(skew_information(rho, obs) - variance(rho, obs)) < 1e-8


def test_skew_convexity_under_mixing():
    rng = stream(21, 2)
    for n in (2, 3):
        for parts in (2, 3):
            for _ in range(40):
                states = [ginibre_state(n, rng=rng) for _ in range(parts)]
                weights = rng.dirichlet(np.ones(parts))
                obs = random_observable(n, rng)
                mixture = DensityMatrix(sum(w * s.matrix for w, s in zip(weights, states)))
                lhs = skew_information(mixture, obs)
                rhs = sum(w * skew_information(s, obs) for w, s in zip(weights, states))
                assert lhs <= rhs + 1e-9


def test_variance_is_concave_where_skew_is_convex():
    rng = stream(21, 3)
    for _ in range(20):
        a = ginibre_state(2, rng=rng)
        b = ginibre_state(2, rng=rng)
        obs = random_observable(2, rng)
        mix = DensityMatrix(0.5 * a.matrix + 0.5 * b.matrix)
        assert variance(mix, obs) >= 0.5 * variance(a, obs) + 0.5 * variance(b, obs) - 1e-9


def test_partial_trace_monotonicity():
    rng = stream(21, 4)
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        for _ in range(40):
            rho = ginibre_state(n_a * n_b, rng=rng)
            rho_ab = BipartiteState(rho, n_a, n_b)
            obs_a = random_observable(n_a, rng)
            full = Observable(kron(obs_a.matrix, np.eye(n_b)))
            reduced = DensityMatrix(
                np.trace(rho.matrix.reshape(n_a, n_b, n_a, n_b), axis1=1, axis2=3)
            )
            assert skew_information(rho, full) >= skew_information(reduced, obs_a) - 1e-9


def test_product_state_reduction():
    rng = stream(21, 5)
    for _ in range(40):
        rho_a = ginibre_state(2, rng=rng)
        tau_b = ginibre_state(3, rng=rng)
        joint = DensityMatrix(kron(rho_a.matrix, tau_b.matrix))
        obs_a = random_observable(2, rng)
        full = Observable(kron(obs_a.matrix, np.eye(3)))
        assert abs(skew_information(joint, full) - skew_information(rho_a, obs_a)) < 1e-9


def test_channel_monotonicity_with_commuting_kraus():
    rng = stream(21, 6)
    for n_a, n_b in ((2, 2), (3, 2)):
        for _ in range(25):
            k = random_nondegenerate_observable(n_a, rng=rng)
            channel = commuting_kraus_channel(k, n_b, 2, rng)
            sigma = ginibre_state(n_a * n_b, rng=rng)
            out = apply_channel(channel, sigma)
            full = Observable(kron(k.matrix, np.eye(n_b)))
            assert skew_information(out, full) <= skew_information(sigma, full) + 1e-8


def test_q_total_maximally_mixed_vanishes():
    rho = DensityMatrix(np.eye(3) / 3)
    assert q_total(rho) == pytest.approx(0.0, abs=1e-12)


def test_q_total_pure_qubit_is_one():
    rng = stream(21, 7)
    rho = ginibre_state(2, rank=1, rng=rng)
    assert q_total(rho) == pytest.approx(1.0, abs=1e-9)


def test_q_total_diagonal_example():
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    assert q_total(rho) == pytest.approx(0.4, abs=1e-12)


def test_q_total_matches_closed_form():
    rng = stream(21, 8)
    for n in (2, 3, 4):
        for _ in range(25):
            rho = ginibre_state(n, rng=rng)
            assert q_total(rho) == pytest.approx(oracle_q_total(rho.matrix), abs=1e-8)


def test_q_total_basis_independent():
    # the closed form equals the defining sum over any rotated basis
    rng = stream(21, 9)
    for n in (2, 3):
        basis = gell_mann_basis(n)
        for _ in range(10):
            rotated = basis.rotated(haar_unitary(n, rng))
            rho = ginibre_state(n, rng=rng)
            assert abs(q_total(rho) - summed_q_total(rho.matrix, rotated)) < 1e-8


def test_q_local_product_state_reduces_to_q_total():
    rng = stream(21, 10)
    for _ in range(15):
        rho_a = ginibre_state(2, rng=rng)
        tau_b = ginibre_state(2, rng=rng)
        joint = BipartiteState(DensityMatrix(kron(rho_a.matrix, tau_b.matrix)), 2, 2)
        assert q_local(joint, "B") == pytest.approx(q_total(tau_b), abs=1e-9)


def test_q_local_bell_state():
    assert q_local(bell_pair(), "B") == pytest.approx(1.5, abs=1e-9)


def test_q_local_maximally_mixed_vanishes():
    rho = BipartiteState(DensityMatrix(np.eye(4) / 4), 2, 2)
    for side in ("A", "B"):
        assert q_local(rho, side) == pytest.approx(0.0, abs=1e-12)


def test_q_local_matches_closed_form():
    rng = stream(21, 11)
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        for _ in range(20):
            rho = ginibre_state(n_a * n_b, rng=rng)
            rho_ab = BipartiteState(rho, n_a, n_b)
            for side in ("A", "B"):
                assert q_local(rho_ab, side) == pytest.approx(
                    oracle_q_local(rho.matrix, (n_a, n_b), side), abs=1e-8
                )


def test_local_objective_matches_public_skew():
    # the optimizer's fast evaluator must agree with the public definition
    rng = stream(21, 12)
    for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
        rho_ab = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
        for side, n_s in (("A", n_a), ("B", n_b)):
            form = local_skew_forms(rho_ab.matrix, rho_ab.dims, side)
            for _ in range(10):
                k = random_nondegenerate_observable(n_s, rng=rng)
                embedded = (
                    kron(k.matrix, np.eye(n_b)) if side == "A" else kron(np.eye(n_a), k.matrix)
                )
                direct = skew_information(rho_ab.state, Observable(embedded))
                vec = k.matrix.ravel()
                assert (vec @ form @ vec).real == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("side", ["C", "a"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda rho, side: q_local(rho, side),
        lambda rho, side: local_skew_forms(rho.matrix, rho.dims, side),
        lambda rho, side: lqu(rho, default_spectrum(3), side=side),
        lambda rho, side: partial_trace(rho.matrix, rho.dims, side),
    ],
    ids=["q_local", "local_skew_forms", "lqu", "partial_trace"],
)
def test_unknown_side_is_rejected_before_any_root(entry, side, monkeypatch):
    # an unknown side must not be read as B, nor fail only after a full root
    def no_root(m):
        raise AssertionError("a root was taken")

    monkeypatch.setattr(metrics, "sqrtm_psd", no_root)
    rho = BipartiteState(ginibre_state(9, rng=stream(3, 0)), 3, 3)
    with pytest.raises(SkewInfoError, match="side must be 'A' or 'B'") as caught:
        entry(rho, side)
    assert isinstance(caught.value, ValueError)
