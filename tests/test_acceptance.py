"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
criterion lines as they complete. Sample counts, tolerances, and
runtime ceilings are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    Observable,
    OptimizerOptions,
    ginibre_state,
    haar_unitary,
    kron,
    lqu,
    q_local,
    q_total,
    random_nondegenerate_observable,
    skew_information,
    steered_q_sum,
    steered_skew_sum,
    steering_induced_skew,
    stream,
    variance,
    verify_avg_bound,
    verify_claim1,
    verify_claim2,
    write_report,
)
from skewinfo.steering import MeasurementBasis
from skewinfo.verify import _CHUNK_TRIALS

from conftest import (
    bell_pair,
    gell_mann_basis,
    oracle_q_local,
    oracle_q_total,
    searched_lqu,
    summed_q_local,
    summed_q_total,
)

PM_ONE = np.array([-1.0, 1.0])
DIM_CONFIGS = ((2, 2), (2, 3), (3, 2))


class Budget:
    """Tracks elapsed wall time against a criterion's runtime ceiling."""

    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _verdict(num: int, name: str, budget: Budget) -> None:
    elapsed = budget.elapsed()
    ok = elapsed < budget.limit
    status = "PASS" if ok else "FAIL (over runtime budget)"
    print(f"criterion {num} [{name}]: {status} ({elapsed:.1f}s of {budget.limit:.0f}s budget)")
    assert ok, f"criterion {num} exceeded its {budget.limit:.0f}s runtime budget"


def random_hermitian(n, rng, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T)


def bounded_probs(n, rng):
    # keep the spectrum away from 0 so sqrt stays well-conditioned
    return 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n


def product_state(n_a, n_b, rng):
    rho_a = ginibre_state(n_a, rng=rng)
    tau_b = ginibre_state(n_b, rng=rng)
    return BipartiteState(DensityMatrix(kron(rho_a.matrix, tau_b.matrix)), n_a, n_b)


def classical_quantum_state(n_a, n_b, rng):
    weights = bounded_probs(n_a, rng)
    blocks = np.zeros((n_a * n_b, n_a * n_b), dtype=complex)
    for k in range(n_a):
        proj = np.zeros((n_a, n_a))
        proj[k, k] = 1.0
        blocks += weights[k] * kron(proj, ginibre_state(n_b, rng=rng).matrix)
    return BipartiteState(DensityMatrix(blocks), n_a, n_b)


def test_criterion_1_definition_suite():
    budget = Budget(10.0)
    rng = stream(1001, 0)
    for n in (2, 3, 4):
        for _ in range(500):
            rho = ginibre_state(n, rng=rng)
            obs = Observable(random_hermitian(n, rng))
            i_val = skew_information(rho, obs)
            v_val = variance(rho, obs)
            assert 0.0 <= i_val <= v_val + 1e-9
        for _ in range(500):
            pure = ginibre_state(n, rank=1, rng=rng)
            obs = Observable(random_hermitian(n, rng))
            assert abs(skew_information(pure, obs) - variance(pure, obs)) <= 1e-8
        for _ in range(500):
            u = haar_unitary(n, rng)
            rho = DensityMatrix((u * bounded_probs(n, rng)) @ u.conj().T)
            x_diag = np.sort(rng.standard_normal(n))
            obs = Observable((u * x_diag) @ u.conj().T)
            assert abs(skew_information(rho, obs)) <= 1e-10
    _verdict(1, "definition suite", budget)


def test_criterion_2_convexity_and_monotonicity():
    budget = Budget(10.0)
    rng = stream(1002, 0)
    for trial in range(500):
        n = (2, 3)[trial % 2]
        parts = (2, 3)[(trial // 2) % 2]
        states = [ginibre_state(n, rng=rng) for _ in range(parts)]
        weights = rng.dirichlet(np.ones(parts))
        obs = Observable(random_hermitian(n, rng))
        mixture = DensityMatrix(sum(w * s.matrix for w, s in zip(weights, states)))
        lhs = skew_information(mixture, obs)
        rhs = sum(w * skew_information(s, obs) for w, s in zip(weights, states))
        assert lhs <= rhs + 1e-9
    for trial in range(500):
        n_a, n_b = DIM_CONFIGS[trial % 3]
        rho = ginibre_state(n_a * n_b, rng=rng)
        obs_a = Observable(random_hermitian(n_a, rng))
        joint = skew_information(rho, Observable(kron(obs_a.matrix, np.eye(n_b))))
        reduced = DensityMatrix(np.trace(rho.matrix.reshape(n_a, n_b, n_a, n_b), axis1=1, axis2=3))
        assert joint >= skew_information(reduced, obs_a) - 1e-9
    _verdict(2, "convexity and partial-trace monotonicity", budget)


def test_criterion_3_oracle_equivalence():
    budget = Budget(20.0)
    rng = stream(1003, 0)
    # the package's closed forms against scipy's closed forms and against
    # the defining sums over Gell-Mann and Haar-rotated bases
    for n in (2, 3, 4):
        basis = gell_mann_basis(n)
        for _ in range(200):
            rho = ginibre_state(n, rng=rng)
            value = q_total(rho)
            assert abs(value - oracle_q_total(rho.matrix)) <= 1e-8
            assert abs(value - summed_q_total(rho.matrix, basis)) <= 1e-8
    for n_a, n_b in DIM_CONFIGS:
        bases = {"A": gell_mann_basis(n_a), "B": gell_mann_basis(n_b)}
        for _ in range(200):
            rho = ginibre_state(n_a * n_b, rng=rng)
            rho_ab = BipartiteState(rho, n_a, n_b)
            for side, basis in bases.items():
                value = q_local(rho_ab, side)
                assert abs(value - oracle_q_local(rho.matrix, (n_a, n_b), side)) <= 1e-8
                assert abs(value - summed_q_local(rho.matrix, (n_a, n_b), side, basis)) <= 1e-8
    for n in (2, 3):
        basis = gell_mann_basis(n)
        for _ in range(50):
            rotated = basis.rotated(haar_unitary(n, rng))
            rho = ginibre_state(n, rng=rng)
            assert abs(q_total(rho) - summed_q_total(rho.matrix, rotated)) <= 1e-8
    _verdict(3, "closed-form and basis-independence oracles", budget)


def test_criterion_4_lqu_cross_oracle():
    # the gradient search (what lqu runs on larger sides) against the
    # closed form that lqu takes on a qubit side
    budget = Budget(300.0)
    rng = stream(1004, 0)
    opts = OptimizerOptions(restarts=8)
    for n_b in (2, 3):
        for _ in range(100):
            state = BipartiteState(ginibre_state(2 * n_b, rng=rng), 2, n_b)
            numeric = searched_lqu(state, PM_ONE, "A", opts, rng)
            assert abs(numeric - lqu(state, PM_ONE, "A").value) <= 1e-6
    for idx in range(50):
        n_b = (2, 3)[idx % 2]
        state = product_state(2, n_b, rng)
        assert searched_lqu(state, PM_ONE, "A", opts, rng) <= 1e-7
    for idx in range(50):
        n_b = (2, 3)[idx % 2]
        state = classical_quantum_state(2, n_b, rng)
        assert searched_lqu(state, PM_ONE, "A", opts, rng) <= 1e-7
    bell_value = searched_lqu(bell_pair(), PM_ONE, "A", opts, rng)
    assert abs(bell_value - 1.0) <= 1e-6
    # side B with a spectrum other than {-1, +1}
    spectrum = np.array([0.3, 2.0])
    for n_a in (2, 3):
        for _ in range(50):
            state = BipartiteState(ginibre_state(2 * n_a, rng=rng), n_a, 2)
            numeric = searched_lqu(state, spectrum, "B", opts, rng)
            assert abs(numeric - lqu(state, spectrum, "B").value) <= 1e-6
    _verdict(4, "lqu search vs qubit-side closed form", budget)


def test_criterion_5_claim1_harness():
    budget = Budget(900.0)
    for n_a, n_b in DIM_CONFIGS:
        for kraus_count in (1, 2, 3):
            report, _ = verify_claim1(
                n_a=n_a,
                n_b=n_b,
                trials=1000,
                kraus_count=kraus_count,
                tol=1e-7,
                master_seed=5000 + 10 * n_a + n_b + kraus_count,
            )
            assert report.violations == 0, (n_a, n_b, kraus_count)
            assert report.monotonicity_violations == 0, (n_a, n_b, kraus_count)
            assert report.failed == 0, (n_a, n_b, kraus_count)
    _verdict(5, "claim-1 harness, 9000 trials", budget)


def test_criterion_6_claim2_core_lemma():
    budget = Budget(300.0)
    for n_a, n_b in DIM_CONFIGS:
        for t in range(1000):
            rng = stream(6000 + 10 * n_a + n_b, t)
            rho_ab = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
            theta = MeasurementBasis(haar_unitary(n_a, rng))
            k_b = random_nondegenerate_observable(n_b, rng=rng)
            lhs = steered_skew_sum(rho_ab, theta, k_b)
            rhs = skew_information(rho_ab.state, Observable(kron(np.eye(n_a), k_b.matrix)))
            assert lhs <= rhs + 1e-7, (n_a, n_b, t)
    _verdict(6, "claim-2 per-basis core lemma, optimization-free", budget)


def test_criterion_7_claim2_optimized_harness():
    budget = Budget(1200.0)
    for mode in ("argmin_K", "random_K"):
        report, _ = verify_claim2(trials=500, tol=1e-7, master_seed=7000, mode=mode)
        assert report.violations == 0, mode
        assert report.failed == 0, mode

    spot = OptimizerOptions(restarts=8)
    bell = bell_pair()
    opt = lqu(bell, PM_ONE, "B", opts=spot, rng=stream(7001, 0))
    lhs = steering_induced_skew(bell, opt.minimizer, opts=spot, rng=stream(7001, 1)).value
    assert abs(opt.value - lhs) <= 1e-6  # Bell saturates in argmin mode
    k_rand = random_nondegenerate_observable(2, rng=stream(7001, 2))
    rhs = skew_information(bell.state, Observable(kron(np.eye(2), k_rand.matrix)))
    lhs = steering_induced_skew(bell, k_rand, opts=spot, rng=stream(7001, 3)).value
    assert abs(rhs - lhs) <= 1e-6  # and in random-observable mode

    rng = stream(7002, 0)
    prod = product_state(2, 2, rng)
    opt = lqu(prod, PM_ONE, "B", opts=spot, rng=rng)
    lhs = steering_induced_skew(prod, opt.minimizer, opts=spot, rng=rng).value
    assert abs(opt.value - lhs) <= 1e-6  # product states saturate
    k_rand = random_nondegenerate_observable(2, rng=rng)
    rhs = skew_information(prod.state, Observable(kron(np.eye(2), k_rand.matrix)))
    lhs = steering_induced_skew(prod, k_rand, opts=spot, rng=rng).value
    assert abs(rhs - lhs) <= 1e-6
    _verdict(7, "claim-2 optimized harness and saturation", budget)


def test_criterion_8_averaged_bound():
    budget = Budget(300.0)
    report, _ = verify_avg_bound(trials=500, bases_per_trial=20, tol=1e-7, master_seed=8000)
    assert report.violations == 0
    assert report.failed == 0

    bell = bell_pair()
    rhs = q_local(bell, "B")
    rng = stream(8001, 0)
    lhs = max(steered_q_sum(bell, MeasurementBasis(haar_unitary(2, rng))) for _ in range(20))
    assert abs(lhs - 1.0) <= 1e-6
    assert abs(rhs - 1.5) <= 1e-6
    _verdict(8, "averaged bound and Bell spot values", budget)


def test_criterion_9_worker_determinism(tmp_path):
    budget = Budget(300.0)

    def render(report, records, stem, fmt):
        path = str(tmp_path / stem)
        write_report(report, records, path, fmt)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path + ".summary", "rb") as fh:
            blob += fh.read()
        return blob

    # claim1 at 3x2 and claim2 in argmin_K mode run stacked searches; 150
    # trials are more than one chunk, so one worker runs them in-process
    # and 2 or 4 workers in the pool
    trials = 150
    assert trials > _CHUNK_TRIALS
    runs = {
        "claim1": lambda w: verify_claim1(trials=trials, master_seed=90, workers=w),
        "claim1_3x2": lambda w: verify_claim1(n_a=3, n_b=2, trials=trials, master_seed=93, workers=w),
        "claim2": lambda w: verify_claim2(trials=trials, master_seed=91, workers=w),
        "claim2_argmin": lambda w: verify_claim2(trials=trials, master_seed=94, mode="argmin_K", workers=w),
        "avg": lambda w: verify_avg_bound(trials=trials, master_seed=92, workers=w),
    }
    for name, runner in runs.items():
        outs = {w: runner(w) for w in (1, 2, 4)}
        for fmt, suffix in (("json-lines", "jsonl"), ("csv", "csv")):
            solo = render(*outs[1], f"{name}-w1.{suffix}", fmt)
            for w in (2, 4):
                assert render(*outs[w], f"{name}-w{w}.{suffix}", fmt) == solo, (name, fmt, w)
    _verdict(9, "byte-identical reports across worker counts", budget)
