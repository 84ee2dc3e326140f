"""Harness behavior: records, reports, determinism, failure handling."""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    OptimizerOptions,
    TrialRecord,
    UsageError,
    VerificationReport,
    commuting_kraus_channel,
    ginibre_state,
    kron,
    lqu,
    random_nondegenerate_observable,
    read_records,
    skew_information,
    stream,
    summary_text,
    variance,
    verify_avg_bound,
    verify_claim1,
    verify_claim2,
    write_report,
)
import skewinfo
from skewinfo import optim, verify
from skewinfo.verify import HARNESS_OPTS, _claim1_body, _run_chunk, worker_count

QUICK = OptimizerOptions(restarts=2, max_iters=200)


def test_claim1_small_run_no_violations():
    report, records = verify_claim1(trials=20, master_seed=3, opts=QUICK, workers=1)
    assert report.trials == 20
    assert report.violations == 0
    assert report.failed == 0
    assert report.monotonicity_violations == 0
    assert report.min_margin > -1e-7
    assert all(r.claim_id == "claim1" for r in records)
    assert [r.trial_index for r in records] == list(range(20))


def test_claim1_trivial_ancilla():
    # n_B = 1: the bound reduces to single-system monotonicity
    report, _ = verify_claim1(n_a=2, n_b=1, trials=10, master_seed=3, opts=QUICK, workers=1)
    assert report.violations == 0
    assert report.monotonicity_violations == 0


def test_claim1_identity_channel_pure_input_margin():
    # Kraus {I} commutes with everything; a pure input makes the bound the variance
    rng = stream(17, 0)
    rho_a = ginibre_state(2, rank=1, rng=rng)
    tau_b = ginibre_state(2, rng=rng)
    k_a = random_nondegenerate_observable(2, rng=rng)
    sigma = BipartiteState(DensityMatrix(kron(rho_a.matrix, tau_b.matrix)), 2, 2)
    lhs = lqu(sigma, k_a.spectrum, "A", opts=QUICK, seeds=(k_a,), rng=rng).value
    rhs = skew_information(rho_a, k_a)
    assert rhs == pytest.approx(variance(rho_a, k_a), abs=1e-8)
    assert rhs - lhs >= -1e-9


def test_claim2_both_modes_no_violations():
    for mode in ("random_K", "argmin_K"):
        report, records = verify_claim2(trials=12, master_seed=5, opts=QUICK, mode=mode, workers=1)
        assert report.violations == 0, mode
        assert report.failed == 0
        assert report.config["mode"] == mode
        assert all(not math.isnan(r.margin) for r in records)


def test_avg_bound_no_violations():
    report, records = verify_avg_bound(trials=15, bases_per_trial=10, master_seed=7, workers=1)
    assert report.violations == 0
    assert report.min_margin >= 0.0
    assert len(records) == 15


def test_violated_flag_matches_margin_definition():
    report, records = verify_avg_bound(trials=8, bases_per_trial=5, master_seed=9, workers=1)
    for r in records:
        assert r.violated == (r.margin < -1e-7)
        assert r.margin == r.rhs - r.lhs


def test_failed_trial_becomes_diagnostic_record():
    # a channel with no Kraus operators (the harnesses reject kraus_count=0
    # before any trial runs) fails its completeness check in every trial
    job = ("claim1", _claim1_body, (2, 2, 0, HARNESS_OPTS), (2, 2), 1e-7, False, 3, (0, 1, 2))
    results = _run_chunk(job)
    assert [record.trial_index for record, _, _ in results] == [0, 1, 2]
    for record, mono_ok, err in results:
        assert err == "InvalidChannel: completeness residual 1.000e+00 exceeds 1.0e-08"
        assert record.seed_tuple == (3, record.trial_index) and record.claim_id == "claim1"
        assert math.isnan(record.lhs) and math.isnan(record.rhs)
        assert not record.violated
        assert mono_ok


# The tests that patch a module function run in-process, with one worker:
# the warm pool's workers are forked once, when the pool starts, so a patch
# applied after that never reaches them. No test relies on a pool that an
# earlier test started.


def test_failed_stacked_search_fails_only_its_trial(monkeypatch):
    # one trial of a six-trial chunk hands the stacked steering search an
    # indefinite joint state, so the search raises NotPSD for the whole
    # chunk; run again in halves, and in halves of the half that raises,
    # only that trial fails
    clean_report, clean = verify_claim2(trials=6, master_seed=21, mode="argmin_K", workers=1)
    # the joint state tensor of trial 3, the first draw of its stream
    trial_3 = ginibre_state(4, rng=stream(21, 3)).matrix.reshape(2, 2, 2, 2)
    indefinite = np.diag([0.7, -0.1, 0.5, -0.1]).astype(complex).reshape(2, 2, 2, 2)
    real = optim.search
    sizes = []

    def faulty(cost, data, bases, opts, floor=None):
        sizes.append(len(bases))
        r4 = data[0].copy()
        r4[[np.array_equal(member, trial_3) for member in r4]] = indefinite
        return real(cost, (r4, *data[1:]), bases, opts, floor)

    monkeypatch.setattr(optim, "search", faulty)
    report, records = verify_claim2(trials=6, master_seed=21, mode="argmin_K", workers=1)
    # the chunk, its halves, then the halves of the half holding trial 3
    assert sizes == [6, 3, 3, 1, 2]
    assert report.failed == 1 and report.violations == 0
    ((index, message),) = report.failures
    assert index == 3 and message.startswith("NotPSD: minimum eigenvalue")
    assert math.isnan(records[3].lhs) and math.isnan(records[3].rhs) and not records[3].violated
    assert records[:3] + records[4:] == clean[:3] + clean[4:]
    assert clean_report.failed == 0


def test_indefinite_sampled_state_fails_only_its_trial(monkeypatch):
    # the chunk's stacked state check sees one indefinite input state on A,
    # trial 2's; run again in halves, only that trial fails, with
    # the message it gets in a chunk of its own
    params = (3, 2, 2, HARNESS_OPTS)
    job = ("claim1", _claim1_body, params, (3, 2), 1e-7, False, 8)
    clean = _run_chunk((*job, tuple(range(6))))
    trial_2 = stream(8, 2).standard_normal((2, 3, 3))  # the first draw of trial 2
    real = verify.ginibre_from_gaussians

    def one_indefinite(g):
        states = real(g)
        for k in np.flatnonzero([np.array_equal(member, trial_2) for member in g]):
            states[k] = np.diag([0.6, 0.5, -0.1]).astype(complex)
        return states

    monkeypatch.setattr(verify, "ginibre_from_gaussians", one_indefinite)
    results = _run_chunk((*job, tuple(range(6))))
    ((_, _, alone_error),) = _run_chunk((*job, (2,)))
    assert [r[2] for r in results] == [None, None, alone_error, None, None, None]
    assert alone_error == "InvalidState: invalid state: positive semidefiniteness violated (residual 1.000e-01)"
    failed, mono_ok, _ = results[2]
    assert math.isnan(failed.lhs) and math.isnan(failed.rhs) and not failed.violated and mono_ok
    assert [r[:2] for r in results[:2] + results[3:]] == [r[:2] for r in clean[:2] + clean[3:]]


@pytest.mark.parametrize("bad, calls", [((77,), 15), ((5, 100), 27)])
def test_failing_chunk_reruns_only_the_halves_that_raise(bad, calls, monkeypatch):
    # a full chunk whose input states on A are indefinite for the trials
    # ``bad``: the chunk, both halves of it, and then both halves of every
    # part that raises run, 1 + 2 log2(_CHUNK_TRIALS) stacks for one bad
    # trial, where running each trial alone took 1 + _CHUNK_TRIALS
    trials = verify._CHUNK_TRIALS
    _, clean = verify_claim1(trials=trials, master_seed=8, workers=1)
    firsts = [stream(8, t).standard_normal((2, 2, 2)) for t in bad]  # each bad trial's first draw
    real_states, real_body = verify.ginibre_from_gaussians, verify._claim1_body
    sizes = []

    def indefinite_bad(g):
        states = real_states(g)
        for k in np.flatnonzero([any(np.array_equal(member, f) for f in firsts) for member in g]):
            states[k] = np.diag([1.1, -0.1]).astype(complex)
        return states

    def counted_body(params, master_seed, indices):
        sizes.append(len(indices))
        return real_body(params, master_seed, indices)

    monkeypatch.setattr(verify, "ginibre_from_gaussians", indefinite_bad)
    monkeypatch.setattr(verify, "_claim1_body", counted_body)
    report, records = verify_claim1(trials=trials, master_seed=8, workers=1)
    job = ("claim1", real_body, (2, 2, 2, HARNESS_OPTS), (2, 2), 1e-7, False, 8, bad[:1])
    ((_, _, alone_error),) = _run_chunk(job)
    assert len(sizes) == calls
    assert report.failures == [(t, alone_error) for t in bad]
    assert alone_error.startswith("InvalidState: ")
    assert [r for r in records if r.trial_index not in bad] == [r for r in clean if r.trial_index not in bad]


def test_chunk_draws_what_the_public_samplers_draw():
    # per trial, claim1's stacked sampling equals the public samplers run
    # one after another on the trial's own stream, bit for bit
    params = (3, 2, 3, HARNESS_OPTS)
    indices = (0, 4, 7)
    draws = verify._claim1_sample(params, 5, indices)
    for k, t in enumerate(indices):
        rng = stream(5, t)
        rho_a, tau_b = ginibre_state(3, rng=rng), ginibre_state(2, rng=rng)
        k_a = random_nondegenerate_observable(3, rng=rng)
        channel = commuting_kraus_channel(k_a, 2, 3, rng)
        restarts = optim.restart_bases(3, HARNESS_OPTS, [k_a.eigenbasis], rng)
        np.testing.assert_array_equal(draws.rho_a[k], rho_a.matrix)
        np.testing.assert_array_equal(draws.tau_b[k], tau_b.matrix)
        np.testing.assert_array_equal(draws.k_basis[k], k_a.eigenbasis)
        np.testing.assert_array_equal(draws.kraus_ops[k], np.stack(channel.kraus_ops))
        np.testing.assert_array_equal(draws.restart_bases[k], restarts)


@pytest.mark.parametrize("master_seed", [-3, 2**64 + 5])
def test_gaussians_rows_are_the_trials_own_streams(master_seed):
    # one re-keyed Philox per call draws, per trial, bit for bit what a fresh
    # stream of the trial draws; both reduce the seeds mod 2^64
    shapes = [(2, 3, 3), (4, 2, 2, 2)]
    indices = (0, 3, 2**64 + 1, 9)
    blocks = verify._gaussians(master_seed, indices, shapes)
    flat = np.concatenate([b.reshape(len(indices), -1) for b in blocks], axis=1)
    for row, t in zip(flat, indices):
        np.testing.assert_array_equal(row, stream(master_seed, t).standard_normal(flat.shape[1]))


def test_gaussians_calls_from_two_threads_draw_their_own_values():
    # each call re-keys a Philox of its own, so calls interleaved from two
    # threads draw what they draw alone; a short switch interval makes the
    # threads trade places within calls
    shapes = [(2, 9, 9), (20, 2, 3, 3)]
    indices = tuple(range(64))
    alone = {seed: verify._gaussians(seed, indices, shapes) for seed in (11, 12)}
    barrier = threading.Barrier(2)
    mismatches = []

    def draw(seed):
        barrier.wait()
        for _ in range(20):
            got = verify._gaussians(seed, indices, shapes)
            mismatches.extend(not np.array_equal(a, b) for a, b in zip(got, alone[seed]))

    threads = [threading.Thread(target=draw, args=(seed,)) for seed in alone]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(mismatches) == 2 * 20 * len(shapes) and not any(mismatches)


def test_workers_below_one_are_rejected():
    for bad in (0, -3):
        with pytest.raises(UsageError):
            verify_avg_bound(trials=2, workers=bad)


@pytest.mark.parametrize(
    "harness, kwargs",
    [
        (verify_claim2, {"mode": "bogus"}),
        (verify_avg_bound, {"trials": -3}),
        (verify_avg_bound, {"trials": 0}),
        (verify_claim1, {"kraus_count": 0}),
        (verify_avg_bound, {"bases_per_trial": 0}),
        (verify_claim2, {"n_a": 0}),
        (verify_claim1, {"n_b": 0}),
        (verify_claim1, {"tol": -1.0}),
    ],
)
def test_bad_configuration_is_rejected_before_any_trial(harness, kwargs, monkeypatch):
    # a bad mode would run as random_K, a negative count as an empty report,
    # a zero count as a report of failed trials, and a negative tol would
    # count bounds that hold as violated (in-process: see the note on
    # patched tests above)
    def no_trials(job):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(verify, "_run_chunk", no_trials)
    with pytest.raises(UsageError):
        harness(**{"trials": 2, "workers": 1, **kwargs})


def test_non_finite_violation_tol_is_rejected():
    # margin < -nan is never true, so a NaN tolerance would report no violation
    for bad in (math.nan, math.inf):
        with pytest.raises(UsageError, match="tol must be finite"):
            verify_avg_bound(trials=2, tol=bad)


def test_avg_rejects_a_non_unitary_basis_in_the_stack(monkeypatch):
    # the stacked harness still checks every basis it measures in
    # (in-process: see the note on patched tests above)
    real = verify.haar_from_gaussians

    def one_bad_member(g):
        bases = real(g)
        bases[..., g.shape[-4] // 2, :, :] *= 1.001
        return bases

    monkeypatch.setattr(verify, "haar_from_gaussians", one_bad_member)
    report, records = verify_avg_bound(trials=3, bases_per_trial=6, master_seed=4, workers=1)
    assert report.failed == 3 and report.violations == 0
    assert all(math.isnan(r.lhs) for r in records)
    assert all(msg.startswith("InvalidState: ") and "orthonormal columns" in msg for _, msg in report.failures)


def render(report, records, path):
    """The bytes of a written report: the records, then the summary."""
    write_report(report, records, path, "json-lines")
    with open(path, "rb") as fh:
        body = fh.read()
    with open(path + ".summary", "rb") as fh:
        return body + fh.read()


def test_workers_do_not_change_reports(tmp_path):
    # claim1 at 3x2 and claim2 in argmin_K mode run stacked searches; 150
    # trials run in-process in chunks of 128 and 22 with one worker, and in
    # a pool in chunks of 75 or 38 with two or four
    runs = {
        "claim1": lambda w: verify_claim1(n_a=3, n_b=2, trials=150, master_seed=13, opts=QUICK, workers=w),
        "claim2": lambda w: verify_claim2(trials=150, master_seed=13, opts=QUICK, mode="argmin_K", workers=w),
        "random": lambda w: verify_claim2(trials=150, master_seed=13, opts=QUICK, workers=w),
    }
    for name, run in runs.items():
        blobs = {render(*run(w), str(tmp_path / f"{name}-w{w}.jsonl")) for w in (1, 2, 4)}
        assert len(blobs) == 1, name


def pooled_avg(workers):
    # 150 trials are more than one chunk, so more than one worker runs
    # them on the warm pool
    return verify_avg_bound(n_a=3, n_b=3, trials=150, master_seed=19, workers=workers)


def test_warm_pool_is_reused_and_replaced_without_changing_reports(tmp_path):
    # one process runs pooled calls with 2, 2, 4 and 2 workers: the second
    # call reuses the first one's pool, a new count replaces it, and every
    # report is byte-identical to the in-process one
    verify._drop_pool()
    solo = render(*pooled_avg(1), str(tmp_path / "w1.jsonl"))
    assert not verify._POOL
    pools = []
    for k, w in enumerate((2, 2, 4, 2)):
        assert render(*pooled_avg(w), str(tmp_path / f"w{w}-{k}.jsonl")) == solo, (k, w)
        assert list(verify._POOL) == [w]
        pools.append(verify._POOL[w])
    assert pools[1] is pools[0]
    assert pools[2] is not pools[1] and pools[3] is not pools[0]
    verify._drop_pool()


def test_pool_whose_worker_died_is_replaced(tmp_path):
    verify._drop_pool()
    solo = render(*pooled_avg(1), str(tmp_path / "w1.jsonl"))
    pooled_avg(2)
    pool = verify._POOL[2]
    os.kill(pool.submit(os.getpid).result(), signal.SIGKILL)
    # wait until the pool has seen the death and refuses work
    deadline = time.monotonic() + 60.0
    while True:
        assert time.monotonic() < deadline, "the pool did not notice its dead worker"
        try:
            pool.submit(int).result(timeout=10.0)
        except BrokenProcessPool:
            break
    assert render(*pooled_avg(2), str(tmp_path / "w2.jsonl")) == solo
    assert verify._POOL[2] is not pool
    verify._drop_pool()


def test_pooled_calls_from_threads_take_turns_on_the_pool(tmp_path):
    # threads asking for different worker counts (more than the CPUs) at
    # once: none shuts down the pool another is running on
    verify._drop_pool()
    solo = render(*pooled_avg(1), str(tmp_path / "w1.jsonl"))
    outs = {}

    def run(k, w):
        outs[k] = render(*pooled_avg(w), str(tmp_path / f"t{k}.jsonl"))

    threads = [threading.Thread(target=run, args=(k, w)) for k, w in enumerate((2, 3, 2, 3))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)
    assert outs == {k: solo for k in range(4)}
    verify._drop_pool()


def test_warm_pool_does_not_outlive_the_interpreter():
    # the workers stop at exit through the atexit hook of concurrent.futures:
    # a worker left running would keep the interpreter from exiting. The
    # pool's modules load with the first pooled call, not with the package
    code = (
        "import sys, skewinfo; assert 'multiprocessing' not in sys.modules; "
        "skewinfo.verify_avg_bound(n_a=3, n_b=3, trials=300, workers=2)"
    )
    src = str(Path(skewinfo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_records_do_not_depend_on_the_other_trials_of_their_chunk(tmp_path):
    # trials 0-4 run in a chunk of 5, then in the first (full) chunk of a
    # call longer than one chunk; claim1 at 2x2 takes the closed-form LQU
    # on a stack, and claim2 at 2x3 stacks an LQU search and then a
    # steering search
    long_trials = verify._CHUNK_TRIALS + 3
    runs = {
        "claim1": lambda n: verify_claim1(n_a=3, n_b=2, kraus_count=3, trials=n, master_seed=17, workers=1),
        "claim1_2x2": lambda n: verify_claim1(trials=n, master_seed=17, workers=1),
        "claim2": lambda n: verify_claim2(trials=n, master_seed=17, mode="argmin_K", workers=1),
        "claim2_random": lambda n: verify_claim2(trials=n, master_seed=17, workers=1),
        "claim2_2x3": lambda n: verify_claim2(n_b=3, trials=n, master_seed=17, mode="argmin_K", workers=1),
        "avg": lambda n: verify_avg_bound(n_a=3, n_b=3, trials=n, master_seed=17, workers=1),
    }
    for name, run in runs.items():
        short = render(*run(5), str(tmp_path / f"{name}-5.jsonl"))
        long = render(*run(long_trials), str(tmp_path / f"{name}-long.jsonl"))
        records = short.split(b"\n")[:5]
        assert records == long.split(b"\n")[:5], name


def test_search_counters_do_not_depend_on_the_other_trials_of_their_chunk(monkeypatch):
    # the cost evaluations and accepted steps a trial's search counts are
    # the same in a chunk of 5 as in the first chunk of a 37-trial call;
    # a search is known by its restart bases, drawn from its trial's stream.
    # Both calls run in-process, where the patch reaches the search
    counted = []
    search = optim.search

    def counting_search(cost, data, bases, opts, floor=None):
        found = search(cost, data, bases, opts, floor)
        counted[-1].update((b.tobytes(), work) for b, work in zip(bases, zip(found.evals, found.steps)))
        return found

    monkeypatch.setattr(optim, "search", counting_search)
    runs = {
        "claim1": lambda n: verify_claim1(n_a=3, n_b=2, kraus_count=3, trials=n, master_seed=17, workers=1),
        "claim2_2x3": lambda n: verify_claim2(n_b=3, trials=n, master_seed=17, mode="argmin_K", workers=1),
    }
    for name, run in runs.items():
        for n in (5, 37):
            counted.append({})
            run(n)
        short, long = counted[-2:]
        assert short and all(long[key] == work for key, work in short.items()), name


def test_uq_threads_env_caps_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("UQ_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("UQ_THREADS", "3")
    assert worker_count() == 3
    for bad in ("abc", "0", "-2", ""):
        monkeypatch.setenv("UQ_THREADS", bad)
        with pytest.raises(UsageError):
            worker_count()
        with pytest.raises(UsageError):
            verify_avg_bound(trials=1)
    monkeypatch.delenv("UQ_THREADS")
    assert worker_count() == len(os.sched_getaffinity(0))


def test_write_report_jsonl_roundtrip(tmp_path):
    report, records = verify_avg_bound(trials=3, bases_per_trial=4, master_seed=2, workers=1)
    path = str(tmp_path / "records.jsonl")
    write_report(report, records, path, "json-lines")
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    assert len(lines) == 3
    assert read_records(path, "json-lines") == records
    assert os.path.exists(path + ".summary")


def test_write_report_csv_roundtrip(tmp_path):
    report, records = verify_avg_bound(trials=3, bases_per_trial=4, master_seed=2, workers=1)
    path = str(tmp_path / "records.csv")
    write_report(report, records, path, "csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("trial_index,seed_tuple,dims,claim_id,lhs,rhs,margin,")
    assert len(lines) == 4  # header + 3 rows
    assert read_records(path, "csv") == records


def test_write_report_empty_records(tmp_path):
    report = VerificationReport(
        claim_id="avg", trials=0, violations=0, failed=0, min_margin=math.nan, config={}
    )
    csv_path = str(tmp_path / "empty.csv")
    write_report(report, [], csv_path, "csv")
    with open(csv_path) as fh:
        assert fh.read().splitlines() == [
            "trial_index,seed_tuple,dims,claim_id,lhs,rhs,margin,violated,wall_time_ms"
        ]
    jl_path = str(tmp_path / "empty.jsonl")
    write_report(report, [], jl_path, "json-lines")
    with open(jl_path) as fh:
        assert fh.read() == ""
    assert os.path.exists(jl_path + ".summary")


def test_float_serialization_is_exact(tmp_path):
    record = TrialRecord(
        trial_index=0,
        seed_tuple=(1, 0),
        dims=(2, 2),
        claim_id="claim1",
        lhs=1.0 / 3.0,
        rhs=np.nextafter(0.1, 1.0),
        margin=np.nextafter(0.1, 1.0) - 1.0 / 3.0,
        violated=True,
        wall_time_ms=0.0,
    )
    report = VerificationReport(
        claim_id="claim1", trials=1, violations=1, failed=0, min_margin=record.margin, config={}
    )
    for fmt, name in (("json-lines", "x.jsonl"), ("csv", "x.csv")):
        path = str(tmp_path / name)
        write_report(report, [record], path, fmt)
        assert read_records(path, fmt) == [record]


def test_summary_contains_config_echo():
    report, _ = verify_claim1(trials=2, master_seed=6, opts=QUICK, workers=1)
    text = summary_text(report)
    assert "claim_id=claim1" in text
    assert "config.master_seed=6" in text
    assert "config.opt_restarts=2" in text
    assert "monotonicity_violations=0" in text
    assert text.endswith("failures=\n")


def test_wall_time_zero_by_default_measured_on_request():
    _, records = verify_avg_bound(trials=3, bases_per_trial=2, master_seed=1, workers=1)
    assert all(r.wall_time_ms == 0.0 for r in records)
    _, timed = verify_avg_bound(
        trials=3, bases_per_trial=2, master_seed=1, workers=1, collect_timing=True
    )
    assert all(t.wall_time_ms > 0.0 for t in timed)
    # trials whose searches run stacked share the search time and keep their own
    start = time.perf_counter()
    _, stacked = verify_claim2(trials=6, master_seed=1, mode="argmin_K", workers=1, collect_timing=True)
    call_ms = (time.perf_counter() - start) * 1e3
    assert all(t.wall_time_ms > 0.0 for t in stacked)
    assert sum(t.wall_time_ms for t in stacked) <= call_ms
