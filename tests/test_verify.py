"""Harness behavior: records, reports, determinism, failure handling."""

import math
import os
import time

import numpy as np
import pytest

from skewinfo import (
    BipartiteState,
    DensityMatrix,
    OptimizerOptions,
    TrialRecord,
    UsageError,
    VerificationReport,
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
    job = ("claim1", _claim1_body, (2, 2, 0, HARNESS_OPTS), (2, 2), 1e-7, False, 3, (0, 1, 2))
    results = _run_chunk(job)
    assert [record.trial_index for record, _, _ in results] == [0, 1, 2]
    for record, mono_ok, err in results:
        assert err is not None and "kraus_count" in err
        assert record.seed_tuple == (3, record.trial_index) and record.claim_id == "claim1"
        assert math.isnan(record.lhs) and math.isnan(record.rhs)
        assert not record.violated
        assert mono_ok


def test_failed_stacked_search_fails_only_its_trial(monkeypatch):
    # one trial of a six-trial chunk hands the stacked steering search an
    # indefinite joint state, so the search raises NotPSD for the whole
    # chunk; rerun one at a time, only that trial fails
    clean_report, clean = verify_claim2(trials=6, master_seed=21, mode="argmin_K", workers=1)
    real = verify._steering_induced_skew_steps
    indefinite = np.diag([0.7, -0.1, 0.5, -0.1]).astype(complex).reshape(2, 2, 2, 2)

    def faulty(rho_ab, k_b, opts, rng):
        steps = real(rho_ab, k_b, opts, rng)
        if rng.bit_generator.state["state"]["key"][1] != 3:  # the stream of trial 3
            return (yield from steps)
        problem = next(steps)
        return steps.send((yield problem._replace(data=(indefinite, problem.data[1]))))

    monkeypatch.setattr(verify, "_steering_induced_skew_steps", faulty)
    report, records = verify_claim2(trials=6, master_seed=21, mode="argmin_K", workers=1)
    assert report.failed == 1 and report.violations == 0
    ((index, message),) = report.failures
    assert index == 3 and message.startswith("NotPSD: minimum eigenvalue")
    assert math.isnan(records[3].lhs) and math.isnan(records[3].rhs) and not records[3].violated
    assert records[:3] + records[4:] == clean[:3] + clean[4:]
    assert clean_report.failed == 0


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
    # count bounds that hold as violated
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
    real = verify.haar_unitaries

    def one_bad_member(n, count, rng):
        bases = real(n, count, rng)
        bases[count // 2] *= 1.001
        return bases

    monkeypatch.setattr(verify, "haar_unitaries", one_bad_member)
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
    # claim1 at 3x2 and claim2 in argmin_K mode run stacked searches; 40
    # trials run in-process in chunks of 32 and 8 with one worker, and in
    # a pool in chunks of 20 or 10 with two or four
    runs = {
        "claim1": lambda w: verify_claim1(n_a=3, n_b=2, trials=40, master_seed=13, opts=QUICK, workers=w),
        "claim2": lambda w: verify_claim2(trials=40, master_seed=13, opts=QUICK, mode="argmin_K", workers=w),
        "random": lambda w: verify_claim2(trials=40, master_seed=13, opts=QUICK, workers=w),
    }
    for name, run in runs.items():
        blobs = {render(*run(w), str(tmp_path / f"{name}-w{w}.jsonl")) for w in (1, 2, 4)}
        assert len(blobs) == 1, name


def test_records_do_not_depend_on_the_other_trials_of_their_chunk(tmp_path):
    # trials 0-4 run in a chunk of 5, then in the first chunk of a 37-trial
    # call; claim2 at 2x3 stacks an LQU search and then a steering search
    runs = {
        "claim1": lambda n: verify_claim1(n_a=3, n_b=2, kraus_count=3, trials=n, master_seed=17, workers=1),
        "claim2": lambda n: verify_claim2(trials=n, master_seed=17, mode="argmin_K", workers=1),
        "claim2_2x3": lambda n: verify_claim2(n_b=3, trials=n, master_seed=17, mode="argmin_K", workers=1),
        "avg": lambda n: verify_avg_bound(n_a=3, n_b=3, trials=n, master_seed=17, workers=1),
    }
    for name, run in runs.items():
        short = render(*run(5), str(tmp_path / f"{name}-5.jsonl"))
        long = render(*run(37), str(tmp_path / f"{name}-37.jsonl"))
        records = short.split(b"\n")[:5]
        assert records == long.split(b"\n")[:5], name


def test_search_counters_do_not_depend_on_the_other_trials_of_their_chunk(monkeypatch):
    # the cost evaluations and accepted steps a trial's search counts are
    # the same in a chunk of 5 as in the first chunk of a 37-trial call;
    # a search is known by its restart bases, drawn from its trial's stream
    counted = []
    search = optim.search

    def counting_search(problems):
        results = search(problems)
        counted[-1].update((p.bases.tobytes(), (r.evals, r.steps)) for p, r in zip(problems, results))
        return results

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
