"""Monte Carlo harnesses for the channel and steering bounds.

Each harness samples independent trials keyed by (master_seed,
trial_index), checks one inequality per trial, and aggregates a
deterministic report: identical seed and configuration produce
byte-identical output regardless of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Literal

import numpy as np

from .errors import UsageError
from .linalg import kron
from .metrics import lqu, q_local, skew_information
from .optim import OptimizerOptions
from .rand import (
    commuting_kraus_channel,
    default_spectrum,
    ginibre_state,
    haar_unitaries,
    random_nondegenerate_observable,
    stream,
)
from .states import BipartiteState, DensityMatrix, Observable, apply_channel, require_unitary
from .steering import _steered_q, steering_induced_skew

DEFAULT_VIOLATION_TOL = 1e-7
MONOTONICITY_TOL = 1e-8

# Harness-internal optimizer budget. The verified inequalities hold for
# any optimizer quality (the maximized sides are under-estimated and the
# seeded minimizations start from feasible points), so a small budget
# only loosens margins, never fabricates violations.
HARNESS_OPTS = OptimizerOptions(restarts=2, tol=1e-7, max_iters=150)

Claim2Mode = Literal["argmin_K", "random_K"]

RECORD_FIELDS = (
    "trial_index",
    "seed_tuple",
    "dims",
    "claim_id",
    "lhs",
    "rhs",
    "margin",
    "violated",
    "wall_time_ms",
)


@dataclass
class TrialRecord:
    trial_index: int
    seed_tuple: tuple[int, int]
    dims: tuple[int, int]
    claim_id: str
    lhs: float
    rhs: float
    margin: float
    violated: bool
    wall_time_ms: float


@dataclass
class VerificationReport:
    claim_id: str
    trials: int
    violations: int
    failed: int
    min_margin: float
    config: dict[str, object]
    failures: list[tuple[int, str]] = field(default_factory=list)
    monotonicity_violations: int = 0


def worker_count() -> int:
    """Worker cap: UQ_THREADS when set, else the CPUs this process may run on."""
    env = os.environ.get("UQ_THREADS")
    if env is None:
        return len(os.sched_getaffinity(0))
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise UsageError(f"UQ_THREADS must be a positive integer, got {env!r}")
    return n


def _run_trial(job: tuple) -> tuple[TrialRecord, bool, str | None]:
    """Run one trial body on the (master_seed, trial_index) stream.

    The body maps ``(rng, params)`` to ``(lhs, rhs, monotonicity_ok)``; an
    exception it raises becomes a record with NaN sides and an error message.
    """
    claim_id, body, params, dims, tol, timing, master_seed, t = job
    start = perf_counter()
    error = None
    try:
        lhs, rhs, mono_ok = body(stream(master_seed, t), params)
    except Exception as exc:  # aborted trial becomes a diagnostic record
        lhs = rhs = math.nan
        mono_ok = True
        error = f"{type(exc).__name__}: {exc}"
    elapsed = (perf_counter() - start) * 1e3 if timing else 0.0
    margin = rhs - lhs
    record = TrialRecord(
        trial_index=t,
        seed_tuple=(master_seed, t),
        dims=dims,
        claim_id=claim_id,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        violated=margin < -tol,  # False for NaN
        wall_time_ms=elapsed,
    )
    return record, mono_ok, error


def _run_trials(
    claim_id: str,
    body: Callable,
    params: tuple,
    config: dict[str, object],
    trials: int,
    workers: int | None,
    timing: bool,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Run ``trials`` trials of a module-level body (picklable for the pool)
    and aggregate them into a report. Dimensions, seed and tolerance come
    from ``config``, which the report echoes."""
    dims = (config["n_a"], config["n_b"])
    tol, master_seed = config["violation_tol"], config["master_seed"]
    jobs = [(claim_id, body, params, dims, tol, timing, master_seed, t) for t in range(trials)]
    n_workers = worker_count() if workers is None else max(1, workers)
    if n_workers == 1 or len(jobs) < 2 * n_workers:
        results = [_run_trial(job) for job in jobs]
    else:
        chunk = max(1, len(jobs) // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_trial, jobs, chunksize=chunk))
    records = [r[0] for r in results]
    failures = [(r[0].trial_index, r[2]) for r in results if r[2] is not None]
    ok_margins = [r.margin for r in records if not math.isnan(r.margin)]
    report = VerificationReport(
        claim_id=claim_id,
        trials=len(records),
        violations=sum(r.violated for r in records),
        failed=len(failures),
        min_margin=min(ok_margins) if ok_margins else math.nan,
        config=config,
        failures=failures,
        monotonicity_violations=sum(1 for r in results if not r[1]),
    )
    return report, records


def _claim1_body(rng: np.random.Generator, params: tuple) -> tuple[float, float, bool]:
    n_a, n_b, kraus_count, opts = params
    rho_a = ginibre_state(n_a, rng=rng)
    tau_b = ginibre_state(n_b, rng=rng)
    k_a = random_nondegenerate_observable(n_a, rng=rng)
    channel = commuting_kraus_channel(k_a, n_b, kraus_count, rng)
    sigma = DensityMatrix(kron(rho_a.matrix, tau_b.matrix))
    evolved = apply_channel(channel, sigma)

    k_full = Observable(kron(k_a.matrix, np.eye(n_b)))
    mono_ok = skew_information(evolved, k_full) <= skew_information(sigma, k_full) + MONOTONICITY_TOL

    evolved_ab = BipartiteState(evolved, n_a, n_b)
    lhs = lqu(evolved_ab, k_a.spectrum, "A", opts=opts, seeds=(k_a,), rng=rng).value
    rhs = skew_information(rho_a, k_a)
    return lhs, rhs, mono_ok


def verify_claim1(
    n_a: int = 2,
    n_b: int = 2,
    trials: int = 1000,
    kraus_count: int = 2,
    tol: float = DEFAULT_VIOLATION_TOL,
    opts: OptimizerOptions | None = None,
    master_seed: int = 42,
    workers: int | None = None,
    collect_timing: bool = False,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Check the channel bound: local uncertainty created by a commuting-Kraus
    channel never exceeds the input system's skew information.

    Per trial, samples a product input, a random nondegenerate observable
    on A, and a random channel commuting with it; compares the local
    uncertainty of the output (exact on a qubit side A, else searched from
    the observable itself, a feasible point) against the input skew
    information. Also spot-checks the commuting-channel monotonicity of
    skew information per trial.
    """
    opts = opts or HARNESS_OPTS
    config = {
        "n_a": n_a,
        "n_b": n_b,
        "kraus_count": kraus_count,
        "violation_tol": tol,
        "master_seed": master_seed,
        "opt_restarts": opts.restarts,
        "opt_tol": opts.tol,
        "opt_max_iters": opts.max_iters,
    }
    params = (n_a, n_b, kraus_count, opts)
    return _run_trials("claim1", _claim1_body, params, config, trials, workers, collect_timing)


def _claim2_body(rng: np.random.Generator, params: tuple) -> tuple[float, float, bool]:
    n_a, n_b, mode, opts = params
    rho_ab = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
    if mode == "argmin_K":
        opt = lqu(rho_ab, default_spectrum(n_b), "B", opts=opts, rng=rng)
        k_b = opt.minimizer
        rhs = opt.value
    else:
        k_b = random_nondegenerate_observable(n_b, rng=rng)
        rhs = skew_information(rho_ab.state, Observable(kron(np.eye(n_a), k_b.matrix)))
    lhs = steering_induced_skew(rho_ab, k_b, opts=opts, rng=rng).value
    return lhs, rhs, True


def verify_claim2(
    n_a: int = 2,
    n_b: int = 2,
    trials: int = 500,
    tol: float = DEFAULT_VIOLATION_TOL,
    opts: OptimizerOptions | None = None,
    master_seed: int = 42,
    mode: Claim2Mode = "random_K",
    workers: int | None = None,
    collect_timing: bool = False,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Check the steering bound: steering-induced skew information never
    exceeds the joint state's local uncertainty on B.

    In ``argmin_K`` mode the observable is the optimized local-uncertainty
    minimizer and the bound is the optimized value; in ``random_K`` mode a
    random observable is drawn and the bound is its joint skew information.
    """
    opts = opts or HARNESS_OPTS
    config = {
        "n_a": n_a,
        "n_b": n_b,
        "mode": mode,
        "violation_tol": tol,
        "master_seed": master_seed,
        "opt_restarts": opts.restarts,
        "opt_tol": opts.tol,
        "opt_max_iters": opts.max_iters,
    }
    params = (n_a, n_b, mode, opts)
    return _run_trials("claim2", _claim2_body, params, config, trials, workers, collect_timing)


def _avg_body(rng: np.random.Generator, params: tuple) -> tuple[float, float, bool]:
    n_a, n_b, bases_per_trial = params
    rho_ab = BipartiteState(ginibre_state(n_a * n_b, rng=rng), n_a, n_b)
    rhs = q_local(rho_ab, "B")
    bases = require_unitary(haar_unitaries(n_a, bases_per_trial, rng), "orthonormal columns")
    lhs = float(np.max(_steered_q(rho_ab, bases)))
    return lhs, rhs, True


def verify_avg_bound(
    n_a: int = 2,
    n_b: int = 2,
    trials: int = 500,
    bases_per_trial: int = 20,
    tol: float = DEFAULT_VIOLATION_TOL,
    master_seed: int = 42,
    workers: int | None = None,
    collect_timing: bool = False,
) -> tuple[VerificationReport, list[TrialRecord]]:
    """Check the averaged bound: the basis-maximized steered total
    uncertainty of B never exceeds the joint state's local-observable
    information content on B. The maximum is taken over sampled bases."""
    config = {
        "n_a": n_a,
        "n_b": n_b,
        "bases_per_trial": bases_per_trial,
        "violation_tol": tol,
        "master_seed": master_seed,
    }
    params = (n_a, n_b, bases_per_trial)
    return _run_trials("avg", _avg_body, params, config, trials, workers, collect_timing)


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_float_json(x: float) -> str:
    return "null" if math.isnan(x) else _fmt_float(x)


def _record_jsonl(r: TrialRecord) -> str:
    return (
        '{"trial_index": %d, "seed_tuple": [%d, %d], "dims": [%d, %d], '
        '"claim_id": "%s", "lhs": %s, "rhs": %s, "margin": %s, '
        '"violated": %s, "wall_time_ms": %s}'
        % (
            r.trial_index,
            r.seed_tuple[0],
            r.seed_tuple[1],
            r.dims[0],
            r.dims[1],
            r.claim_id,
            _fmt_float_json(r.lhs),
            _fmt_float_json(r.rhs),
            _fmt_float_json(r.margin),
            "true" if r.violated else "false",
            _fmt_float_json(r.wall_time_ms),
        )
    )


def _record_csv(r: TrialRecord) -> str:
    return ",".join(
        (
            str(r.trial_index),
            f"{r.seed_tuple[0]}:{r.seed_tuple[1]}",
            f"{r.dims[0]}:{r.dims[1]}",
            r.claim_id,
            _fmt_float(r.lhs),
            _fmt_float(r.rhs),
            _fmt_float(r.margin),
            "true" if r.violated else "false",
            _fmt_float(r.wall_time_ms),
        )
    )


def summary_text(report: VerificationReport) -> str:
    """Flat key=value rendering of a report."""
    lines = [
        f"claim_id={report.claim_id}",
        f"trials={report.trials}",
        f"violations={report.violations}",
        f"failed={report.failed}",
        f"min_margin={_fmt_float(report.min_margin)}",
        f"monotonicity_violations={report.monotonicity_violations}",
    ]
    for key, value in report.config.items():
        lines.append(f"config.{key}={value!r}" if isinstance(value, float) else f"config.{key}={value}")
    lines.append("failures=" + ";".join(f"{i}:{msg}" for i, msg in report.failures))
    return "\n".join(lines) + "\n"


def write_report(
    report: VerificationReport,
    records: list[TrialRecord],
    path: str,
    fmt: Literal["json-lines", "csv"] = "json-lines",
) -> None:
    """Write per-trial records to ``path`` and a key=value summary to
    ``path + '.summary'``. Floats carry 17 significant digits, so records
    round-trip exactly through :func:`read_records`."""
    if fmt == "csv":
        body = ",".join(RECORD_FIELDS) + "\n"
        body += "".join(_record_csv(r) + "\n" for r in records)
    elif fmt == "json-lines":
        body = "".join(_record_jsonl(r) + "\n" for r in records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)
    with open(path + ".summary", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_text(report))


def read_records(path: str, fmt: Literal["json-lines", "csv"] = "json-lines") -> list[TrialRecord]:
    """Parse a records file written by :func:`write_report`."""
    import json

    records = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if fmt == "csv":
        for line in lines[1:]:
            cells = line.split(",")
            seed = tuple(int(v) for v in cells[1].split(":"))
            dims = tuple(int(v) for v in cells[2].split(":"))
            records.append(
                TrialRecord(
                    trial_index=int(cells[0]),
                    seed_tuple=seed,
                    dims=dims,
                    claim_id=cells[3],
                    lhs=float(cells[4]),
                    rhs=float(cells[5]),
                    margin=float(cells[6]),
                    violated=cells[7] == "true",
                    wall_time_ms=float(cells[8]),
                )
            )
    elif fmt == "json-lines":
        for line in lines:
            obj = json.loads(line)
            records.append(
                TrialRecord(
                    trial_index=obj["trial_index"],
                    seed_tuple=tuple(obj["seed_tuple"]),
                    dims=tuple(obj["dims"]),
                    claim_id=obj["claim_id"],
                    lhs=math.nan if obj["lhs"] is None else obj["lhs"],
                    rhs=math.nan if obj["rhs"] is None else obj["rhs"],
                    margin=math.nan if obj["margin"] is None else obj["margin"],
                    violated=obj["violated"],
                    wall_time_ms=math.nan if obj["wall_time_ms"] is None else obj["wall_time_ms"],
                )
            )
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return records
